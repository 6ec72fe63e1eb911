// Failpoint injection unit tests: recipe parsing, arming/disarming,
// deterministic trigger counts, every=N cadence, corrupt-action bit
// flips and injected error categories.
#include "faultfx/faultfx.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "errors/error.hpp"

namespace ivt::faultfx {
namespace {

/// Every test leaves the global registry disarmed (the registry is
/// process-wide, so leaks would bleed into unrelated tests).
class FaultfxTest : public ::testing::Test {
 protected:
  void TearDown() override { disarm_all(); }
};

TEST_F(FaultfxTest, ParseMinimalSpec) {
  const auto specs = parse_recipe("colstore.decode_chunk:error").value();
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].site, "colstore.decode_chunk");
  EXPECT_EQ(specs[0].action, Action::Error);
  EXPECT_EQ(specs[0].probability, 1.0);
  EXPECT_EQ(specs[0].seed, 0u);
  EXPECT_EQ(specs[0].every, 0u);
  EXPECT_EQ(specs[0].category, errors::Category::Decode);
}

TEST_F(FaultfxTest, ParseFullRecipe) {
  const auto specs =
      parse_recipe(
          "a:error:0.01:seed=7:cat=resource,b:corrupt:0.5,c:delay:delay_us=50")
          .value();
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].probability, 0.01);
  EXPECT_EQ(specs[0].seed, 7u);
  EXPECT_EQ(specs[0].category, errors::Category::Resource);
  EXPECT_EQ(specs[1].action, Action::Corrupt);
  EXPECT_EQ(specs[1].probability, 0.5);
  EXPECT_EQ(specs[2].action, Action::Delay);
  EXPECT_EQ(specs[2].delay_us, 50u);
}

TEST_F(FaultfxTest, ParseEveryN) {
  const auto specs = parse_recipe("a:error:every=3").value();
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].every, 3u);
}

TEST_F(FaultfxTest, ParseErrorsAreTypedSpecErrors) {
  const char* bad_recipes[] = {
      "noaction",          // missing action
      "a:explode",         // unknown action
      "a:error:2.0",       // probability out of range
      "a:error:bogus=1",   // unknown key
      "a:error:seed=xyz",  // bad integer
      "a:error:cat=nope",  // unknown category
      ":error",            // empty site
  };
  for (const char* recipe : bad_recipes) {
    const auto result = parse_recipe(recipe);
    ASSERT_FALSE(result.ok()) << recipe;
    EXPECT_EQ(result.error().category(), errors::Category::Spec) << recipe;
  }
  // arm() throws instead of silently running without faults.
  EXPECT_THROW(arm("a:explode"), errors::Error);
}

TEST_F(FaultfxTest, ArmTriggerDisarm) {
  EXPECT_FALSE(any_armed());
  EXPECT_EQ(arm("faultfx.test.always:error"), 1u);
  EXPECT_TRUE(any_armed());
  try {
    FAULT_POINT("faultfx.test.always");
    FAIL() << "armed always-on site did not throw";
  } catch (const errors::Error& e) {
    EXPECT_EQ(e.category(), errors::Category::Decode);
    EXPECT_NE(std::string(e.message()).find("faultfx.test.always"),
              std::string::npos);
  }
  EXPECT_EQ(triggered("faultfx.test.always"), 1u);
  EXPECT_EQ(evaluations("faultfx.test.always"), 1u);

  disarm_all();
  EXPECT_FALSE(any_armed());
  FAULT_POINT("faultfx.test.always");  // inert again
  EXPECT_EQ(triggered("faultfx.test.always"), 1u);
}

TEST_F(FaultfxTest, InjectedCategoryIsConfigurable) {
  arm("faultfx.test.cat:error:cat=resource");
  try {
    FAULT_POINT("faultfx.test.cat");
    FAIL() << "did not throw";
  } catch (const errors::Error& e) {
    EXPECT_EQ(e.category(), errors::Category::Resource);
    EXPECT_TRUE(errors::is_transient(e.category()));
  }
}

TEST_F(FaultfxTest, EveryNTriggersExactly) {
  arm("faultfx.test.every:error:every=3");
  std::size_t thrown = 0;
  for (int i = 0; i < 9; ++i) {
    try {
      FAULT_POINT("faultfx.test.every");
    } catch (const errors::Error&) {
      ++thrown;
    }
  }
  EXPECT_EQ(thrown, 3u);  // evaluations 3, 6, 9
  EXPECT_EQ(triggered("faultfx.test.every"), 3u);
  EXPECT_EQ(evaluations("faultfx.test.every"), 9u);
}

TEST_F(FaultfxTest, ProbabilisticTriggerCountIsDeterministic) {
  // The trigger decision is a pure function of (seed, evaluation index),
  // so two identical runs produce identical trigger counts.
  const auto run_once = [](const char* site_name, const std::string& recipe) {
    arm(recipe);
    std::size_t thrown = 0;
    for (int i = 0; i < 1000; ++i) {
      try {
        detail::evaluate(detail::site(site_name), site_name);
      } catch (const errors::Error&) {
        ++thrown;
      }
    }
    disarm_all();
    return thrown;
  };
  const std::size_t a =
      run_once("faultfx.test.p1", "faultfx.test.p1:error:0.1:seed=42");
  const std::size_t b =
      run_once("faultfx.test.p2", "faultfx.test.p2:error:0.1:seed=42");
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 50u);   // ~100 expected out of 1000
  EXPECT_LT(a, 200u);
}

TEST_F(FaultfxTest, CorruptFlipsExactlyOneBit) {
  arm("faultfx.test.corrupt:corrupt:seed=9");
  std::vector<std::uint8_t> buf(32, 0x00);
  FAULT_POINT_MUTATE("faultfx.test.corrupt", buf.data(), buf.size());
  std::size_t bits_set = 0;
  for (const std::uint8_t byte : buf) {
    for (int b = 0; b < 8; ++b) bits_set += (byte >> b) & 1;
  }
  EXPECT_EQ(bits_set, 1u);
  EXPECT_EQ(triggered("faultfx.test.corrupt"), 1u);
}

TEST_F(FaultfxTest, CorruptIsInertWithoutBuffer) {
  arm("faultfx.test.nobuf:corrupt");
  // FAULT_POINT passes no buffer; the corrupt action must not crash.
  FAULT_POINT("faultfx.test.nobuf");
  EXPECT_EQ(triggered("faultfx.test.nobuf"), 1u);
}

TEST_F(FaultfxTest, ZeroProbabilityNeverTriggers) {
  arm("faultfx.test.zero:error:0.0");
  for (int i = 0; i < 100; ++i) FAULT_POINT("faultfx.test.zero");
  EXPECT_EQ(triggered("faultfx.test.zero"), 0u);
  EXPECT_EQ(evaluations("faultfx.test.zero"), 100u);
}

}  // namespace
}  // namespace ivt::faultfx
