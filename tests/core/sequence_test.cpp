#include "core/sequence.hpp"

#include <gtest/gtest.h>

namespace ivt::core {
namespace {

TEST(SequenceTest, DurationSeconds) {
  SequenceData d;
  EXPECT_DOUBLE_EQ(d.duration_s(), 0.0);
  d.t = {0};
  EXPECT_DOUBLE_EQ(d.duration_s(), 0.0);
  d.t = {0, 2'000'000'000};
  EXPECT_DOUBLE_EQ(d.duration_s(), 2.0);
}

}  // namespace
}  // namespace ivt::core
