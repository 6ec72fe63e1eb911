// Deterministic failpoint injection.
//
// Hot paths declare named sites:
//
//   FAULT_POINT("colstore.decode_chunk");            // may throw / delay
//   FAULT_POINT_MUTATE("tracefile.record", p, n);    // may also flip a bit
//
// Sites are inert until armed — via the IVT_FAULTS env var (read by the
// CLI), or programmatically (tests). A recipe is a comma-separated list
// of site specs:
//
//   IVT_FAULTS=colstore.decode_chunk:error:0.01:seed=7
//   IVT_FAULTS=tracefile.record:corrupt:0.05,signaldb.load:error
//
//     <site>:<action>[:<probability>][:<key>=<value>...]
//       action       error | corrupt | delay
//       probability  trigger chance per evaluation (default 1.0)
//       seed=N       RNG seed (default 0)
//       every=N      trigger every Nth evaluation instead of randomly
//       cat=C        error category:
//                    io|format|decode|spec|resource|overloaded|internal
//                    (default decode; `resource`/`overloaded` make the
//                    fault transient and therefore retryable)
//       delay_us=N   sleep duration for the delay action (default 1000)
//
// Determinism: each site keeps an evaluation counter; the trigger decision
// hashes (seed, counter), so the *number* of triggers for n evaluations is
// a pure function of (recipe, n) — independent of thread scheduling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "errors/error.hpp"
#include "errors/result.hpp"

namespace ivt::faultfx {

enum class Action {
  Error,    ///< throw errors::Error(cat) at the site
  Corrupt,  ///< flip one deterministic bit (FAULT_POINT_MUTATE sites only)
  Delay,    ///< sleep delay_us at the site (models stalls)
};

struct FaultSpec {
  std::string site;
  Action action = Action::Error;
  double probability = 1.0;
  std::uint64_t seed = 0;
  std::uint64_t every = 0;  ///< nonzero: fire on every Nth evaluation
  errors::Category category = errors::Category::Decode;
  std::uint64_t delay_us = 1000;
};

/// Parses a full recipe ("a:error:0.1,b:corrupt"). Returns a typed Error
/// (Category::Spec) on bad syntax.
[[nodiscard]] errors::Result<std::vector<FaultSpec>> parse_recipe(
    const std::string& recipe);

/// Arm one site (replaces any existing spec for the same site).
void arm(const FaultSpec& spec);

/// Parse + arm a recipe; throws errors::Error(Category::Spec) on syntax
/// errors. Returns the number of sites armed.
std::size_t arm(const std::string& recipe);

/// Arm from $IVT_FAULTS; returns 0 when unset or empty.
/// Throws on a malformed value (a typo'd recipe must not silently run
/// without faults).
std::size_t arm_from_env();

/// Return every site to the inert state (counters are kept).
void disarm_all();

/// True when at least one site is armed (one relaxed atomic load, so the
/// disarmed fast path costs ~1 ns per FAULT_POINT).
[[nodiscard]] bool any_armed();

/// Lifetime trigger / evaluation counts for a site (0 for unknown sites).
[[nodiscard]] std::uint64_t triggered(const std::string& site);
[[nodiscard]] std::uint64_t evaluations(const std::string& site);

namespace detail {

struct Site;  // opaque; defined in faultfx.cpp

/// Site registry lookup (name must be a string literal; call sites cache
/// the result in a function-local static, like the obs macros).
Site& site(const char* name);

/// Evaluate the site: count, and maybe throw or delay. `data`/`size`
/// describe a caller-owned mutable buffer the `corrupt` action may flip
/// one bit of; FAULT_POINT passes none, so `corrupt` is inert there.
void evaluate(Site& site, const char* name, void* data = nullptr,
              std::size_t size = 0);

}  // namespace detail

}  // namespace ivt::faultfx

/// Named failpoint: may throw errors::Error or delay when armed.
#define FAULT_POINT(name)                                              \
  do {                                                                 \
    if (::ivt::faultfx::any_armed()) {                                 \
      static ::ivt::faultfx::detail::Site& faultfx_site_ =             \
          ::ivt::faultfx::detail::site(name);                          \
      ::ivt::faultfx::detail::evaluate(faultfx_site_, name);           \
    }                                                                  \
  } while (0)

/// Byte-buffer failpoint: like FAULT_POINT, and a triggered `corrupt`
/// action flips one deterministic bit of the caller-owned buffer.
#define FAULT_POINT_MUTATE(name, data_ptr, size)                       \
  do {                                                                 \
    if (::ivt::faultfx::any_armed()) {                                 \
      static ::ivt::faultfx::detail::Site& faultfx_site_ =             \
          ::ivt::faultfx::detail::site(name);                          \
      ::ivt::faultfx::detail::evaluate(faultfx_site_, name,            \
                                       (data_ptr), (size));            \
    }                                                                  \
  } while (0)
