#include "faultfx/faultfx.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <unordered_map>

#include "obs/obs.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace ivt::faultfx {

namespace detail {

/// One registered failpoint. The armed spec is swapped atomically;
/// superseded specs are retired (kept alive until process exit) so a
/// concurrent evaluation never dereferences a freed spec.
struct Site {
  std::atomic<const FaultSpec*> spec{nullptr};
  std::atomic<std::uint64_t> evaluations{0};
  std::atomic<std::uint64_t> triggered{0};
};

}  // namespace detail

namespace {

/// Count of armed sites; any_armed() gates the hot path on it.
std::atomic<std::size_t> g_armed_sites{0};

struct SiteRegistry {
  support::Mutex mutex{support::LockRank::k_faultfx_SiteRegistry_mutex};
  std::unordered_map<std::string, std::unique_ptr<detail::Site>> sites
      IVT_GUARDED_BY(mutex);
  std::vector<std::unique_ptr<FaultSpec>> retired_specs
      IVT_GUARDED_BY(mutex);

  static SiteRegistry& instance() {
    static SiteRegistry* registry = new SiteRegistry();  // never destroyed
    return *registry;
  }

  detail::Site& site(const std::string& name) {
    const support::MutexLock lock(mutex);
    std::unique_ptr<detail::Site>& slot = sites[name];
    if (!slot) slot = std::make_unique<detail::Site>();
    return *slot;
  }

  detail::Site* find(const std::string& name) {
    const support::MutexLock lock(mutex);
    const auto it = sites.find(name);
    return it == sites.end() ? nullptr : it->second.get();
  }
};

/// splitmix64: the trigger decision for evaluation n of a site is
/// hash(seed, n) — deterministic, scheduling-independent.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

bool should_trigger(const FaultSpec& spec, std::uint64_t evaluation) {
  if (spec.every != 0) return (evaluation + 1) % spec.every == 0;
  if (spec.probability >= 1.0) return true;
  if (spec.probability <= 0.0) return false;
  const std::uint64_t h = splitmix64(spec.seed * 0x2545F4914F6CDD1DULL +
                                     evaluation);
  const double uniform =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // [0,1)
  return uniform < spec.probability;
}

void count_trigger_metrics(const char* name) {
  obs::Registry::instance().counter("faultfx.triggered").add(1);
  obs::Registry::instance()
      .counter(std::string("faultfx.triggered.") + name)
      .add(1);
}

errors::Result<FaultSpec> parse_one(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t colon = text.find(':', start);
    parts.push_back(text.substr(
        start, colon == std::string::npos ? std::string::npos
                                          : colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  const auto fail = [&text](const std::string& why) {
    return errors::Error(errors::Category::Spec,
                         "bad fault spec '" + text + "': " + why);
  };
  if (parts.size() < 2 || parts[0].empty()) {
    return fail("expected <site>:<action>[:<probability>][:<key>=<value>]");
  }
  FaultSpec spec;
  spec.site = parts[0];
  if (parts[1] == "error") {
    spec.action = Action::Error;
  } else if (parts[1] == "corrupt") {
    spec.action = Action::Corrupt;
  } else if (parts[1] == "delay") {
    spec.action = Action::Delay;
  } else {
    return fail("unknown action '" + parts[1] + "'");
  }
  std::size_t next = 2;
  if (next < parts.size() && parts[next].find('=') == std::string::npos) {
    char* end = nullptr;
    spec.probability = std::strtod(parts[next].c_str(), &end);
    if (end == parts[next].c_str() || *end != '\0' ||
        spec.probability < 0.0 || spec.probability > 1.0) {
      return fail("bad probability '" + parts[next] + "'");
    }
    ++next;
  }
  for (; next < parts.size(); ++next) {
    const std::size_t eq = parts[next].find('=');
    if (eq == std::string::npos) {
      return fail("expected key=value, got '" + parts[next] + "'");
    }
    const std::string key = parts[next].substr(0, eq);
    const std::string value = parts[next].substr(eq + 1);
    char* end = nullptr;
    if (key == "seed") {
      spec.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "every") {
      spec.every = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "delay_us") {
      spec.delay_us = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "cat") {
      if (value == "io") {
        spec.category = errors::Category::Io;
      } else if (value == "format") {
        spec.category = errors::Category::Format;
      } else if (value == "decode") {
        spec.category = errors::Category::Decode;
      } else if (value == "spec") {
        spec.category = errors::Category::Spec;
      } else if (value == "resource") {
        spec.category = errors::Category::Resource;
      } else if (value == "overloaded") {
        spec.category = errors::Category::Overloaded;
      } else if (value == "timeout") {
        spec.category = errors::Category::Timeout;
      } else if (value == "internal") {
        spec.category = errors::Category::Internal;
      } else {
        return fail("unknown category '" + value + "'");
      }
      continue;
    } else {
      return fail("unknown key '" + key + "'");
    }
    if (end == value.c_str() || *end != '\0') {
      return fail("bad integer '" + value + "' for " + key);
    }
  }
  return spec;
}

}  // namespace

errors::Result<std::vector<FaultSpec>> parse_recipe(
    const std::string& recipe) {
  std::vector<FaultSpec> specs;
  std::size_t start = 0;
  while (start <= recipe.size()) {
    const std::size_t comma = recipe.find(',', start);
    const std::string part = recipe.substr(
        start,
        comma == std::string::npos ? std::string::npos : comma - start);
    if (!part.empty()) {
      errors::Result<FaultSpec> one = parse_one(part);
      if (!one.ok()) return one.error();
      specs.push_back(std::move(one).value());
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return specs;
}

void arm(const FaultSpec& spec) {
  SiteRegistry& registry = SiteRegistry::instance();
  detail::Site& site = registry.site(spec.site);
  auto owned = std::make_unique<FaultSpec>(spec);
  const FaultSpec* raw = owned.get();
  {
    const support::MutexLock lock(registry.mutex);
    registry.retired_specs.push_back(std::move(owned));
  }
  if (site.spec.exchange(raw, std::memory_order_acq_rel) == nullptr) {
    g_armed_sites.fetch_add(1, std::memory_order_release);
  }
}

std::size_t arm(const std::string& recipe) {
  errors::Result<std::vector<FaultSpec>> specs = parse_recipe(recipe);
  std::vector<FaultSpec> parsed = std::move(specs).value();  // throws on error
  for (const FaultSpec& spec : parsed) arm(spec);
  return parsed.size();
}

std::size_t arm_from_env() {
  const char* env = std::getenv("IVT_FAULTS");
  if (env == nullptr || *env == '\0') return 0;
  return arm(env);
}

void disarm_all() {
  SiteRegistry& registry = SiteRegistry::instance();
  const support::MutexLock lock(registry.mutex);
  for (auto& [name, site] : registry.sites) {
    if (site->spec.exchange(nullptr, std::memory_order_acq_rel) != nullptr) {
      g_armed_sites.fetch_sub(1, std::memory_order_release);
    }
  }
}

bool any_armed() {
  return g_armed_sites.load(std::memory_order_acquire) != 0;
}

std::uint64_t triggered(const std::string& site) {
  detail::Site* s = SiteRegistry::instance().find(site);
  return s == nullptr ? 0 : s->triggered.load(std::memory_order_relaxed);
}

std::uint64_t evaluations(const std::string& site) {
  detail::Site* s = SiteRegistry::instance().find(site);
  return s == nullptr ? 0 : s->evaluations.load(std::memory_order_relaxed);
}

namespace detail {

Site& site(const char* name) { return SiteRegistry::instance().site(name); }

void evaluate(Site& site, const char* name, void* data, std::size_t size) {
  const FaultSpec* spec = site.spec.load(std::memory_order_acquire);
  if (spec == nullptr) return;
  const std::uint64_t n =
      site.evaluations.fetch_add(1, std::memory_order_relaxed);
  if (!should_trigger(*spec, n)) return;
  site.triggered.fetch_add(1, std::memory_order_relaxed);
  count_trigger_metrics(name);
  switch (spec->action) {
    case Action::Error:
      IVT_THROW(spec->category, std::string("injected fault at '") + name +
                                    "' (evaluation " + std::to_string(n) +
                                    ")");
    case Action::Delay:
      std::this_thread::sleep_for(std::chrono::microseconds(spec->delay_us));
      return;
    case Action::Corrupt:
      if (data != nullptr && size > 0) {
        const std::uint64_t bit =
            splitmix64(spec->seed ^ (n * 0xA24BAED4963EE407ULL)) %
            (static_cast<std::uint64_t>(size) * 8);
        static_cast<std::uint8_t*>(data)[bit / 8] ^=
            static_cast<std::uint8_t>(1U << (bit % 8));
      }
      return;
  }
}

}  // namespace detail

}  // namespace ivt::faultfx
