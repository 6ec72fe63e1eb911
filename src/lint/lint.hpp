// ivt-lint: a standalone invariant checker for repo-specific contracts
// that the compiler cannot enforce.
//
// The rules codify conventions this codebase relies on for correctness:
//
//   bare-throw       Errors crossing a subsystem boundary must carry the
//                    src/errors taxonomy (category, severity, site), so
//                    raw `throw std::...` is banned outside the leaf math
//                    library (src/algo/, exempted in the config) — use
//                    IVT_THROW instead.
//   fault-site       Every FAULT_POINT / FAULT_POINT_MUTATE site must be
//                    declared exactly once in src/faultfx/fault_sites.registry
//                    and its name must match the IVT_FAULTS recipe grammar
//                    `seg(.seg)+` with seg = [a-z0-9_]+, so recipes can
//                    never silently name a site that does not exist.
//   mutex-guard      A class that owns a mutex must state which fields it
//                    protects: a std::mutex / support::Mutex member with
//                    no IVT_GUARDED_BY(that_mutex) field in the same
//                    class is a finding. Raw std::mutex members outside
//                    src/support/ are also findings — use the annotated
//                    support::Mutex so clang -Wthread-safety can check
//                    the contract.
//   include-hygiene  No parent-relative includes (#include "../...") —
//                    all project includes are rooted at src/. A .cpp that
//                    includes its own header must include it first, so
//                    every header is verified self-contained.
//   metric-name      Metric and event names (the string-literal first
//                    argument of OBS_COUNT / OBS_GAUGE_* / OBS_HIST_MS,
//                    the third argument of OBS_EVENT /
//                    EventRecord) must be lowercase dotted identifiers
//                    `seg(.seg)+` under a registered subsystem prefix, so
//                    dashboards and the Prometheus exposition never see a
//                    typo'd or orphaned namespace. serve/pipeline/pool/
//                    io/process are built in; others are declared with
//                    `metric-prefix` in the config.
//
// Since PR 10 the rules run over a real token stream (lint/tokenizer.hpp)
// instead of regexes on stripped text, so adjacent string-literal
// concatenation ("serve." "accept") can no longer evade the registry
// checks. The checker is still deliberately not a clang tool: it needs no
// compile_commands, runs in milliseconds, and the invariants above are
// all lexically decidable. Rules operate on (path, content) pairs so
// tests can feed fixture strings without touching the filesystem. The
// whole-program rules (module layering, lock-order, error-taxonomy
// exhaustiveness) live in lint/analyze.hpp.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace ivt::lint {

/// One rule violation at a source location.
struct Finding {
  std::string rule;     ///< rule id, e.g. "bare-throw"
  std::string file;     ///< path as given to the scanner
  std::size_t line = 0; ///< 1-based; 0 when the finding is file-level
  std::string message;
};

/// Parsed tools/ivt-lint.conf.
///
/// Line grammar (one directive per line, '#' starts a comment):
///   exempt <rule> <path-prefix>   suppress <rule> findings under prefix
///   registry <path>               fault-site registry location
///   metric-prefix <subsystem>     extra metric-name prefix (a trailing
///                                 '.' is accepted and stripped)
///   error-table <function>        error-taxonomy anchor: every used
///                                 errors::Category must appear in the
///                                 body of each such function
///   macro-call <MACRO> <func>     the analyzer treats an occurrence of
///                                 MACRO as a call to <func> (macros are
///                                 not expanded; this declares the edge)
struct Config {
  struct Exemption {
    std::string rule;
    std::string path_prefix;
  };
  std::vector<Exemption> exemptions;
  std::string registry_path;
  std::vector<std::string> metric_prefixes;
  std::vector<std::string> error_tables;
  std::map<std::string, std::vector<std::string>> macro_calls;
};

/// Parses a config file's content. Malformed directives are reported in
/// `errors` (one message per bad line); the rest of the file still parses.
Config parse_config(const std::string& content,
                    std::vector<std::string>* errors = nullptr);

/// True when `file` is exempt from `rule` under `config` (prefix match).
bool is_exempt(const Config& config, const std::string& rule,
               const std::string& file);

// ---- individual rules (pure: path + content in, findings out) ----------

std::vector<Finding> check_bare_throw(const std::string& path,
                                      const std::string& content);

std::vector<Finding> check_mutex_guard(const std::string& path,
                                       const std::string& content);

std::vector<Finding> check_include_hygiene(const std::string& path,
                                           const std::string& content);

/// Metric-name rule: `extra_prefixes` are the config's metric-prefix
/// declarations, added to the built-in set.
std::vector<Finding> check_metric_names(
    const std::string& path, const std::string& content,
    const std::vector<std::string>& extra_prefixes);

/// Fault-site rule needs the whole file set at once (exactly-once check):
/// every site used in code must appear in the registry, every registry
/// entry must be used by exactly one code site, and all names must match
/// the IVT_FAULTS grammar.
struct FileContent {
  std::string path;
  std::string content;
};
std::vector<Finding> check_fault_sites(const std::vector<FileContent>& files,
                                       const std::string& registry_path,
                                       const std::string& registry_content);

/// True when `name` matches the recipe-site grammar seg(.seg)+ with
/// seg = [a-z0-9_]+.
bool is_valid_site_name(const std::string& name);

// ---- whole-run driver ---------------------------------------------------

struct Report {
  std::vector<Finding> findings;           ///< after exemptions
  std::size_t exempted = 0;                ///< findings suppressed by config
  std::map<std::string, std::size_t> by_rule;  ///< counts of `findings`
};

/// Runs every rule over the file set, applying config exemptions.
Report run_rules(const std::vector<FileContent>& files, const Config& config,
                 const std::string& registry_content);

/// Renders the machine-readable summary consumed by the bench robustness
/// counters: {"findings": N, "exempted": M, "by_rule": {...}}.
std::string report_to_json(const Report& report);

// The CLI entry point (analyze_main) lives in lint/analyze.hpp: the
// binary is ivt-analyze, which runs these per-file rules plus the
// whole-program passes.

// ---- helpers exposed for tests ------------------------------------------

/// Replaces comments and string/char literals with spaces (newlines kept),
/// so scanners never match inside them.
std::string strip_comments_and_strings(const std::string& content);

}  // namespace ivt::lint
