#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "lint/tokenizer.hpp"

namespace ivt::lint {

namespace {

/// One pass over the source replacing comments (and optionally string /
/// char literals) with spaces. Newlines survive so byte offsets keep
/// mapping to the original line numbers.
std::string strip_source(const std::string& s, bool strip_strings) {
  std::string out = s;
  enum class State { Code, Line, Block, Str, Chr, Raw };
  State state = State::Code;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char next = i + 1 < s.size() ? s[i + 1] : '\0';
    switch (state) {
      case State::Code:
        if (c == '/' && next == '/') {
          state = State::Line;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::Block;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (std::isalnum(static_cast<unsigned char>(
                                   s[i - 1])) == 0 &&
                               s[i - 1] != '_'))) {
          state = State::Raw;
          raw_delim.clear();
          std::size_t j = i + 2;
          while (j < s.size() && s[j] != '(') raw_delim += s[j++];
          if (strip_strings) {
            for (std::size_t k = i; k <= j && k < s.size(); ++k) {
              if (out[k] != '\n') out[k] = ' ';
            }
          }
          i = j;
        } else if (c == '"') {
          state = State::Str;
          if (strip_strings) out[i] = ' ';
        } else if (c == '\'') {
          state = State::Chr;
          if (strip_strings) out[i] = ' ';
        }
        break;
      case State::Line:
        if (c == '\n') {
          state = State::Code;
        } else {
          out[i] = ' ';
        }
        break;
      case State::Block:
        if (c == '*' && next == '/') {
          state = State::Code;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::Str:
        if (c == '\\') {
          if (strip_strings) {
            out[i] = ' ';
            if (next != '\n') out[i + 1] = ' ';
          }
          ++i;
        } else if (c == '"') {
          state = State::Code;
          if (strip_strings) out[i] = ' ';
        } else if (c != '\n' && strip_strings) {
          out[i] = ' ';
        }
        break;
      case State::Chr:
        if (c == '\\') {
          if (strip_strings) {
            out[i] = ' ';
            if (next != '\n') out[i + 1] = ' ';
          }
          ++i;
        } else if (c == '\'') {
          state = State::Code;
          if (strip_strings) out[i] = ' ';
        } else if (c != '\n' && strip_strings) {
          out[i] = ' ';
        }
        break;
      case State::Raw: {
        // close is )delim"
        const std::string close = ")" + raw_delim + "\"";
        if (s.compare(i, close.size(), close) == 0) {
          if (strip_strings) {
            for (std::size_t k = i; k < i + close.size(); ++k) out[k] = ' ';
          }
          i += close.size() - 1;
          state = State::Code;
        } else if (c != '\n' && strip_strings) {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string stem_of(const std::string& path) {
  std::string base = basename_of(path);
  const std::size_t dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Token indices where each top-level argument of the call whose '(' is
/// at `open` starts. Empty for `()`.
std::vector<std::size_t> call_arg_starts(const std::vector<Token>& tokens,
                                         std::size_t open) {
  std::vector<std::size_t> starts;
  const std::size_t close = match_paren(tokens, open);
  if (close <= open + 1) return starts;
  starts.push_back(open + 1);
  int depth = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    if (is_punct(tokens[i], "(") || is_punct(tokens[i], "[") ||
        is_punct(tokens[i], "{")) {
      ++depth;
    } else if (is_punct(tokens[i], ")") || is_punct(tokens[i], "]") ||
               is_punct(tokens[i], "}")) {
      --depth;
    } else if (depth == 0 && is_punct(tokens[i], ",") && i + 1 < close) {
      starts.push_back(i + 1);
    }
  }
  return starts;
}

}  // namespace

std::string strip_comments_and_strings(const std::string& content) {
  return strip_source(content, /*strip_strings=*/true);
}

Config parse_config(const std::string& content,
                    std::vector<std::string>* errors) {
  Config config;
  std::istringstream in(content);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string directive;
    if (!(fields >> directive)) continue;  // blank / comment-only
    if (directive == "exempt") {
      Config::Exemption e;
      if (fields >> e.rule >> e.path_prefix) {
        config.exemptions.push_back(std::move(e));
      } else if (errors != nullptr) {
        errors->push_back("line " + std::to_string(lineno) +
                          ": exempt needs <rule> <path-prefix>");
      }
    } else if (directive == "registry") {
      if (!(fields >> config.registry_path) && errors != nullptr) {
        errors->push_back("line " + std::to_string(lineno) +
                          ": registry needs <path>");
      }
    } else if (directive == "metric-prefix") {
      std::string prefix;
      if (fields >> prefix) {
        if (!prefix.empty() && prefix.back() == '.') prefix.pop_back();
        config.metric_prefixes.push_back(std::move(prefix));
      } else if (errors != nullptr) {
        errors->push_back("line " + std::to_string(lineno) +
                          ": metric-prefix needs <subsystem>");
      }
    } else if (directive == "error-table") {
      std::string function;
      if (fields >> function) {
        config.error_tables.push_back(std::move(function));
      } else if (errors != nullptr) {
        errors->push_back("line " + std::to_string(lineno) +
                          ": error-table needs <function>");
      }
    } else if (directive == "macro-call") {
      std::string macro;
      std::string function;
      if (fields >> macro >> function) {
        config.macro_calls[macro].push_back(std::move(function));
      } else if (errors != nullptr) {
        errors->push_back("line " + std::to_string(lineno) +
                          ": macro-call needs <MACRO> <function>");
      }
    } else if (errors != nullptr) {
      errors->push_back("line " + std::to_string(lineno) +
                        ": unknown directive '" + directive + "'");
    }
  }
  return config;
}

bool is_exempt(const Config& config, const std::string& rule,
               const std::string& file) {
  for (const Config::Exemption& e : config.exemptions) {
    if (e.rule == rule && file.compare(0, e.path_prefix.size(),
                                       e.path_prefix) == 0) {
      return true;
    }
  }
  return false;
}

std::vector<Finding> check_bare_throw(const std::string& path,
                                      const std::string& content) {
  std::vector<Finding> findings;
  const std::vector<Token> tokens = tokenize(content);
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (is_ident(tokens[i], "throw") && is_ident(tokens[i + 1], "std") &&
        i + 3 < tokens.size() && is_punct(tokens[i + 2], "::") &&
        tokens[i + 3].kind == Token::Kind::Ident) {
      findings.push_back(
          {"bare-throw", path, tokens[i].line,
           "bare `throw std::" + tokens[i + 3].text +
               "` — use IVT_THROW with an errors::Category so the failure "
               "carries site and severity"});
    }
    // Bare assert() aborts with no taxonomy, no site, no message; use
    // IVT_THROW(Internal, ...) or IVT_THROW_FATAL so the failure is
    // attributable. (static_assert is a different identifier and fine.)
    if (is_ident(tokens[i], "assert") && is_punct(tokens[i + 1], "(") &&
        !(i > 0 && (is_punct(tokens[i - 1], "#") ||
                    is_ident(tokens[i - 1], "undef") ||
                    is_ident(tokens[i - 1], "ifdef") ||
                    is_ident(tokens[i - 1], "defined") ||
                    is_punct(tokens[i - 1], ".") ||
                    is_punct(tokens[i - 1], "->") ||
                    is_punct(tokens[i - 1], "::")))) {
      findings.push_back(
          {"bare-throw", path, tokens[i].line,
           "bare `assert(...)` — use IVT_THROW(Internal, ...) or "
           "IVT_THROW_FATAL so the failure carries site and severity"});
    }
  }
  return findings;
}

std::vector<Finding> check_mutex_guard(const std::string& path,
                                       const std::string& content) {
  std::vector<Finding> findings;
  const std::vector<Token> tokens = tokenize(content);
  const std::vector<TokenClassSpan> spans = token_class_spans(tokens);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    // A mutex *declaration*: `std::mutex name ;` or `[support::] Mutex
    // name ;` (any cv/storage tokens before the type are irrelevant).
    bool raw_std = false;
    std::size_t type_end = 0;
    if (is_ident(tokens[i], "std") && i + 2 < tokens.size() &&
        is_punct(tokens[i + 1], "::") && is_ident(tokens[i + 2], "mutex")) {
      raw_std = true;
      type_end = i + 2;
    } else if (is_ident(tokens[i], "Mutex")) {
      // Qualified forms other than support::Mutex are someone else's
      // type; `class/struct/friend Mutex` is a declaration of the type.
      if (i > 0 && is_punct(tokens[i - 1], "::") &&
          !(i > 1 && is_ident(tokens[i - 2], "support"))) {
        continue;
      }
      if (i > 0 && (is_ident(tokens[i - 1], "class") ||
                    is_ident(tokens[i - 1], "struct") ||
                    is_ident(tokens[i - 1], "friend"))) {
        continue;
      }
      type_end = i;
    } else {
      continue;
    }
    if (type_end + 2 >= tokens.size() ||
        tokens[type_end + 1].kind != Token::Kind::Ident ||
        !is_punct(tokens[type_end + 2], ";")) {
      continue;  // reference/pointer/parameter use, not a declaration
    }
    const std::string name = tokens[type_end + 1].text;
    const std::size_t line = tokens[i].line;
    if (raw_std) {
      findings.push_back({"mutex-guard", path, line,
                          "raw std::mutex member '" + name +
                              "' — use support::Mutex so clang "
                              "-Wthread-safety can check the contract"});
    }
    const TokenClassSpan* span = innermost_class(spans, i);
    if (span == nullptr) continue;  // local / namespace-scope object
    bool guarded = false;
    for (std::size_t j = span->open; j < span->close && !guarded; ++j) {
      if ((is_ident(tokens[j], "IVT_GUARDED_BY") ||
           is_ident(tokens[j], "IVT_PT_GUARDED_BY")) &&
          j + 3 < tokens.size() && is_punct(tokens[j + 1], "(") &&
          is_ident(tokens[j + 2], name.c_str()) &&
          is_punct(tokens[j + 3], ")")) {
        guarded = true;
      }
    }
    if (!guarded) {
      findings.push_back(
          {"mutex-guard", path, line,
           "class '" + span->name + "' owns mutex '" + name +
               "' but no field is IVT_GUARDED_BY(" + name +
               ") — state what the mutex protects"});
    }
  }
  return findings;
}

std::vector<Finding> check_include_hygiene(const std::string& path,
                                           const std::string& content) {
  std::vector<Finding> findings;
  struct Inc {
    std::string target;
    std::size_t line;
    std::size_t index;
  };
  std::vector<Inc> includes;
  for (const Token& t : tokenize(content)) {
    if (t.kind == Token::Kind::IncludeQuoted) {
      includes.push_back({t.text, t.line, includes.size()});
    }
  }
  for (const Inc& inc : includes) {
    if (inc.target.compare(0, 3, "../") == 0 ||
        inc.target.find("/../") != std::string::npos) {
      findings.push_back({"include-hygiene", path, inc.line,
                          "parent-relative include \"" + inc.target +
                              "\" — project includes are rooted at src/"});
    }
  }
  // Self-header-first: if a .cpp includes "<...>/<stem>.hpp", that include
  // must come before every other one, so the header is compiled stand-alone
  // at least once.
  if (ends_with(path, ".cpp")) {
    const std::string self = stem_of(path) + ".hpp";
    for (const Inc& inc : includes) {
      if (basename_of(inc.target) == self && inc.index != 0) {
        findings.push_back({"include-hygiene", path, inc.line,
                            "own header \"" + inc.target +
                                "\" must be the first include"});
        break;
      }
    }
  }
  return findings;
}

std::vector<Finding> check_metric_names(
    const std::string& path, const std::string& content,
    const std::vector<std::string>& extra_prefixes) {
  std::vector<Finding> findings;
  const std::vector<Token> tokens = tokenize(content);

  const auto check_name = [&](const std::string& name, std::size_t line) {
    if (!is_valid_site_name(name)) {
      findings.push_back({"metric-name", path, line,
                          "metric/event name '" + name +
                              "' does not match the grammar seg(.seg)+, "
                              "seg = [a-z0-9_]+"});
      return;
    }
    const std::string subsystem = name.substr(0, name.find('.'));
    static const char* kBuiltin[] = {"serve", "pipeline", "pool", "io",
                                     "process"};
    for (const char* b : kBuiltin) {
      if (subsystem == b) return;
    }
    for (const std::string& p : extra_prefixes) {
      if (subsystem == p) return;
    }
    findings.push_back({"metric-name", path, line,
                        "metric/event name '" + name +
                            "' uses unregistered prefix '" + subsystem +
                            ".' — declare it with `metric-prefix " +
                            subsystem + "` in the lint config"});
  };

  // The name at arg index `arg` of a macro/constructor call must be a
  // (possibly concatenated) string literal; non-literal names are
  // computed at runtime and out of lexical reach. Concatenated literals
  // are joined first, so "serve." "accept" cannot evade the grammar.
  const auto check_call = [&](std::size_t open, std::size_t arg,
                              std::size_t line) {
    const std::vector<std::size_t> args = call_arg_starts(tokens, open);
    if (arg >= args.size()) return;
    std::size_t at = args[arg];
    std::string name;
    if (read_string_concat(tokens, at, &name)) check_name(name, line);
  };

  static const char* kMetricMacros[] = {"OBS_COUNT", "OBS_GAUGE_ADD",
                                       "OBS_GAUGE_SET", "OBS_HIST_MS"};
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::Ident) continue;
    // Metric macros: the name is the first argument.
    for (const char* m : kMetricMacros) {
      if (tokens[i].text == m && is_punct(tokens[i + 1], "(")) {
        check_call(i + 1, 0, tokens[i].line);
        break;
      }
    }
    // Event sites: the name is the third argument of OBS_EVENT or of a
    // direct EventRecord construction — `EventRecord(...)` or
    // `EventRecord name(...)` (the constructor's own declaration has no
    // literal there, so it never matches).
    if (is_ident(tokens[i], "OBS_EVENT") && is_punct(tokens[i + 1], "(")) {
      check_call(i + 1, 2, tokens[i].line);
    } else if (is_ident(tokens[i], "EventRecord")) {
      std::size_t open = i + 1;
      if (open < tokens.size() && tokens[open].kind == Token::Kind::Ident) {
        ++open;
      }
      if (open < tokens.size() && is_punct(tokens[open], "(")) {
        check_call(open, 2, tokens[i].line);
      }
    }
  }
  return findings;
}

bool is_valid_site_name(const std::string& name) {
  static const std::regex kSite(R"([a-z0-9_]+(\.[a-z0-9_]+)+)");
  return std::regex_match(name, kSite);
}

std::vector<Finding> check_fault_sites(const std::vector<FileContent>& files,
                                       const std::string& registry_path,
                                       const std::string& registry_content) {
  std::vector<Finding> findings;

  // Registry: one site per non-comment line.
  std::map<std::string, std::size_t> registry;  // name -> line
  {
    std::istringstream in(registry_content);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream fields(line);
      std::string name;
      if (!(fields >> name)) continue;
      if (!is_valid_site_name(name)) {
        findings.push_back({"fault-site", registry_path, lineno,
                            "registry entry '" + name +
                                "' does not match the IVT_FAULTS site "
                                "grammar seg(.seg)+, seg = [a-z0-9_]+"});
        continue;
      }
      if (!registry.emplace(name, lineno).second) {
        findings.push_back({"fault-site", registry_path, lineno,
                            "site '" + name +
                                "' declared more than once in the registry"});
      }
    }
  }

  // Code: every FAULT_POINT / FAULT_POINT_MUTATE use with a literal name
  // (adjacent literals are concatenated first, so "serve." "accept"
  // cannot evade the exactly-once check).
  struct Use {
    std::string file;
    std::size_t line;
  };
  std::map<std::string, std::vector<Use>> uses;
  for (const FileContent& f : files) {
    const std::vector<Token> tokens = tokenize(f.content);
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (!(is_ident(tokens[i], "FAULT_POINT") ||
            is_ident(tokens[i], "FAULT_POINT_MUTATE")) ||
          !is_punct(tokens[i + 1], "(")) {
        continue;
      }
      std::size_t at = i + 2;
      std::string name;
      if (!read_string_concat(tokens, at, &name)) continue;  // macro def
      const std::size_t line = tokens[i].line;
      if (!is_valid_site_name(name)) {
        findings.push_back({"fault-site", f.path, line,
                            "site '" + name +
                                "' does not match the IVT_FAULTS site "
                                "grammar seg(.seg)+, seg = [a-z0-9_]+"});
        continue;
      }
      uses[name].push_back({f.path, line});
    }
  }

  for (const auto& [name, where] : uses) {
    if (registry.find(name) == registry.end()) {
      findings.push_back({"fault-site", where.front().file,
                          where.front().line,
                          "site '" + name + "' is not declared in " +
                              (registry_path.empty() ? "the registry"
                                                     : registry_path)});
    }
    for (std::size_t i = 1; i < where.size(); ++i) {
      findings.push_back({"fault-site", where[i].file, where[i].line,
                          "site '" + name +
                              "' is instrumented more than once (first at " +
                              where.front().file + ":" +
                              std::to_string(where.front().line) +
                              ") — sites are unique identities"});
    }
  }
  for (const auto& [name, lineno] : registry) {
    if (uses.find(name) == uses.end()) {
      findings.push_back({"fault-site", registry_path, lineno,
                          "registered site '" + name +
                              "' has no FAULT_POINT in the scanned files"});
    }
  }
  return findings;
}

Report run_rules(const std::vector<FileContent>& files, const Config& config,
                 const std::string& registry_content) {
  std::vector<Finding> all;
  for (const FileContent& f : files) {
    for (auto&& v : check_bare_throw(f.path, f.content)) {
      all.push_back(std::move(v));
    }
    for (auto&& v : check_mutex_guard(f.path, f.content)) {
      all.push_back(std::move(v));
    }
    for (auto&& v : check_include_hygiene(f.path, f.content)) {
      all.push_back(std::move(v));
    }
    for (auto&& v :
         check_metric_names(f.path, f.content, config.metric_prefixes)) {
      all.push_back(std::move(v));
    }
  }
  if (!config.registry_path.empty()) {
    for (auto&& v : check_fault_sites(files, config.registry_path,
                                      registry_content)) {
      all.push_back(std::move(v));
    }
  }

  Report report;
  for (Finding& f : all) {
    if (is_exempt(config, f.rule, f.file)) {
      ++report.exempted;
    } else {
      report.findings.push_back(std::move(f));
    }
  }
  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.file != b.file ? a.file < b.file
                                             : a.line < b.line;
                   });
  for (const Finding& f : report.findings) ++report.by_rule[f.rule];
  return report;
}

std::string report_to_json(const Report& report) {
  std::ostringstream out;
  out << "{\"findings\": " << report.findings.size()
      << ", \"exempted\": " << report.exempted << ", \"by_rule\": {";
  bool first = true;
  for (const auto& [rule, count] : report.by_rule) {
    if (!first) out << ", ";
    first = false;
    out << '"' << rule << "\": " << count;
  }
  out << "}}";
  return out.str();
}

}  // namespace ivt::lint
