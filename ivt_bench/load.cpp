// `ivt_bench load`: the seeded, open-loop request mix against a running
// `ivt serve`, then the served-state cross-check.
//
// The mix (kMix: requests of each kind per block of 20, 70 / 5 / 20 / 5 %):
//   state_domain     state of one domain (9 signals), keys = journeys x 4
//                    domains, drawn Zipf s = 1.1: the state-cache hit path
//   state_full       state of every signal of one journey (Zipf over
//                    journeys): entries large against the state cache
//   extract_slice    K_s of one domain over a random 10 % time slice: the
//                    chunk cache, never the state cache
//   preselect_slice  K_pre of one domain over a random 10 % time slice
//
// First every state_domain key is requested once, one request at a time,
// to fill both caches without the concurrent cold builds that would make
// the daemon's peak memory a matter of chance. Then --seconds at --rate
// are measured over kConnections connections to the daemon on localhost.
// Then kStateChecks distinct state keys of the schedule are requested once
// more and each payload must be byte-identical to dataflow::write_csv of
// Pipeline::run(...).state computed here for the same journey, signals and
// threshold.
//
// Prints one JSON object: per-request arrays (the cache-fill requests
// first, `warmup_requests` of them), the daemon's `stats` counters before
// and after the measured requests, and the cross-check's failures.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dataflow/csv.hpp"
#include "open_loop.hpp"
#include "serve/client.hpp"
#include "suite.hpp"

namespace ivt::bench {

namespace {

constexpr std::size_t kDomains = 4;
constexpr std::size_t kDomainSignals = 9;
constexpr std::size_t kMix[] = {14, 1, 4, 1};
constexpr std::size_t kConnections = 4;
constexpr std::size_t kStateChecks = 8;
constexpr const char* kHost = "127.0.0.1";
constexpr const char* kKindNames[] = {"state_domain", "state_full",
                                      "extract_slice", "preselect_slice"};

enum Status { kOk = 0, kOverloaded = 1, kFailed = 2 };

struct RequestSpec {
  std::size_t kind = 0;
  std::size_t trace = 0;
  std::size_t domain = 0;
  std::int64_t min_t_ns = 0;
  std::int64_t max_t_ns = 0;
};

struct Outcome {
  int status = kFailed;
  double server_ms = -1.0;
  double scan_ms = -1.0;
  double pipeline_ms = -1.0;
  double serialize_ms = -1.0;
  double bytes = 0.0;
};

/// Four 9-signal domains spread over the catalog: domain d starts at
/// signal d * n / 4 (wrapping), so on a 180-signal catalog they are
/// disjoint and domain 0 is the first 9 catalog signals.
std::vector<std::vector<std::string>> make_domains(
    const std::vector<std::string>& names) {
  std::vector<std::vector<std::string>> domains(kDomains);
  const std::size_t n = names.size();
  for (std::size_t d = 0; d < kDomains; ++d) {
    for (std::size_t i = 0; i < std::min(kDomainSignals, n); ++i) {
      domains[d].push_back(names[(d * n / kDomains + i) % n]);
    }
  }
  return domains;
}

/// Index drawn with probability proportional to weights[i].
std::size_t draw(std::mt19937_64& rng, const std::vector<double>& weights) {
  double total = 0.0;
  for (const double w : weights) total += w;
  double x = std::uniform_real_distribution<double>(0.0, total)(rng);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (x < weights[i]) return i;
    x -= weights[i];
  }
  return weights.size() - 1;
}

std::vector<double> zipf_weights(std::size_t n) {
  std::vector<double> w(n);
  for (std::size_t k = 0; k < n; ++k) {
    w[k] = 1.0 / std::pow(static_cast<double>(k + 1), 1.1);
  }
  return w;
}

/// The kinds follow one seeded order of a block of sum(kMix) requests that
/// holds exactly kMix[k] requests of kind k, repeated: two seeds offer the
/// same amount of each kind of work, evenly spaced, and differ in keys,
/// slices and order. (Drawing kinds independently would let the heavy
/// kinds bunch up differently in every run, and the tail latency and the
/// daemon's peak memory with them.)
std::vector<RequestSpec> make_schedule(
    std::size_t n, std::uint64_t seed,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& spans) {
  std::mt19937_64 rng(seed);
  const std::vector<double> key_weights = zipf_weights(spans.size() * kDomains);
  const std::vector<double> trace_weights = zipf_weights(spans.size());
  std::vector<std::size_t> block;
  for (std::size_t k = 0; k < std::size(kMix); ++k) {
    block.insert(block.end(), kMix[k], k);
  }
  std::vector<RequestSpec> schedule(n);
  std::shuffle(block.begin(), block.end(), rng);
  for (std::size_t i = 0; i < n; ++i) {
    RequestSpec& r = schedule[i];
    r.kind = block[i % block.size()];
    if (r.kind == 1) {
      r.trace = draw(rng, trace_weights);
      continue;
    }
    const std::size_t key = draw(rng, key_weights);
    r.trace = key / kDomains;
    r.domain = key % kDomains;
    const auto [lo, hi] = spans[r.trace];
    const std::int64_t width = (hi - lo) / 10;
    r.min_t_ns = lo + static_cast<std::int64_t>(
                          std::uniform_real_distribution<double>(0.0, 1.0)(rng) *
                          static_cast<double>(hi - lo - width));
    r.max_t_ns = r.min_t_ns + width;
  }
  return schedule;
}

/// dataflow::write_csv of `table`: the bytes `ivt run --state x.csv`
/// writes and `ivt serve` sends as a state payload.
std::string table_csv(const dataflow::Table& table) {
  std::ostringstream out;
  dataflow::write_csv(table, out);
  return std::move(out).str();
}

std::string request_json(const RequestSpec& r, const std::string& trace,
                         const std::vector<std::string>& signals) {
  serve::json::Object req;
  const bool state = r.kind <= 1;
  req.add("op", state ? "state" : (r.kind == 2 ? "extract" : "preselect"))
      .add("trace", trace);
  if (r.kind != 1) req.raw("signals", serve::json::render_array(signals));
  if (!state) req.add("min_t_ns", r.min_t_ns).add("max_t_ns", r.max_t_ns);
  return req.str();
}

double stage_ms(const serve::json::Value& body, const char* stage) {
  const serve::json::Value* stages = body.find("stages");
  if (stages == nullptr || !stages->is_object()) return -1.0;
  return stages->get_double(stage, -1.0);
}

/// One connection per sender; a connection that failed is reopened on
/// the sender's next request.
class Connections {
 public:
  Connections(std::string host, std::uint16_t port, std::size_t n)
      : host_(std::move(host)), port_(port), clients_(n) {}

  serve::ClientResponse request(std::size_t sender, const std::string& body) {
    std::unique_ptr<serve::Client>& client = clients_[sender];
    if (!client) client = std::make_unique<serve::Client>(host_, port_, 60000);
    try {
      return client->request(body);
    } catch (...) {
      client.reset();
      throw;
    }
  }

 private:
  std::string host_;
  std::uint16_t port_;
  std::vector<std::unique_ptr<serve::Client>> clients_;
};

}  // namespace

int cmd_load(const cli::Args& args) {
  const Inputs in = open_inputs(args);
  const std::vector<std::string> names = args.get_list("names");
  if (names.size() != in.readers.size()) {
    throw std::invalid_argument("--names needs one served name per trace");
  }
  const double rate = args.get_double("rate", 20.0);
  const double seconds = args.get_double("seconds", 10.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::size_t senders = kConnections;
  Connections conns(kHost, static_cast<std::uint16_t>(args.get_int("port", 0)),
                    senders + 1);

  const std::vector<std::vector<std::string>> domains =
      make_domains(in.catalog.signal_names());
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  for (const auto& reader : in.readers) {
    std::int64_t lo = reader->chunk(0).min_t_ns;
    std::int64_t hi = reader->chunk(0).max_t_ns;
    for (const colstore::ChunkInfo& c : reader->chunks()) {
      lo = std::min(lo, c.min_t_ns);
      hi = std::max(hi, c.max_t_ns);
    }
    spans.emplace_back(lo, hi);
  }

  const auto run_step = [&](const std::vector<RequestSpec>& schedule,
                            std::vector<Outcome>& outcomes, double step_rate,
                            std::size_t step_senders) {
    outcomes.assign(schedule.size(), Outcome{});
    return run_open_loop(
        schedule.size(), step_rate, step_senders,
        [&](std::size_t i, std::size_t s) {
          const RequestSpec& r = schedule[i];
          Outcome& o = outcomes[i];
          try {
            const serve::ClientResponse response = conns.request(
                s, request_json(r, names[r.trace], domains[r.domain]));
            o.status = response.ok() ? kOk
                       : response.error_category() == "overloaded"
                           ? kOverloaded
                           : kFailed;
            o.server_ms = response.body.get_double("t_total_ms", -1.0);
            o.scan_ms = stage_ms(response.body, "scan");
            o.pipeline_ms = stage_ms(response.body, "pipeline");
            o.serialize_ms = stage_ms(response.body, "serialize");
            o.bytes = static_cast<double>(response.payload.size());
          } catch (const std::exception& e) {
            o.status = kFailed;
            std::fprintf(stderr, "ivt_bench load: request %zu: %s\n", i,
                         e.what());
          }
        });
  };
  const auto stats_op = [&] {
    return conns.request(senders, R"({"op":"stats"})").body;
  };
  const auto stats_json = [](const serve::json::Value& stats) {
    // Only the counters run.py reads, re-rendered.
    serve::json::Object out;
    for (const char* cache : {"chunk_cache", "state_cache"}) {
      const serve::json::Value* c = stats.find(cache);
      if (c == nullptr) continue;
      for (const char* field :
           {"hits", "misses", "evictions", "insertions", "bytes", "entries"}) {
        out.add(std::string(cache) + "." + field,
                c->get_int(field, 0));
      }
    }
    for (const char* field :
         {"requests_total", "requests_overloaded", "chunks_decoded"}) {
      out.add(field, stats.get_int(field, 0));
    }
    return out.str();
  };

  std::vector<RequestSpec> schedule;
  for (std::size_t t = 0; t < spans.size(); ++t) {
    for (std::size_t d = 0; d < kDomains; ++d) schedule.push_back({0, t, d});
  }
  const std::size_t n_warm = schedule.size();
  std::vector<Outcome> outcomes;
  std::vector<RequestTiming> timings =
      run_step(schedule, outcomes, std::numeric_limits<double>::max(), 1);
  const serve::json::Value before = stats_op();
  const auto n_step = static_cast<std::size_t>(std::llround(seconds * rate));
  const std::vector<RequestSpec> step = make_schedule(n_step, seed, spans);
  std::vector<Outcome> step_outcomes;
  const auto step_start = Clock::now();
  const std::vector<RequestTiming> step_timings =
      run_step(step, step_outcomes, rate, senders);
  const double step_s = seconds_since(step_start);
  const serve::json::Value after = stats_op();
  schedule.insert(schedule.end(), step.begin(), step.end());
  outcomes.insert(outcomes.end(), step_outcomes.begin(), step_outcomes.end());
  timings.insert(timings.end(), step_timings.begin(), step_timings.end());

  // Served-state cross-check over distinct state keys of the schedule.
  std::vector<std::string> check_failures;
  std::size_t checked = 0;
  std::set<std::pair<std::size_t, std::size_t>> seen;
  dataflow::Engine engine(engine_config(args));
  for (const RequestSpec& r : step) {
    if (checked == kStateChecks) break;
    if (r.kind > 1) continue;
    const std::size_t domain = r.kind == 1 ? kDomains : r.domain;
    if (!seen.insert({r.trace, domain}).second) continue;
    ++checked;
    core::PipelineConfig config;
    if (r.kind == 0) config.signals = domains[r.domain];
    const core::Pipeline pipeline(in.catalog, config);
    const std::string expected =
        table_csv(pipeline.run(engine, *in.readers[r.trace]).state);
    // Ask for the signals in the state table's column order: serve
    // projects the requested signals in request order.
    serve::json::Object req;
    req.add("op", "state").add("trace", names[r.trace]);
    if (r.kind == 0) {
      std::vector<std::string> columns;
      const std::size_t eol = expected.find('\n');
      std::size_t pos = expected.find(',');
      while (pos < eol) {
        const std::size_t next = std::min(expected.find(',', pos + 1), eol);
        columns.push_back(expected.substr(pos + 1, next - pos - 1));
        pos = next;
      }
      req.raw("signals", serve::json::render_array(columns));
    }
    const std::string label = names[r.trace] + "/" +
                        (r.kind == 1 ? "all" : "domain" + std::to_string(r.domain));
    try {
      const serve::ClientResponse response = conns.request(senders, req.str());
      if (!response.ok()) {
        check_failures.push_back(label + ": " + response.error_message());
      } else if (response.payload != expected) {
        check_failures.push_back(label + ": served state differs from "
                                         "Pipeline::run state (" +
                                 std::to_string(response.payload.size()) +
                                 " vs " + std::to_string(expected.size()) +
                                 " bytes)");
      }
    } catch (const std::exception& e) {
      check_failures.push_back(label + ": " + e.what());
    }
  }

  std::vector<double> kind;
  std::vector<double> status;
  std::vector<double> due;
  std::vector<double> late;
  std::vector<double> latency;
  std::vector<double> server;
  std::vector<double> scan;
  std::vector<double> pipeline;
  std::vector<double> serialize;
  std::vector<double> bytes;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    kind.push_back(static_cast<double>(schedule[i].kind));
    status.push_back(outcomes[i].status);
    due.push_back(timings[i].due_s);
    late.push_back(timings[i].late_ms);
    latency.push_back(timings[i].latency_ms);
    server.push_back(outcomes[i].server_ms);
    scan.push_back(outcomes[i].scan_ms);
    pipeline.push_back(outcomes[i].pipeline_ms);
    serialize.push_back(outcomes[i].serialize_ms);
    bytes.push_back(outcomes[i].bytes);
  }
  std::vector<std::string> kinds(std::begin(kKindNames), std::end(kKindNames));
  serve::json::Object out;
  out.add("warmup_requests", static_cast<std::uint64_t>(n_warm))
      .add("step_s", step_s)
      .raw("kinds", serve::json::render_array(kinds))
      .raw("kind", json_numbers(kind))
      .raw("status", json_numbers(status))
      .raw("due_s", json_numbers(due))
      .raw("late_ms", json_numbers(late))
      .raw("latency_ms", json_numbers(latency))
      .raw("server_ms", json_numbers(server))
      .raw("scan_ms", json_numbers(scan))
      .raw("pipeline_ms", json_numbers(pipeline))
      .raw("serialize_ms", json_numbers(serialize))
      .raw("bytes", json_numbers(bytes))
      .raw("stats_before", stats_json(before))
      .raw("stats_after", stats_json(after))
      .add("state_checks", static_cast<std::uint64_t>(checked))
      .raw("check_failures", serve::json::render_array(check_failures));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace ivt::bench
