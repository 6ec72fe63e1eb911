#include "cli/commands.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <algorithm>

#include "apps/anomaly.hpp"
#include "apps/association_rules.hpp"
#include "apps/transition_graph.hpp"
#include "colstore/columnar_reader.hpp"
#include "colstore/columnar_writer.hpp"
#include "core/interpret.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/schemas.hpp"
#include "core/urel.hpp"
#include "dataflow/csv.hpp"
#include "dataflow/ops.hpp"
#include "dataflow/summary.hpp"
#include "dataflow/table_io.hpp"
#include "dist/coordinator.hpp"
#include "dist/sim.hpp"
#include "dist/worker.hpp"
#include "errors/error.hpp"
#include "errors/failure_log.hpp"
#include "faultfx/faultfx.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/trace_merge.hpp"
#include "simnet/datasets.hpp"
#include "tracefile/binary_format.hpp"

namespace ivt::cli {

namespace {

constexpr const char* kUsage = R"(ivt — in-vehicle network trace preprocessing (DAC'18 reproduction)

usage: ivt <command> [options]

commands:
  simulate     generate a synthetic journey (and catalog) of a vehicle model
      --dataset SYN|LIG|STA   vehicle model (default SYN)
      --scale S               fraction of the 20 h recording (default 0.001)
      --seed N                model + journey seed (default 42)
      --journeys N            number of journeys (default 1)
      --out PREFIX            output prefix: PREFIX_J<i>.ivt (default ./<dataset>)
      --catalog PATH          also write the catalog (default PREFIX.ivsdb)
      --no-faults             disable fault injection

  inspect      statistics of a recorded trace (.ivt or .ivc); for .ivc
               also dumps the chunk directory with its zone maps
      --trace PATH            trace file (required)
      --catalog PATH          optional: report catalog coverage

  catalog      validate and summarize a catalog file
      --file PATH             .ivsdb catalog (required)

  pack         convert a row-oriented .ivt trace into the columnar .ivc
               container (chunked columns + per-chunk zone maps)
      --trace PATH            .ivt input (required)
      --out PATH              .ivc output (required)
      --chunk-rows N          rows per chunk (default 65536)

  extract      signal extraction (Algorithm 1 lines 3-6) to a table file;
               .ivc traces are scanned with zone-map predicate pushdown
      --trace PATH            .ivt or .ivc trace (required)
      --catalog PATH          .ivsdb catalog (required)
      --signals a,b,c         U_comb selection (default: all signals)
      --out PATH              .csv or .ivtbl output (required)
      --workers N             engine workers (default: hardware); a literal
                              --workers=0 runs every task inline on the
                              caller (deterministic debugging mode)
      --skip-error-frames     drop monitor-flagged error frames
      --on-error fail|skip|quarantine   corrupt-input policy (default fail)
      --scan decoded|compressed   .ivc chunk evaluation (default decoded):
                              compressed evaluates the predicate on the
                              v2 key-run headers — rejected runs are
                              skipped without materializing a row, and
                              U_comb joins by dictionary index. Output is
                              byte-identical; v1 files fall back to
                              decoded
      --trace-out PATH        write a Chrome trace (chrome://tracing,
                              Perfetto) of the run's spans
      --metrics-out PATH      write the metrics registry snapshot as JSON

  run          full preprocessing pipeline (Algorithm 1)
      --trace, --catalog, --signals, --workers   as in extract
      --exec batch|streaming|dist   execution mode (default batch).
                              Over a .ivc trace, batch and streaming are
                              the same executor: decode+preselect+
                              interpret+split fused into one
                              bounded-admission task per chunk, with
                              bounded peak memory. Over a .ivt trace,
                              batch runs the staged whole-table pipeline.
                              dist runs the sharded coordinator/worker
                              executor in-process over loopback
                              (byte-identical output; see the coordinator
                              and worker commands for the multi-process
                              form). streaming and dist require a columnar
                              .ivc trace
      --sim-nodes N           dist: simulated worker nodes (default 4)
      --sim-failure-rate P    dist: per-assignment probability a node dies
                              mid-range (seeded + deterministic; dead
                              nodes respawn and the job still finishes
                              with identical bytes; default 0)
      --sim-latency-ms MS     dist: added latency per worker RPC
      --sim-slow-factor F     dist: per-morsel slowdown, provokes the
                              straggler/speculation policy (default 1.0)
      --seed N                dist: failure-schedule seed (default 0)
      --ranges N              dist: ranges to cut the job into (default:
                              4 per node, min 8)
      --scan decoded|compressed   chunk evaluation mode, all exec modes
                              (see extract; dist ships it to workers)
      --rate-threshold HZ     classifier z_rate threshold T (default 5)
      --no-reduction          disable the constraint set C
      --extensions gap,cycle_violation,derivative   extension rules E
      --state PATH            write the state representation (.csv/.ivtbl)
      --krep PATH             write the homogenized sequence R_out
      --report text|json      processing report to stdout (default text)
      --on-error fail|skip|quarantine   failure policy: fail aborts on the
                              first corrupt chunk / failed sequence; skip
                              drops the unit and records it in the report;
                              quarantine additionally writes a
                              <trace>.quarantine.json sidecar manifest
      --trace-out PATH        write a Chrome trace of the run's spans
      --metrics-out PATH      write the metrics registry snapshot as JSON

  mine         Sec. 4.4 applications on one journey (runs the pipeline,
               then anomaly ranking, rare transitions and IF-THEN rules)
      --trace, --catalog, --signals, --workers, --rate-threshold  as in run
      --trace-out, --metrics-out                 as in run
      --top-k N               anomalies to report (default 10)
      --rare-probability P    rare-transition threshold (default 0.05)
      --min-support S         Apriori minimum support (default 0.1)
      --min-confidence C      Apriori minimum confidence (default 0.9)
      --rule-columns a,b,c    state columns to mine rules over
                              (default: first 6)
      --dot PATH              write a transition graph (first nominal γ
                              signal) as Graphviz DOT

  export-asc   dump a trace as readable text
      --trace PATH            .ivt or .ivc trace (required)
      --out PATH              output file (default: stdout)

  serve        run the ivt-serve daemon: answers concurrent preselect /
               extract / state / mine queries over registered .ivc traces
               (length-prefixed binary protocol, see src/serve). Prints
               "listening on HOST:PORT" once ready; SIGTERM/SIGINT shut
               it down cleanly after in-flight requests finish
      --catalog PATH          .ivsdb catalog (required)
      --traces a.ivc,b.ivc    traces to register; each is served under its
                              basename without extension (required)
      --host ADDR             bind address (default 127.0.0.1)
      --port N                listen port; 0 picks a free port (default 0)
      --workers N             query worker threads (default: hardware)
      --max-in-flight N       admission window before requests are
                              rejected Overloaded (default: 2 x workers)
      --cache-mb N            tier-1 compressed-chunk cache (default 64)
      --state-cache-mb N      tier-2 state-representation cache (default 64)
      --scan decoded|compressed   evaluate cached chunk extents run-level
                              instead of re-decoding per request (see
                              extract; default decoded)
      --event-log PATH        append one JSON-lines access record per
                              request (plus slow-query warnings)
      --slow-query-ms MS      warn-log requests slower than MS (default:
                              off)
      --stats-window-s S      rolling-window width for the stats op and
                              Prometheus exposition (default 60)
      --trace-out PATH        write the server's Chrome trace at shutdown

  query        send one request to a running daemon and print the reply
      --host ADDR             daemon address (default 127.0.0.1)
      --port N                daemon port (required)
      --op NAME               ping|list|stats|metrics|preselect|extract|
                              state|mine|shutdown (default ping);
                              metrics returns the Prometheus text
                              exposition as the payload
      --trace NAME            registered trace name (data ops)
      --signals a,b,c         signal selection (default: all)
      --min-t-ns N, --max-t-ns N   time slice bounds
      --rate-threshold HZ     state/mine classifier threshold (default 5)
      --top-k N               mine: anomalies to report (default 10)
      --timeout-ms MS         client deadline per request: connect, send
                              and receive each must finish within MS or
                              the query fails with a retryable timeout
                              instead of hanging on a stalled daemon
                              (default: block indefinitely)
      --out PATH              write the table payload here (default:
                              payload follows the JSON on stdout)
      --trace-out PATH        write the client-side Chrome trace; the
                              minted trace id is propagated to the server
                              so both traces share it

  trace-merge  join Chrome traces (e.g. client + server of one query)
               into a single timeline; each input becomes one process
               row, named after the file
      inputs: positional trace file paths (at least one)
      --out PATH              merged Chrome trace (required)

  top          live terminal dashboard over a daemon's stats op: QPS,
               in-flight, overload rejects, cache hit ratios and the
               rolling-window p50/p99
      --host ADDR             daemon address (default 127.0.0.1)
      --port N                daemon port (required)
      --interval S            poll interval in seconds (default 2)
      --iterations N          stop after N polls; 0 = run until ^C
                              (default 0)
      --no-clear              append frames instead of redrawing

  coordinator  run the dist coordinator: cuts a columnar trace into
               chunk ranges, assigns them to registering workers via
               consistent hashing, declares workers dead after missed
               heartbeats (re-queuing their in-flight ranges), launches
               speculative duplicates for stragglers and merges the
               accepted partials into the standard run report. Prints
               "coordinating on HOST:PORT ranges=N" once ready;
               SIGTERM/SIGINT abort the job cleanly
      --trace PATH            .ivc trace (required); workers open the
                              same path themselves — only control data
                              and partial results cross the wire
      --catalog PATH          .ivsdb catalog (required)
      --signals, --rate-threshold, --no-reduction, --on-error, --scan,
      --state, --krep, --report, --workers            as in run
      --host ADDR             bind address (default 127.0.0.1)
      --port N                listen port; 0 picks a free port (default 0)
      --ranges N              ranges to cut the job into (default:
                              4 x --expect-workers, min 8)
      --expect-workers N      sizing hint for --ranges (default 4)
      --heartbeat-ms MS       heartbeat cadence workers are told to use
                              (default 50)
      --dead-after-missed K   beats missed before a worker is declared
                              dead and its ranges re-assigned (default 3)
      --speculate-min-age G   duplicate an in-flight range at least G
                              grants old when a worker goes idle; first
                              completion wins, the loser is deduplicated;
                              0 disables speculation (default 2)

  worker       run one dist worker: registers with the coordinator under
               jittered backoff, heartbeats, pulls chunk ranges and ships
               partial results until the job is done
      --host ADDR             coordinator address (default 127.0.0.1)
      --port N                coordinator port (required)
      --name ID               stable identity on the coordinator's hash
                              ring (required; re-registering under the
                              same name supersedes the old registration)
      --timeout-ms MS         per-RPC client deadline (default 5000)
      --register-timeout-ms MS  give up when the coordinator has not
                              accepted registration after MS (default
                              10000)
      --sim-failure-rate P, --sim-latency-ms MS, --sim-slow-factor F,
      --seed N                as in run --exec dist

environment:
  IVT_FAULTS   failpoint recipe armed before the command runs, e.g.
               colstore.decode_chunk:error:0.01:seed=7 (see src/faultfx)

exit codes:
  0  success            2  usage error (bad command line)
  1  other failure      3  input format error (corrupt trace / catalog)
  5  server bind/       4  partial success (units dropped under
     listen failure        --on-error=skip|quarantine)
)";

signaldb::Catalog load_catalog_arg(const Args& args, const char* key) {
  return signaldb::load_catalog(args.require(key));
}

void write_table_arg(const dataflow::Table& table, const std::string& path) {
  if (path.size() >= 4 && path.substr(path.size() - 4) == ".csv") {
    dataflow::write_csv_file(table, path);
  } else {
    dataflow::save_table(table, path);
  }
}

void warn_unused(const Args& args) {
  for (const std::string& key : args.unused()) {
    std::fprintf(stderr, "warning: unknown option --%s ignored\n",
                 key.c_str());
  }
}

/// --trace-out / --metrics-out handling shared by extract/run/mine.
/// Read the options before the command runs (so warn_unused stays
/// accurate), write the artifacts after it finishes.
class ObsOutputs {
 public:
  explicit ObsOutputs(const Args& args)
      : trace_out_(args.get("trace-out")),
        metrics_out_(args.get("metrics-out")) {}

  void write() const {
    if (trace_out_) {
      obs::write_chrome_trace(*trace_out_);
      std::fprintf(stderr, "chrome trace written to %s (%zu spans)\n",
                   trace_out_->c_str(), obs::collect_spans().size());
    }
    if (metrics_out_) {
      obs::write_metrics_json(*metrics_out_);
      std::fprintf(stderr, "metrics snapshot written to %s\n",
                   metrics_out_->c_str());
    }
  }

 private:
  std::optional<std::string> trace_out_;
  std::optional<std::string> metrics_out_;
};

/// --workers=N (default: hardware concurrency). A literal --workers=0
/// selects inline execution: every engine task runs immediately on the
/// calling thread, so task order is deterministic and single-stepping
/// under a debugger follows the data. Bounded-admission semantics hold
/// trivially (at most one task exists at a time).
dataflow::EngineConfig engine_config_from_args(const Args& args) {
  dataflow::EngineConfig config;
  config.workers = static_cast<std::size_t>(args.get_int("workers", 0));
  const auto text = args.get("workers");
  if (text && config.workers == 0) config.inline_execution = true;
  return config;
}

/// --on-error=fail|skip|quarantine (default fail). A bad value is a usage
/// error.
errors::ErrorPolicy error_policy_arg(const Args& args) {
  const auto text = args.get("on-error");
  if (!text) return errors::ErrorPolicy::Fail;
  const auto policy = errors::parse_error_policy(*text);
  if (!policy) {
    throw std::invalid_argument("bad --on-error '" + *text +
                                "' (expected fail, skip or quarantine)");
  }
  return *policy;
}

/// K_b table of a row-oriented .ivt trace, through the in-memory Trace
/// model. Under Skip/Quarantine a corrupt record-stream tail is dropped
/// and recorded in `failures` instead of aborting.
dataflow::Table load_ivt_kb(const std::string& trace_path,
                            dataflow::Engine& engine,
                            errors::ErrorPolicy on_error =
                                errors::ErrorPolicy::Fail,
                            errors::FailureLog* failures = nullptr) {
  const tracefile::Trace trace =
      tracefile::load_trace_tolerant(trace_path, on_error, failures);
  return tracefile::to_kb_table(trace, engine.default_partitions());
}

/// Quarantine epilogue shared by extract/run: writes the sidecar manifest
/// next to the input and tells the user on stderr.
void write_quarantine_sidecar(const std::string& trace_path,
                              const errors::FailureLog& failures) {
  const std::string manifest_path = trace_path + ".quarantine.json";
  errors::write_quarantine_manifest(manifest_path, trace_path,
                                    failures.records());
  std::fprintf(stderr, "quarantine manifest written to %s (%zu failures)\n",
               manifest_path.c_str(), failures.size());
}

simnet::DatasetSpec spec_by_name(const std::string& name) {
  if (name == "SYN") return simnet::syn_spec();
  if (name == "LIG") return simnet::lig_spec();
  if (name == "STA") return simnet::sta_spec();
  throw std::invalid_argument("unknown dataset '" + name +
                              "' (expected SYN, LIG or STA)");
}

}  // namespace

const char* usage() { return kUsage; }

int category_exit_code(errors::Category category) {
  // The CLI exit-code contract: 0 success, 1 runtime failure, 2 usage,
  // 3 bad input data, 4 partial results, 5 bind failure. This switch is
  // an `error-table` anchor in tools/ivt-lint.conf: ivt-analyze fails
  // when any thrown errors::Category is missing from it, so a new
  // category can never silently fall into a default exit code.
  switch (category) {
    case errors::Category::Format:
    case errors::Category::Decode:
    case errors::Category::Spec:
      return 3;  // the input, not the invocation, is at fault
    case errors::Category::Io:
    case errors::Category::Resource:
    case errors::Category::Overloaded:
    case errors::Category::Timeout:
    case errors::Category::Internal:
      return 1;
  }
  return 1;
}

int cmd_simulate(const Args& args) {
  const std::string dataset = args.get_or("dataset", "SYN");
  const simnet::DatasetSpec spec = spec_by_name(dataset);
  simnet::DatasetConfig config;
  config.scale = args.get_double("scale", 0.001);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  config.inject_faults = !args.has("no-faults");
  const std::size_t journeys =
      static_cast<std::size_t>(args.get_int("journeys", 1));
  const std::string prefix = args.get_or("out", dataset);
  const std::string catalog_path = args.get_or("catalog", prefix + ".ivsdb");
  warn_unused(args);

  const simnet::Fleet fleet = simnet::make_fleet(journeys, spec, config);
  signaldb::save_catalog(fleet.catalog, catalog_path);
  std::fprintf(stderr, "catalog: %s (%zu messages, %zu signals)\n",
               catalog_path.c_str(), fleet.catalog.num_messages(),
               fleet.catalog.num_signals());
  for (std::size_t j = 0; j < fleet.journeys.size(); ++j) {
    const std::string path =
        prefix + "_J" + std::to_string(j + 1) + ".ivt";
    tracefile::save_trace(fleet.journeys[j], path);
    std::fprintf(stderr, "journey %zu: %s (%zu records, %.1f s)\n", j + 1,
                 path.c_str(), fleet.journeys[j].size(),
                 static_cast<double>(fleet.journeys[j].duration_ns()) / 1e9);
  }
  return 0;
}

/// Chunk-directory / zone-map dump of a columnar container.
int inspect_columnar(const std::string& path, const Args& args) {
  warn_unused(args);
  const colstore::ColumnarReader reader(path);
  std::printf("container    : ivc (columnar, %zu chunks)\n",
              reader.num_chunks());
  std::printf("vehicle      : %s\n", reader.vehicle().c_str());
  std::printf("journey      : %s\n", reader.journey().c_str());
  std::printf("records      : %zu\n", reader.num_rows());
  std::printf("buses        :");
  for (const std::string& bus : reader.bus_names()) {
    std::printf(" %s", bus.c_str());
  }
  std::printf("\n\n%-6s %10s %10s %22s %22s  %s\n", "chunk", "rows",
              "bytes", "t_ns [min,max]", "m_id [min,max]", "buses");
  for (std::size_t i = 0; i < reader.num_chunks(); ++i) {
    const colstore::ChunkInfo& c = reader.chunk(i);
    std::string buses;
    for (std::size_t b = 0; b < reader.bus_names().size(); ++b) {
      if (c.has_bus(static_cast<std::uint16_t>(b))) {
        if (!buses.empty()) buses += ',';
        buses += reader.bus_names()[b];
      }
    }
    std::printf("%-6zu %10u %10llu [%10lld,%10lld] [%10lld,%10lld]  %s\n",
                i, c.row_count,
                static_cast<unsigned long long>(c.encoded_bytes),
                static_cast<long long>(c.min_t_ns),
                static_cast<long long>(c.max_t_ns),
                static_cast<long long>(c.min_message_id),
                static_cast<long long>(c.max_message_id), buses.c_str());
  }
  return 0;
}

int cmd_inspect(const Args& args) {
  const std::string trace_path = args.require("trace");
  if (colstore::is_columnar_trace_file(trace_path)) {
    return inspect_columnar(trace_path, args);
  }
  const tracefile::Trace trace = tracefile::load_trace(trace_path);
  const auto catalog_path = args.get("catalog");
  warn_unused(args);

  const tracefile::TraceStats stats = tracefile::compute_stats(trace);
  std::printf("vehicle      : %s\n", trace.vehicle.c_str());
  std::printf("journey      : %s\n", trace.journey.c_str());
  std::printf("records      : %zu\n", stats.num_records);
  std::printf("duration     : %.3f s\n",
              static_cast<double>(stats.duration_ns) / 1e9);
  std::printf("time ordered : %s\n", trace.is_time_ordered() ? "yes" : "no");
  std::printf("\nrecords per channel:\n");
  for (const auto& [bus, count] : stats.records_per_bus) {
    std::printf("  %-12s %10zu\n", bus.c_str(), count);
  }
  std::printf("\nmessage types: %zu\n", stats.records_per_message.size());

  if (catalog_path) {
    const signaldb::Catalog catalog = signaldb::load_catalog(*catalog_path);
    std::size_t known = 0;
    std::size_t unknown = 0;
    for (const auto& [m_id, count] : stats.records_per_message) {
      bool found = false;
      for (const auto& bus : catalog.bus_names()) {
        if (catalog.find_message(bus, m_id) != nullptr) {
          found = true;
          break;
        }
      }
      (found ? known : unknown) += count;
    }
    std::printf("\ncatalog coverage: %zu records documented, %zu unknown\n",
                known, unknown);
  }
  return 0;
}

int cmd_catalog(const Args& args) {
  const signaldb::Catalog catalog = signaldb::load_catalog(args.require("file"));
  warn_unused(args);
  std::printf("messages: %zu, signals: %zu\n", catalog.num_messages(),
              catalog.num_signals());
  std::printf("buses:");
  for (const std::string& bus : catalog.bus_names()) {
    std::printf(" %s", bus.c_str());
  }
  std::printf("\n\n%-24s %-8s %6s %6s %8s %10s\n", "message", "bus", "id",
              "size", "signals", "protocol");
  for (const signaldb::MessageSpec& m : catalog.messages()) {
    std::printf("%-24s %-8s %6lld %6zu %8zu %10s\n", m.name.c_str(),
                m.bus.c_str(), static_cast<long long>(m.message_id),
                m.payload_size, m.signals.size(),
                std::string(protocol::to_string(m.protocol)).c_str());
  }
  return 0;
}

int cmd_pack(const Args& args) {
  const std::string trace_path = args.require("trace");
  const std::string out_path = args.require("out");
  colstore::ColumnarWriterOptions options;
  options.chunk_rows = static_cast<std::size_t>(
      args.get_int("chunk-rows",
                   static_cast<std::int64_t>(colstore::kDefaultChunkRows)));
  warn_unused(args);

  const colstore::PackStats stats =
      colstore::pack_trace_file(trace_path, out_path, options);
  std::fprintf(stderr,
               "packed %zu records into %zu chunks: %llu -> %llu bytes "
               "(%.2fx)\n",
               stats.records, stats.chunks,
               static_cast<unsigned long long>(stats.input_bytes),
               static_cast<unsigned long long>(stats.output_bytes),
               stats.output_bytes > 0
                   ? static_cast<double>(stats.input_bytes) /
                         static_cast<double>(stats.output_bytes)
                   : 0.0);
  return 0;
}

int cmd_extract(const Args& args) {
  const std::string trace_path = args.require("trace");
  const signaldb::Catalog catalog = load_catalog_arg(args, "catalog");
  const std::vector<std::string> signals = args.get_list("signals");
  const std::string out_path = args.require("out");
  const dataflow::EngineConfig engine_config = engine_config_from_args(args);
  core::PipelineConfig config;
  config.interpret.catalog = &catalog;
  config.interpret.skip_error_frames = args.has("skip-error-frames");
  config.on_error = error_policy_arg(args);
  config.scan_mode = colstore::parse_scan_mode(args.get_or("scan", "decoded"));
  const ObsOutputs obs_outputs(args);
  warn_unused(args);

  dataflow::Engine engine(engine_config);
  const auto urel = signals.empty()
                        ? core::make_full_urel_table(catalog)
                        : core::make_urel_table(catalog, signals);
  errors::FailureLog failures;
  dataflow::Table ks(core::ks_schema());
  std::size_t input_rows = 0;
  if (colstore::is_columnar_trace_file(trace_path)) {
    // Columnar container: lines 3–6 of the morsel executor. U_comb is
    // pushed down into the scan, so only chunks whose zone maps can match
    // are decoded at all, and each surviving chunk is preselected and
    // interpreted as one task on the engine.
    const colstore::ColumnarReader reader(trace_path);
    input_rows = reader.num_rows();
    const core::MorselProcessor processor(reader, urel, config, &failures);
    std::vector<dataflow::Partition> parts(processor.num_morsels());
    engine.parallel_for(parts.size(), [&processor, &parts](std::size_t k) {
      parts[k] = processor.extract(k);
    });
    for (dataflow::Partition& part : parts) ks.add_partition(std::move(part));
    const colstore::ScanStats stats = processor.stats();
    std::fprintf(stderr,
                 "pushdown scan: %zu/%zu chunks decoded, %zu/%zu rows "
                 "materialized\n",
                 stats.chunks_scanned, stats.chunks_total,
                 stats.rows_emitted, input_rows);
    if (stats.chunks_quarantined > 0) {
      std::fprintf(stderr, "corrupt chunks dropped: %zu (%zu rows)\n",
                   stats.chunks_quarantined, stats.rows_quarantined);
    }
  } else {
    const tracefile::Trace trace =
        tracefile::load_trace_tolerant(trace_path, config.on_error,
                                       &failures);
    const auto kb =
        tracefile::to_kb_table(trace, engine.default_partitions());
    input_rows = kb.num_rows();
    ks = core::extract_signals(engine, kb, urel, config.interpret);
  }
  write_table_arg(ks, out_path);
  std::fprintf(stderr, "extracted %zu signal instances from %zu records -> %s\n",
               ks.num_rows(), input_rows, out_path.c_str());
  std::printf("%s",
              dataflow::to_display_string(dataflow::summarize(engine, ks))
                  .c_str());
  if (config.on_error == errors::ErrorPolicy::Quarantine &&
      !failures.empty()) {
    write_quarantine_sidecar(trace_path, failures);
  }
  obs_outputs.write();
  return failures.empty() ? 0 : 4;
}

int cmd_run(const Args& args) {
  const std::string trace_path = args.require("trace");
  // Dist mode ships the catalog path to workers in the JobSpec, so keep
  // the path itself, not just the loaded catalog.
  const std::string catalog_path = args.require("catalog");
  const signaldb::Catalog catalog = signaldb::load_catalog(catalog_path);

  core::PipelineConfig config;
  config.signals = args.get_list("signals");
  config.classifier.rate_threshold_hz = args.get_double("rate-threshold", 5.0);
  if (args.has("no-reduction")) config.constraints.clear();
  for (const std::string& name : args.get_list("extensions")) {
    if (name == "gap") {
      config.extensions.push_back(core::gap_extension());
    } else if (name == "cycle_violation") {
      config.extensions.push_back(core::cycle_violation_extension(1.5));
    } else if (name == "derivative") {
      config.extensions.push_back(core::derivative_extension());
    } else {
      throw std::invalid_argument("unknown extension '" + name +
                                  "' (gap, cycle_violation, derivative)");
    }
  }
  const dataflow::EngineConfig engine_config = engine_config_from_args(args);
  config.exec_mode = core::parse_exec_mode(args.get_or("exec", "batch"));
  const std::string report_kind = args.get_or("report", "text");
  if (report_kind != "json" && report_kind != "text") {
    throw std::invalid_argument("unknown report kind '" + report_kind + "'");
  }
  config.on_error = error_policy_arg(args);
  config.scan_mode = colstore::parse_scan_mode(args.get_or("scan", "decoded"));
  const auto state_path = args.get("state");
  const auto krep_path = args.get("krep");
  // Sim knobs are read unconditionally so warn_unused stays accurate;
  // they only take effect under --exec dist.
  dist::DistRunConfig dist_config;
  dist_config.trace_path = trace_path;
  dist_config.catalog_path = catalog_path;
  dist_config.nodes = static_cast<std::size_t>(args.get_int("sim-nodes", 4));
  dist_config.target_ranges =
      static_cast<std::uint64_t>(args.get_int("ranges", 0));
  dist_config.seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
  dist_config.failure_rate = args.get_double("sim-failure-rate", 0.0);
  dist_config.latency_ms =
      static_cast<int>(args.get_int("sim-latency-ms", 0));
  dist_config.slow_factor = args.get_double("sim-slow-factor", 1.0);
  const ObsOutputs obs_outputs(args);
  warn_unused(args);

  dataflow::Engine engine(engine_config);
  const core::Pipeline pipeline(catalog, config);
  core::PipelineResult result;
  if (colstore::is_columnar_trace_file(trace_path)) {
    const colstore::ColumnarReader reader(trace_path);
    if (config.exec_mode == core::ExecMode::Dist) {
      // Sharded coordinator/worker execution over loopback: one real
      // coordinator plus N node threads running the real worker loop.
      // Recovery events land in the report's "failures"."dist" section,
      // not result.failures — a recovered run is a clean run.
      result = dist::run_dist(catalog, config, reader, dist_config, engine);
    } else {
      // The morsel executor (--exec batch and streaming alike) already
      // folds scan-level losses (quarantined chunks) into
      // result.failures.
      result = pipeline.run(engine, reader);
    }
  } else {
    if (config.exec_mode != core::ExecMode::Batch) {
      throw std::invalid_argument(
          std::string("--exec=") + core::to_string(config.exec_mode) +
          " requires a columnar .ivc trace ('" + trace_path +
          "' is not one; convert it with 'ivt pack' first)");
    }
    errors::FailureLog ingest_failures;
    const auto kb =
        load_ivt_kb(trace_path, engine, config.on_error, &ingest_failures);
    result = pipeline.run(engine, kb);

    // Fold upstream ingest losses (truncated record streams) into the run
    // report next to the dropped sequences.
    std::vector<errors::FailureRecord> combined = ingest_failures.records();
    for (errors::FailureRecord& f : result.failures) {
      combined.push_back(std::move(f));
    }
    result.failures = std::move(combined);
  }

  if (state_path) write_table_arg(result.state, *state_path);
  if (krep_path) write_table_arg(result.krep, *krep_path);

  if (report_kind == "json") {
    std::printf("%s", core::report_to_json(result).c_str());
  } else {
    std::printf("%s", core::report_to_text(result).c_str());
  }
  if (config.on_error == errors::ErrorPolicy::Quarantine &&
      !result.failures.empty()) {
    const std::string manifest_path = trace_path + ".quarantine.json";
    errors::write_quarantine_manifest(manifest_path, trace_path,
                                      result.failures);
    std::fprintf(stderr,
                 "quarantine manifest written to %s (%zu failures)\n",
                 manifest_path.c_str(), result.failures.size());
  }
  obs_outputs.write();
  return result.failures.empty() ? 0 : 4;
}

int cmd_mine(const Args& args) {
  const std::string trace_path = args.require("trace");
  const signaldb::Catalog catalog = load_catalog_arg(args, "catalog");

  core::PipelineConfig config;
  config.signals = args.get_list("signals");
  config.classifier.rate_threshold_hz = args.get_double("rate-threshold", 5.0);
  config.extensions = {core::cycle_violation_extension(1.5)};
  const dataflow::EngineConfig engine_config = engine_config_from_args(args);
  const std::size_t top_k =
      static_cast<std::size_t>(args.get_int("top-k", 10));
  const double rare_probability =
      args.get_double("rare-probability", 0.05);
  const double min_support = args.get_double("min-support", 0.1);
  const double min_confidence = args.get_double("min-confidence", 0.9);
  std::vector<std::string> rule_columns = args.get_list("rule-columns");
  const auto dot_path = args.get("dot");
  const ObsOutputs obs_outputs(args);
  warn_unused(args);

  dataflow::Engine engine(engine_config);
  const core::Pipeline pipeline(catalog, config);
  // .ivc traces run through the morsel executor, .ivt traces through the
  // whole-table path.
  const core::PipelineResult result =
      colstore::is_columnar_trace_file(trace_path)
          ? pipeline.run(engine, colstore::ColumnarReader(trace_path))
          : pipeline.run(engine, load_ivt_kb(trace_path, engine));
  std::printf("%s\n", core::report_summary_line(result).c_str());

  // 1. Element anomalies.
  apps::AnomalyConfig anomaly_config;
  anomaly_config.top_k = top_k;
  std::printf("\n== top %zu element anomalies ==\n", top_k);
  for (const apps::Anomaly& a :
       apps::detect_element_anomalies(result.krep, anomaly_config)) {
    std::printf("  sev %6.2f  t=%10.3fs  %-20s %s\n", a.severity,
                static_cast<double>(a.t_ns) / 1e9, a.signal.c_str(),
                a.description.c_str());
  }

  // 2. Transition graph of the first multi-state γ signal.
  std::string graph_signal;
  for (const core::SequenceReport& report : result.sequences) {
    if (report.classification.branch == core::Branch::Gamma &&
        report.classification.criteria.z_num > 2 &&
        result.state.schema().contains(report.s_id)) {
      graph_signal = report.s_id;
      break;
    }
  }
  if (!graph_signal.empty()) {
    const auto graph =
        apps::TransitionGraph::from_column(result.state, graph_signal);
    std::printf("\n== rare transitions of '%s' (p <= %.3f) ==\n",
                graph_signal.c_str(), rare_probability);
    for (const apps::TransitionEdge& edge :
         graph.rare_transitions(rare_probability)) {
      std::printf("  %-16s -> %-16s p=%.4f (x%zu)\n", edge.from.c_str(),
                  edge.to.c_str(), edge.probability, edge.count);
    }
    if (dot_path) {
      std::ofstream dot(*dot_path, std::ios::binary);
      if (!dot) throw std::runtime_error("cannot open: " + *dot_path);
      dot << graph.to_dot(rare_probability);
      std::fprintf(stderr, "transition graph written to %s\n",
                   dot_path->c_str());
    }
  }

  // 3. Association rules over a manageable column subset.
  if (rule_columns.empty()) {
    for (std::size_t c = 0;
         c < result.state.schema().size() && rule_columns.size() < 6; ++c) {
      rule_columns.push_back(result.state.schema().field(c).name);
    }
  } else {
    rule_columns.insert(rule_columns.begin(), "t");
  }
  const auto trimmed = dataflow::project(engine, result.state, rule_columns);
  apps::MinerConfig miner;
  miner.min_support = min_support;
  miner.min_confidence = min_confidence;
  miner.max_itemset_size = 2;
  const auto rules = apps::mine_rules(trimmed, miner);
  std::printf("\n== association rules (top %zu of %zu) ==\n",
              std::min<std::size_t>(top_k, rules.size()), rules.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(top_k, rules.size());
       ++i) {
    std::printf("  %s\n", rules[i].to_display_string().c_str());
  }
  return 0;
}

int cmd_export_asc(const Args& args) {
  const tracefile::Trace trace =
      colstore::load_any_trace(args.require("trace"));
  const auto out_path = args.get("out");
  warn_unused(args);
  if (out_path) {
    std::ofstream out(*out_path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot open for write: " + *out_path);
    tracefile::export_asc(trace, out);
  } else {
    tracefile::export_asc(trace, std::cout);
  }
  return 0;
}

namespace {

/// cmd_serve's SIGTERM/SIGINT target. request_stop() is async-signal-safe
/// (one write to a self-pipe), so calling it from the handler is legal.
serve::Server* g_serve_instance = nullptr;

extern "C" void handle_serve_signal(int) {
  if (g_serve_instance != nullptr) g_serve_instance->request_stop();
}

/// cmd_coordinator's SIGTERM/SIGINT target — same self-pipe pattern.
dist::Coordinator* g_coordinator_instance = nullptr;

extern "C" void handle_coordinator_signal(int) {
  if (g_coordinator_instance != nullptr) {
    g_coordinator_instance->request_stop();
  }
}

/// Registered trace name: basename without the extension
/// ("out/SYN_J0.ivc" -> "SYN_J0").
std::string trace_name_from_path(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos && dot > 0) name.resize(dot);
  return name;
}

}  // namespace

int cmd_serve(const Args& args) {
  signaldb::Catalog db = load_catalog_arg(args, "catalog");
  const std::vector<std::string> trace_paths = args.get_list("traces");
  if (trace_paths.empty()) {
    throw std::invalid_argument(
        "serve: --traces a.ivc[,b.ivc...] is required");
  }
  serve::ServerConfig config;
  config.host = args.get_or("host", "127.0.0.1");
  config.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  config.workers = static_cast<std::size_t>(args.get_int("workers", 0));
  config.max_in_flight =
      static_cast<std::size_t>(args.get_int("max-in-flight", 0));
  config.query.chunk_cache_bytes =
      static_cast<std::size_t>(args.get_int("cache-mb", 64)) << 20U;
  config.query.state_cache_bytes =
      static_cast<std::size_t>(args.get_int("state-cache-mb", 64)) << 20U;
  config.query.stats_window_s =
      static_cast<std::size_t>(args.get_int("stats-window-s", 60));
  config.query.scan_mode =
      colstore::parse_scan_mode(args.get_or("scan", "decoded"));
  config.event_log_path = args.get_or("event-log", "");
  config.slow_query_ms = args.get_double("slow-query-ms", 0.0);
  const auto trace_out = args.get("trace-out");
  warn_unused(args);

  auto catalog = std::make_unique<serve::TraceCatalog>(std::move(db));
  for (const std::string& path : trace_paths) {
    catalog->add_trace(trace_name_from_path(path), path);
    std::fprintf(stderr, "serve: registered %s as '%s'\n", path.c_str(),
                 trace_name_from_path(path).c_str());
  }
  serve::Server server(std::move(catalog), config);
  try {
    server.start();
  } catch (const errors::Error& e) {
    std::fprintf(stderr, "serve: %s\n", e.describe().c_str());
    return 5;  // bind/listen failure — distinct so scripts can tell
               // "port taken" from "query failed"
  }
  g_serve_instance = &server;
  std::signal(SIGTERM, handle_serve_signal);
  std::signal(SIGINT, handle_serve_signal);
  // The readiness line scripts (and the CI smoke lane) wait for.
  std::printf("listening on %s:%u\n", server.host().c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  server.wait();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  g_serve_instance = nullptr;
  server.stop();
  if (trace_out) {
    obs::write_chrome_trace(*trace_out);
    std::fprintf(stderr, "serve: chrome trace written to %s (%zu spans)\n",
                 trace_out->c_str(), obs::collect_spans().size());
  }
  std::fprintf(stderr, "serve: shut down cleanly\n");
  return 0;
}

int cmd_query(const Args& args) {
  const std::string host = args.get_or("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.get_int("port", 0));
  if (port == 0) {
    throw std::invalid_argument("query: --port is required");
  }
  const std::string op = args.get_or("op", "ping");
  serve::json::Object request;
  request.add("op", op);
  if (const auto trace = args.get("trace")) request.add("trace", *trace);
  const auto signals = args.get_list("signals");
  if (!signals.empty()) {
    request.raw("signals", serve::json::render_array(signals));
  }
  if (args.has("min-t-ns")) {
    request.add("min_t_ns", args.get_int("min-t-ns", 0));
  }
  if (args.has("max-t-ns")) {
    request.add("max_t_ns", args.get_int("max-t-ns", 0));
  }
  if (args.has("rate-threshold")) {
    request.add("rate_threshold_hz", args.get_double("rate-threshold", 5.0));
  }
  if (args.has("top-k")) request.add("top_k", args.get_int("top-k", 10));
  const auto out_path = args.get("out");
  const auto trace_out = args.get("trace-out");
  const int timeout_ms = static_cast<int>(args.get_int("timeout-ms", 0));
  warn_unused(args);

  // Mint a trace context and attach it to the request so the server's
  // spans and access record carry the same trace id as the client span
  // below; `ivt trace-merge` then lines both exports up by that id.
  const obs::TraceContext trace_ctx = obs::TraceContext::mint();
  serve::add_trace_context(request, trace_ctx);
  serve::Client client(host, port, timeout_ms);
  serve::Frame raw;
  {
    const obs::TraceContextScope trace_scope(trace_ctx);
    OBS_SPAN("serve.client.request");
    raw = client.request_raw(serve::Frame{request.str(), {}});
  }
  if (trace_out) {
    obs::write_chrome_trace(*trace_out);
    std::fprintf(stderr, "query: chrome trace written to %s\n",
                 trace_out->c_str());
  }
  serve::ClientResponse response;
  response.body = serve::json::parse(raw.json);
  std::printf("%s\n", raw.json.c_str());
  if (!response.ok()) {
    std::fprintf(stderr, "query: %s error%s: %s\n",
                 response.error_category().c_str(),
                 response.retryable() ? " (retryable)" : "",
                 response.error_message().c_str());
    // Mirror run_cli's category mapping for server-side failures.
    if (const std::optional<errors::Category> category =
            errors::parse_category(response.error_category())) {
      return category_exit_code(*category);
    }
    return 1;
  }
  if (out_path) {
    std::ofstream out(*out_path, std::ios::binary);
    if (!out) {
      IVT_THROW(errors::Category::Io, "cannot open for write: " + *out_path);
    }
    out.write(raw.payload.data(),
              static_cast<std::streamsize>(raw.payload.size()));
    std::fprintf(stderr, "payload written to %s (%zu bytes)\n",
                 out_path->c_str(), raw.payload.size());
  } else if (!raw.payload.empty()) {
    std::fwrite(raw.payload.data(), 1, raw.payload.size(), stdout);
  }
  return 0;
}

int cmd_trace_merge(const Args& args) {
  const std::string out_path = args.require("out");
  const std::vector<std::string>& inputs = args.positional();
  warn_unused(args);
  if (inputs.empty()) {
    throw std::invalid_argument(
        "trace-merge: at least one input trace path is required");
  }
  std::vector<serve::TraceInput> traces;
  traces.reserve(inputs.size());
  for (const std::string& path : inputs) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      IVT_THROW(errors::Category::Io, "trace-merge: cannot open: " + path);
    }
    std::ostringstream text;
    text << in.rdbuf();
    traces.push_back({trace_name_from_path(path), text.str()});
  }
  const std::string merged = serve::merge_chrome_traces(traces);
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    IVT_THROW(errors::Category::Io,
              "trace-merge: cannot open for write: " + out_path);
  }
  out << merged;
  std::fprintf(stderr, "merged %zu trace(s) into %s\n", traces.size(),
               out_path.c_str());
  return 0;
}

int cmd_coordinator(const Args& args) {
  const std::string trace_path = args.require("trace");
  const std::string catalog_path = args.require("catalog");
  const signaldb::Catalog catalog = signaldb::load_catalog(catalog_path);

  core::PipelineConfig config;
  config.signals = args.get_list("signals");
  config.classifier.rate_threshold_hz = args.get_double("rate-threshold", 5.0);
  if (args.has("no-reduction")) config.constraints.clear();
  config.exec_mode = core::ExecMode::Dist;
  config.on_error = error_policy_arg(args);
  config.scan_mode = colstore::parse_scan_mode(args.get_or("scan", "decoded"));
  const dataflow::EngineConfig engine_config = engine_config_from_args(args);

  dist::CoordinatorConfig ccfg;
  ccfg.host = args.get_or("host", "127.0.0.1");
  ccfg.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  ccfg.trace_path = trace_path;
  ccfg.catalog_path = catalog_path;
  ccfg.target_ranges = static_cast<std::uint64_t>(args.get_int("ranges", 0));
  ccfg.expected_workers =
      static_cast<std::size_t>(args.get_int("expect-workers", 4));
  ccfg.heartbeat_ms = static_cast<int>(args.get_int("heartbeat-ms", 50));
  ccfg.dead_after_missed =
      static_cast<int>(args.get_int("dead-after-missed", 3));
  ccfg.speculate_min_age =
      static_cast<std::uint64_t>(args.get_int("speculate-min-age", 2));
  const auto state_path = args.get("state");
  const auto krep_path = args.get("krep");
  const std::string report_kind = args.get_or("report", "text");
  if (report_kind != "json" && report_kind != "text") {
    throw std::invalid_argument("unknown report kind '" + report_kind + "'");
  }
  const ObsOutputs obs_outputs(args);
  warn_unused(args);

  if (!colstore::is_columnar_trace_file(trace_path)) {
    throw std::invalid_argument(
        "coordinator: --trace must be a columnar .ivc file ('" + trace_path +
        "' is not one; convert it with 'ivt pack' first)");
  }
  const colstore::ColumnarReader reader(trace_path);
  dataflow::Engine engine(engine_config);
  dist::Coordinator coordinator(catalog, config, reader, ccfg);
  try {
    coordinator.start();
  } catch (const errors::Error& e) {
    std::fprintf(stderr, "coordinator: %s\n", e.describe().c_str());
    return 5;  // bind/listen failure, same contract as `ivt serve`
  }
  g_coordinator_instance = &coordinator;
  std::signal(SIGTERM, handle_coordinator_signal);
  std::signal(SIGINT, handle_coordinator_signal);
  // The readiness line scripts (and the CI smoke lane) wait for.
  std::printf("coordinating on %s:%u ranges=%llu\n",
              coordinator.host().c_str(),
              static_cast<unsigned>(coordinator.port()),
              static_cast<unsigned long long>(coordinator.num_ranges()));
  std::fflush(stdout);

  core::PipelineResult result;
  try {
    result = coordinator.wait_result(engine);
  } catch (...) {
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    g_coordinator_instance = nullptr;
    coordinator.stop();
    throw;
  }
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  g_coordinator_instance = nullptr;

  if (state_path) write_table_arg(result.state, *state_path);
  if (krep_path) write_table_arg(result.krep, *krep_path);
  if (report_kind == "json") {
    std::printf("%s", core::report_to_json(result).c_str());
  } else {
    std::printf("%s", core::report_to_text(result).c_str());
  }
  // Keep answering dist.next with done:true for a couple of heartbeats so
  // idle workers polling at heartbeat cadence observe completion instead
  // of a refused connection (they would still terminate — bounded by
  // their unreachable deadline — but this way they exit cleanly).
  std::this_thread::sleep_for(
      std::chrono::milliseconds(2 * ccfg.heartbeat_ms));
  coordinator.stop();
  obs_outputs.write();
  return result.failures.empty() ? 0 : 4;
}

int cmd_worker(const Args& args) {
  dist::WorkerOptions options;
  options.host = args.get_or("host", "127.0.0.1");
  options.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  if (options.port == 0) {
    throw std::invalid_argument("worker: --port is required");
  }
  options.name = args.require("name");
  options.timeout_ms = static_cast<int>(args.get_int("timeout-ms", 5000));
  options.register_timeout_ms =
      static_cast<int>(args.get_int("register-timeout-ms", 10000));
  options.sim.seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
  options.sim.failure_rate = args.get_double("sim-failure-rate", 0.0);
  options.sim.latency_ms =
      static_cast<int>(args.get_int("sim-latency-ms", 0));
  options.sim.slow_factor = args.get_double("sim-slow-factor", 1.0);
  warn_unused(args);

  const dist::WorkerOutcome outcome = dist::run_worker(options);
  if (outcome.completed) {
    std::fprintf(stderr,
                 "worker %s: job done (%llu ranges, %llu register "
                 "attempts, %llu result retries)\n",
                 options.name.c_str(),
                 static_cast<unsigned long long>(outcome.ranges_done),
                 static_cast<unsigned long long>(outcome.register_attempts),
                 static_cast<unsigned long long>(outcome.result_retries));
    return 0;
  }
  // A simulated death is a deliberate, reported crash — nonzero so a
  // shell respawn loop can tell it from completion.
  std::fprintf(stderr, "worker %s: simulated death after %llu ranges\n",
               options.name.c_str(),
               static_cast<unsigned long long>(outcome.ranges_done));
  return 1;
}

namespace {

/// One rendered frame of `ivt top`. Missing fields (older daemon, no
/// traffic yet) render as zeros rather than erroring — the dashboard
/// keeps polling.
void render_top_frame(const serve::json::Value& body, const std::string& host,
                      std::uint16_t port) {
  const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(hits) /
                            static_cast<double>(total);
  };
  std::uint64_t window_s = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  std::uint64_t window_count = 0;
  if (const serve::json::Value* lat = body.find("latency_windowed")) {
    window_s = static_cast<std::uint64_t>(lat->get_int("window_seconds", 0));
    p50 = lat->get_double("p50_ms", 0.0);
    p99 = lat->get_double("p99_ms", 0.0);
    window_count = static_cast<std::uint64_t>(lat->get_int("count", 0));
  }
  std::printf("ivt top — %s:%u (stats op", host.c_str(),
              static_cast<unsigned>(port));
  if (window_s > 0) std::printf(", %llus window",
                                static_cast<unsigned long long>(window_s));
  std::printf(")\n\n");
  std::printf("  qps        %10.1f    in-flight %8lld    window reqs %8llu\n",
              body.get_double("qps", 0.0),
              static_cast<long long>(body.get_int("in_flight", 0)),
              static_cast<unsigned long long>(
                  body.get_int("requests_window", 0)));
  std::printf("  requests   %10llu    failed    %8llu    overloaded  %8llu\n",
              static_cast<unsigned long long>(
                  body.get_int("requests_total", 0)),
              static_cast<unsigned long long>(
                  body.get_int("requests_failed", 0)),
              static_cast<unsigned long long>(
                  body.get_int("requests_overloaded", 0)));
  std::printf("  latency    p50 %9.2f ms    p99 %9.2f ms    (%llu in window)\n",
              p50, p99, static_cast<unsigned long long>(window_count));
  if (const serve::json::Value* cache = body.find("chunk_cache")) {
    const auto hits = static_cast<std::uint64_t>(cache->get_int("hits", 0));
    const auto misses =
        static_cast<std::uint64_t>(cache->get_int("misses", 0));
    std::printf("  chunk $    %10llu hit  %8llu miss    %6.1f%% hit\n",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                ratio(hits, misses));
  }
  if (const serve::json::Value* cache = body.find("state_cache")) {
    const auto hits = static_cast<std::uint64_t>(cache->get_int("hits", 0));
    const auto misses =
        static_cast<std::uint64_t>(cache->get_int("misses", 0));
    std::printf("  state $    %10llu hit  %8llu miss    %6.1f%% hit\n",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                ratio(hits, misses));
  }
  std::printf("  obs        spans dropped %6llu    events dropped %6llu\n",
              static_cast<unsigned long long>(
                  body.get_int("spans_dropped", 0)),
              static_cast<unsigned long long>(
                  body.get_int("events_dropped", 0)));
}

}  // namespace

int cmd_top(const Args& args) {
  const std::string host = args.get_or("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.get_int("port", 0));
  if (port == 0) {
    throw std::invalid_argument("top: --port is required");
  }
  const double interval_s = args.get_double("interval", 2.0);
  const auto iterations = args.get_int("iterations", 0);  // 0 = forever
  const bool no_clear = args.has("no-clear");
  warn_unused(args);

  serve::json::Object request;
  request.add("op", "stats");
  const std::string request_json = request.str();

  for (std::int64_t i = 0; iterations == 0 || i < iterations; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          interval_s > 0.0 ? interval_s : 0.0));
    }
    // One connection per poll: a daemon restart between frames only costs
    // one failed poll's error message, not a wedged dashboard.
    serve::Client client(host, port);
    const serve::ClientResponse response = client.request(request_json);
    if (!response.ok()) {
      std::fprintf(stderr, "top: %s error: %s\n",
                   response.error_category().c_str(),
                   response.error_message().c_str());
      return 1;
    }
    if (!no_clear) std::printf("\033[2J\033[H");
    render_top_frame(response.body, host, port);
    std::fflush(stdout);
  }
  return 0;
}

int run_cli(int argc, const char* const* argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  try {
    // Arm failpoints before any I/O so injected faults cover the whole
    // command; a malformed recipe aborts (a typo'd IVT_FAULTS must not
    // silently run without faults).
    faultfx::arm_from_env();
    if (command == "simulate") return cmd_simulate(args);
    if (command == "inspect") return cmd_inspect(args);
    if (command == "catalog") return cmd_catalog(args);
    if (command == "pack") return cmd_pack(args);
    if (command == "extract") return cmd_extract(args);
    if (command == "run") return cmd_run(args);
    if (command == "mine") return cmd_mine(args);
    if (command == "export-asc") return cmd_export_asc(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "query") return cmd_query(args);
    if (command == "trace-merge") return cmd_trace_merge(args);
    if (command == "top") return cmd_top(args);
    if (command == "coordinator") return cmd_coordinator(args);
    if (command == "worker") return cmd_worker(args);
    if (command == "help" || command == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    std::fprintf(stderr, "unknown command '%s'\n\n%s", command.c_str(),
                 kUsage);
    return 2;
  } catch (const errors::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.describe().c_str());
    return category_exit_code(e.category());
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "usage error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace ivt::cli
