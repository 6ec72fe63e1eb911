// `ivt_bench traced`: per-layer numbers for one workload.
//
// The program has no spans of its own that a benchmark could read, so the
// jobs are re-composed here from the public functions of each layer, and
// each call is timed from outside:
//
//   batch      reader.scan -> core::preselect -> core::interpret ->
//              core::split_signals_data -> per sequence (engine.parallel_for)
//              reduce_sequence, apply_extensions, classify_sequence,
//              process_by_branch -> concat_tables ->
//              build_state_representation
//   streaming  MorselProcessor::process per morsel (engine
//              parallel_for_bounded) -> accumulate_partial ->
//              Pipeline::merge_morsel_partials
//   dist       dist::encode_partials / decode_partials on the job's
//              partials, and DistStats of a dist::run_dist job
//
// Every decomposed journey must produce the row counts of an untraced
// Pipeline::run of the same journey (kb, kpre, ks, reduced, krep, state);
// a mismatch is reported as an error and fails the run. Spans stay in
// memory and are written as a Chrome trace-event file at the end (--chrome).
//
// Each metric is printed as the list of its per-rep values (a rep is one
// pass over every journey of the workload); run.py reports their median.
#include <algorithm>
#include <array>
#include <atomic>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include "core/schemas.hpp"
#include "dist/partial_codec.hpp"
#include "dist/sim.hpp"
#include "suite.hpp"

namespace ivt::bench {

namespace {

/// In-memory span recorder. Spans may open and close on any thread.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    int tid = 0;
  };

  int begin(std::string name, int parent) {
    const double now = seconds_since(origin_);
    const std::lock_guard<std::mutex> lock(mu_);
    const auto [it, added] =
        tids_.try_emplace(std::this_thread::get_id(),
                          static_cast<int>(tids_.size()));
    spans_.push_back({std::move(name), now, now, parent, it->second});
    return static_cast<int>(spans_.size() - 1);
  }

  /// Closes span `id`; returns its duration in seconds.
  double end(int id) {
    const double now = seconds_since(origin_);
    const std::lock_guard<std::mutex> lock(mu_);
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_s = now;
    return span.end_s - span.start_s;
  }

  /// Span duration minus the part of it that its child spans cover.
  double self_s(int id) const {
    const std::lock_guard<std::mutex> lock(mu_);
    const Span& span = spans_[static_cast<std::size_t>(id)];
    std::vector<std::pair<double, double>> children;
    for (const Span& s : spans_) {
      if (&s != &span && s.parent == id) {
        children.emplace_back(std::max(s.start_s, span.start_s),
                              std::min(s.end_s, span.end_s));
      }
    }
    std::sort(children.begin(), children.end());
    double covered = 0.0;
    double reach = span.start_s;
    for (const auto& [lo, hi] : children) {
      if (hi > reach) {
        covered += hi - std::max(lo, reach);
        reach = hi;
      }
    }
    return (span.end_s - span.start_s) - covered;
  }

  void write_chrome(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                    s.tid, s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, i,
                    s.parent);
      out << (i > 0 ? "," : "") << "{\"name\":\""
          << serve::json::escape(s.name) << buf;
    }
    out << "]}\n";
    if (!out) throw std::runtime_error("cannot write chrome trace " + path);
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, int> tids_;
};

/// RAII span; close() ends it early and returns its duration.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, int parent)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent)) {}
  ~Scope() {
    if (!closed_) tracer_.end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const { return id_; }
  double close() {
    closed_ = true;
    return tracer_.end(id_);
  }

 private:
  Tracer& tracer_;
  int id_;
  bool closed_ = false;
};

using Counts = std::array<std::size_t, 6>;  // kb kpre ks reduced krep state

Counts counts_of(const core::PipelineResult& r) {
  return {r.kb_rows,      r.kpre_rows, r.ks_rows,
          r.reduced_rows, r.krep_rows, r.state.num_rows()};
}

/// Per-rep metric values, summed over the journeys of one pass.
using Values = std::map<std::string, double>;

/// Accumulating nanoseconds from parallel tasks.
struct Busy {
  std::atomic<std::int64_t> ns{0};
  void add(Clock::time_point since) {
    ns.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - since)
                     .count(),
                 std::memory_order_relaxed);
  }
  [[nodiscard]] double s() const { return static_cast<double>(ns.load()) / 1e9; }
};

class Decomposer {
 public:
  Decomposer(const Inputs& in, const cli::Args& args, Tracer& tracer)
      : in_(in),
        tracer_(tracer),
        batch_cfg_(job_config(args, in.catalog, core::ExecMode::Batch,
                              colstore::ScanMode::Decoded)),
        stream_cfg_(job_config(args, in.catalog, core::ExecMode::Streaming,
                               colstore::ScanMode::Compressed)),
        batch_(in.catalog, batch_cfg_),
        stream_(in.catalog, stream_cfg_) {}

  const core::Pipeline& batch_pipeline() const { return batch_; }
  const core::Pipeline& stream_pipeline() const { return stream_; }
  const core::PipelineConfig& stream_config() const { return stream_cfg_; }

  /// Batch Algorithm 1 over journey j, one span per public call.
  Counts batch(dataflow::Engine& engine, std::size_t j, int parent,
               Values& v, std::string* digest) {
    const colstore::ColumnarReader& reader = *in_.readers[j];
    const dataflow::Table& urel = batch_.urel();
    Counts c{};
    Scope scan(tracer_, "colstore.scan", parent);
    dataflow::Table kb = reader.scan({}, engine, colstore::ScanOptions{});
    c[0] = kb.num_rows();
    v["colstore.scan.s"] += scan.close();
    v["colstore.scan.rows_out"] += static_cast<double>(c[0]);

    Scope pre(tracer_, "core.preselect", parent);
    dataflow::Table kpre = core::preselect(engine, kb, urel);
    kb = dataflow::Table(kb.schema());
    c[1] = kpre.num_rows();
    v["core.preselect.s"] += pre.close();

    Scope interp(tracer_, "core.interpret", parent);
    dataflow::Table ks =
        core::interpret(engine, kpre, urel, batch_.config().interpret);
    kpre = dataflow::Table(kpre.schema());
    c[2] = ks.num_rows();
    v["core.interpret.s"] += interp.close();

    Scope split_span(tracer_, "core.split", parent);
    core::SplitDataResult split =
        core::split_signals_data(engine, ks, batch_cfg_.split);
    ks = dataflow::Table(core::ks_schema());
    v["core.split.s"] += split_span.close();
    v["core.split.sequences"] += static_cast<double>(split.sequences.size());
    v["core.split.channels_deduped"] += 0.0;
    v["core.branch_alpha.rows_in"] += 0.0;
    for (const core::ChannelCorrespondence& cc : split.correspondences) {
      v["core.split.channels_deduped"] +=
          static_cast<double>(cc.corresponding_buses.size());
    }

    // Lines 10-28, per sequence, parallel across sequences.
    const std::size_t n = split.sequences.size();
    std::vector<dataflow::Table> branch_tables(n);
    std::vector<std::vector<dataflow::Table>> extension_tables(n);
    std::vector<std::size_t> raw_rows(n);
    std::vector<std::size_t> reduced_rows(n);
    std::vector<core::Branch> branches(n);
    Busy reduce_busy;
    Busy classify_busy;
    Busy branch_busy[3];
    Scope per_seq(tracer_, "core.per_sequence", parent);
    engine.parallel_for(n, [&](std::size_t i) {
      const core::SequenceData& raw = split.sequences[i];
      const signaldb::SignalRef ref = in_.catalog.find_signal(raw.s_id);
      const signaldb::SignalSpec* spec = ref.valid() ? ref.signal : nullptr;
      raw_rows[i] = raw.size();
      auto start = Clock::now();
      core::SequenceData red;
      {
        const Scope s(tracer_, "core.reduce", per_seq.id());
        red = core::reduce_sequence(batch_cfg_.constraints, raw, spec);
      }
      reduce_busy.add(start);
      reduced_rows[i] = red.size();
      const core::ConstraintContext context{red, spec};
      extension_tables[i] = core::apply_extensions(
          batch_cfg_.extensions,
          core::ConstraintContext{batch_cfg_.extensions_on_reduced ? red : raw,
                                  spec});
      start = Clock::now();
      core::Classification cls;
      {
        const Scope s(tracer_, "core.classify", per_seq.id());
        cls = core::classify_sequence(context, batch_cfg_.classifier);
      }
      classify_busy.add(start);
      branches[i] = cls.branch;
      start = Clock::now();
      {
        const Scope s(tracer_,
                      "core.branch_" + std::string(core::to_string(cls.branch)),
                      per_seq.id());
        branch_tables[i] =
            core::process_by_branch(cls.branch, context, batch_cfg_.branch);
      }
      branch_busy[static_cast<int>(cls.branch)].add(start);
    });
    split = core::SplitDataResult{};  // process_and_merge frees it too
    v["core.per_sequence.wall_s"] += per_seq.close();
    double raw_total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      c[3] += reduced_rows[i];
      raw_total += static_cast<double>(raw_rows[i]);
      if (branches[i] == core::Branch::Alpha) {
        v["core.branch_alpha.rows_in"] += static_cast<double>(reduced_rows[i]);
      }
    }
    v["core.reduce.busy_s"] += reduce_busy.s();
    v["core.classify.busy_s"] += classify_busy.s();
    v["core.branch.busy_s"] +=
        branch_busy[0].s() + branch_busy[1].s() + branch_busy[2].s();
    v["core.branch_beta.busy_s"] += branch_busy[1].s();
    v["core.branch_gamma.busy_s"] += branch_busy[2].s();
    sums_["branch.alpha"] += branch_busy[0].s();
    sums_["reduce.raw"] += raw_total;
    sums_["reduce.kept"] += static_cast<double>(c[3]);

    Scope merge(tracer_, "core.merge", parent);
    std::vector<dataflow::Table> all;
    for (std::size_t i = 0; i < n; ++i) {
      all.push_back(std::move(branch_tables[i]));
      for (dataflow::Table& t : extension_tables[i]) all.push_back(std::move(t));
    }
    core::PipelineResult result;
    result.krep = core::concat_tables(core::krep_schema(), std::move(all));
    c[4] = result.krep.num_rows();
    v["core.merge.s"] += merge.close();

    Scope state(tracer_, "core.state_repr", parent);
    result.state = core::build_state_representation(engine, result.krep,
                                                    batch_cfg_.state);
    c[5] = result.state.num_rows();
    v["core.state_repr.s"] += state.close();
    v["core.state_repr.cells"] += static_cast<double>(
        result.state.num_rows() * result.state.schema().size());

    sums_["kb"] += static_cast<double>(c[0]);
    sums_["kpre"] += static_cast<double>(c[1]);
    sums_["ks"] += static_cast<double>(c[2]);
    if (digest != nullptr) {
      const Scope s(tracer_, "bench.digest", parent);
      result.kb_rows = c[0];
      result.kpre_rows = c[1];
      result.ks_rows = c[2];
      result.reduced_rows = c[3];
      result.krep_rows = c[4];
      Fnv1a d;
      add_result_digest(d, result);
      *digest = d.hex();
    }
    // Pipeline::run hands its tables to the caller, who frees them.
    const Scope release(tracer_, "bench.release_outputs", parent);
    result = core::PipelineResult{};
    return c;
  }

  /// Streaming Algorithm 1 over journey j.
  Counts streaming(dataflow::Engine& engine, std::size_t j, int parent,
                   Values& v) {
    const colstore::ColumnarReader& reader = *in_.readers[j];
    Scope phase(tracer_, "core.morsels", parent);
    const core::MorselProcessor processor(reader, stream_.urel(),
                                          stream_cfg_, nullptr);
    core::KeyedSegments keyed;
    std::mutex keyed_mu;
    std::atomic<std::size_t> kpre{0};
    std::atomic<std::size_t> ks{0};
    Busy busy;
    engine.parallel_for_bounded(
        processor.num_morsels(), 0, [&](std::size_t k) {
          const auto start = Clock::now();
          core::MorselPartial partial;
          {
            const Scope s(tracer_, "core.morsel", phase.id());
            partial = processor.process(k);
          }
          busy.add(start);
          kpre.fetch_add(partial.kpre_rows);
          ks.fetch_add(partial.ks_rows);
          const Scope s(tracer_, "core.accumulate", phase.id());
          const std::lock_guard<std::mutex> lock(keyed_mu);
          core::accumulate_partial(keyed, std::move(partial));
        });
    v["core.morsel.wall_s"] += phase.close();
    v["core.morsel.busy_s"] += busy.s();
    v["core.morsel.count"] += static_cast<double>(processor.num_morsels());

    Scope tail(tracer_, "core.tail", parent);
    const core::PipelineResult result = stream_.merge_morsel_partials(
        engine, std::move(keyed), reader.num_rows(), kpre.load(), ks.load(),
        {});
    v["core.tail.s"] += tail.close();
    return counts_of(result);
  }

  /// Ratios over everything the batch decomposition saw this rep.
  void finish_ratios(Values& v) {
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    v["core.preselect.selectivity"] = ratio(sums_["kpre"], sums_["kb"]);
    v["core.interpret.ks_per_kpre"] = ratio(sums_["ks"], sums_["kpre"]);
    v["core.reduce.keep_ratio"] = ratio(sums_["reduce.kept"], sums_["reduce.raw"]);
    v["core.branch_alpha.share"] =
        ratio(sums_["branch.alpha"], v["core.branch.busy_s"]);
    sums_.clear();
  }

 private:
  const Inputs& in_;
  Tracer& tracer_;
  core::PipelineConfig batch_cfg_;
  core::PipelineConfig stream_cfg_;
  core::Pipeline batch_;
  core::Pipeline stream_;
  std::map<std::string, double> sums_;
};

}  // namespace

int cmd_traced(const cli::Args& args) {
  const Inputs in = open_inputs(args);
  const auto min_reps = static_cast<std::size_t>(args.get_int("reps", 3));
  const double budget_s = args.get_double("seconds", 10.0);
  const std::string chrome_path = args.get_or("chrome", "");
  Tracer tracer;
  Decomposer dec(in, args, tracer);
  dataflow::Engine engine(engine_config(args));
  dataflow::EngineConfig inline_cfg;
  inline_cfg.inline_execution = true;
  dataflow::Engine inline_engine(inline_cfg);
  const std::size_t journeys = in.readers.size();
  std::vector<std::string> errors;

  // Untraced reference run of every journey (also the warm-up).
  std::vector<Counts> ref_counts(journeys);
  std::vector<std::string> ref_digests(journeys);
  for (std::size_t j = 0; j < journeys; ++j) {
    const core::PipelineResult r =
        dec.batch_pipeline().run(engine, *in.readers[j]);
    ref_counts[j] = counts_of(r);
    Fnv1a d;
    add_result_digest(d, r);
    ref_digests[j] = d.hex();
  }
  const auto check = [&](const char* what, std::size_t j, const Counts& c) {
    if (c != ref_counts[j]) {
      errors.push_back(std::string(what) + " decomposition of journey " +
                       std::to_string(j) +
                       ": stage row counts differ from Pipeline::run");
    }
  };
  const auto timed_pass = [&](auto&& body) {
    const auto start = Clock::now();
    for (std::size_t j = 0; j < journeys; ++j) body(j);
    return seconds_since(start);
  };

  std::map<std::string, std::vector<double>> series;
  const auto started = Clock::now();
  for (std::size_t rep = 0;
       rep < min_reps || seconds_since(started) < budget_s; ++rep) {
    Values v;
    const double batch_s = timed_pass([&](std::size_t j) {
      (void)dec.batch_pipeline().run(engine, *in.readers[j]);
    });

    Scope job(tracer, "batch.job", -1);
    for (std::size_t j = 0; j < journeys; ++j) {
      std::string digest;
      check("batch", j,
            dec.batch(engine, j, job.id(), v, rep == 0 ? &digest : nullptr));
      if (rep == 0 && digest != ref_digests[j]) {
        errors.push_back("batch decomposition of journey " +
                         std::to_string(j) + ": output digest differs");
      }
    }
    const double traced_s = job.close();
    v["trace.unaccounted_ratio"] = tracer.self_s(job.id()) / traced_s;
    v["trace.overhead_ratio"] = traced_s / batch_s;
    dec.finish_ratios(v);

    const double stream_s = timed_pass([&](std::size_t j) {
      (void)dec.stream_pipeline().run(engine, *in.readers[j]);
    });
    Scope sjob(tracer, "streaming.job", -1);
    for (std::size_t j = 0; j < journeys; ++j) {
      check("streaming", j, dec.streaming(engine, j, sjob.id(), v));
    }
    sjob.close();

    core::PipelineConfig dist_cfg = dec.stream_config();
    dist_cfg.exec_mode = core::ExecMode::Dist;
    const double dist_s = timed_pass([&](std::size_t j) {
      dist::DistRunConfig dcfg;
      dcfg.trace_path = in.trace_paths[j];
      dcfg.catalog_path = in.catalog_path;
      dcfg.nodes = 3;
      const core::PipelineResult r =
          dist::run_dist(in.catalog, dist_cfg, *in.readers[j], dcfg, engine);
      v["dist.ranges_total"] += static_cast<double>(r.dist.ranges_total);
      v["dist.results_deduped"] += static_cast<double>(r.dist.results_deduped);
      v["dist.speculative_launched"] +=
          static_cast<double>(r.dist.speculative_launched);
    });
    v["dist.overhead_s"] = dist_s - stream_s;

    for (std::size_t j = 0; j < journeys; ++j) {
      const core::MorselProcessor processor(
          *in.readers[j], dec.stream_pipeline().urel(), dec.stream_config(),
          nullptr);
      std::vector<core::MorselPartial> partials;
      for (std::size_t k = 0; k < processor.num_morsels(); ++k) {
        partials.push_back(processor.process(k));
      }
      Scope enc(tracer, "dist.encode_partials", -1);
      const std::string payload = dist::encode_partials(partials);
      v["dist.encode.s"] += enc.close();
      v["dist.payload_bytes"] += static_cast<double>(payload.size());
      Scope decode(tracer, "dist.decode_partials", -1);
      (void)dist::decode_partials(payload);
      v["dist.decode.s"] += decode.close();
    }

    const double inline_s = timed_pass([&](std::size_t j) {
      (void)dec.batch_pipeline().run(inline_engine, *in.readers[j]);
    });
    v["dataflow.inline_job_s"] = inline_s;
    v["dataflow.speedup"] = inline_s / batch_s;

    colstore::ScanStats pushdown;
    const double compressed_s = timed_pass([&](std::size_t j) {
      colstore::ScanStats stats;
      (void)core::preselect(engine, *in.readers[j],
                            dec.stream_pipeline().urel(),
                            colstore::ScanOptions{
                                .mode = colstore::ScanMode::Compressed},
                            &stats);
      pushdown.chunks_total += stats.chunks_total;
      pushdown.chunks_scanned += stats.chunks_scanned;
      pushdown.runs_considered += stats.runs_considered;
      pushdown.runs_pruned += stats.runs_pruned;
    });
    v["colstore.scan_compressed.s"] = compressed_s;
    v["colstore.pushdown.chunks_scanned_ratio"] =
        static_cast<double>(pushdown.chunks_scanned) /
        static_cast<double>(std::max<std::size_t>(1, pushdown.chunks_total));
    v["colstore.pushdown.runs_pruned_ratio"] =
        static_cast<double>(pushdown.runs_pruned) /
        static_cast<double>(std::max<std::size_t>(1, pushdown.runs_considered));

    for (const auto& [name, value] : v) series[name].push_back(value);
  }
  if (!chrome_path.empty()) tracer.write_chrome(chrome_path);

  serve::json::Object metrics;
  for (const auto& [name, values] : series) {
    metrics.raw(name, json_numbers(values));
  }
  serve::json::Object out;
  out.raw("metrics", metrics.str())
      .add("spans", static_cast<std::uint64_t>(tracer.size()))
      .raw("errors", serve::json::render_array(errors));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace ivt::bench
