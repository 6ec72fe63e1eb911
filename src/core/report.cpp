#include "core/report.hpp"

#include <cstdio>
#include <sstream>

#include "errors/failure_log.hpp"
#include "support/json_escape.hpp"

namespace ivt::core {

using support::json_escape;

std::string report_summary_line(const PipelineResult& result) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "K_b %zu -> K_pre %zu -> K_s %zu -> reduced %zu -> R_out %zu"
                " (state rows: %zu, sequences: %zu)",
                result.kb_rows, result.kpre_rows, result.ks_rows,
                result.reduced_rows, result.krep_rows,
                result.state.num_rows(), result.sequences.size());
  return buf;
}

std::string report_to_text(const PipelineResult& result) {
  std::ostringstream os;
  os << report_summary_line(result) << "\n";
  if (!result.stage_times.empty()) {
    os << "\nstage wall times (per-sequence stages summed over workers):\n";
    for (const StageTiming& st : result.stage_times) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "  %-12s %10.2f ms\n",
                    st.stage.c_str(), st.wall_ms());
      os << buf;
    }
  }
  os << "\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-20s %-8s %-8s %-8s %2s %4s %3s %8s %8s %8s %5s %5s %5s\n",
                "signal", "bus", "branch", "type", "zt", "zr", "zn", "in",
                "reduced", "out", "outl", "val", "ext");
  os << line;
  for (const SequenceReport& r : result.sequences) {
    std::snprintf(
        line, sizeof(line),
        "%-20s %-8s %-8s %-8s %2c %4c %3zu %8zu %8zu %8zu %5zu %5zu %5zu\n",
        r.s_id.c_str(), r.bus.c_str(),
        std::string(to_string(r.classification.branch)).c_str(),
        std::string(to_string(r.classification.data_type)).c_str(),
        r.classification.criteria.z_type, r.classification.criteria.z_rate,
        r.classification.criteria.z_num, r.input_rows, r.reduced_rows,
        r.output_rows, r.branch_stats.outliers, r.branch_stats.validity,
        r.extension_rows);
    os << line;
  }
  if (!result.correspondences.empty()) {
    os << "\ngateway correspondences:\n";
    for (const ChannelCorrespondence& c : result.correspondences) {
      os << "  " << c.s_id << ": representative " << c.representative_bus
         << " ==";
      for (const std::string& bus : c.corresponding_buses) os << " " << bus;
      os << "\n";
    }
  }
  if (!result.failures.empty()) {
    os << "\nrecovered failures (" << result.failures.size() << "):\n";
    for (const errors::FailureRecord& f : result.failures) {
      os << "  [" << to_string(f.category) << "] " << f.site << ": "
         << f.unit << " — " << f.message << "\n";
    }
  }
  return os.str();
}

std::string report_to_json(const PipelineResult& result) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"kb_rows\": " << result.kb_rows << ",\n";
  os << "  \"kpre_rows\": " << result.kpre_rows << ",\n";
  os << "  \"ks_rows\": " << result.ks_rows << ",\n";
  os << "  \"reduced_rows\": " << result.reduced_rows << ",\n";
  os << "  \"krep_rows\": " << result.krep_rows << ",\n";
  os << "  \"state_rows\": " << result.state.num_rows() << ",\n";
  os << "  \"stages\": [\n";
  for (std::size_t i = 0; i < result.stage_times.size(); ++i) {
    const StageTiming& st = result.stage_times[i];
    char wall[32];
    std::snprintf(wall, sizeof(wall), "%.3f", st.wall_ms());
    os << "    {\"stage\": \"" << json_escape(st.stage)
       << "\", \"wall_ms\": " << wall << "}"
       << (i + 1 < result.stage_times.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"sequences\": [\n";
  for (std::size_t i = 0; i < result.sequences.size(); ++i) {
    const SequenceReport& r = result.sequences[i];
    os << "    {\"s_id\": \"" << json_escape(r.s_id) << "\", \"bus\": \""
       << json_escape(r.bus) << "\", \"branch\": \""
       << to_string(r.classification.branch) << "\", \"data_type\": \""
       << to_string(r.classification.data_type) << "\", \"z_type\": \""
       << r.classification.criteria.z_type << "\", \"z_rate\": \""
       << r.classification.criteria.z_rate
       << "\", \"z_num\": " << r.classification.criteria.z_num
       << ", \"z_val\": "
       << (r.classification.criteria.z_val ? "true" : "false")
       << ", \"input_rows\": " << r.input_rows
       << ", \"reduced_rows\": " << r.reduced_rows
       << ", \"output_rows\": " << r.output_rows
       << ", \"outliers\": " << r.branch_stats.outliers
       << ", \"validity\": " << r.branch_stats.validity
       << ", \"extensions\": " << r.extension_rows
       << ", \"dropped\": " << (r.dropped ? "true" : "false");
    if (r.dropped) {
      os << ", \"drop_reason\": \"" << json_escape(r.drop_reason) << "\"";
    }
    os << "}" << (i + 1 < result.sequences.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"correspondences\": [\n";
  for (std::size_t i = 0; i < result.correspondences.size(); ++i) {
    const ChannelCorrespondence& c = result.correspondences[i];
    os << "    {\"s_id\": \"" << json_escape(c.s_id)
       << "\", \"representative\": \"" << json_escape(c.representative_bus)
       << "\", \"duplicates\": [";
    for (std::size_t j = 0; j < c.corresponding_buses.size(); ++j) {
      os << "\"" << json_escape(c.corresponding_buses[j]) << "\""
         << (j + 1 < c.corresponding_buses.size() ? ", " : "");
    }
    os << "]}" << (i + 1 < result.correspondences.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  std::size_t chunks_quarantined = 0;
  for (const errors::FailureRecord& f : result.failures) {
    chunks_quarantined += f.site == "colstore.decode_chunk" ? 1 : 0;
  }
  os << "  \"failures\": {\n";
  os << "    \"total\": " << result.failures.size() << ",\n";
  os << "    \"sequences_dropped\": " << result.sequences_dropped() << ",\n";
  os << "    \"chunks_quarantined\": " << chunks_quarantined << ",\n";
  if (result.dist.enabled) {
    // Distributed-run recovery accounting sits next to the data losses:
    // a re-assigned range is a recovered infrastructure failure, and the
    // equivalence tests audit these counters against the sim layer.
    const DistStats& d = result.dist;
    os << "    \"dist\": {\n";
    os << "      \"nodes\": " << d.nodes << ",\n";
    os << "      \"ranges_total\": " << d.ranges_total << ",\n";
    os << "      \"worker_deaths\": " << d.worker_deaths << ",\n";
    os << "      \"ranges_reassigned\": " << d.ranges_reassigned << ",\n";
    os << "      \"speculative_launched\": " << d.speculative_launched
       << ",\n";
    os << "      \"speculative_wins\": " << d.speculative_wins << ",\n";
    os << "      \"results_deduped\": " << d.results_deduped << ",\n";
    os << "      \"registrations_retried\": " << d.registrations_retried
       << "\n";
    os << "    },\n";
  }
  os << "    \"records\": " << errors::failures_to_json(result.failures, "    ")
     << "\n";
  os << "  }\n}\n";
  return os.str();
}

}  // namespace ivt::core
