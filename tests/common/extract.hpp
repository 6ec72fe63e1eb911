// Algorithm 1 lines 3–6 through the morsel executor, for suites that
// check K_s on its own.
#pragma once

#include "colstore/columnar_reader.hpp"
#include "core/interpret.hpp"
#include "core/partials.hpp"
#include "core/pipeline.hpp"
#include "dataflow/engine.hpp"

namespace ivt::testexec {

inline dataflow::Table extract_ks(dataflow::Engine& engine,
                                  const colstore::ColumnarReader& reader,
                                  const dataflow::Table& urel,
                                  const core::InterpretOptions& options) {
  core::PipelineConfig config;
  config.interpret = options;
  return core::MorselProcessor(reader, urel, config, nullptr)
      .extract_all(engine);
}

}  // namespace ivt::testexec
