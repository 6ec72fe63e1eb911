#include "dataflow/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace ivt::dataflow {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  int ran = 0;
  pool.submit([&ran] { ++ran; });
  EXPECT_EQ(ran, 1);   // executed synchronously in submit()
  pool.wait_idle();    // regression: must not deadlock with no workers
  pool.help_until_idle();
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(EngineTest, DefaultsDeriveFromWorkers) {
  Engine e{EngineConfig{.workers = 3}};
  EXPECT_EQ(e.workers(), 3u);
  EXPECT_EQ(e.default_partitions(), 12u);
}

TEST(EngineTest, ParallelForCoversRange) {
  Engine e{EngineConfig{.workers = 4}};
  std::vector<int> hits(50, 0);
  e.parallel_for(50, [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 50);
}

TEST(EngineTest, ParallelForZeroIsNoop) {
  Engine e{EngineConfig{.workers = 2}};
  e.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(EngineTest, ParallelForRethrowsTaskException) {
  Engine e{EngineConfig{.workers = 4}};
  EXPECT_THROW(e.parallel_for(8,
                              [](std::size_t i) {
                                if (i == 3) {
                                  throw std::runtime_error("task failed");
                                }
                              }),
               std::runtime_error);
}

TEST(EngineTest, MapPartitionsRecordsMetrics) {
  // A stage is one `engine.<stage>` span over one `engine.task` span per
  // partition; its duration is also the stage's wall-time observation.
  const auto snapshot = [] { return obs::Registry::instance().snapshot(); };
  const auto wall_count = [](const obs::MetricsSnapshot& s) {
    const obs::MetricsSnapshot::Entry* e = s.find("engine.stage_wall_ms");
    return e == nullptr ? std::uint64_t{0} : e->hist.count;
  };
  const obs::MetricsSnapshot before = snapshot();
  obs::reset_spans();

  Engine e{EngineConfig{.workers = 2}};
  Schema schema{{{"v", ValueType::Int64}}};
  TableBuilder b(schema, 2);
  for (std::int64_t i = 0; i < 6; ++i) b.append_row({Value{i}});
  const Table t = b.build();

  const Table out = e.map_partitions(
      "double", t, schema, [&](const Partition& p, std::size_t) {
        Partition q = Table::make_partition(schema);
        for (std::size_t r = 0; r < p.num_rows(); ++r) {
          q.columns[0].append_int64(p.columns[0].int64_at(r) * 2);
        }
        return q;
      });
  EXPECT_EQ(out.num_rows(), 6u);

  std::size_t stages = 0;
  std::size_t tasks = 0;
  for (const obs::SpanEvent& span : obs::collect_spans()) {
    if (std::strcmp(span.name, "engine.double") == 0) {
      ++stages;
      EXPECT_EQ(span.rows, 6u);
    }
    tasks += std::strcmp(span.name, "engine.task") == 0 ? 1 : 0;
  }
  EXPECT_EQ(stages, 1u);
  EXPECT_EQ(tasks, 3u);
  const obs::MetricsSnapshot after = snapshot();
  EXPECT_EQ(after.counter_or("engine.stages", 0),
            before.counter_or("engine.stages", 0) + 1);
  EXPECT_EQ(after.counter_or("engine.tasks", 0),
            before.counter_or("engine.tasks", 0) + 3);
  EXPECT_EQ(wall_count(after), wall_count(before) + 1);
}

TEST(EngineTest, MapPartitionsPreservesPartitionIndexOrder) {
  Engine e{EngineConfig{.workers = 8}};
  Schema schema{{{"v", ValueType::Int64}}};
  TableBuilder b(schema, 1);
  for (std::int64_t i = 0; i < 16; ++i) b.append_row({Value{i}});
  const Table t = b.build();
  const Table out = e.map_partitions(
      "ident", t, schema,
      [&](const Partition& p, std::size_t) {
        Partition q = Table::make_partition(schema);
        q.columns[0].append_from(p.columns[0], 0);
        return q;
      });
  std::vector<std::int64_t> values;
  out.for_each_row(
      [&](const RowView& r) { values.push_back(r.int64_at(0)); });
  for (std::int64_t i = 0; i < 16; ++i) EXPECT_EQ(values[i], i);
}

TEST(EngineTest, TaskOverheadSlowsExecution) {
  Engine fast{EngineConfig{.workers = 1}};
  Engine slow{EngineConfig{
      .workers = 1, .task_overhead = std::chrono::microseconds(2000)}};
  const auto time_one = [](Engine& e) {
    const auto start = std::chrono::steady_clock::now();
    e.parallel_for(10, [](std::size_t) {});
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const double t_fast = time_one(fast);
  const double t_slow = time_one(slow);
  EXPECT_GT(t_slow, t_fast);
  // 10 tasks x 2 ms, shared between the caller and the worker thread
  // (caller helps drain the queue), so at least ~5 tasks' worth of delay.
  EXPECT_GE(t_slow, 0.008);
}

}  // namespace
}  // namespace ivt::dataflow
