// Tests for Hadoop Streaming jobs on the job runner: line semantics,
// sort-based grouping, per-task mapper factories, pipe accounting and
// BrokenPipe failures.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>

#include "mapreduce/streaming.hpp"
#include "util/stopwatch.hpp"

namespace sjc::mapreduce {
namespace {

struct StreamingFixture {
  cluster::RunMetrics metrics;
  dfs::SimDfs fs{dfs::DfsConfig{}};
  cluster::ClusterSpec spec_cluster = cluster::ClusterSpec::workstation();
  MrContext ctx{spec_cluster, 1000.0, &fs, &metrics};
};

StreamingSpec identity_job(const std::string& name = "identity") {
  StreamingSpec spec;
  spec.name = name;
  spec.make_mapper = [](std::size_t) -> StreamingMapFn {
    return [](const std::string& line, std::vector<std::string>& out) {
      out.push_back(line);
    };
  };
  spec.reduce = [](const std::vector<std::string>& lines,
                   std::vector<std::string>& out) {
    for (const auto& l : lines) out.push_back(l);
  };
  return spec;
}

TEST(StreamingKey, TextBeforeFirstTab) {
  const std::string line = "key1\tvalue\tmore";
  EXPECT_EQ(streaming_key(line), "key1");
  const std::string no_tab = "whole-line";
  EXPECT_EQ(streaming_key(no_tab), "whole-line");
}

TEST(Streaming, IdentityPreservesMultiset) {
  StreamingFixture f;
  const std::vector<std::vector<std::string>> splits = {{"b\t1", "a\t2"}, {"a\t3"}};
  auto out = run_map_reduce(f.ctx, identity_job(), splits);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::string>{"a\t2", "a\t3", "b\t1"}));
}

TEST(Streaming, ReducerSeesSortedLines) {
  StreamingFixture f;
  StreamingSpec spec = identity_job("sorted");
  spec.config.reduce_tasks = 1;
  bool checked = false;
  spec.reduce = [&checked](const std::vector<std::string>& lines,
                           std::vector<std::string>& out) {
    EXPECT_TRUE(std::is_sorted(lines.begin(), lines.end()));
    checked = true;
    for (const auto& l : lines) out.push_back(l);
  };
  run_map_reduce(f.ctx, spec, {{"z\t1", "a\t1"}, {"m\t1", "a\t0"}});
  EXPECT_TRUE(checked);
}

TEST(Streaming, SameKeySameReducer) {
  StreamingFixture f;
  StreamingSpec spec = identity_job("grouping");
  // Count within each reducer invocation how many "k" lines it got; across
  // invocations "k" must never split.
  std::vector<std::size_t> k_counts;
  std::mutex mutex;
  spec.reduce = [&](const std::vector<std::string>& lines,
                    std::vector<std::string>& out) {
    std::size_t k = 0;
    for (const auto& l : lines) {
      if (streaming_key(l) == "k") ++k;
    }
    if (k > 0) {
      std::lock_guard<std::mutex> lock(mutex);
      k_counts.push_back(k);
    }
    for (const auto& l : lines) out.push_back(l);
  };
  run_map_reduce(f.ctx, spec, {{"k\t1", "x\t1"}, {"k\t2", "y\t1"}, {"k\t3"}});
  ASSERT_EQ(k_counts.size(), 1u);
  EXPECT_EQ(k_counts[0], 3u);
}

TEST(Streaming, MapOnlySkipsShuffle) {
  StreamingFixture f;
  StreamingSpec spec = identity_job("maponly");
  const auto out = run_map_only(f.ctx, spec, {{"c"}, {"a"}, {"b"}});
  EXPECT_EQ(out, (std::vector<std::string>{"c", "a", "b"}));  // input order
  ASSERT_EQ(f.metrics.phases().size(), 1u);
  EXPECT_EQ(f.metrics.phases()[0].bytes_shuffled, 0u);
}

TEST(Streaming, MakeMapperCalledOncePerTask) {
  StreamingFixture f;
  StreamingSpec spec;
  spec.name = "factory";
  std::atomic<int> factories{0};
  spec.make_mapper = [&factories](std::size_t task) -> StreamingMapFn {
    ++factories;
    return [task](const std::string& line, std::vector<std::string>& out) {
      out.push_back(std::to_string(task) + ":" + line);
    };
  };
  spec.reduce = [](const std::vector<std::string>& lines,
                   std::vector<std::string>& out) {
    for (const auto& l : lines) out.push_back(l);
  };
  auto out = run_map_reduce(f.ctx, spec, {{"x"}, {"y"}, {"z"}});
  EXPECT_EQ(factories.load(), 3);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::string>{"0:x", "1:y", "2:z"}));
}

TEST(Streaming, BrokenPipeOnMapOverflow) {
  StreamingFixture f;
  StreamingSpec spec = identity_job("overflow");
  // Each line ~2 bytes; scaled x1000 -> ~6KB through the pipe; capacity 1KB.
  spec.config.pipe_capacity_bytes = 1024;
  EXPECT_THROW(run_map_only(f.ctx, spec, {{"a", "b", "c"}}), BrokenPipe);
}

TEST(Streaming, BrokenPipeOnFullJobMapOverflow) {
  StreamingFixture f;
  StreamingSpec spec = identity_job("overflow-full");
  spec.config.pipe_capacity_bytes = 1024;
  EXPECT_THROW(run_map_reduce(f.ctx, spec, {{"a", "b", "c"}}), BrokenPipe);
  // The job dies in its map phase: no reduce phase is booked.
  ASSERT_EQ(f.metrics.phases().size(), 1u);
  EXPECT_EQ(f.metrics.phases()[0].name, "overflow-full/map");
  EXPECT_EQ(f.metrics.phases()[0].max_task_pipe_bytes, 12000u);
}

TEST(Streaming, BrokenPipeOnReduceOverflow) {
  StreamingFixture f;
  StreamingSpec spec = identity_job("overflow2");
  spec.config.reduce_tasks = 1;
  // Map side fits (per-task volume small across 4 splits), reduce side
  // concentrates everything in one task and bursts.
  spec.config.pipe_capacity_bytes = 9000;
  const std::vector<std::vector<std::string>> splits = {
      {"a\tx"}, {"b\tx"}, {"c\tx"}, {"d\tx"}};
  EXPECT_THROW(run_map_reduce(f.ctx, spec, splits), BrokenPipe);
}

TEST(Streaming, ZeroCapacityDisablesCheck) {
  StreamingFixture f;
  StreamingSpec spec = identity_job("nocheck");
  spec.config.pipe_capacity_bytes = 0;
  EXPECT_NO_THROW(run_map_reduce(f.ctx, spec, {{"a", "b", "c"}}));
}

TEST(Streaming, RecordsMaxTaskPipeBytes) {
  StreamingFixture f;
  StreamingSpec spec = identity_job("pipes");
  run_map_reduce(f.ctx, spec, {{"aa"}, {"bbbb"}});
  // Largest map task: "bbbb" in+out = (5 + 5) scaled x1000 = 10000.
  EXPECT_EQ(f.metrics.phases()[0].max_task_pipe_bytes, 10000u);
  EXPECT_EQ(f.metrics.max_task_pipe_bytes(),
            std::max(f.metrics.phases()[0].max_task_pipe_bytes,
                     f.metrics.phases()[1].max_task_pipe_bytes));
}

TEST(Streaming, PipeBandwidthChargesTime) {
  // The same map-only task as a streaming job and as a native one: equal
  // reads and writes, and (under virtual time) no measured CPU, so the
  // streaming phase is longer by exactly its pipe volume at kPipeBandwidth.
  const VirtualTimeGuard virtual_time;
  const std::string line(1 << 20, 'x');
  StreamingFixture streamed;
  run_map_only(streamed.ctx, identity_job("streamed"), {{line}});
  StreamingFixture native;
  const auto spec = make_typed_map_only_spec<std::string, std::string>(
      "native",
      [](const std::string& l, std::vector<std::string>& out) { out.push_back(l); },
      [](const std::string& l) -> std::uint64_t { return l.size() + 1; },
      [](const std::string& l) -> std::uint64_t { return l.size() + 1; });
  run_map_only(native.ctx, spec, {line});
  const double pipe_bytes = 2.0 * static_cast<double>(line.size() + 1);
  const double expected = pipe_bytes / kPipeBandwidth * 1000.0 /
                          streamed.spec_cluster.node.cpu_speed;
  EXPECT_GT(expected, 10.0);
  EXPECT_NEAR(streamed.metrics.total_seconds() - native.metrics.total_seconds(), expected,
              1e-9 * expected);
}

TEST(Streaming, RequiresCallbacks) {
  StreamingFixture f;
  StreamingSpec spec;
  spec.name = "bad";
  EXPECT_THROW(run_map_reduce(f.ctx, spec, {{}}), InvalidArgument);
  EXPECT_THROW(run_map_only(f.ctx, spec, {{}}), InvalidArgument);
}

}  // namespace
}  // namespace sjc::mapreduce
