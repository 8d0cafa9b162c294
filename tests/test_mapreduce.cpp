// Tests for the native MapReduce engine: correctness of the map/shuffle/
// sort/reduce dataflow, metrics accounting and the framework-overhead
// constants the simulation hinges on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "mapreduce/map_reduce.hpp"

namespace sjc::mapreduce {
namespace {

MrContext make_context(cluster::RunMetrics& metrics, dfs::SimDfs& fs,
                       const cluster::ClusterSpec& spec) {
  return MrContext(spec, 1000.0, &fs, &metrics);
}

// Word-count-shaped job: In = word, K = word, V = 1, Out = (word, count).
auto word_count() {
  return make_typed_spec<std::string, std::string, int, std::pair<std::string, int>>(
      "wordcount",
      [](const std::string& word, const auto& emit) { emit(word, 1); },
      [](const std::string& word, std::vector<int>& counts,
         std::vector<std::pair<std::string, int>>& out) {
        int total = 0;
        for (const int c : counts) total += c;
        out.emplace_back(word, total);
      },
      [](const std::string& w) { return w.size() + 1; },
      [](const std::string& k, const int&) { return k.size() + 4; },
      [](const std::pair<std::string, int>& o) { return o.first.size() + 8; });
}

TEST(MapReduce, WordCountCorrectness) {
  cluster::RunMetrics metrics;
  dfs::SimDfs fs({});
  const auto spec_cluster = cluster::ClusterSpec::workstation();
  MrContext ctx = make_context(metrics, fs, spec_cluster);

  const std::vector<std::vector<std::string>> splits = {
      {"a", "b", "a"}, {"c", "a"}, {"b"}};
  const auto result = run_map_reduce(ctx, word_count(), splits);

  std::map<std::string, int> counts;
  for (const auto& [word, count] : result) counts[word] = count;
  EXPECT_EQ(counts.at("a"), 3);
  EXPECT_EQ(counts.at("b"), 2);
  EXPECT_EQ(counts.at("c"), 1);
  EXPECT_EQ(counts.size(), 3u);
}

TEST(MapReduce, KeysSortedWithinReduceTask) {
  cluster::RunMetrics metrics;
  dfs::SimDfs fs({});
  const auto spec_cluster = cluster::ClusterSpec::workstation();
  MrContext ctx = make_context(metrics, fs, spec_cluster);

  auto spec = word_count();
  spec.config.reduce_tasks = 1;  // single reducer -> global key order
  const std::vector<std::vector<std::string>> splits = {{"z", "m", "a", "m", "z"}};
  const auto result = run_map_reduce(ctx, spec, splits);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].first, "a");
  EXPECT_EQ(result[1].first, "m");
  EXPECT_EQ(result[2].first, "z");
}

TEST(MapReduce, RecordsMapAndReducePhases) {
  cluster::RunMetrics metrics;
  dfs::SimDfs fs({});
  const auto spec_cluster = cluster::ClusterSpec::workstation();
  MrContext ctx = make_context(metrics, fs, spec_cluster);
  run_map_reduce(ctx, word_count(), {{"a", "b"}, {"c"}});

  ASSERT_EQ(metrics.phases().size(), 2u);
  EXPECT_EQ(metrics.phases()[0].name, "wordcount/map");
  EXPECT_EQ(metrics.phases()[1].name, "wordcount/reduce");
  EXPECT_EQ(metrics.phases()[0].task_count, 2u);
  EXPECT_GT(metrics.phases()[0].sim_seconds, 0.0);
  EXPECT_GT(metrics.phases()[0].bytes_read, 0u);
  EXPECT_GT(metrics.phases()[1].bytes_shuffled, 0u);
}

TEST(MapReduce, JobStartupOverheadCharged) {
  cluster::RunMetrics metrics;
  dfs::SimDfs fs({});
  const auto spec_cluster = cluster::ClusterSpec::workstation();
  MrContext ctx = make_context(metrics, fs, spec_cluster);
  auto spec = word_count();
  spec.config.job_startup_s = 100.0;
  run_map_reduce(ctx, spec, {{"a"}});
  EXPECT_GE(metrics.phases()[0].sim_seconds, 100.0);
}

TEST(MapReduce, ShuffleFetchLatencyOnlyOnMultiNode) {
  const auto run_with = [](const cluster::ClusterSpec& spec_cluster) {
    cluster::RunMetrics metrics;
    dfs::SimDfs fs(dfs::DfsConfig{.block_size = 64 * 1024, .replication = 3,
                                  .datanode_count = spec_cluster.node_count,
                                  .seed = 1});
    MrContext ctx(spec_cluster, 1000.0, &fs, &metrics);
    auto spec = word_count();
    spec.config.job_startup_s = 0.0;
    spec.config.task_overhead_s = 0.0;
    spec.config.shuffle_fetch_latency_s = 1.0;
    spec.config.reduce_tasks = 1;
    run_map_reduce(ctx, spec, {{"a"}, {"b"}, {"c"}});  // 3 map tasks
    return metrics.phases()[1].sim_seconds;
  };
  const double single = run_with(cluster::ClusterSpec::workstation());
  const double multi = run_with(cluster::ClusterSpec::ec2(4));
  // Multi-node: reducer pays 3 maps x 1s fetch setup.
  EXPECT_GE(multi - single, 2.5);
}

TEST(MapReduce, EmptyInputProducesNoOutput) {
  cluster::RunMetrics metrics;
  dfs::SimDfs fs({});
  const auto spec_cluster = cluster::ClusterSpec::workstation();
  MrContext ctx = make_context(metrics, fs, spec_cluster);
  const auto result = run_map_reduce(ctx, word_count(), {{}});
  EXPECT_TRUE(result.empty());
}

TEST(MapReduce, DeterministicAcrossRuns) {
  const auto run_once = [] {
    cluster::RunMetrics metrics;
    dfs::SimDfs fs({});
    const auto spec_cluster = cluster::ClusterSpec::ec2(4);
    MrContext ctx(spec_cluster, 1000.0, &fs, &metrics);
    return run_map_reduce(ctx, word_count(), {{"x", "y", "x"}, {"z", "x"}});
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// map-only jobs
// ---------------------------------------------------------------------------

TEST(MapOnly, TransformsSplits) {
  cluster::RunMetrics metrics;
  dfs::SimDfs fs({});
  const auto spec_cluster = cluster::ClusterSpec::workstation();
  MrContext ctx = make_context(metrics, fs, spec_cluster);

  const auto spec = make_typed_map_only_spec<int, int>(
      "square", [](const int& x, std::vector<int>& out) { out.push_back(x * x); },
      [](const int&) { return 8; }, [](const int&) { return 8; });
  const auto result = run_map_only(ctx, spec, {2, 3, 4});
  EXPECT_EQ(result, (std::vector<int>{4, 9, 16}));
  ASSERT_EQ(metrics.phases().size(), 1u);
  EXPECT_EQ(metrics.phases()[0].task_count, 3u);
}

TEST(MasterStep, ChargesCpuAndIo) {
  cluster::RunMetrics metrics;
  dfs::SimDfs fs({});
  const auto spec_cluster = cluster::ClusterSpec::workstation();
  MrContext ctx = make_context(metrics, fs, spec_cluster);
  charge_master_step(ctx, "master", 0.001, 1024, 2048);
  ASSERT_EQ(metrics.phases().size(), 1u);
  // 0.001 measured / 0.2 efficiency * 1000 scale = 5s of CPU, plus I/O.
  EXPECT_GE(metrics.phases()[0].sim_seconds, 5.0);
  EXPECT_EQ(metrics.phases()[0].bytes_read, 1024u);
  EXPECT_EQ(metrics.phases()[0].bytes_written, 2048u);
}

}  // namespace
}  // namespace sjc::mapreduce
