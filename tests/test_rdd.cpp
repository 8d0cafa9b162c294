// Tests for the RDD engine: transformation semantics, wide operations,
// broadcast, memory accounting and the OOM gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "rdd/rdd.hpp"

namespace sjc::rdd {
namespace {

Sizer<int> int_sizer() {
  return [](const int&) -> std::uint64_t { return 8; };
}

struct SparkFixture {
  cluster::RunMetrics metrics;
  cluster::ClusterSpec spec = cluster::ClusterSpec::workstation();
  SparkFixture() = default;

  SparkRuntime make_runtime(double data_scale = 1000.0) {
    return SparkRuntime(spec, data_scale, nullptr, &metrics);
  }
};

TEST(Rdd, CreateAndCollect) {
  SparkFixture f;
  auto rt = f.make_runtime();
  auto r = Rdd<int>::create(rt, {{1, 2}, {3}, {}}, int_sizer(), "ints");
  EXPECT_EQ(r.num_partitions(), 3u);
  EXPECT_EQ(r.collect(), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(r.bytes(), 24u);
}

TEST(Rdd, FlatMapExpands) {
  SparkFixture f;
  auto rt = f.make_runtime();
  auto r = Rdd<int>::create(rt, {{2, 3}}, int_sizer(), "ints");
  auto repeated = r.flat_map<int>(
      "repeat",
      [](const int& x, std::vector<int>& out) {
        for (int i = 0; i < x; ++i) out.push_back(x);
      },
      int_sizer());
  EXPECT_EQ(repeated.collect(), (std::vector<int>{2, 2, 3, 3, 3}));
}

TEST(Rdd, SampleIsDeterministicAndApproximate) {
  SparkFixture f;
  auto rt = f.make_runtime();
  std::vector<std::vector<int>> parts(8);
  for (int i = 0; i < 8000; ++i) parts[i % 8].push_back(i);
  auto r = Rdd<int>::create(rt, parts, int_sizer(), "ints");
  const auto s1 = r.sample("s", 0.1, 42).collect();
  const auto s2 = r.sample("s", 0.1, 42).collect();
  EXPECT_EQ(s1, s2);
  EXPECT_NEAR(static_cast<double>(s1.size()), 800.0, 120.0);
  const auto s3 = r.sample("s", 0.1, 43).collect();
  EXPECT_NE(s1, s3);
}

TEST(Rdd, SampleRejectsBadRate) {
  SparkFixture f;
  auto rt = f.make_runtime();
  auto r = Rdd<int>::create(rt, {{1}}, int_sizer(), "ints");
  EXPECT_THROW(r.sample("s", 1.5, 1), InvalidArgument);
}

TEST(Rdd, GroupByKeyCollectsAllValues) {
  SparkFixture f;
  auto rt = f.make_runtime();
  using KV = std::pair<int, int>;
  auto pairs = Rdd<KV>::create(rt, {{{1, 10}, {2, 20}}, {{1, 11}, {3, 30}}},
                               [](const KV&) -> std::uint64_t { return 16; }, "kv");
  auto grouped = group_by_key<int, int>(
      pairs, 4, [](const auto&) -> std::uint64_t { return 32; });
  std::map<int, std::vector<int>> result;
  for (auto& [k, vs] : grouped.collect()) {
    std::sort(vs.begin(), vs.end());
    result[k] = vs;
  }
  EXPECT_EQ(result.at(1), (std::vector<int>{10, 11}));
  EXPECT_EQ(result.at(2), (std::vector<int>{20}));
  EXPECT_EQ(result.at(3), (std::vector<int>{30}));
}

TEST(Rdd, JoinByKeyInnerSemantics) {
  SparkFixture f;
  auto rt = f.make_runtime();
  using KV = std::pair<int, std::string>;
  const auto sizer = [](const KV&) -> std::uint64_t { return 24; };
  auto left = Rdd<KV>::create(rt, {{{1, "a"}, {2, "b"}, {1, "c"}}}, sizer, "L");
  auto right = Rdd<KV>::create(rt, {{{1, "x"}, {3, "y"}}}, sizer, "R");
  auto joined = join_by_key<int, std::string, std::string>(
      left, right, 4, [](const auto&) -> std::uint64_t { return 48; });
  auto rows = joined.collect();
  // Inner join on key 1 only; "a" and "c" both match "x".
  ASSERT_EQ(rows.size(), 2u);
  std::set<std::string> lefts;
  for (const auto& [k, l, r] : rows) {
    EXPECT_EQ(k, 1);
    EXPECT_EQ(r, "x");
    lefts.insert(l);
  }
  EXPECT_EQ(lefts, (std::set<std::string>{"a", "c"}));
}

TEST(Rdd, StagesAreRecorded) {
  SparkFixture f;
  {
    auto rt = f.make_runtime();
    auto r = Rdd<int>::create(rt, {{1, 2, 3}}, int_sizer(), "ints");
    r.flat_map<int>(
         "double", [](const int& x, std::vector<int>& out) { out.push_back(2 * x); },
         int_sizer())
        .collect();
  }
  ASSERT_GE(f.metrics.phases().size(), 2u);
  EXPECT_EQ(f.metrics.phases()[0].name, "ints.double");
  EXPECT_GT(f.metrics.phases()[0].sim_seconds, 0.0);
}

TEST(Rdd, ShuffleBytesRecorded) {
  SparkFixture f;
  {
    auto rt = f.make_runtime();
    using KV = std::pair<int, int>;
    auto pairs = Rdd<KV>::create(rt, {{{1, 1}, {2, 2}}},
                                 [](const KV&) -> std::uint64_t { return 16; }, "kv");
    group_by_key<int, int>(pairs, 2, [](const auto&) -> std::uint64_t { return 32; });
  }
  bool found = false;
  for (const auto& p : f.metrics.phases()) {
    if (p.bytes_shuffled > 0) found = true;
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// memory accounting
// ---------------------------------------------------------------------------

TEST(MemoryManager, AllocateReleaseAndPeak) {
  MemoryManager mm(/*capacity=*/1000000, /*data_scale=*/100.0);
  mm.allocate(1000, "a");  // 100,000 paper bytes
  EXPECT_EQ(mm.live_raw_bytes(), 1000u);
  mm.allocate(2000, "b");
  mm.release(1000);
  EXPECT_EQ(mm.live_raw_bytes(), 2000u);
  EXPECT_EQ(mm.peak_paper_bytes(), 300000u);
}

TEST(MemoryManager, ThrowsOnExhaustion) {
  MemoryManager mm(1000, 10.0);  // capacity 1000 paper bytes
  mm.allocate(50, "half");       // 500 paper bytes
  EXPECT_THROW(mm.allocate(60, "too much"), SimOutOfMemory);
  // Failed allocation must not leak into the live count.
  EXPECT_EQ(mm.live_raw_bytes(), 50u);
}

TEST(Rdd, StorageReleasesMemoryOnDestruction) {
  SparkFixture f;
  auto rt = f.make_runtime();
  {
    auto r = Rdd<int>::create(rt, {{1, 2, 3}}, int_sizer(), "scoped");
    EXPECT_EQ(rt.memory().live_raw_bytes(), 24u);
  }
  EXPECT_EQ(rt.memory().live_raw_bytes(), 0u);
}

TEST(Rdd, OomSurfacesThroughCreate) {
  SparkFixture f;
  f.spec.node.memory_bytes = 1024;  // 1 KB node
  auto rt = f.make_runtime(1000.0);
  // 3 ints = 24 raw bytes -> 24,000 paper bytes > 1 KB capacity.
  EXPECT_THROW(Rdd<int>::create(rt, {{1, 2, 3}}, int_sizer(), "big"), SimOutOfMemory);
}

TEST(SparkRuntime, MemoryCapacityUsesReserve) {
  cluster::RunMetrics metrics;
  auto spec = cluster::ClusterSpec::ec2(4);
  SparkRuntime rt(spec, 1.0, nullptr, &metrics);
  // 2.75 GB of each 15 GB node is reserved before executors get the rest.
  EXPECT_EQ(rt.memory().capacity_bytes(), 4 * (15ULL * 1024 - 2816) * 1024 * 1024);
}

// ---------------------------------------------------------------------------
// broadcast
// ---------------------------------------------------------------------------

TEST(Broadcast, ValueAccessibleAndMemoryCharged) {
  SparkFixture f;
  f.spec = cluster::ClusterSpec::ec2(4);
  cluster::RunMetrics metrics;
  SparkRuntime rt(f.spec, 1000.0, nullptr, &metrics);
  {
    Broadcast<std::string> bc(rt, "hello", 100, "greeting");
    EXPECT_EQ(bc.value(), "hello");
    EXPECT_EQ(rt.memory().live_raw_bytes(), 400u);  // 100 bytes x 4 nodes
  }
  EXPECT_EQ(rt.memory().live_raw_bytes(), 0u);
}

TEST(Broadcast, RecordsNetworkStage) {
  SparkFixture f;
  f.spec = cluster::ClusterSpec::ec2(4);
  cluster::RunMetrics metrics;
  SparkRuntime rt(f.spec, 1000.0, nullptr, &metrics);
  Broadcast<int> bc(rt, 7, 1000, "seven");
  ASSERT_FALSE(metrics.phases().empty());
  EXPECT_EQ(metrics.phases().back().name, "seven");
}

}  // namespace
}  // namespace sjc::rdd

namespace sjc::rdd {
namespace {

TEST(Rdd, UninitializedHandleThrowsNotCrashes) {
  Rdd<int> empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW(empty.collect(), InvalidArgument);
  EXPECT_THROW(empty.num_partitions(), InvalidArgument);
  EXPECT_THROW(empty.bytes(), InvalidArgument);
  EXPECT_THROW(empty.sample("s", 0.5, 1), InvalidArgument);
  const auto try_map = [&] {
    empty.flat_map<int>("m", [](const int& x, std::vector<int>& out) { out.push_back(x); },
                        [](const int&) -> std::uint64_t { return 8; });
  };
  EXPECT_THROW(try_map(), InvalidArgument);
  const auto try_group = [] {
    group_by_key<int, int>(Rdd<std::pair<int, int>>{}, 2,
                           [](const auto&) -> std::uint64_t { return 1; });
  };
  EXPECT_THROW(try_group(), InvalidArgument);
}

TEST(SparkRuntime, InputReadRecordsBytes) {
  cluster::RunMetrics metrics;
  const auto spec = cluster::ClusterSpec::ec2(4);
  SparkRuntime rt(spec, 1000.0, nullptr, &metrics);
  rt.record_input_read("scan", 4096, 8);
  ASSERT_EQ(metrics.phases().size(), 1u);
  EXPECT_EQ(metrics.phases()[0].bytes_read, 4096u);
  EXPECT_EQ(metrics.phases()[0].task_count, 8u);
  EXPECT_GT(metrics.phases()[0].sim_seconds, 0.0);
}

TEST(SparkRuntime, BroadcastFreeOnSingleNode) {
  cluster::RunMetrics ws_metrics;
  cluster::RunMetrics ec2_metrics;
  const auto ws = cluster::ClusterSpec::workstation();
  const auto ec2 = cluster::ClusterSpec::ec2(10);
  SparkRuntime ws_rt(ws, 1000.0, nullptr, &ws_metrics);
  SparkRuntime ec2_rt(ec2, 1000.0, nullptr, &ec2_metrics);
  ws_rt.record_broadcast("bc", 1024 * 1024);
  ec2_rt.record_broadcast("bc", 1024 * 1024);
  // Loopback broadcast costs only the stage overhead; EC2 pays wire time.
  EXPECT_GT(ec2_metrics.total_seconds(), ws_metrics.total_seconds());
}

}  // namespace
}  // namespace sjc::rdd
