// Tests for SpatialHadoop's index reuse (paper §II.B: "SpatialHadoop can
// run faster when re-partitioning can be skipped"), served by its resident
// join, and for the quadtree partitioner.
#include <gtest/gtest.h>

#include <algorithm>

#include "partition/partitioner.hpp"
#include "systems/spatialhadoop/spatial_hadoop.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "workload/generators.hpp"

namespace sjc {
namespace {

struct Fixture {
  workload::Dataset points;
  workload::Dataset polys;
  core::JoinQueryConfig query;
  core::ExecutionConfig exec;

  Fixture() {
    workload::WorkloadConfig wc;
    wc.scale = 2e-4;
    points = workload::generate(workload::DatasetId::kTaxi1m, wc);
    polys = workload::generate(workload::DatasetId::kNycb, wc);
    query.predicate = core::JoinPredicate::kWithin;
    exec.cluster = cluster::ClusterSpec::workstation();
    exec.data_scale = 1.0 / wc.scale;
    exec.collect_pairs = true;
  }
};

// The resident build is one cold run that keeps both indexed partition
// directories; a query on them starts at getSplits. Under virtual time every
// modeled second is a pure cost-model output, so the checks are exact.
TEST(ResidentSpatialHadoop, QuerySkipsIndexingAndRepeatsExactly) {
  const VirtualTimeGuard virtual_time;
  Fixture f;
  const core::ResidentJoin resident =
      systems::spatial_hadoop_resident(f.points, f.polys, f.query, f.exec);
  const core::RunReport& build = resident.build_report;
  ASSERT_TRUE(build.status.ok()) << build.status.to_string();

  const core::RunReport first = resident.run(f.query, nullptr);
  ASSERT_TRUE(first.status.ok()) << first.status.to_string();
  EXPECT_EQ(first.result_count, build.result_count);
  EXPECT_EQ(first.result_hash, build.result_hash);

  // Only the distributed join runs: it costs what the build's join stage
  // cost, and less than half the cold run.
  EXPECT_EQ(first.index_a_seconds, 0.0);
  EXPECT_EQ(first.index_b_seconds, 0.0);
  EXPECT_EQ(first.join_seconds, first.total_seconds);
  EXPECT_EQ(first.join_seconds, build.join_seconds);
  EXPECT_LT(first.total_seconds, build.total_seconds / 2.0);

  // The index is reusable: a second query repeats the first exactly.
  const core::RunReport second = resident.run(f.query, nullptr);
  ASSERT_TRUE(second.status.ok()) << second.status.to_string();
  EXPECT_EQ(second.result_hash, first.result_hash);
  EXPECT_EQ(second.total_seconds, first.total_seconds);
}

// ---------------------------------------------------------------------------
// Quadtree partitioner
// ---------------------------------------------------------------------------

TEST(QuadtreePartitioner, LeavesTileTheExtent) {
  Rng rng(3);
  std::vector<geom::Envelope> sample;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.bernoulli(0.7) ? rng.normal(20, 5) : rng.uniform(0, 100);
    const double y = rng.bernoulli(0.7) ? rng.normal(20, 5) : rng.uniform(0, 100);
    sample.push_back(geom::Envelope::of_point(std::clamp(x, 0.0, 100.0),
                                              std::clamp(y, 0.0, 100.0)));
  }
  const auto scheme = partition::make_quadtree_partitions(
      sample, geom::Envelope(0, 0, 100, 100), 64);
  double area = 0.0;
  for (const auto& cell : scheme.cells()) area += cell.area();
  EXPECT_NEAR(area, 100.0 * 100.0, 1e-6);
  // Quadtree adapts: hotspot cells are smaller than outskirts cells.
  double min_area = 1e18;
  double max_area = 0;
  for (const auto& cell : scheme.cells()) {
    min_area = std::min(min_area, cell.area());
    max_area = std::max(max_area, cell.area());
  }
  EXPECT_LT(min_area * 8, max_area);
}

TEST(QuadtreePartitioner, BalancesSkewBetterThanGrid) {
  Rng rng(4);
  std::vector<geom::Envelope> items;
  for (int i = 0; i < 6000; ++i) {
    const double x = rng.bernoulli(0.8) ? rng.normal(25, 4) : rng.uniform(0, 100);
    const double y = rng.bernoulli(0.8) ? rng.normal(25, 4) : rng.uniform(0, 100);
    items.push_back(geom::Envelope::of_point(std::clamp(x, 0.0, 100.0),
                                             std::clamp(y, 0.0, 100.0)));
  }
  const auto quad = partition::make_partitions(partition::PartitionerKind::kQuadtree,
                                               items, geom::Envelope(0, 0, 100, 100), 64);
  const auto grid = partition::make_partitions(partition::PartitionerKind::kFixedGrid,
                                               items, geom::Envelope(0, 0, 100, 100), 64);
  // Skew: the most loaded cell's assignments over the mean per cell.
  const auto skew_of = [&](const partition::PartitionScheme& scheme) {
    std::vector<std::size_t> load(scheme.cell_count(), 0);
    std::size_t assignments = 0;
    for (const auto& env : items) {
      for (const auto pid : scheme.assign(env)) {
        ++load[pid];
        ++assignments;
      }
    }
    return static_cast<double>(*std::max_element(load.begin(), load.end())) *
           static_cast<double>(load.size()) / static_cast<double>(assignments);
  };
  EXPECT_LT(skew_of(quad), skew_of(grid));
}

TEST(QuadtreePartitioner, EmptySampleFallsBack) {
  const auto scheme = partition::make_quadtree_partitions(
      {}, geom::Envelope(0, 0, 10, 10), 16);
  EXPECT_GE(scheme.cell_count(), 1u);
}

TEST(QuadtreePartitioner, SystemsStillAgreeWithIt) {
  Fixture f;
  f.query.partitioner = partition::PartitionerKind::kQuadtree;
  const auto sh = core::run_spatial_join(core::SystemKind::kSpatialHadoopSim, f.points,
                                         f.polys, f.query, f.exec);
  const auto ss = core::run_spatial_join(core::SystemKind::kSpatialSparkSim, f.points,
                                         f.polys, f.query, f.exec);
  ASSERT_TRUE(sh.status.ok() && ss.status.ok());
  EXPECT_EQ(sh.result_hash, ss.result_hash);
  EXPECT_GT(sh.result_count, 0u);
}

}  // namespace
}  // namespace sjc
