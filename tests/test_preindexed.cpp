// Tests for SpatialHadoop's pre-indexed ("re-partitioning skipped") path
// and the quadtree partitioner added alongside it.
#include <gtest/gtest.h>

#include <algorithm>

#include "partition/partition_stats.hpp"
#include "partition/partitioner.hpp"
#include "systems/spatialhadoop/spatial_hadoop.hpp"
#include "util/rng.hpp"
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

TEST(PreIndexed, SameResultAsEndToEnd) {
  Fixture f;
  const auto end_to_end = systems::run_spatial_hadoop(f.points, f.polys, f.query, f.exec);
  ASSERT_TRUE(end_to_end.status.ok());

  const auto ia = systems::spatial_hadoop_build_index(f.points, f.query, f.exec);
  const auto ib = systems::spatial_hadoop_build_index(f.polys, f.query, f.exec);
  const auto joined = systems::run_spatial_hadoop_indexed(ia, ib, f.query, f.exec);
  ASSERT_TRUE(joined.status.ok());

  EXPECT_EQ(joined.result_count, end_to_end.result_count);
  EXPECT_EQ(joined.result_hash, end_to_end.result_hash);
}

TEST(PreIndexed, JoinOnlyIsMuchCheaper) {
  Fixture f;
  const auto end_to_end = systems::run_spatial_hadoop(f.points, f.polys, f.query, f.exec);
  const auto ia = systems::spatial_hadoop_build_index(f.points, f.query, f.exec);
  const auto ib = systems::spatial_hadoop_build_index(f.polys, f.query, f.exec);
  const auto joined = systems::run_spatial_hadoop_indexed(ia, ib, f.query, f.exec);

  // "SpatialHadoop can run faster when re-partitioning can be skipped":
  // the pre-indexed join pays only the DJ share.
  EXPECT_LT(joined.total_seconds, end_to_end.total_seconds / 2.0);
  EXPECT_EQ(joined.index_a_seconds, 0.0);
  EXPECT_EQ(joined.index_b_seconds, 0.0);
  EXPECT_NEAR(joined.join_seconds, joined.total_seconds, 1e-9);
  // And building both indexes once + joining is roughly the end-to-end run.
  EXPECT_NEAR(ia.build_seconds() + ib.build_seconds() + joined.total_seconds,
              end_to_end.total_seconds,
              end_to_end.total_seconds * 0.35);
}

TEST(PreIndexed, IndexExposesMetadata) {
  Fixture f;
  const auto ia = systems::spatial_hadoop_build_index(f.points, f.query, f.exec);
  EXPECT_EQ(ia.dataset_name(), "taxi1m");
  EXPECT_GT(ia.partition_count(), 1u);
  EXPECT_GT(ia.build_seconds(), 0.0);
  EXPECT_FALSE(ia.build_metrics().phases().empty());
}

TEST(PreIndexed, IndexReusableAcrossJoins) {
  Fixture f;
  const auto ia = systems::spatial_hadoop_build_index(f.points, f.query, f.exec);
  const auto ib = systems::spatial_hadoop_build_index(f.polys, f.query, f.exec);
  const auto first = systems::run_spatial_hadoop_indexed(ia, ib, f.query, f.exec);
  const auto second = systems::run_spatial_hadoop_indexed(ia, ib, f.query, f.exec);
  EXPECT_EQ(first.result_hash, second.result_hash);
  EXPECT_NEAR(first.total_seconds, second.total_seconds,
              first.total_seconds * 0.25);
}

TEST(PreIndexed, UnbuiltIndexRejected) {
  Fixture f;
  systems::SpatialHadoopIndex empty_a;
  systems::SpatialHadoopIndex empty_b;
  EXPECT_THROW(systems::run_spatial_hadoop_indexed(empty_a, empty_b, f.query, f.exec),
               InvalidArgument);
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
  const auto quad_stats = partition::compute_partition_stats(quad, items);
  const auto grid_stats = partition::compute_partition_stats(grid, items);
  EXPECT_LT(quad_stats.skew, grid_stats.skew);
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
