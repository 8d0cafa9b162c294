// Tests for SpatialHadoop's index reuse (paper §II.B: "SpatialHadoop can
// run faster when re-partitioning can be skipped"), served by its resident
// join.
#include <gtest/gtest.h>

#include "systems/spatialhadoop/spatial_hadoop.hpp"
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

}  // namespace
}  // namespace sjc
