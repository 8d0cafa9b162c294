// Data plane tests: the partition plane's decisions and shuffle tally, the
// grid cell directory must agree with the STR tree,
// the duplicated-records counter must report the exact multi-assignment
// overhead on a pinned grid, and repeated (and traced) runs must be
// bit-identical with the thread pool active.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <set>

#include "core/experiments.hpp"
#include "core/partition_plane.hpp"
#include "core/spatial_join.hpp"
#include "index/str_tree.hpp"
#include "partition/partitioner.hpp"
#include "systems/hadoopgis/hadoop_gis.hpp"
#include "systems/spatialhadoop/spatial_hadoop.hpp"
#include "systems/spatialspark/spatial_spark.hpp"
#include "util/status.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"
#include "workload/generators.hpp"

namespace sjc {
namespace {

// Virtual time (measured CPU pinned to zero, so every modeled second is a
// pure cost-model output) is scoped with the library's sjc::VirtualTimeGuard
// (util/stopwatch.hpp), which restores the *previous* flag value — safe to
// nest and exception-safe, unlike the set/set pairs it replaced.

bool double_identical(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

/// Requires two reports to agree on every modeled quantity, bit for bit.
void expect_reports_identical(const core::RunReport& a, const core::RunReport& b,
                              const std::string& tag) {
  EXPECT_EQ(a.status.code(), b.status.code()) << tag;
  EXPECT_EQ(a.status.message(), b.status.message()) << tag;
  EXPECT_EQ(a.result_count, b.result_count) << tag;
  EXPECT_EQ(a.result_hash, b.result_hash) << tag;
  EXPECT_TRUE(double_identical(a.index_a_seconds, b.index_a_seconds)) << tag;
  EXPECT_TRUE(double_identical(a.index_b_seconds, b.index_b_seconds)) << tag;
  EXPECT_TRUE(double_identical(a.join_seconds, b.join_seconds)) << tag;
  EXPECT_TRUE(double_identical(a.total_seconds, b.total_seconds)) << tag;
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes) << tag;
  EXPECT_EQ(a.attempts_used, b.attempts_used) << tag;
  ASSERT_EQ(a.metrics.phases().size(), b.metrics.phases().size()) << tag;
  for (std::size_t i = 0; i < a.metrics.phases().size(); ++i) {
    const auto& pa = a.metrics.phases()[i];
    const auto& pb = b.metrics.phases()[i];
    EXPECT_EQ(pa.name, pb.name) << tag;
    EXPECT_TRUE(double_identical(pa.sim_seconds, pb.sim_seconds))
        << tag << " phase " << pa.name;
    EXPECT_EQ(pa.bytes_read, pb.bytes_read) << tag << " phase " << pa.name;
    EXPECT_EQ(pa.bytes_written, pb.bytes_written) << tag << " phase " << pa.name;
    EXPECT_EQ(pa.bytes_shuffled, pb.bytes_shuffled) << tag << " phase " << pa.name;
    EXPECT_EQ(pa.task_count, pb.task_count) << tag << " phase " << pa.name;
    EXPECT_EQ(pa.max_task_pipe_bytes, pb.max_task_pipe_bytes)
        << tag << " phase " << pa.name;
    EXPECT_EQ(pa.task_attempts, pb.task_attempts) << tag << " phase " << pa.name;
  }
  EXPECT_EQ(a.counters.snapshot(), b.counters.snapshot()) << tag;
}

// ---------------------------------------------------------------------------
// PartitionPlane decisions and the shuffle tally
// ---------------------------------------------------------------------------

TEST(PartitionPlane, PolicyDefaultsAndEnvelopeExpansion) {
  const auto cluster = cluster::ClusterSpec::ec2(10);
  core::JoinQueryConfig query;
  const core::PartitionPlane intersects(query, cluster, plan::ExecPolicy{});
  EXPECT_TRUE(intersects.filter_on());
  EXPECT_FALSE(intersects.repartition());
  EXPECT_EQ(intersects.expand(), 0.0);
  EXPECT_EQ(intersects.sample_rate(1000),
            core::effective_sample_rate(query.sample_rate, 1000,
                                        core::effective_target_partitions(query, cluster)));

  query.predicate = core::JoinPredicate::kWithinDistance;
  query.within_distance = 100.0;
  plan::ExecPolicy policy;
  policy.shuffle_filter = false;
  policy.repartition = true;
  const core::PartitionPlane within(query, cluster, policy);
  EXPECT_FALSE(within.filter_on());
  EXPECT_TRUE(within.repartition());
  EXPECT_EQ(within.expand(), 50.0);
  EXPECT_NO_THROW(within.require_build_expansion(50.0, "test"));
  EXPECT_THROW(within.require_build_expansion(0.0, "test"), InvalidArgument);
}

// The tally is written once, when its scope ends — also when the job inside
// it throws — and its totals do not depend on which threads added what.
TEST(ShuffleTally, FlushesOnceOnScopeExitWhateverTheInterleaving) {
  cluster::Counters counters;
  try {
    core::ShuffleTally tally(counters, {.duplicates = true, .shuffle = true, .sides = true});
    ThreadPool::shared().parallel_for(1000, [&](std::size_t i) {
      const auto side = i % 2 == 0 ? core::ShuffleTally::kLeft : core::ShuffleTally::kRight;
      tally.add(/*kept=*/i % 4, /*dropped=*/i % 3 == 0 ? 1 : 0, /*dropped_bytes=*/10, side);
    });
    EXPECT_TRUE(counters.snapshot().empty());
    throw TaskFailed("job killed after its tasks ran");
  } catch (const TaskFailed&) {
  }
  std::uint64_t kept[2] = {0, 0};
  std::uint64_t duplicates = 0;
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    kept[i % 2] += i % 4;
    duplicates += i % 4 > 1 ? i % 4 - 1 : 0;
    dropped += i % 3 == 0 ? 1 : 0;
  }
  EXPECT_EQ(counters.get("assign.left_assignments"), kept[0]);
  EXPECT_EQ(counters.get("assign.right_assignments"), kept[1]);
  EXPECT_EQ(counters.get("partition.duplicated_records"), duplicates);
  EXPECT_EQ(counters.get("shuffle.records"), kept[0] + kept[1]);
  EXPECT_EQ(counters.get("shuffle.filtered_records"), dropped);
  EXPECT_EQ(counters.get("shuffle.filtered_bytes"), 10 * dropped);
  EXPECT_EQ(counters.get("shuffle.assigned_records"), kept[0] + kept[1] + dropped);
  EXPECT_EQ(counters.snapshot().count("partition.records"), 0u);
}

TEST(ShuffleTally, FilteredCountersOnlyIfAnyWhenAsked) {
  cluster::Counters sparse;
  cluster::Counters dense;
  {
    core::ShuffleTally a(sparse, {.assignments = true, .shuffle = true,
                                  .filtered_only_if_any = true});
    core::ShuffleTally b(dense, {.assignments = true, .shuffle = true});
    a.add(3);
    b.add(3);
  }
  EXPECT_EQ(sparse.get("partition.records"), 1u);
  EXPECT_EQ(sparse.get("partition.assignments"), 3u);
  EXPECT_EQ(sparse.snapshot().count("shuffle.filtered_records"), 0u);
  EXPECT_EQ(dense.snapshot().count("shuffle.filtered_records"), 1u);
  EXPECT_EQ(dense.get("shuffle.filtered_records"), 0u);
}

// ---------------------------------------------------------------------------
// Grid cell directory vs STR tree
// ---------------------------------------------------------------------------

TEST(DataPlane, GridDirectoryAgreesWithTree) {
  // assign() and assign_into() both answer from the uniform-grid cell
  // directory (one semantics, one implementation), so the reference here is
  // an *independent* STR tree over the partition cells built by the test,
  // with the nearest-cell fallback re-derived by brute force. The id sets
  // must agree for every partitioner geometry, and min_assigned() must equal
  // the reference minimum — including on fallback queries.
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> pos(0.0, 1000.0);
  std::uniform_real_distribution<double> len(0.0, 30.0);
  const geom::Envelope extent(0.0, 0.0, 1000.0, 1000.0);
  std::vector<geom::Envelope> sample;
  for (int i = 0; i < 500; ++i) {
    const double x = pos(rng);
    const double y = pos(rng);
    sample.emplace_back(x, y, x + len(rng), y + len(rng));
  }
  for (const auto kind :
       {partition::PartitionerKind::kFixedGrid, partition::PartitionerKind::kStr,
        partition::PartitionerKind::kBsp, partition::PartitionerKind::kQuadtree}) {
    const auto scheme = partition::make_partitions(kind, sample, extent, 37);
    // Independent reference: STR tree over the scheme's cells + brute-force
    // nearest-cell fallback (same tie-break as the scheme: first minimum).
    std::vector<index::IndexEntry> entries;
    for (std::uint32_t i = 0; i < scheme.cell_count(); ++i) {
      entries.push_back({scheme.cells()[i], i});
    }
    const index::StrTree reference_tree(std::move(entries));
    const auto reference_assign = [&](const geom::Envelope& q) {
      std::vector<std::uint32_t> ids = reference_tree.query_ids(q);
      if (!ids.empty()) return ids;
      std::uint32_t best = 0;
      double best_dist = std::numeric_limits<double>::infinity();
      for (std::uint32_t i = 0; i < scheme.cell_count(); ++i) {
        const double d = scheme.cells()[i].distance(q);
        if (d < best_dist) {
          best_dist = d;
          best = i;
        }
      }
      ids.push_back(best);
      return ids;
    };
    std::vector<geom::Envelope> queries = sample;
    // Degenerate (point) envelopes, the reference-point dedup shape.
    for (int i = 0; i < 200; ++i) {
      const double x = pos(rng);
      const double y = pos(rng);
      queries.emplace_back(x, y, x, y);
    }
    // Envelopes straddling or outside the extent (nearest-cell fallback).
    queries.emplace_back(-50.0, -50.0, -10.0, -10.0);
    queries.emplace_back(990.0, 990.0, 1100.0, 1100.0);
    queries.emplace_back(-10.0, 400.0, 1100.0, 420.0);
    std::vector<std::uint32_t> got;
    for (const auto& q : queries) {
      auto expected = reference_assign(q);
      EXPECT_EQ(scheme.assign(q), [&] {
        std::vector<std::uint32_t> v;
        scheme.assign_into(q, v);
        return v;
      }()) << partition::partitioner_kind_name(kind);
      scheme.assign_into(q, got);
      const std::uint32_t expected_min =
          *std::min_element(expected.begin(), expected.end());
      std::sort(expected.begin(), expected.end());
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, expected) << partition::partitioner_kind_name(kind);
      EXPECT_EQ(scheme.min_assigned(q), expected_min)
          << partition::partitioner_kind_name(kind);
    }
  }
}

// ---------------------------------------------------------------------------
// Duplicated-records counter on a pinned grid
// ---------------------------------------------------------------------------

geom::Feature box(std::uint64_t id, double x0, double y0, double x1, double y1) {
  return {id, geom::Geometry::polygon({{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}, {x0, y0}})};
}

TEST(DataPlane, DuplicatedRecordsCounterOnPinnedGrid) {
  // target_partitions=4 + kFixedGrid pins a 2x2 grid over the extent; both
  // datasets carry corner anchors so every system (per-dataset extents for
  // the Hadoop family, joint extent for Spark) derives the same [0,100]^2
  // grid with the seam at 50. The expected count is then by construction:
  // one extra assignment per seam crossing, three for the center box.
  std::vector<geom::Feature> a_features;
  a_features.push_back(box(0, 0, 0, 1, 1));         // anchor, 1 cell
  a_features.push_back(box(1, 99, 99, 100, 100));   // anchor, 1 cell
  a_features.push_back(box(2, 10, 10, 20, 20));     // 1 cell
  a_features.push_back(box(3, 40, 10, 60, 20));     // crosses x=50: +1
  a_features.push_back(box(4, 10, 40, 20, 60));     // crosses y=50: +1
  a_features.push_back(box(5, 45, 45, 55, 55));     // crosses both: +3
  std::vector<geom::Feature> b_features;
  b_features.push_back(box(0, 0, 0, 1, 1));         // anchor, 1 cell
  b_features.push_back(box(1, 99, 99, 100, 100));   // anchor, 1 cell
  b_features.push_back(box(2, 60, 60, 70, 70));     // 1 cell
  b_features.push_back(box(3, 40, 60, 60, 70));     // crosses x=50: +1
  b_features.push_back(box(4, 45, 45, 55, 55));     // crosses both: +3
  const std::uint64_t expected_dups = (1 + 1 + 3) + (1 + 3);

  const workload::Dataset left("dup-a", std::move(a_features), 0);
  const workload::Dataset right("dup-b", std::move(b_features), 0);
  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kIntersects;
  query.partitioner = partition::PartitionerKind::kFixedGrid;
  query.target_partitions = 4;
  core::ExecutionConfig exec;
  exec.cluster = cluster::ClusterSpec::workstation();

  // The counter pins the *raw* multi-assignment overhead, so the map-side
  // shuffle filter is forced off; the companion run below checks the
  // filter-on counter only shrinks and the shuffle invariant holds.
  const auto check = [&](const core::RunReport& report, const char* tag) {
    ASSERT_TRUE(report.status.ok()) << tag << ": " << report.status.to_string();
    EXPECT_EQ(report.counters.get("partition.duplicated_records"), expected_dups)
        << tag;
  };
  const auto check_filtered = [&](const core::RunReport& report, const char* tag) {
    ASSERT_TRUE(report.status.ok()) << tag << ": " << report.status.to_string();
    EXPECT_LE(report.counters.get("partition.duplicated_records"), expected_dups)
        << tag;
    EXPECT_EQ(report.counters.get("shuffle.assigned_records"),
              report.counters.get("shuffle.records") +
                  report.counters.get("shuffle.filtered_records"))
        << tag;
  };
  {
    systems::HadoopGisConfig cfg;
    cfg.policy.shuffle_filter = false;
    check(systems::run_hadoop_gis(left, right, query, exec, cfg), "hadoopgis");
    cfg.policy.shuffle_filter = true;
    check_filtered(systems::run_hadoop_gis(left, right, query, exec, cfg),
                   "hadoopgis-filtered");
  }
  {
    systems::SpatialHadoopConfig cfg;
    cfg.policy.shuffle_filter = false;
    check(systems::run_spatial_hadoop(left, right, query, exec, cfg),
          "spatialhadoop");
    cfg.policy.shuffle_filter = true;
    check_filtered(systems::run_spatial_hadoop(left, right, query, exec, cfg),
                   "spatialhadoop-filtered");
  }
  {
    systems::SpatialSparkConfig cfg;
    cfg.policy.shuffle_filter = false;
    check(systems::run_spatial_spark(left, right, query, exec, cfg),
          "spatialspark");
    cfg.policy.shuffle_filter = true;
    check_filtered(systems::run_spatial_spark(left, right, query, exec, cfg),
                   "spatialspark-filtered");
  }
}

// ---------------------------------------------------------------------------
// Determinism under virtual time
// ---------------------------------------------------------------------------

struct PlaneBench {
  workload::Dataset left;
  workload::Dataset right;
  core::JoinQueryConfig query;
  core::ExecutionConfig exec;

  static PlaneBench make() {
    workload::WorkloadConfig wc;
    wc.scale = 2e-4;
    // The taxi1m x nycb row: large enough to exercise every stage, small
    // enough that HadoopGIS stays inside its (intentional) pipe gate.
    PlaneBench b{workload::generate(workload::DatasetId::kTaxi1m, wc),
                 workload::generate(workload::DatasetId::kNycb, wc),
                 {},
                 {}};
    b.query.predicate = core::JoinPredicate::kWithin;
    // Workstation keeps HadoopGIS inside its (intentional) pipe gate at
    // this scale while still running multi-slot through the thread pool.
    b.exec.cluster = cluster::ClusterSpec::workstation();
    b.exec.data_scale = 1.0 / wc.scale;
    return b;
  }
};

TEST(DataPlane, RepeatedRunsBitIdenticalUnderVirtualTime) {
  // With measured CPU pinned to zero, two runs of the same Table-2 config —
  // thread pool active, arena shuffle buckets, prepared-geometry cache —
  // must produce byte-identical reports, counters included: no
  // scheduling-dependent modeled quantity may exist in the data plane.
  const VirtualTimeGuard vt;
  const PlaneBench b = PlaneBench::make();
  for (const auto kind :
       {core::SystemKind::kHadoopGisSim, core::SystemKind::kSpatialHadoopSim,
        core::SystemKind::kSpatialSparkSim}) {
    const auto first = core::run_spatial_join(kind, b.left, b.right, b.query, b.exec);
    const auto second = core::run_spatial_join(kind, b.left, b.right, b.query, b.exec);
    ASSERT_TRUE(first.status.ok()) << first.status.to_string();
    expect_reports_identical(first, second,
                             std::string("repeat/") + core::system_kind_name(kind));
  }
}

TEST(DataPlane, VirtualTimeStateDoesNotLeakBetweenRuns) {
  // Regression for the global virtual-time flag leaking across consecutive
  // runs: a guard scope (even a nested one) must restore the prior state,
  // and a run after the scope must measure real CPU again while charging
  // the same modeled quantities.
  ASSERT_FALSE(virtual_time_enabled());
  const PlaneBench b = PlaneBench::make();
  core::RunReport virt_a, virt_b;
  {
    const VirtualTimeGuard vt;
    ASSERT_TRUE(virtual_time_enabled());
    {
      // Nested guards restore the previous value, not unconditionally off —
      // the bug class the old set_virtual_time(false) epilogues had.
      const VirtualTimeGuard nested(false);
      ASSERT_FALSE(virtual_time_enabled());
    }
    ASSERT_TRUE(virtual_time_enabled());
    // Two back-to-back joins inside one virtual-time scope: bit-identical.
    virt_a = core::run_spatial_join(core::SystemKind::kSpatialHadoopSim, b.left,
                                    b.right, b.query, b.exec);
    virt_b = core::run_spatial_join(core::SystemKind::kSpatialHadoopSim, b.left,
                                    b.right, b.query, b.exec);
    ASSERT_TRUE(virt_a.status.ok()) << virt_a.status.to_string();
    expect_reports_identical(virt_a, virt_b, "virtual-time back-to-back");
  }
  ASSERT_FALSE(virtual_time_enabled());

  // Post-scope run: the stopwatch measures again (CPU seconds flow into the
  // modeled times, which virtual time pinned), while every
  // schedule-independent quantity still matches the virtual-time runs.
  const auto real = core::run_spatial_join(core::SystemKind::kSpatialHadoopSim, b.left,
                                           b.right, b.query, b.exec);
  ASSERT_TRUE(real.status.ok()) << real.status.to_string();
  EXPECT_EQ(real.result_count, virt_a.result_count);
  EXPECT_EQ(real.result_hash, virt_a.result_hash);
  EXPECT_EQ(real.counters.snapshot(), virt_a.counters.snapshot());
  EXPECT_GE(real.total_seconds, virt_a.total_seconds);
}

// ---------------------------------------------------------------------------
// Trace accounting neutrality
// ---------------------------------------------------------------------------

/// The edges x linearwater row (kIntersects), the second Table-2 experiment
/// shape, at a scale small enough for the test suite.
PlaneBench make_edges_bench() {
  workload::WorkloadConfig wc;
  wc.scale = 2e-5;
  PlaneBench b{workload::generate(workload::DatasetId::kEdges, wc),
               workload::generate(workload::DatasetId::kLinearwater, wc),
               {},
               {}};
  b.query.predicate = core::JoinPredicate::kIntersects;
  b.exec.cluster = cluster::ClusterSpec::workstation();
  b.exec.data_scale = 1.0 / wc.scale;
  return b;
}

/// Requires a traced run's timeline to be structurally sound for its run.
void expect_timeline_sane(const core::RunReport& report, const std::string& tag) {
  const trace::TaskTimeline& t = report.trace;
  EXPECT_GT(t.spans.size(), 0u) << tag;
  EXPECT_EQ(t.total_slots(), cluster::ClusterSpec::workstation().total_slots()) << tag;
  double max_end = 0.0;
  std::set<std::string> phases_seen;
  for (const auto& s : t.spans) {
    EXPECT_LT(s.slot, t.total_slots()) << tag;
    EXPECT_GE(s.sim_end, s.sim_start) << tag;
    max_end = std::max(max_end, s.sim_end);
    phases_seen.insert(s.phase);
  }
  // Spans never run past the sequential clock, and every recorded phase
  // with tasks appears on the timeline.
  EXPECT_LE(max_end, report.metrics.total_seconds() * (1.0 + 1e-12)) << tag;
  for (const auto& p : report.metrics.phases()) {
    if (p.task_count > 0) {
      EXPECT_TRUE(phases_seen.count(p.name) > 0) << tag << " phase " << p.name;
    }
  }
}

TEST(DataPlane, TracedRunReportsBitIdenticalToUntraced) {
  // The tentpole guarantee: flipping ExecutionConfig::trace changes what
  // the run *records*, never what it *charges* — on both Table-2 experiment
  // shapes, success and failure paths alike (HadoopGIS may die in its pipe
  // gate on the edges row; the reports must still match bit for bit).
  const VirtualTimeGuard vt;
  const PlaneBench benches[] = {PlaneBench::make(), make_edges_bench()};
  const char* bench_names[] = {"taxi-nycb", "edges-linearwater"};
  for (std::size_t bi = 0; bi < 2; ++bi) {
    const PlaneBench& b = benches[bi];
    for (const auto kind :
         {core::SystemKind::kHadoopGisSim, core::SystemKind::kSpatialHadoopSim,
          core::SystemKind::kSpatialSparkSim}) {
      core::ExecutionConfig traced_exec = b.exec;
      traced_exec.trace = true;
      const auto untraced =
          core::run_spatial_join(kind, b.left, b.right, b.query, b.exec);
      const auto traced =
          core::run_spatial_join(kind, b.left, b.right, b.query, traced_exec);
      const std::string tag = std::string(bench_names[bi]) + "/traced-vs-untraced/" +
                              core::system_kind_name(kind);
      expect_reports_identical(untraced, traced, tag);
      EXPECT_TRUE(untraced.trace.empty()) << tag;
      expect_timeline_sane(traced, tag);
    }
  }
}

}  // namespace
}  // namespace sjc
