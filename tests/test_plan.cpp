// Skew-aware adaptive repartitioning + cost-based plan choice test suite.
//
// The load-bearing contract of hotspot refinement: splitting a cell into
// children that tile it exactly cannot change which pairs survive — the
// reference-point dedup picks the one cell containing the point either way
// — so a run with repartitioning on must produce a survivor pair set
// bit-identical to the static-scheme run, with refine.* counters unchanged
// (the accept filter runs before refinement counting in run_local_join)
// and the shuffle.assigned == records + filtered invariant intact. The
// suite checks the monitor/refiner units, the cost model's shape, both
// Table-2 experiments across all three systems, and that a resident
// SpatialSpark entry refuses the broadcast plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "plan/cost_model.hpp"
#include "plan/partition_refiner.hpp"
#include "plan/skew_monitor.hpp"
#include "serving/resident_catalog.hpp"
#include "systems/hadoopgis/hadoop_gis.hpp"
#include "systems/spatialhadoop/spatial_hadoop.hpp"
#include "systems/spatialspark/spatial_spark.hpp"
#include "workload/generators.hpp"

namespace sjc {
namespace {

// ---------------------------------------------------------------------------
// SkewMonitor
// ---------------------------------------------------------------------------

std::vector<plan::CellLoad> loads_of(std::initializer_list<std::uint64_t> records) {
  std::vector<plan::CellLoad> loads;
  for (const auto r : records) loads.push_back({r, r * 10});
  return loads;
}

TEST(SkewMonitor, FlagsCellsAboveFactorTimesMedian) {
  plan::SkewPolicy policy;
  policy.hotspot_factor = 4.0;
  policy.min_cell_records = 10;
  const plan::SkewMonitor monitor(policy);

  // Non-empty loads {100, 100, 100, 100, 1000}: median 100 (nearest rank),
  // threshold max(400, 10) = 400 -> only the 1000-cell is hot. Empty cells
  // must not drag the median down.
  const auto report =
      monitor.analyze(loads_of({100, 0, 100, 100, 0, 0, 100, 1000}));
  EXPECT_DOUBLE_EQ(report.median_records, 100.0);
  EXPECT_EQ(report.max_records, 1000u);
  EXPECT_DOUBLE_EQ(report.max_over_median, 10.0);
  ASSERT_EQ(report.hot_cells.size(), 1u);
  EXPECT_EQ(report.hot_cells[0], 7u);
}

TEST(SkewMonitor, MinCellRecordsFloorsTheThreshold) {
  plan::SkewPolicy policy;
  policy.hotspot_factor = 2.0;
  policy.min_cell_records = 500;
  const plan::SkewMonitor monitor(policy);
  // 40 > 2 x median(=4) but below the absolute floor: never split a
  // near-empty cell no matter how skewed the ratio looks.
  EXPECT_TRUE(monitor.analyze(loads_of({4, 4, 4, 40})).hot_cells.empty());
}

TEST(SkewMonitor, WorstOffendersFirstAndCapped) {
  plan::SkewPolicy policy;
  policy.hotspot_factor = 1.5;
  policy.min_cell_records = 1;
  policy.max_splits_per_round = 2;
  const plan::SkewMonitor monitor(policy);
  // Median of {10,10,10,10,300,400,500} is 10; three cells exceed 15, but
  // only the two worst are kept, in descending-load order.
  const auto report = monitor.analyze(loads_of({10, 300, 10, 500, 10, 400, 10}));
  ASSERT_EQ(report.hot_cells.size(), 2u);
  EXPECT_EQ(report.hot_cells[0], 3u);
  EXPECT_EQ(report.hot_cells[1], 5u);
}

TEST(SkewMonitor, AllEmptyIsQuiet) {
  const auto report = plan::SkewMonitor{}.analyze(loads_of({0, 0, 0}));
  EXPECT_TRUE(report.hot_cells.empty());
  EXPECT_DOUBLE_EQ(report.median_records, 0.0);
  EXPECT_DOUBLE_EQ(report.max_over_median, 0.0);
}

TEST(SkewMonitor, PhaseSkewRatio) {
  std::vector<trace::PhaseSkew> rows(2);
  rows[0].phase = "local-join";
  rows[0].p50_s = 2.0;
  rows[0].max_s = 9.0;
  rows[1].phase = "parse";
  rows[1].p50_s = 0.0;
  rows[1].max_s = 1.0;
  EXPECT_DOUBLE_EQ(plan::phase_skew_ratio(rows, "local-join"), 4.5);
  EXPECT_DOUBLE_EQ(plan::phase_skew_ratio(rows, "parse"), 0.0);  // median 0
  EXPECT_DOUBLE_EQ(plan::phase_skew_ratio(rows, "absent"), 0.0);
}

// ---------------------------------------------------------------------------
// PartitionRefiner: split geometry + refine loop
// ---------------------------------------------------------------------------

/// Children must tile the parent exactly: cover every probe point, never
/// overlap interiorly, and preserve total area.
void expect_tiles_parent(const geom::Envelope& parent,
                         const std::vector<geom::Envelope>& children,
                         const std::string& tag) {
  double area = 0.0;
  for (const auto& c : children) {
    area += c.width() * c.height();
    EXPECT_GE(c.min_x(), parent.min_x()) << tag;
    EXPECT_GE(c.min_y(), parent.min_y()) << tag;
    EXPECT_LE(c.max_x(), parent.max_x()) << tag;
    EXPECT_LE(c.max_y(), parent.max_y()) << tag;
  }
  EXPECT_NEAR(area, parent.width() * parent.height(), 1e-9) << tag;
  // Interior-point coverage: every probe lands in exactly one child whose
  // interior contains it (boundary points may touch two — the same
  // situation the base grid already has, resolved by min-id dedup).
  for (double fx : {0.1, 0.4, 0.6, 0.9}) {
    for (double fy : {0.1, 0.4, 0.6, 0.9}) {
      const double x = parent.min_x() + fx * parent.width();
      const double y = parent.min_y() + fy * parent.height();
      int hits = 0;
      for (const auto& c : children) {
        if (x >= c.min_x() && x <= c.max_x() && y >= c.min_y() && y <= c.max_y()) {
          ++hits;
        }
      }
      EXPECT_GE(hits, 1) << tag << " uncovered point";
    }
  }
}

TEST(PartitionRefiner, SplitCellTilesParent) {
  const geom::Envelope cell(10.0, 20.0, 30.0, 28.0);
  const auto quad = plan::PartitionRefiner::split_cell(
      cell, partition::PartitionerKind::kFixedGrid);
  ASSERT_EQ(quad.size(), 4u);
  expect_tiles_parent(cell, quad, "quad");

  const auto halves =
      plan::PartitionRefiner::split_cell(cell, partition::PartitionerKind::kStr);
  ASSERT_EQ(halves.size(), 2u);
  expect_tiles_parent(cell, halves, "str-halves");
  // STR/BSP node-split halves the longer axis (x here: 20 wide vs 8 tall).
  EXPECT_DOUBLE_EQ(halves[0].max_x(), 20.0);
  EXPECT_DOUBLE_EQ(halves[1].min_x(), 20.0);

  // A zero-width sliver can only split in y — for the grid family too.
  const geom::Envelope sliver(5.0, 0.0, 5.0, 10.0);
  const auto sliver_children = plan::PartitionRefiner::split_cell(
      sliver, partition::PartitionerKind::kFixedGrid);
  ASSERT_EQ(sliver_children.size(), 2u);
  EXPECT_DOUBLE_EQ(sliver_children[0].max_y(), 5.0);

  // A point cell cannot split at all.
  const geom::Envelope point(1.0, 1.0, 1.0, 1.0);
  EXPECT_EQ(plan::PartitionRefiner::split_cell(point,
                                               partition::PartitionerKind::kQuadtree)
                .size(),
            1u);
}

TEST(PartitionRefiner, RefineSplitsHotCellsAndConservesMigration) {
  // 2x2 grid over [0,100]^2; cell 0 carries 900 of the 960 records.
  const geom::Envelope extent(0.0, 0.0, 100.0, 100.0);
  const std::vector<geom::Envelope> cells = {
      {0, 0, 50, 50}, {50, 0, 100, 50}, {0, 50, 50, 100}, {50, 50, 100, 100}};
  const partition::PartitionScheme scheme(cells, extent);

  plan::SkewPolicy policy;
  policy.hotspot_factor = 4.0;
  policy.min_cell_records = 1;
  policy.max_rounds = 1;
  const plan::PartitionRefiner refiner(partition::PartitionerKind::kFixedGrid,
                                       policy);

  // Probe: a point mass at (10,10) plus 20 records per cell elsewhere.
  int probes = 0;
  const auto probe = [&probes](const partition::PartitionScheme& s) {
    ++probes;
    std::vector<plan::CellLoad> loads(s.cell_count());
    std::vector<std::uint32_t> pids;
    const auto add = [&](double x, double y, std::uint64_t n) {
      s.assign_into(geom::Envelope(x, y, x, y), pids);
      for (const auto pid : pids) {
        loads[pid].records += n;
        loads[pid].bytes += n * 8;
      }
    };
    add(10, 10, 900);
    add(75, 25, 20);
    add(25, 75, 20);
    add(75, 75, 20);
    return loads;
  };

  const plan::RefineResult result = refiner.refine(scheme, probe);
  EXPECT_EQ(probes, 1);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_EQ(result.splits, 1u);
  EXPECT_TRUE(result.changed());
  // Quad split: 4 cells -> 7 (cell 0 replaced by 4 children).
  EXPECT_EQ(result.scheme.cell_count(), 7u);
  // Migration counters are exactly the load resident in the split cell.
  EXPECT_EQ(result.migrated_records, 900u);
  EXPECT_EQ(result.migrated_bytes, 900u * 8);
  // Parent mapping: slot 0 and the three appended children map to 0, the
  // untouched cells keep identity.
  ASSERT_EQ(result.parent.size(), 7u);
  EXPECT_EQ(result.parent[0], 0u);
  EXPECT_EQ(result.parent[1], 1u);
  EXPECT_EQ(result.parent[2], 2u);
  EXPECT_EQ(result.parent[3], 3u);
  EXPECT_EQ(result.parent[4], 0u);
  EXPECT_EQ(result.parent[5], 0u);
  EXPECT_EQ(result.parent[6], 0u);
  // The children tile the old cell 0.
  expect_tiles_parent(cells[0],
                      {result.scheme.cells()[0], result.scheme.cells()[4],
                       result.scheme.cells()[5], result.scheme.cells()[6]},
                      "refined");

  // With two rounds the point-mass child is still hot and splits again.
  policy.max_rounds = 2;
  const plan::RefineResult deeper =
      plan::PartitionRefiner(partition::PartitionerKind::kFixedGrid, policy)
          .refine(scheme, probe);
  EXPECT_EQ(deeper.rounds, 2u);
  EXPECT_EQ(deeper.splits, 2u);
  EXPECT_EQ(deeper.scheme.cell_count(), 10u);
  // Round 2 migrated the 900-record mass again out of the hot child.
  EXPECT_EQ(deeper.migrated_records, 1800u);

  // A balanced probe refines nothing and stops after one probe round.
  const auto balanced = [](const partition::PartitionScheme& s) {
    return std::vector<plan::CellLoad>(s.cell_count(), plan::CellLoad{50, 400});
  };
  const plan::RefineResult quiet =
      plan::PartitionRefiner(partition::PartitionerKind::kFixedGrid, policy)
          .refine(scheme, balanced);
  EXPECT_EQ(quiet.rounds, 1u);
  EXPECT_FALSE(quiet.changed());
  EXPECT_EQ(quiet.scheme.cell_count(), 4u);
  EXPECT_EQ(quiet.migrated_records, 0u);
}

TEST(PartitionRefiner, CountersRoundTrip) {
  const geom::Envelope extent(0.0, 0.0, 10.0, 10.0);
  plan::RefineResult result{partition::PartitionScheme({extent}, extent),
                            {0},
                            /*rounds=*/2,
                            /*splits=*/3,
                            /*migrated_records=*/111,
                            /*migrated_bytes=*/2222};
  cluster::Counters counters;
  plan::record_repartition_counters(result, counters);
  EXPECT_EQ(counters.get("repartition.rounds"), 2u);
  EXPECT_EQ(counters.get("repartition.splits"), 3u);
  EXPECT_EQ(counters.get("repartition.cells"), 1u);
  EXPECT_EQ(counters.get("repartition.migrated_records"), 111u);
  EXPECT_EQ(counters.get("repartition.migrated_bytes"), 2222u);
}

// ---------------------------------------------------------------------------
// JoinCostModel
// ---------------------------------------------------------------------------

plan::PlanInputs base_inputs() {
  plan::PlanInputs in;
  in.left_records = 1'000'000;
  in.right_records = 1'000;
  in.left_bytes = 100ull << 20;
  in.right_bytes = 1ull << 20;
  in.cluster = cluster::ClusterSpec::ec2(10);
  return in;
}

TEST(JoinCostModel, SmallRightSideBroadcasts) {
  const auto decision = plan::choose_plan(base_inputs());
  EXPECT_FALSE(decision.fallback);
  EXPECT_TRUE(decision.broadcast_feasible);
  // A ~1 MB right side against a ~250 MB (with row overhead) shuffled left:
  // shipping the small table to 10 nodes is cheaper than shuffling the big
  // side across the cluster, so broadcast must win.
  EXPECT_EQ(decision.chosen, plan::PlanKind::kBroadcastJoin);
  EXPECT_LT(decision.broadcast_seconds, decision.partitioned_seconds);
  EXPECT_DOUBLE_EQ(decision.predicted_seconds, decision.broadcast_seconds);
}

TEST(JoinCostModel, OversizedRightSideIsInfeasibleToBroadcast) {
  auto in = base_inputs();
  // g2.2xlarge keeps 15 GB per node; a ~15 GB broadcast table (12 GiB of
  // geometry plus 3 GB of row overhead) blows the 80% heap budget and the
  // model must fall back to the partitioned join (the paper's Spark
  // broadcast OOM).
  in.right_records = 20'000'000;
  in.right_bytes = 12ull << 30;
  const auto decision = plan::choose_plan(in);
  EXPECT_FALSE(decision.broadcast_feasible);
  EXPECT_TRUE(std::isinf(decision.broadcast_seconds));
  EXPECT_EQ(decision.chosen, plan::PlanKind::kPartitionedJoin);
}

TEST(JoinCostModel, MonotoneInInputSize) {
  auto in = base_inputs();
  double prev_partitioned = 0.0;
  double prev_broadcast = 0.0;
  for (const std::uint64_t mult : {1ull, 4ull, 16ull, 64ull}) {
    auto scaled = in;
    scaled.left_records = in.left_records * mult;
    scaled.left_bytes = in.left_bytes * mult;
    scaled.right_records = in.right_records * mult;
    scaled.right_bytes = in.right_bytes * mult;
    const auto decision = plan::choose_plan(scaled);
    EXPECT_GT(decision.partitioned_seconds, prev_partitioned) << mult;
    if (decision.broadcast_feasible) {
      EXPECT_GT(decision.broadcast_seconds, prev_broadcast) << mult;
      prev_broadcast = decision.broadcast_seconds;
    }
    prev_partitioned = decision.partitioned_seconds;
  }
}

TEST(JoinCostModel, ReplicationAndSelectivityMoveThePartitionedCost) {
  auto in = base_inputs();
  const double baseline = plan::choose_plan(in).partitioned_seconds;
  in.replication_factor = 3.0;
  const double replicated = plan::choose_plan(in).partitioned_seconds;
  EXPECT_GT(replicated, baseline);
  in.filter_selectivity = 0.1;
  const double filtered = plan::choose_plan(in).partitioned_seconds;
  EXPECT_LT(filtered, replicated);
}

TEST(JoinCostModel, DegenerateInputsFallBackSafely) {
  plan::PlanInputs empty;
  empty.cluster = cluster::ClusterSpec::ec2(6);
  const auto decision = plan::choose_plan(empty);  // no sampler stats, no data
  EXPECT_TRUE(decision.fallback);
  EXPECT_EQ(decision.chosen, plan::PlanKind::kPartitionedJoin);

  cluster::Counters counters;
  plan::record_plan_counters(decision, counters);
  EXPECT_EQ(counters.get("plan.chosen"), 1u);
  EXPECT_EQ(counters.get("plan.fallback"), 1u);
}

TEST(JoinCostModel, CountersCarryTheDecision) {
  const auto decision = plan::choose_plan(base_inputs());
  cluster::Counters counters;
  plan::record_plan_counters(decision, counters);
  plan::record_plan_actual(1.234, counters);
  EXPECT_EQ(counters.get("plan.chosen"),
            static_cast<std::uint64_t>(decision.chosen));
  EXPECT_EQ(counters.get("plan.predicted_cost"),
            static_cast<std::uint64_t>(decision.predicted_seconds * 1e3));
  EXPECT_GT(counters.get("plan.predicted_partitioned"),
            counters.get("plan.predicted_broadcast"));
  EXPECT_EQ(counters.get("plan.actual_cost"), 1234u);
  EXPECT_EQ(counters.get("plan.fallback"), 0u);
}

// ---------------------------------------------------------------------------
// Full systems: repartition on/off bit-identical survivor pairs
// ---------------------------------------------------------------------------

struct Bench {
  workload::Dataset left;
  workload::Dataset right;
  core::JoinQueryConfig query;
  core::ExecutionConfig exec;
  std::string name;
};

Bench make_bench(workload::DatasetId a, workload::DatasetId b, double scale,
                 core::JoinPredicate predicate, const std::string& name) {
  workload::WorkloadConfig wc;
  wc.scale = scale;
  Bench bench{workload::generate(a, wc), workload::generate(b, wc), {}, {}, name};
  bench.query.predicate = predicate;
  bench.exec.cluster = cluster::ClusterSpec::workstation();
  bench.exec.data_scale = 1.0 / wc.scale;
  return bench;
}

/// Aggressive policy so the small test datasets actually trigger splits.
plan::SkewPolicy eager_policy() {
  plan::SkewPolicy policy;
  policy.hotspot_factor = 1.5;
  policy.min_cell_records = 4;
  policy.max_rounds = 2;
  return policy;
}

/// The split-soundness contract, checked between a static-scheme run and an
/// adaptive run of the same system: identical pair sets and refinement
/// workload, self-consistent shuffle counters, and the repartition.* block
/// present exactly on the adaptive side.
void expect_repartition_neutral(const core::RunReport& off,
                                const core::RunReport& on,
                                const std::string& tag) {
  EXPECT_EQ(off.counters.get("repartition.rounds"), 0u) << tag;
  ASSERT_EQ(off.status.ok(), on.status.ok()) << tag << ": " << on.status.to_string();
  // A run that dies before the refinement step (HadoopGIS overflows its
  // streaming pipes on the line-join ingest regardless of the scheme) has
  // nothing to report; the neutrality claim below still binds.
  if (!off.status.ok()) return;
  EXPECT_GE(on.counters.get("repartition.rounds"), 1u) << tag;
  EXPECT_GE(on.counters.get("repartition.cells"), 1u) << tag;

  // Bit-identical survivor pair sets and refinement workload (the accept
  // dedup runs before refinement counting, so refine.* is scheme-free).
  EXPECT_EQ(off.result_count, on.result_count) << tag;
  EXPECT_EQ(off.result_hash, on.result_hash) << tag;
  for (const char* key :
       {"refine.candidates", "refine.exact_tests", "refine.early_accepts",
        "refine.early_rejects"}) {
    EXPECT_EQ(off.counters.get(key), on.counters.get(key)) << tag << " " << key;
  }
  // The shuffle-filter invariant must survive the refined scheme. (The
  // shuffle *totals* legitimately differ from the static run: more cells
  // means different boundary duplication and filter decisions.)
  const std::uint64_t assigned = on.counters.get("shuffle.assigned_records");
  if (assigned != 0) {
    EXPECT_EQ(assigned, on.counters.get("shuffle.records") +
                            on.counters.get("shuffle.filtered_records"))
        << tag;
  }
}

TEST(RepartitionSystems, BitIdenticalSurvivorPairs) {
  const Bench benches[] = {
      make_bench(workload::DatasetId::kTaxi1m, workload::DatasetId::kNycb, 2e-4,
                 core::JoinPredicate::kWithin, "taxi-nycb"),
      make_bench(workload::DatasetId::kEdges, workload::DatasetId::kLinearwater,
                 2e-5, core::JoinPredicate::kIntersects, "edges-linearwater"),
  };
  // FixedGrid exercises the quad-split family on the skewed taxi workload;
  // STR exercises the node-split family on the line join.
  const partition::PartitionerKind kinds[] = {partition::PartitionerKind::kFixedGrid,
                                              partition::PartitionerKind::kStr};
  for (std::size_t bi = 0; bi < 2; ++bi) {
    const Bench& bench = benches[bi];
    core::JoinQueryConfig query = bench.query;
    query.partitioner = kinds[bi];
    const std::string base =
        bench.name + "/" + partition::partitioner_kind_name(kinds[bi]);
    {
      systems::HadoopGisConfig off_cfg;
      systems::HadoopGisConfig on_cfg;
      on_cfg.policy.repartition = true;
      on_cfg.policy.skew = eager_policy();
      expect_repartition_neutral(
          systems::run_hadoop_gis(bench.left, bench.right, query, bench.exec,
                                  off_cfg),
          systems::run_hadoop_gis(bench.left, bench.right, query, bench.exec,
                                  on_cfg),
          base + "/hadoopgis");
    }
    {
      systems::SpatialHadoopConfig off_cfg;
      systems::SpatialHadoopConfig on_cfg;
      on_cfg.policy.repartition = true;
      on_cfg.policy.skew = eager_policy();
      expect_repartition_neutral(
          systems::run_spatial_hadoop(bench.left, bench.right, query, bench.exec,
                                      off_cfg),
          systems::run_spatial_hadoop(bench.left, bench.right, query, bench.exec,
                                      on_cfg),
          base + "/spatialhadoop");
    }
    {
      systems::SpatialSparkConfig off_cfg;
      systems::SpatialSparkConfig on_cfg;
      on_cfg.policy.repartition = true;
      on_cfg.policy.skew = eager_policy();
      expect_repartition_neutral(
          systems::run_spatial_spark(bench.left, bench.right, query, bench.exec,
                                     off_cfg),
          systems::run_spatial_spark(bench.left, bench.right, query, bench.exec,
                                     on_cfg),
          base + "/spatialspark");
    }
  }
}

TEST(RepartitionSystems, SkewedGridActuallySplits) {
  // The taxi workload has a Gaussian urban hotspot; a fixed grid (which,
  // unlike STR, does not balance sample counts) must produce hot cells the
  // refiner then splits. This pins "adaptive repartitioning did something"
  // independent of the neutrality test.
  Bench bench = make_bench(workload::DatasetId::kTaxi1m, workload::DatasetId::kNycb,
                           2e-4, core::JoinPredicate::kWithin, "taxi-skew");
  bench.query.partitioner = partition::PartitionerKind::kFixedGrid;
  systems::SpatialSparkConfig cfg;
  cfg.policy.repartition = true;
  cfg.policy.skew = eager_policy();
  const auto report =
      systems::run_spatial_spark(bench.left, bench.right, bench.query, bench.exec, cfg);
  ASSERT_TRUE(report.status.ok()) << report.status.to_string();
  EXPECT_GE(report.counters.get("repartition.rounds"), 1u);
  EXPECT_GT(report.counters.get("repartition.splits"), 0u);
  EXPECT_GT(report.counters.get("repartition.migrated_records"), 0u);
  EXPECT_GT(report.counters.get("repartition.migrated_bytes"), 0u);
}

TEST(RepartitionSystems, ResidentPathCarriesTheRefinedScheme) {
  // capture-on-build must store the *refined* scheme: a resident query under
  // an adaptive build stays bit-identical to the adaptive cold run.
  Bench bench = make_bench(workload::DatasetId::kTaxi1m, workload::DatasetId::kNycb,
                           2e-4, core::JoinPredicate::kWithin, "taxi-resident");
  bench.query.partitioner = partition::PartitionerKind::kFixedGrid;
  bench.exec.collect_pairs = true;

  serving::ResidentEntryConfig config;
  config.system = core::SystemKind::kSpatialSparkSim;
  config.build_query = bench.query;
  config.exec = bench.exec;
  config.spatial_spark.policy.repartition = true;
  config.spatial_spark.policy.skew = eager_policy();

  const auto cold = systems::run_spatial_spark(bench.left, bench.right, bench.query,
                                               bench.exec, config.spatial_spark);
  ASSERT_TRUE(cold.status.ok()) << cold.status.to_string();
  EXPECT_GT(cold.counters.get("repartition.splits"), 0u);

  serving::ResidentCatalog catalog;
  const auto entry = catalog.install("taxi", bench.left, bench.right, config);
  const auto resident = entry->run_join(bench.query);
  ASSERT_TRUE(resident.status.ok()) << resident.status.to_string();
  EXPECT_EQ(cold.result_count, resident.result_count);
  EXPECT_EQ(cold.result_hash, resident.result_hash);
}

// ---------------------------------------------------------------------------
// Serving: resident SpatialSpark entries run the partitioned plan only
// ---------------------------------------------------------------------------

TEST(PlanServing, ResidentSpatialSparkRejectsBroadcastPlans) {
  // The broadcast plan has no resident tail, so an entry that could pick it
  // (statically or by cost) must fail to install rather than build state a
  // query could not use.
  Bench bench = make_bench(workload::DatasetId::kTaxi1m, workload::DatasetId::kNycb,
                           2e-4, core::JoinPredicate::kWithin, "taxi-serving");
  serving::ResidentEntryConfig cost_based;
  cost_based.system = core::SystemKind::kSpatialSparkSim;
  cost_based.build_query = bench.query;
  cost_based.exec = bench.exec;
  cost_based.spatial_spark.policy.cost_based_plan = true;
  serving::ResidentEntryConfig broadcast = cost_based;
  broadcast.spatial_spark.policy.cost_based_plan = false;
  broadcast.spatial_spark.broadcast_join = true;

  serving::ResidentCatalog catalog;
  for (const auto& config : {cost_based, broadcast}) {
    EXPECT_THROW(catalog.install("taxi-nycb", bench.left, bench.right, config),
                 InvalidArgument);
    EXPECT_EQ(catalog.size(), 0u);
    EXPECT_EQ(catalog.find("taxi-nycb"), nullptr);
  }
}

}  // namespace
}  // namespace sjc
