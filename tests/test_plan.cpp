// Skew-aware adaptive repartitioning + cost-based plan choice test suite.
//
// The load-bearing contract of hotspot refinement: splitting a cell into
// children that tile it exactly cannot change which pairs survive — the
// reference-point dedup picks the one cell containing the point either way
// — so a run with repartitioning on must produce a survivor pair set
// bit-identical to the static-scheme run, with refine.* counters unchanged
// (the accept filter runs before refinement counting in run_local_join)
// and the shuffle.assigned == records + filtered invariant intact. The
// suite checks the hot-cell/refiner units, the cost model's shape, both
// Table-2 experiments across all three systems, and that a resident
// SpatialSpark entry refuses the broadcast plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "corner_inputs.hpp"
#include "core/experiments.hpp"
#include "core/spatial_join.hpp"
#include "plan/cost_model.hpp"
#include "plan/partition_refiner.hpp"
#include "serving/resident_catalog.hpp"
#include "systems/hadoopgis/hadoop_gis.hpp"
#include "systems/spatialhadoop/spatial_hadoop.hpp"
#include "systems/spatialspark/spatial_spark.hpp"
#include "util/stopwatch.hpp"
#include "workload/generators.hpp"

namespace sjc {
namespace {

// ---------------------------------------------------------------------------
// Hot cells (the default thresholds: 4x the median, more than 64 records,
// at most 64 per round)
// ---------------------------------------------------------------------------

std::vector<plan::CellLoad> loads_of(std::initializer_list<std::uint64_t> records) {
  std::vector<plan::CellLoad> loads;
  for (const auto r : records) loads.push_back({r, r * 10});
  return loads;
}

TEST(HotCells, FlagsCellsAboveFactorTimesMedian) {
  // Non-empty loads {100, 100, 100, 100, 1000}: median 100 (nearest rank),
  // threshold max(4 x 100, 64) = 400 -> only the 1000-cell is hot. Empty
  // cells must not drag the median down.
  const auto hot = plan::hot_cells(loads_of({100, 0, 100, 100, 0, 0, 100, 1000}));
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0], 7u);
}

TEST(HotCells, MinCellRecordsFloorsTheThreshold) {
  // 40 > 4 x median(=4) but below the absolute floor: never split a
  // near-empty cell no matter how skewed the ratio looks.
  EXPECT_TRUE(plan::hot_cells(loads_of({4, 4, 4, 40})).empty());
  EXPECT_TRUE(plan::hot_cells(loads_of({10, 10, 10, 64})).empty());
  EXPECT_EQ(plan::hot_cells(loads_of({10, 10, 10, 65})), std::vector<std::uint32_t>{3});
}

TEST(HotCells, WorstOffendersFirstAndCapped) {
  // 200 cells of 10 records set the median at 10, so the threshold is the
  // 64-record floor; 70 cells above it carry 100 + j records in pairs
  // (ids 200 + 2j and 201 + 2j, j = 0..34). Only the 64 worst are kept:
  // load descending, the lower id first within a pair.
  std::vector<plan::CellLoad> loads(270, plan::CellLoad{10, 100});
  for (std::uint32_t id = 200; id < 270; ++id) loads[id].records = 100 + (id - 200) / 2;
  const auto hot = plan::hot_cells(loads);
  ASSERT_EQ(hot.size(), static_cast<std::size_t>(plan::kMaxSplitsPerRound));
  for (std::uint32_t k = 0; k < 32; ++k) {
    EXPECT_EQ(hot[2 * k], 268 - 2 * k) << k;
    EXPECT_EQ(hot[2 * k + 1], 269 - 2 * k) << k;
  }
}

TEST(HotCells, AllEmptyIsQuiet) {
  EXPECT_TRUE(plan::hot_cells(loads_of({0, 0, 0})).empty());
  EXPECT_TRUE(plan::hot_cells({}).empty());
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
  // STR's node-split halves the longer axis (x here: 20 wide vs 8 tall).
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
                                               partition::PartitionerKind::kFixedGrid)
                .size(),
            1u);
}

TEST(PartitionRefiner, RefineSplitsHotCellsAndConservesMigration) {
  // 2x2 grid over [0,100]^2; cell 0 carries 900 of the 960 records.
  const geom::Envelope extent(0.0, 0.0, 100.0, 100.0);
  const std::vector<geom::Envelope> cells = {
      {0, 0, 50, 50}, {50, 0, 100, 50}, {0, 50, 50, 100}, {50, 50, 100, 100}};
  const partition::PartitionScheme scheme(cells, extent);
  const plan::PartitionRefiner refiner(partition::PartitionerKind::kFixedGrid);

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

  // Round 1 quad-splits cell 0 (4 cells -> 7); its child holding the point
  // mass is still hot, so round 2 splits it again (7 -> 10).
  const plan::RefineResult result = refiner.refine(scheme, probe);
  EXPECT_EQ(probes, 2);
  EXPECT_EQ(result.rounds, 2u);
  EXPECT_EQ(result.splits, 2u);
  EXPECT_TRUE(result.changed());
  EXPECT_EQ(result.scheme.cell_count(), 10u);
  // Migration counters are exactly the load resident in each split cell:
  // the 900-record mass, moved once per round.
  EXPECT_EQ(result.migrated_records, 1800u);
  EXPECT_EQ(result.migrated_bytes, 1800u * 8);
  // Unsplit cells keep their ids; the first child takes its parent's slot
  // and the others append. Round 1's children of cell 0 (slots 0, 4, 5, 6)
  // tile it, and round 2's children of its SW quadrant (slots 0, 7, 8, 9)
  // tile that quadrant.
  for (std::uint32_t id = 1; id < 4; ++id) EXPECT_EQ(result.scheme.cells()[id], cells[id]);
  const auto& out = result.scheme.cells();
  expect_tiles_parent(geom::Envelope(0, 0, 25, 25), {out[0], out[7], out[8], out[9]},
                      "round 2");
  expect_tiles_parent(cells[0], {geom::Envelope(0, 0, 25, 25), out[4], out[5], out[6]},
                      "round 1");

  // A balanced probe refines nothing and stops after one probe round.
  const auto balanced = [](const partition::PartitionScheme& s) {
    return std::vector<plan::CellLoad>(s.cell_count(), plan::CellLoad{50, 400});
  };
  const plan::RefineResult quiet = refiner.refine(scheme, balanced);
  EXPECT_EQ(quiet.rounds, 1u);
  EXPECT_FALSE(quiet.changed());
  EXPECT_EQ(quiet.scheme.cell_count(), 4u);
  EXPECT_EQ(quiet.migrated_records, 0u);
}

TEST(PartitionRefiner, CountersRoundTrip) {
  const geom::Envelope extent(0.0, 0.0, 10.0, 10.0);
  plan::RefineResult result{partition::PartitionScheme({extent}, extent),
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
// The join cost model (plan::choose_plan)
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

TEST(JoinCostModel, SelectivityMovesThePartitionedCost) {
  auto in = base_inputs();
  const double baseline = plan::choose_plan(in).partitioned_seconds;
  // A set selectivity means the run builds the filter: a filter that drops
  // nothing only adds its build, and one that drops 90% of the copies
  // shuffles and indexes less.
  in.filter_selectivity = 1.0;
  const double unpruned = plan::choose_plan(in).partitioned_seconds;
  EXPECT_GT(unpruned, baseline);
  in.filter_selectivity = 0.1;
  const double filtered = plan::choose_plan(in).partitioned_seconds;
  EXPECT_LT(filtered, unpruned);
}

// ---------------------------------------------------------------------------
// The plan's shuffle-filter decision (policy.shuffle_filter unset)
// ---------------------------------------------------------------------------

/// One system run with the filter unset (the plan decides), forced on or
/// forced off.
core::RunReport run_filter(core::SystemKind system, const workload::Dataset& left,
                           const workload::Dataset& right, const core::JoinQueryConfig& query,
                           const core::ExecutionConfig& exec, std::optional<bool> filter) {
  switch (system) {
    case core::SystemKind::kHadoopGisSim: {
      systems::HadoopGisConfig config;
      config.policy.shuffle_filter = filter;
      return systems::run_hadoop_gis(left, right, query, exec, config);
    }
    case core::SystemKind::kSpatialHadoopSim: {
      systems::SpatialHadoopConfig config;
      config.policy.shuffle_filter = filter;
      return systems::run_spatial_hadoop(left, right, query, exec, config);
    }
    case core::SystemKind::kSpatialSparkSim: break;
  }
  systems::SpatialSparkConfig config;
  config.policy.shuffle_filter = filter;
  return systems::run_spatial_spark(left, right, query, exec, config);
}

core::ExecutionConfig ec2_10(double scale) {
  core::ExecutionConfig exec;
  exec.cluster = cluster::ClusterSpec::ec2(10);
  exec.data_scale = 1.0 / scale;
  return exec;
}

constexpr core::SystemKind kAllSystems[] = {core::SystemKind::kHadoopGisSim,
                                            core::SystemKind::kSpatialHadoopSim,
                                            core::SystemKind::kSpatialSparkSim};

// A right side in one corner: the plan builds the filter where its build is
// cheap next to the copies it drops (SpatialHadoop's reducer partials,
// SpatialSpark's one-task build), the filter drops copies, and the run is no
// slower than with the filter forced off. HadoopGIS's build re-reads both
// inputs on the master, so there the plan keeps the filter off, and the
// declined run is no slower than one with the filter forced on.
TEST(FilterPlan, CornerRightSideBuildsTheFilterAndPaysForIt) {
  const VirtualTimeGuard vt;
  const auto inputs = testing::corner_inputs();
  const core::JoinQueryConfig query;
  // The workstation at scale 4e-3 keeps HadoopGIS inside its pipe gate.
  auto exec = ec2_10(4e-3);
  exec.cluster = cluster::ClusterSpec::workstation();
  for (const auto system : kAllSystems) {
    const std::string tag = core::system_kind_name(system);
    const auto planned = run_filter(system, inputs.left, inputs.right, query, exec, std::nullopt);
    const auto off = run_filter(system, inputs.left, inputs.right, query, exec, false);
    ASSERT_TRUE(planned.status.ok()) << tag << " " << planned.status.to_string();
    ASSERT_TRUE(off.status.ok()) << tag << " " << off.status.to_string();
    EXPECT_GT(planned.counters.get("plan.filter_probed_records"), 0u) << tag;
    EXPECT_GT(planned.counters.get("plan.filter_predicted_drop_ppm"), 500'000u) << tag;
    EXPECT_TRUE(core::check_invariants(planned).empty()) << tag;
    if (system == core::SystemKind::kHadoopGisSim) {
      EXPECT_EQ(planned.counters.get("plan.filter_chosen"), 0u) << tag;
      const auto on = run_filter(system, inputs.left, inputs.right, query, exec, true);
      ASSERT_TRUE(on.status.ok()) << tag << " " << on.status.to_string();
      EXPECT_LE(planned.total_seconds, on.total_seconds) << tag;
      continue;
    }
    EXPECT_EQ(planned.counters.get("plan.filter_chosen"), 1u) << tag;
    EXPECT_GT(planned.counters.get("plan.filter_predicted_saving"),
              planned.counters.get("plan.filter_predicted_cost"))
        << tag;
    EXPECT_GT(planned.counters.get("shuffle.filtered_records"), 0u) << tag;
    EXPECT_LE(planned.total_seconds, off.total_seconds) << tag;
  }
}

// At the Table-2 experiments' small scale the filter prunes little of
// either join on EC2-10, so the plan declines it on every system and the
// filter drops nothing. (HadoopGIS dies of its broken pipe while
// preprocessing, before any filter is decided.)
/// The report's phase names, in the order the run booked them.
std::vector<std::string> phase_names(const core::RunReport& report) {
  std::vector<std::string> names;
  for (const auto& p : report.metrics.phases()) names.push_back(p.name);
  return names;
}

TEST(FilterPlan, TableTwoExperimentsDeclineTheFilter) {
  const VirtualTimeGuard vt;
  workload::WorkloadConfig wc;
  wc.scale = 2e-4;
  for (const auto& def : core::full_experiments()) {
    const auto left = workload::generate(def.left, wc);
    const auto right = workload::generate(def.right, wc);
    core::JoinQueryConfig query;
    query.predicate = def.predicate;
    const auto exec = ec2_10(wc.scale);
    for (const auto system : kAllSystems) {
      const std::string tag = def.id + " " + core::system_kind_name(system);
      const auto report = run_filter(system, left, right, query, exec, std::nullopt);
      EXPECT_EQ(report.counters.get("plan.filter_chosen"), 0u) << tag;
      EXPECT_EQ(report.counters.get("shuffle.filtered_records"), 0u) << tag;
      if (system != core::SystemKind::kHadoopGisSim) {
        ASSERT_TRUE(report.status.ok()) << tag << " " << report.status.to_string();
        EXPECT_GT(report.counters.get("plan.filter_probed_records"), 0u) << tag;
      }
      if (system == core::SystemKind::kSpatialHadoopSim) {
        // SpatialHadoop has one phase order without the filter: forced off,
        // it samples both datasets before either partition job, as the
        // declining default does.
        const auto off = run_filter(system, left, right, query, exec, false);
        ASSERT_TRUE(off.status.ok()) << tag << " " << off.status.to_string();
        EXPECT_EQ(phase_names(off), phase_names(report)) << tag;
      }
    }
  }
}

/// The first experiment of `defs` with id `id`.
const core::ExperimentDef& experiment(const std::vector<core::ExperimentDef>& defs,
                                      const std::string& id) {
  return *std::find_if(defs.begin(), defs.end(),
                       [&](const core::ExperimentDef& d) { return d.id == id; });
}

// The failure gates: where the run dies without the filter and the filter's
// drops keep it alive, the plan builds the filter whatever its cost. At
// scale 2e-5 HadoopGIS's edge0.1 x linearwater0.1 join overflows a reducer
// pipe on the workstation unless the filter drops its copies, and
// SpatialSpark's edge x linearwater join exhausts EC2-10's executor memory.
TEST(FilterPlan, FailureGatesBuildTheFilterThatKeepsTheRunAlive) {
  const VirtualTimeGuard vt;
  workload::WorkloadConfig wc;
  wc.scale = 2e-5;
  struct Case {
    core::SystemKind system;
    const core::ExperimentDef* def;
    cluster::ClusterSpec cluster;
    StatusCode unfiltered_failure;
  };
  const Case cases[] = {
      {core::SystemKind::kHadoopGisSim,
       &experiment(core::sample_experiments(), "edge0.1-linearwater0.1"),
       cluster::ClusterSpec::workstation(), StatusCode::kBrokenPipe},
      {core::SystemKind::kSpatialSparkSim,
       &experiment(core::full_experiments(), "edge-linearwater"), cluster::ClusterSpec::ec2(10),
       StatusCode::kOutOfMemory},
  };
  for (const auto& c : cases) {
    const std::string tag = c.def->id + " " + core::system_kind_name(c.system);
    const auto left = workload::generate(c.def->left, wc);
    const auto right = workload::generate(c.def->right, wc);
    core::JoinQueryConfig query;
    query.predicate = c.def->predicate;
    auto exec = ec2_10(wc.scale);
    exec.cluster = c.cluster;
    const auto off = run_filter(c.system, left, right, query, exec, false);
    EXPECT_EQ(off.status.code(), c.unfiltered_failure) << tag << " " << off.status.to_string();
    const auto planned = run_filter(c.system, left, right, query, exec, std::nullopt);
    ASSERT_TRUE(planned.status.ok()) << tag << " " << planned.status.to_string();
    EXPECT_EQ(planned.counters.get("plan.filter_chosen"), 1u) << tag;
    EXPECT_EQ(planned.counters.get("plan.filter_rescued"), 1u) << tag;
    EXPECT_GT(planned.counters.get("shuffle.filtered_records"), 0u) << tag;
    EXPECT_TRUE(core::check_invariants(planned).empty()) << tag;
    const auto on = run_filter(c.system, left, right, query, exec, true);
    ASSERT_TRUE(on.status.ok()) << tag << " " << on.status.to_string();
    EXPECT_EQ(planned.result_hash, on.result_hash) << tag;
    EXPECT_EQ(planned.total_seconds, on.total_seconds) << tag;
  }
}

// With repartitioning on, SpatialSpark's cost-based plan decides the filter
// over the refined cells, the cells the partitioned run filters against: its
// decision and shuffle counters are those of the same run with the plan
// fixed to the partitioned join.
TEST(FilterPlan, CostBasedPlanDecidesOverTheRefinedScheme) {
  const VirtualTimeGuard vt;
  workload::WorkloadConfig wc;
  wc.scale = 2e-4;
  const auto& def = experiment(core::full_experiments(), "edge-linearwater");
  const auto left = workload::generate(def.left, wc);
  const auto right = workload::generate(def.right, wc);
  core::JoinQueryConfig query;
  query.predicate = def.predicate;
  const auto exec = ec2_10(wc.scale);
  systems::SpatialSparkConfig fixed;
  fixed.policy.repartition = true;
  systems::SpatialSparkConfig planned = fixed;
  planned.join_plan = std::nullopt;
  const auto a = systems::run_spatial_spark(left, right, query, exec, fixed);
  const auto b = systems::run_spatial_spark(left, right, query, exec, planned);
  ASSERT_TRUE(a.status.ok()) << a.status.to_string();
  ASSERT_TRUE(b.status.ok()) << b.status.to_string();
  ASSERT_EQ(b.counters.get("plan.chosen"),
            static_cast<std::uint64_t>(plan::PlanKind::kPartitionedJoin));
  EXPECT_GT(a.counters.get("repartition.splits"), 0u);
  for (const char* counter :
       {"plan.filter_chosen", "plan.filter_probed_records", "plan.filter_predicted_drop_ppm",
        "plan.filter_predicted_saving", "plan.filter_predicted_cost", "shuffle.assigned_records",
        "shuffle.filtered_records", "repartition.splits", "repartition.cells"}) {
    EXPECT_EQ(a.counters.get(counter), b.counters.get(counter)) << counter;
  }
  EXPECT_EQ(a.result_hash, b.result_hash);
}

// Whatever the policy, the filter only drops provable negatives: unset,
// forced on and forced off return the same count, hash and sorted pairs on
// every system, where the runs succeed.
TEST(FilterPlan, UnsetOnAndOffReturnTheSamePairs) {
  const VirtualTimeGuard vt;
  const auto inputs = testing::corner_inputs();
  const core::JoinQueryConfig query;
  // The workstation at scale 4e-3 keeps HadoopGIS inside its pipe gate.
  auto exec = ec2_10(4e-3);
  exec.cluster = cluster::ClusterSpec::workstation();
  exec.collect_pairs = true;
  for (const auto system : kAllSystems) {
    const std::string tag = core::system_kind_name(system);
    auto off = run_filter(system, inputs.left, inputs.right, query, exec, false);
    ASSERT_TRUE(off.status.ok()) << tag << " " << off.status.to_string();
    ASSERT_GT(off.result_count, 0u) << tag;
    std::sort(off.pairs.begin(), off.pairs.end());
    for (const std::optional<bool> filter : {std::optional<bool>(), std::optional<bool>(true)}) {
      auto report = run_filter(system, inputs.left, inputs.right, query, exec, filter);
      ASSERT_TRUE(report.status.ok()) << tag << " " << report.status.to_string();
      EXPECT_EQ(report.result_count, off.result_count) << tag;
      EXPECT_EQ(report.result_hash, off.result_hash) << tag;
      std::sort(report.pairs.begin(), report.pairs.end());
      EXPECT_EQ(report.pairs, off.pairs) << tag;
    }
  }
}

// The prediction's shape: no drop saves nothing, replicated blocks make a
// dropped copy worth more, and a serial input pass makes the build dearer.
TEST(FilterPlan, PredictionFollowsDropsAndBuildCost) {
  plan::FilterInputs in;
  in.left_records = 100'000;
  in.left_bytes = 100'000'000;
  in.serial_marks = 100'000;
  in.cluster = cluster::ClusterSpec::ec2(10);
  in.data_scale = 1000.0;
  EXPECT_EQ(plan::predict_filter(in).saving_seconds, 0.0);  // drops nothing
  EXPECT_FALSE(plan::predict_filter(in).build());
  in.drop_fraction = 0.9;
  const auto dropping = plan::predict_filter(in);
  EXPECT_GT(dropping.saving_seconds, 0.0);
  // Copies that would also have been written to replicated blocks save more.
  in.block_replicas = 3;
  EXPECT_GT(plan::predict_filter(in).saving_seconds, dropping.saving_seconds);
  // A build that re-reads its inputs on one node costs more.
  in.serial_read_bytes = 1ull << 30;
  EXPECT_GT(plan::predict_filter(in).cost_seconds, dropping.cost_seconds);
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
    const std::string base = bench.name + (bi == 0 ? "/fixed-grid" : "/str");
    {
      systems::HadoopGisConfig off_cfg;
      systems::HadoopGisConfig on_cfg;
      on_cfg.policy.repartition = true;
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
  const auto report =
      systems::run_spatial_spark(bench.left, bench.right, bench.query, bench.exec, cfg);
  ASSERT_TRUE(report.status.ok()) << report.status.to_string();
  EXPECT_GE(report.counters.get("repartition.rounds"), 1u);
  EXPECT_GT(report.counters.get("repartition.splits"), 0u);
  EXPECT_GT(report.counters.get("repartition.migrated_records"), 0u);
  EXPECT_GT(report.counters.get("repartition.migrated_bytes"), 0u);
}

TEST(RepartitionSystems, RoundsSumOverTheSchemesARunRefines) {
  // repartition.* are run totals. SpatialHadoop refines A's scheme and B's,
  // each for at least one round and at most kMaxRefineRounds, so its rounds
  // add two refinements'; HadoopGIS and SpatialSpark refine one joint
  // scheme.
  Bench bench = make_bench(workload::DatasetId::kTaxi1m, workload::DatasetId::kNycb,
                           2e-4, core::JoinPredicate::kWithin, "taxi-rounds");
  bench.query.partitioner = partition::PartitionerKind::kFixedGrid;
  systems::HadoopGisConfig gis;
  gis.policy.repartition = true;
  gis.pipe_capacity_fraction = 0.0;  // the join job would overflow its pipes here
  systems::SpatialHadoopConfig hadoop;
  hadoop.policy.repartition = true;
  systems::SpatialSparkConfig spark;
  spark.policy.repartition = true;
  const core::RunReport reports[] = {
      systems::run_hadoop_gis(bench.left, bench.right, bench.query, bench.exec, gis),
      systems::run_spatial_hadoop(bench.left, bench.right, bench.query, bench.exec, hadoop),
      systems::run_spatial_spark(bench.left, bench.right, bench.query, bench.exec, spark)};
  const std::uint64_t schemes[] = {1, 2, 1};
  for (std::size_t i = 0; i < 3; ++i) {
    const core::RunReport& r = reports[i];
    ASSERT_TRUE(r.status.ok()) << i << ": " << r.status.to_string();
    const std::uint64_t rounds = r.counters.get("repartition.rounds");
    EXPECT_GE(rounds, schemes[i]) << i;
    EXPECT_LE(rounds, schemes[i] * plan::kMaxRefineRounds) << i;
  }
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
  cost_based.spatial_spark.join_plan = std::nullopt;
  serving::ResidentEntryConfig broadcast = cost_based;
  broadcast.spatial_spark.join_plan = plan::PlanKind::kBroadcastJoin;

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
