// Map-side spatial shuffle filter (sFilter analog) property suite.
//
// The load-bearing contract: the filter may only drop true negatives, so a
// run with the filter on must produce a survivor pair set bit-identical to
// the unfiltered run — same result count, same result hash, same refinement
// workload — while the shuffle counters obey assigned == shuffled + filtered.
// The suite checks this at three levels: the raw OccupancyFilter bitmap
// against a test-side mark log, the filtered PartitionScheme::assign_into()
// against the unfiltered one, and full system runs across all four
// partitioners, both Table-2 experiment shapes, and all three systems.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "core/partition_plane.hpp"
#include "core/spatial_join.hpp"
#include "geom/occupancy.hpp"
#include "partition/partitioner.hpp"
#include "systems/hadoopgis/hadoop_gis.hpp"
#include "systems/spatialhadoop/spatial_hadoop.hpp"
#include "systems/spatialspark/spatial_spark.hpp"
#include "util/status.hpp"
#include "util/stopwatch.hpp"
#include "workload/generators.hpp"

namespace sjc {
namespace {

// ---------------------------------------------------------------------------
// Level 1: the bitmap itself vs an exact per-cell mark log
// ---------------------------------------------------------------------------

/// A filter plus the exact list of envelopes marked into each cell, so the
/// test can decide ground truth ("does q intersect any marked envelope?")
/// independently of the bitmap.
struct LoggedFilter {
  geom::OccupancyFilter filter;
  std::vector<std::vector<geom::Envelope>> log;

  explicit LoggedFilter(const std::vector<geom::Envelope>& cells)
      : filter(cells), log(cells.size()) {}
  LoggedFilter(const std::vector<geom::Envelope>& cells,
               const geom::OccupancyFilter::Config& config)
      : filter(cells, config), log(cells.size()) {}

  void mark(std::uint32_t cell, const geom::Envelope& env) {
    filter.mark(cell, env);
    log[cell].push_back(env);
  }

  bool truly_matches(std::uint32_t cell, const geom::Envelope& q) const {
    for (const auto& m : log[cell]) {
      if (q.intersects(m)) return true;
    }
    return false;
  }
};

/// may_match() may over-approximate but never under-approximate: whenever any
/// marked envelope intersects the query, it must say yes.
void expect_conservative(const LoggedFilter& lf, std::uint32_t cell,
                         const geom::Envelope& q, const std::string& tag) {
  if (lf.truly_matches(cell, q)) {
    EXPECT_TRUE(lf.filter.may_match(cell, q))
        << tag << " cell " << cell << " dropped a true positive";
  }
}

geom::Envelope random_env(std::mt19937& rng, double lo, double hi,
                          double max_len) {
  std::uniform_real_distribution<double> pos(lo, hi);
  std::uniform_real_distribution<double> len(0.0, max_len);
  const double x = pos(rng);
  const double y = pos(rng);
  return {x, y, x + len(rng), y + len(rng)};
}

TEST(ShuffleFilter, RandomizedConservativeSoundness) {
  std::mt19937 rng(11);
  // Cell sets mixing ordinary boxes with the degenerate shapes partitioners
  // can emit: a point cell, a zero-height sliver, and a giant cell (which
  // the filter upgrades to the large fine side).
  std::vector<geom::Envelope> cells;
  for (int i = 0; i < 12; ++i) cells.push_back(random_env(rng, 0, 100, 25));
  cells.emplace_back(40.0, 40.0, 40.0, 40.0);    // point cell
  cells.emplace_back(0.0, 70.0, 100.0, 70.0);    // zero-height sliver
  cells.emplace_back(-50.0, -50.0, 150.0, 150.0);  // giant (large side)

  const geom::OccupancyFilter::Config configs[] = {
      {},                 // defaults (16 / 48)
      {1, 1, 4.0},        // minimum resolution: domain envelope only
      {64, 64, 4.0},      // maximum resolution
      {200, 7, 0.0},      // out-of-range sides (clamped), everything "large"
  };
  for (std::size_t ci = 0; ci < std::size(configs); ++ci) {
    LoggedFilter lf(cells, configs[ci]);
    const std::string tag = "config" + std::to_string(ci);
    // Before any mark: everything is a provable negative.
    for (std::uint32_t cell = 0; cell < cells.size(); ++cell) {
      EXPECT_FALSE(lf.filter.may_match(cell, random_env(rng, 0, 100, 25)));
    }
    // Mark envelopes into random cells — including envelopes far outside
    // the cell box, which a real assignment never produces but the clamped
    // rasterisation must still absorb soundly.
    std::uniform_int_distribution<std::uint32_t> pick(
        0, static_cast<std::uint32_t>(cells.size() - 1));
    for (int i = 0; i < 300; ++i) {
      lf.mark(pick(rng), random_env(rng, -60, 160, 30));
    }
    EXPECT_EQ(lf.filter.marked_envelopes(), 300u);
    EXPECT_GT(lf.filter.occupied_cells(), 0u);
    EXPECT_GT(lf.filter.size_bytes(), 0u);
    for (int i = 0; i < 500; ++i) {
      const geom::Envelope q = random_env(rng, -80, 180, 40);
      for (std::uint32_t cell = 0; cell < cells.size(); ++cell) {
        expect_conservative(lf, cell, q, tag);
      }
    }
    // Degenerate queries: points, and an envelope covering everything (must
    // match every occupied cell).
    for (int i = 0; i < 200; ++i) {
      const double x = std::uniform_real_distribution<double>(-60, 160)(rng);
      const geom::Envelope q(x, x, x, x);
      for (std::uint32_t cell = 0; cell < cells.size(); ++cell) {
        expect_conservative(lf, cell, q, tag);
      }
    }
    const geom::Envelope everything(-1e9, -1e9, 1e9, 1e9);
    for (std::uint32_t cell = 0; cell < cells.size(); ++cell) {
      EXPECT_EQ(lf.filter.may_match(cell, everything), lf.filter.cell_occupied(cell))
          << tag;
    }
  }
}

// ---------------------------------------------------------------------------
// Level 2: filtered assign_into() vs unfiltered, across all partitioners
// ---------------------------------------------------------------------------

TEST(ShuffleFilter, FilteredAssignDropsOnlyProvableNegatives) {
  std::mt19937 rng(23);
  const geom::Envelope extent(0.0, 0.0, 1000.0, 1000.0);
  std::vector<geom::Envelope> sample;
  for (int i = 0; i < 400; ++i) sample.push_back(random_env(rng, 0, 970, 30));
  for (const auto kind :
       {partition::PartitionerKind::kFixedGrid, partition::PartitionerKind::kStr}) {
    const auto scheme = partition::make_partitions(kind, sample, extent, 29);
    const std::string tag = kind == partition::PartitionerKind::kFixedGrid ? "fixed-grid" : "str";
    // "Right side": clustered in the lower-left quadrant, marked exactly the
    // way the systems do — into every cell the envelope is assigned to.
    LoggedFilter lf(scheme.cells());
    std::vector<std::uint32_t> pids;
    for (int i = 0; i < 150; ++i) {
      const geom::Envelope env = random_env(rng, 0, 450, 30);
      scheme.assign_into(env, pids);
      for (const std::uint32_t pid : pids) lf.mark(pid, env);
    }
    // "Left side": spread over (and beyond) the full extent, so upper-right
    // copies are provable negatives and out-of-extent queries exercise the
    // nearest-cell fallback under filtering.
    std::vector<std::uint32_t> unfiltered;
    std::vector<std::uint32_t> filtered;
    std::uint64_t total_dropped = 0;
    for (int i = 0; i < 600; ++i) {
      const geom::Envelope q = random_env(rng, -50, 1050, 40);
      scheme.assign_into(q, unfiltered);
      const std::uint32_t dropped = scheme.assign_into(q, lf.filter, filtered);
      ASSERT_EQ(unfiltered.size(), filtered.size() + dropped) << tag;
      total_dropped += dropped;
      // Survivors are exactly the unfiltered ids that may match; dropped ids
      // are provable negatives by the exact mark log.
      std::size_t fi = 0;
      for (const std::uint32_t pid : unfiltered) {
        if (fi < filtered.size() && filtered[fi] == pid) {
          ++fi;
          continue;
        }
        EXPECT_FALSE(lf.truly_matches(pid, q))
            << tag << " dropped pid " << pid << " with an intersecting mark";
      }
      EXPECT_EQ(fi, filtered.size()) << tag << " survivor not in unfiltered set";
    }
    EXPECT_GT(total_dropped, 0u) << tag << " filter never pruned anything";
  }
}

// ---------------------------------------------------------------------------
// Parallel builds: merged partials equal the serial build
// ---------------------------------------------------------------------------

/// Envelopes marked the way the systems do: each into every cell of
/// `scheme` it is assigned to.
void mark_assigned(geom::OccupancyFilter& filter, const partition::PartitionScheme& scheme,
                   const geom::Envelope& env) {
  std::vector<std::uint32_t> pids;
  scheme.assign_into(env, pids);
  for (const std::uint32_t pid : pids) filter.mark(pid, env);
}

/// Equal cell by cell (operator== compares every cell's box, domain, coarse
/// word, fine rows and mark count), and may_match agrees on `probes`.
void expect_same_filter(const geom::OccupancyFilter& got, const geom::OccupancyFilter& want,
                        const std::vector<geom::Envelope>& probes, const std::string& tag) {
  EXPECT_TRUE(got == want) << tag;
  EXPECT_EQ(got.marked_envelopes(), want.marked_envelopes()) << tag;
  EXPECT_EQ(got.occupied_cells(), want.occupied_cells()) << tag;
  for (std::uint32_t cell = 0; cell < want.cell_count(); ++cell) {
    for (const auto& q : probes) {
      ASSERT_EQ(got.may_match(cell, q), want.may_match(cell, q)) << tag << " cell " << cell;
    }
  }
}

struct MergeCase {
  partition::PartitionerKind kind;
  partition::PartitionScheme scheme;
  std::vector<geom::Envelope> marks;
  std::vector<geom::Envelope> probes;
};

/// Grid and STR schemes over a clustered sample (so STR cells differ in
/// area and some count as large), plus the envelopes to mark and probe.
std::vector<MergeCase> merge_cases() {
  std::mt19937 rng(31);
  const geom::Envelope extent(0.0, 0.0, 1000.0, 1000.0);
  std::vector<geom::Envelope> sample;
  for (int i = 0; i < 300; ++i) sample.push_back(random_env(rng, 0, 300, 10));
  for (int i = 0; i < 60; ++i) sample.push_back(random_env(rng, 0, 990, 10));
  std::vector<MergeCase> out;
  for (const auto kind :
       {partition::PartitionerKind::kFixedGrid, partition::PartitionerKind::kStr}) {
    MergeCase c{kind, partition::make_partitions(kind, sample, extent, 29), {}, {}};
    for (int i = 0; i < 600; ++i) c.marks.push_back(random_env(rng, -20, 1020, 40));
    for (int i = 0; i < 200; ++i) c.probes.push_back(random_env(rng, -40, 1040, 30));
    out.push_back(std::move(c));
  }
  return out;
}

TEST(ShuffleFilterMerge, PartialsEqualSerialBuild) {
  // The default sides; 64-wide fine rows for cells above 2x the median
  // area (a mix on the STR scheme); 64-wide rows for every cell.
  const geom::OccupancyFilter::Config configs[] = {{}, {16, 64, 2.0}, {16, 64, 0.0}};
  for (const MergeCase& mc : merge_cases()) {
    const auto& cells = mc.scheme.cells();
    for (std::size_t ci = 0; ci < std::size(configs); ++ci) {
      geom::OccupancyFilter serial(cells, configs[ci]);
      for (const auto& env : mc.marks) mark_assigned(serial, mc.scheme, env);
      // Per cell: domain and coarse word, then one word per fine row.
      const auto bytes_at = [&](std::size_t side) { return cells.size() * (5 + side) * 8; };
      if (ci == 1 && mc.kind == partition::PartitionerKind::kStr) {
        EXPECT_GT(serial.size_bytes(), bytes_at(16));
        EXPECT_LT(serial.size_bytes(), bytes_at(64));
      }
      if (ci == 2) {
        EXPECT_EQ(serial.size_bytes(), bytes_at(64));
      }
      for (const std::size_t k : {1, 2, 3, 16}) {
        // Marks go round-robin to the even partials only, so every odd
        // partial stays empty; merging runs in reverse partial order.
        const geom::OccupancyFilter empty(cells, configs[ci]);
        std::vector<geom::OccupancyFilter> partials(k, empty);
        const std::size_t used = std::max<std::size_t>(1, k / 2);
        for (std::size_t i = 0; i < mc.marks.size(); ++i) {
          mark_assigned(partials[(i % used) * 2 % k], mc.scheme, mc.marks[i]);
        }
        geom::OccupancyFilter merged = empty;
        for (auto it = partials.rbegin(); it != partials.rend(); ++it) merged.merge(*it);
        expect_same_filter(merged, serial, mc.probes,
                           "config " + std::to_string(ci) + " k=" + std::to_string(k));
      }
    }
  }
}

TEST(ShuffleFilterMerge, ParallelBuildEqualsSerialBuild) {
  // core::build_occupancy_parallel: no records, too few to split (marked on
  // the calling thread), and enough for several chunks marked concurrently
  // on the shared pool, then merged.
  std::mt19937 rng(37);
  for (const MergeCase& mc : merge_cases()) {
    for (const std::size_t n : {std::size_t{0}, mc.marks.size(),
                                4 * core::kMinOccupancyChunkRecords + 5}) {
      std::vector<geom::Envelope> marks = mc.marks;
      marks.resize(std::min(n, marks.size()));
      while (marks.size() < n) marks.push_back(random_env(rng, -20, 1020, 40));
      geom::OccupancyFilter serial(mc.scheme.cells());
      for (const auto& env : marks) mark_assigned(serial, mc.scheme, env);
      const core::OccupancyBuild built = core::build_occupancy_parallel(
          mc.scheme.cells(), marks.size(), marks.size(),
          [&](geom::OccupancyFilter& partial, std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) mark_assigned(partial, mc.scheme, marks[i]);
          });
      expect_same_filter(built.filter, serial, mc.probes, "parallel n=" + std::to_string(n));
      EXPECT_GE(built.cpu_seconds, 0.0);
    }
  }
}

TEST(ShuffleFilterMerge, RejectsDifferentCells) {
  geom::OccupancyFilter a({geom::Envelope(0, 0, 1, 1)});
  const geom::OccupancyFilter b({geom::Envelope(0, 0, 1, 1), geom::Envelope(1, 0, 2, 1)});
  EXPECT_THROW(a.merge(b), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Level 3: full systems — filter on/off bit-identical survivor pairs
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

/// Runs one system with the filter forced off and on, and requires the
/// filtered run to be output-identical: same success/failure, same pair set
/// (count + hash), same refinement workload (the stronger invariant: a
/// dropped copy would have produced zero local-join candidates), and
/// internally consistent shuffle counters.
void expect_filter_neutral(const core::RunReport& off, const core::RunReport& on,
                           const std::string& tag) {
  // The off run never emits shuffle filter counters; the on run's must add up.
  EXPECT_EQ(off.counters.get("shuffle.assigned_records"), 0u) << tag;
  const std::uint64_t assigned = on.counters.get("shuffle.assigned_records");
  const std::uint64_t shuffled = on.counters.get("shuffle.records");
  const std::uint64_t filtered = on.counters.get("shuffle.filtered_records");
  EXPECT_EQ(assigned, shuffled + filtered) << tag;
  if (on.status.ok()) {
    EXPECT_GT(assigned, 0u) << tag;
  }
  if (filtered == 0) {
    EXPECT_EQ(on.counters.get("shuffle.filtered_bytes"), 0u) << tag;
  } else {
    EXPECT_GT(on.counters.get("shuffle.filtered_bytes"), 0u) << tag;
  }
  if (!off.status.ok()) {
    // The filter only *removes* modeled load, so it may legitimately rescue
    // a run that overflows a memory or pipe gate unfiltered (that is the
    // point of sFilter) — but there is no pair set to compare against.
    return;
  }
  ASSERT_TRUE(on.status.ok()) << tag << " filter broke a succeeding run: "
                              << on.status.to_string();
  EXPECT_EQ(off.result_count, on.result_count) << tag;
  EXPECT_EQ(off.result_hash, on.result_hash) << tag;
  // The stronger invariant: a dropped copy would have produced zero
  // local-join candidates, so the refinement workload is filter-invariant.
  for (const char* key :
       {"refine.candidates", "refine.exact_tests", "refine.early_accepts",
        "refine.early_rejects", "join.pair_lines_before_dedup"}) {
    EXPECT_EQ(off.counters.get(key), on.counters.get(key)) << tag << " " << key;
  }
  // Filtering can only shrink the multi-assignment overhead.
  EXPECT_LE(on.counters.get("partition.duplicated_records"),
            off.counters.get("partition.duplicated_records"))
      << tag;
}

TEST(ShuffleFilter, SystemsBitIdenticalSurvivorPairs) {
  const Bench benches[] = {
      make_bench(workload::DatasetId::kTaxi1m, workload::DatasetId::kNycb, 2e-4,
                 core::JoinPredicate::kWithin, "taxi-nycb"),
      make_bench(workload::DatasetId::kEdges, workload::DatasetId::kLinearwater,
                 2e-5, core::JoinPredicate::kIntersects, "edges-linearwater"),
  };
  for (const Bench& bench : benches) {
    for (const auto kind :
         {partition::PartitionerKind::kFixedGrid, partition::PartitionerKind::kStr}) {
      core::JoinQueryConfig query = bench.query;
      query.partitioner = kind;
      const std::string base =
          bench.name + (kind == partition::PartitionerKind::kFixedGrid ? "/fixed-grid" : "/str");
      {
        systems::HadoopGisConfig off_cfg;
        off_cfg.policy.shuffle_filter = false;
        systems::HadoopGisConfig on_cfg;
        on_cfg.policy.shuffle_filter = true;
        expect_filter_neutral(
            systems::run_hadoop_gis(bench.left, bench.right, query, bench.exec,
                                    off_cfg),
            systems::run_hadoop_gis(bench.left, bench.right, query, bench.exec,
                                    on_cfg),
            base + "/hadoopgis");
      }
      {
        systems::SpatialHadoopConfig off_cfg;
        off_cfg.policy.shuffle_filter = false;
        systems::SpatialHadoopConfig on_cfg;
        on_cfg.policy.shuffle_filter = true;
        expect_filter_neutral(
            systems::run_spatial_hadoop(bench.left, bench.right, query,
                                        bench.exec, off_cfg),
            systems::run_spatial_hadoop(bench.left, bench.right, query,
                                        bench.exec, on_cfg),
            base + "/spatialhadoop");
      }
      {
        systems::SpatialSparkConfig off_cfg;
        off_cfg.policy.shuffle_filter = false;
        systems::SpatialSparkConfig on_cfg;
        on_cfg.policy.shuffle_filter = true;
        expect_filter_neutral(
            systems::run_spatial_spark(bench.left, bench.right, query,
                                       bench.exec, off_cfg),
            systems::run_spatial_spark(bench.left, bench.right, query,
                                       bench.exec, on_cfg),
            base + "/spatialspark");
      }
    }
  }
}

TEST(ShuffleFilter, EmptyFilterDropsEverythingFilteredAssign) {
  // An unmarked filter is the degenerate total negative: every copy is
  // provably matchless and the filtered assignment comes back empty — the
  // contract callers rely on when the resident side of a cell is empty.
  std::mt19937 rng(5);
  const geom::Envelope extent(0.0, 0.0, 100.0, 100.0);
  std::vector<geom::Envelope> sample;
  for (int i = 0; i < 50; ++i) sample.push_back(random_env(rng, 0, 95, 5));
  const auto scheme = partition::make_partitions(
      partition::PartitionerKind::kFixedGrid, sample, extent, 9);
  const geom::OccupancyFilter empty_filter(scheme.cells());
  std::vector<std::uint32_t> unfiltered;
  std::vector<std::uint32_t> filtered;
  for (int i = 0; i < 100; ++i) {
    const geom::Envelope q = random_env(rng, -10, 110, 10);
    scheme.assign_into(q, unfiltered);
    const std::uint32_t dropped = scheme.assign_into(q, empty_filter, filtered);
    EXPECT_EQ(dropped, unfiltered.size());
    EXPECT_TRUE(filtered.empty());
  }
}

}  // namespace
}  // namespace sjc
