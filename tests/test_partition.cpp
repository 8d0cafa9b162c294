// Tests for the spatial partitioners: coverage, assignment completeness,
// balance under skew.
#include <gtest/gtest.h>

#include <algorithm>

#include "partition/partitioner.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace sjc::partition {
namespace {

std::vector<geom::Envelope> skewed_boxes(Rng& rng, std::size_t n) {
  std::vector<geom::Envelope> out;
  for (std::size_t i = 0; i < n; ++i) {
    // 80% clustered near (20, 20), 20% uniform in [0, 100]^2.
    double x, y;
    if (rng.bernoulli(0.8)) {
      x = std::clamp(rng.normal(20.0, 4.0), 0.0, 100.0);
      y = std::clamp(rng.normal(20.0, 4.0), 0.0, 100.0);
    } else {
      x = rng.uniform(0, 100);
      y = rng.uniform(0, 100);
    }
    out.emplace_back(x, y, std::min(100.0, x + rng.uniform(0, 1.0)),
                     std::min(100.0, y + rng.uniform(0, 1.0)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// partitioners, parameterized
// ---------------------------------------------------------------------------

class PartitionerTest : public ::testing::TestWithParam<PartitionerKind> {};

TEST_P(PartitionerTest, CellsCoverTheExtent) {
  Rng rng(10);
  const geom::Envelope extent(0, 0, 100, 100);
  const auto sample = skewed_boxes(rng, 2000);
  const PartitionScheme scheme = make_partitions(GetParam(), sample, extent, 64);
  // Probe a dense grid of points: every point must land in >= 1 cell without
  // the nearest-cell fallback kicking in (check containment directly).
  for (double x = 0.5; x < 100; x += 3.17) {
    for (double y = 0.5; y < 100; y += 3.17) {
      bool covered = false;
      for (const auto& cell : scheme.cells()) {
        if (cell.contains(x, y)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << partitioner_kind_name(GetParam()) << " misses (" << x
                           << "," << y << ")";
    }
  }
}

TEST_P(PartitionerTest, AssignNeverEmpty) {
  Rng rng(11);
  const geom::Envelope extent(0, 0, 100, 100);
  const PartitionScheme scheme =
      make_partitions(GetParam(), skewed_boxes(rng, 500), extent, 32);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-20, 120);  // includes out-of-extent probes
    const double y = rng.uniform(-20, 120);
    EXPECT_FALSE(scheme.assign(geom::Envelope::of_point(x, y)).empty());
  }
}

TEST_P(PartitionerTest, RoughlyHitsTargetCellCount) {
  Rng rng(12);
  const PartitionScheme scheme = make_partitions(
      GetParam(), skewed_boxes(rng, 4000), geom::Envelope(0, 0, 100, 100), 64);
  EXPECT_GE(scheme.cell_count(), 16u);
  EXPECT_LE(scheme.cell_count(), 160u);
}

TEST_P(PartitionerTest, EmptySampleFallsBackToSingleCell) {
  const PartitionScheme scheme =
      make_partitions(GetParam(), {}, geom::Envelope(0, 0, 10, 10), 16);
  EXPECT_GE(scheme.cell_count(), 1u);
  EXPECT_FALSE(scheme.assign(geom::Envelope::of_point(5, 5)).empty());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PartitionerTest,
                         ::testing::Values(PartitionerKind::kFixedGrid,
                                           PartitionerKind::kStr,
                                           PartitionerKind::kBsp),
                         [](const auto& info) {
                           std::string n = partitioner_kind_name(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// Adaptive partitioners must balance a skewed workload far better than the
// fixed grid — the reason SATO-style partitioning exists.
TEST(Partitioner, AdaptiveBeatsFixedGridUnderSkew) {
  Rng rng(13);
  const geom::Envelope extent(0, 0, 100, 100);
  const auto items = skewed_boxes(rng, 8000);
  Rng sample_rng(14);
  std::vector<geom::Envelope> sample;
  for (const auto& env : items) {
    if (sample_rng.bernoulli(0.1)) sample.push_back(env);
  }

  // Skew: the most loaded cell's assignments over the mean per cell.
  const auto skew_of = [&](PartitionerKind kind) {
    const PartitionScheme scheme = make_partitions(kind, sample, extent, 64);
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
  const double grid_skew = skew_of(PartitionerKind::kFixedGrid);
  const double str_skew = skew_of(PartitionerKind::kStr);
  const double bsp_skew = skew_of(PartitionerKind::kBsp);
  EXPECT_LT(str_skew, grid_skew / 2.0);
  EXPECT_LT(bsp_skew, grid_skew / 2.0);
}

TEST(PartitionScheme, RejectsEmptyCellList) {
  EXPECT_THROW(PartitionScheme({}, geom::Envelope(0, 0, 1, 1)), InvalidArgument);
}

TEST(PartitionScheme, NearestCellFallback) {
  // A single cell far from the probe: assign() must still return it.
  const PartitionScheme scheme({geom::Envelope(0, 0, 1, 1)},
                               geom::Envelope(0, 0, 1, 1));
  const auto pids = scheme.assign(geom::Envelope::of_point(50, 50));
  EXPECT_EQ(pids, std::vector<std::uint32_t>{0});
}

TEST(FixedGrid, ExactTilingNoGapsNoOverlapsInteriorly) {
  const PartitionScheme scheme = make_fixed_grid(geom::Envelope(0, 0, 10, 10), 4, 4);
  EXPECT_EQ(scheme.cell_count(), 16u);
  double total_area = 0;
  for (const auto& c : scheme.cells()) total_area += c.area();
  EXPECT_NEAR(total_area, 100.0, 1e-9);
}

}  // namespace
}  // namespace sjc::partition
