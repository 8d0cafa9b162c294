// ExecPolicy: the per-run execution knobs shared by all three system
// drivers.
//
// Each system config embeds one, so a cross-cutting knob is declared once,
// and core::PartitionPlane resolves it (an unset shuffle filter is the
// plan's decision). Knobs only one system reads live in that system's
// config (SpatialSparkConfig::join_plan).
#pragma once

#include <optional>

namespace sjc::plan {

struct ExecPolicy {
  /// Map-side spatial shuffle filter (the sFilter analog). true and false
  /// force it; unset lets the plan decide per run, building the filter
  /// where the copies it is predicted to drop save more modeled time than
  /// it costs, or where only the filtered run is predicted to pass the
  /// system's failure gate (core::FilterDecision). SpatialSpark's broadcast
  /// join shuffles nothing and never filters.
  std::optional<bool> shuffle_filter;
  /// Skew-aware adaptive repartitioning (LocationSpark's runtime hotspot
  /// splitting): probe per-cell load after the scheme is derived from the
  /// sample, split hotspot cells (quad-split for the fixed grid,
  /// longest-axis node-split for STR), and shuffle against the refined
  /// scheme. The hotspot thresholds and split limits are constants
  /// (plan/partition_refiner.hpp: kHotspotFactor, kMinHotCellRecords,
  /// kMaxRefineRounds, kMaxSplitsPerRound). Survivor pair sets and refine.*
  /// counters are bit-identical to the static scheme (tests/test_plan.cpp);
  /// the shuffle.assigned == records + filtered invariant is preserved. Off
  /// by default: the static partitioner stays the baseline.
  bool repartition = false;
};

}  // namespace sjc::plan
