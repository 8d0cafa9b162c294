// ExecPolicy: the per-run execution knobs shared by all three system
// drivers.
//
// Each system config embeds one, so a cross-cutting knob is declared once,
// and core::PartitionPlane resolves it (an unset shuffle filter is the
// plan's decision). Knobs only one system reads live in that system's
// config (SpatialSparkConfig::join_plan).
#pragma once

#include <cstdint>
#include <optional>

namespace sjc::plan {

/// Hotspot detection + split limits for skew-aware adaptive repartitioning
/// (LocationSpark's runtime hotspot splitting). A cell is flagged hot when
/// its observed load exceeds hotspot_factor x the median load of non-empty
/// cells AND the absolute floor; flagged cells are split (quad-split for
/// the fixed grid, longest-axis node-split for STR) and their
/// shuffle buckets re-routed before the local-join phase.
struct SkewPolicy {
  /// Load multiple of the median that marks a cell as a hotspot.
  double hotspot_factor = 4.0;
  /// Cells below this record load are never split, whatever the ratio —
  /// splitting a near-empty cell buys nothing and bloats the scheme.
  std::uint64_t min_cell_records = 64;
  /// Probe/split rounds: children of a split hotspot can still be hot
  /// (point masses), so refinement re-probes and re-splits up to this many
  /// times.
  std::uint32_t max_rounds = 2;
  /// At most this many cells are split per round (worst offenders first).
  std::uint32_t max_splits_per_round = 64;
};

struct ExecPolicy {
  /// Map-side spatial shuffle filter (the sFilter analog). true and false
  /// force it; unset lets the plan decide per run, building the filter
  /// where the copies it is predicted to drop save more modeled time than
  /// it costs, or where only the filtered run is predicted to pass the
  /// system's failure gate (core::FilterDecision). SpatialSpark's broadcast
  /// join shuffles nothing and never filters.
  std::optional<bool> shuffle_filter;
  /// Skew-aware adaptive repartitioning: probe per-cell load after the
  /// scheme is derived from the sample, split hotspot cells, and shuffle
  /// against the refined scheme. Survivor pair sets and refine.* counters
  /// are bit-identical to the static scheme (tests/test_plan.cpp); the
  /// shuffle.assigned == records + filtered invariant is preserved. Off by
  /// default: the static partitioner stays the baseline.
  bool repartition = false;
  SkewPolicy skew;
};

}  // namespace sjc::plan
