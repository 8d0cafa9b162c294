// ExecPolicy: the per-run execution knobs shared by all three system
// drivers.
//
// Before this module each driver grew its own parallel optional for every
// cross-cutting knob (`shuffle_filter` lived three times, once per system
// config, and the adaptive-execution work would have added three more).
// ExecPolicy is the single struct those knobs live in; each system config
// embeds one, and core::PartitionPlane resolves the optionals (an unset
// shuffle filter is the plan's decision, an unset repartition is off).
#pragma once

#include <cstdint>
#include <optional>

namespace sjc::plan {

/// Hotspot detection + split limits for skew-aware adaptive repartitioning
/// (LocationSpark's runtime hotspot splitting). A cell is flagged hot when
/// its observed load exceeds hotspot_factor x the median load of non-empty
/// cells AND the absolute floor; flagged cells are split (quad-split for
/// grid schemes, longest-axis node-split for STR/BSP schemes) and their
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
  /// shuffle.assigned == records + filtered invariant is preserved. Unset
  /// resolves to off — the static partitioner stays the baseline.
  std::optional<bool> repartition;
  SkewPolicy skew;
  /// SpatialSpark only: choose between the broadcast-based and the
  /// partition-based join per query via plan::choose_plan() instead of the
  /// static broadcast_join flag. Ignored by drivers with one path.
  bool cost_based_plan = false;
};

}  // namespace sjc::plan
