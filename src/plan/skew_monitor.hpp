// SkewMonitor: hotspot-partition detection from observed per-cell load.
//
// The trace subsystem (PR 4) measures task-time skew after the fact; the
// monitor is the piece that lets the schedulers *act* on it before the
// shuffle. It consumes per-cell load counters (assignments per cell) and
// flags the cells whose load exceeds a multiple of the median
// (LocationSpark's hotspot criterion), which the PartitionRefiner then
// splits.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "plan/exec_policy.hpp"
#include "trace/trace.hpp"

namespace sjc::plan {

/// Observed load of one partition cell: record copies routed to the cell
/// and their modeled shuffle bytes.
struct CellLoad {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
};

struct HotspotReport {
  /// Flagged cell ids, worst offender first (record load descending, id
  /// ascending on ties); capped at SkewPolicy::max_splits_per_round.
  std::vector<std::uint32_t> hot_cells;
  /// Median record load over non-empty cells (0 when all cells are empty).
  double median_records = 0.0;
  std::uint64_t max_records = 0;
  /// max_records / median_records — the load imbalance the split targets.
  double max_over_median = 0.0;
};

class SkewMonitor {
 public:
  explicit SkewMonitor(SkewPolicy policy = {}) : policy_(policy) {}

  const SkewPolicy& policy() const { return policy_; }

  /// Flags every cell whose record load exceeds both
  /// hotspot_factor x median(non-empty loads) and min_cell_records.
  HotspotReport analyze(const std::vector<CellLoad>& loads) const;

 private:
  SkewPolicy policy_;
};

/// Observed task-time skew ratio (max / p50) of one traced phase — how the
/// benches and tests verify that repartitioning actually flattened the
/// tail. Returns 0 when the phase is absent or its median is 0.
double phase_skew_ratio(const std::vector<trace::PhaseSkew>& rows,
                        std::string_view phase);

}  // namespace sjc::plan
