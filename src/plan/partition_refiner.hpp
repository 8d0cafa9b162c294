// PartitionRefiner: split hotspot partition cells before the shuffle.
//
// Refinement runs between scheme derivation (sample -> make_partitions) and
// record assignment: a load probe counts per-cell record/byte load under
// the candidate scheme, hot_cells flags hotspots (LocationSpark's
// criterion: a load well above the median), and each flagged cell is
// replaced by its children — a quad-split at the cell midpoint for the
// fixed grid or a longest-axis binary node-split for STR. Children tile the
// parent exactly, so the refined cell set covers the extent whenever the
// input did. The thresholds are the constants below; no run sets them.
//
// Split soundness (why survivor pair sets are bit-identical, DESIGN.md §7):
// a record is assigned to every cell its expanded envelope intersects, and
// a surviving pair is emitted only in the canonical cell containing its
// reference point. Children tile the parent, so for any point p the set of
// cells containing p under the refined scheme is derived from the base set
// by replacing each split cell with the one child holding p — never empty,
// never gaining or losing coverage. Both members of a true pair intersect
// their reference point, hence are both assigned to whichever cell contains
// it, and the pair is tested (and accepted exactly once) there — the same
// argument that already carries pair-set identity across the base
// partitioners. The accept filter runs before refinement in run_local_join,
// so refine.* counters (accept-deduped candidates) are scheme-independent
// and stay bit-identical too.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/counters.hpp"
#include "partition/partitioner.hpp"

namespace sjc::plan {

/// Load multiple of the median non-empty cell load that marks a cell hot.
inline constexpr double kHotspotFactor = 4.0;
/// Cells at or below this record load are never split, whatever the ratio:
/// splitting a near-empty cell buys nothing and bloats the scheme.
inline constexpr std::uint64_t kMinHotCellRecords = 64;
/// Probe/split rounds: children of a split hotspot can still be hot (point
/// masses), so refinement re-probes and re-splits up to this many times.
inline constexpr std::uint32_t kMaxRefineRounds = 2;
/// At most this many cells are split per round, worst offenders first.
inline constexpr std::uint32_t kMaxSplitsPerRound = 64;

/// Observed load of one partition cell: record copies routed to the cell
/// and their modeled shuffle bytes.
struct CellLoad {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
};

/// The hot cells of `loads`: each cell whose record load exceeds both
/// kHotspotFactor x the median load of the non-empty cells and
/// kMinHotCellRecords, worst offender first (load descending, id ascending
/// on ties), at most kMaxSplitsPerRound of them.
std::vector<std::uint32_t> hot_cells(const std::vector<CellLoad>& loads);

struct RefineResult {
  partition::PartitionScheme scheme;
  /// Probe/split rounds executed (>= 1 whenever refinement ran; the footer
  /// and the repartition.* counter block key off this being non-zero).
  std::uint64_t rounds = 0;
  /// Cells split (each flagged cell that produced >= 2 children counts 1).
  std::uint64_t splits = 0;
  /// Record copies resident in cells at the moment those cells were split —
  /// the shuffle-bucket load the refinement re-routed.
  std::uint64_t migrated_records = 0;
  std::uint64_t migrated_bytes = 0;

  bool changed() const { return splits > 0; }
};

/// Per-cell loads of a candidate scheme — the same assignment pass the
/// shuffle itself performs, tallied instead of emitted. Called once per
/// refinement round (children of split cells need fresh loads).
using LoadProbe =
    std::function<std::vector<CellLoad>(const partition::PartitionScheme&)>;

class PartitionRefiner {
 public:
  explicit PartitionRefiner(partition::PartitionerKind kind) : kind_(kind) {}

  /// Probe -> flag -> split, up to kMaxRefineRounds rounds, stopping early
  /// when a round flags nothing. The returned scheme keeps the input
  /// extent; unsplit cells keep their ids (the first child of a split cell
  /// takes its id, the others append).
  RefineResult refine(const partition::PartitionScheme& scheme,
                      const LoadProbe& probe) const;

  /// Children of one cell: quadrants at the midpoint for the fixed grid,
  /// longest-axis halves for STR. Degenerate axes are not split; a cell
  /// degenerate on both axes returns itself unchanged.
  static std::vector<geom::Envelope> split_cell(const geom::Envelope& cell,
                                                partition::PartitionerKind kind);

 private:
  partition::PartitionerKind kind_;
};

/// Emits the repartition.* counter block (rounds/splits/cells/
/// migrated_records/migrated_bytes) read back by the trace footer.
void record_repartition_counters(const RefineResult& result,
                                 cluster::Counters& counters);

}  // namespace sjc::plan
