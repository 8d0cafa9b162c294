// Spatial partitioners: sample MBRs in, partition cells out.
//
// The preprocessing stage of every system (Section II.A) boils down to:
// sample the input, derive a set of partition cells from the sample, then
// assign every data item to the cell(s) its MBR intersects. Two cell
// derivation strategies are provided, the two SpatialHadoop partitioning
// families the drivers use:
//
//  * FixedGrid  — uniform cols x rows tiling of the extent (SpatialHadoop's
//                 default grid index; the skew study's baseline);
//  * Str        — Sort-Tile-Recursive tiles of the sample (balanced counts
//                 under skew; SpatialHadoop's STR mode and every driver's
//                 default).
//
// A PartitionScheme assigns an item to *every* cell its MBR intersects
// (multi-assignment duplication, deduplicated after the join), which is the
// semantics all three evaluated systems use.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/envelope.hpp"
#include "geom/occupancy.hpp"

namespace sjc::partition {

enum class PartitionerKind {
  kFixedGrid,
  kStr,
};

class PartitionScheme {
 public:
  /// `cells` are the partition MBRs; `extent` must cover them (items outside
  /// every cell fall back to the nearest cell by envelope distance).
  PartitionScheme(std::vector<geom::Envelope> cells, geom::Envelope extent);

  /// Tag: the caller's construction makes every point of `extent` lie in
  /// some cell (the factories below, and splits of their cells).
  struct TilesExtent {};
  PartitionScheme(std::vector<geom::Envelope> cells, geom::Envelope extent, TilesExtent);

  const std::vector<geom::Envelope>& cells() const { return cells_; }
  const geom::Envelope& extent() const { return extent_; }
  std::size_t cell_count() const { return cells_.size(); }
  /// Constructed with TilesExtent.
  bool tiles_extent() const { return tiles_extent_; }

  /// Partition ids whose cell intersects `env`; falls back to the single
  /// nearest cell when none intersect (sample under-coverage). Never empty.
  /// Allocating convenience wrapper over assign_into() — one semantics, one
  /// implementation (per-record id order is not a modeled quantity).
  std::vector<std::uint32_t> assign(const geom::Envelope& env) const;

  /// Zero-allocation variant of assign(): clears and refills `out` with the
  /// assigned id set. Queries a uniform-grid cell directory: for the
  /// small-envelope/many-records shape of partition assignment, a bucket
  /// scan beats a tree walk. The zero-copy data plane's per-record
  /// assignment path; `out` is the caller's reusable scratch.
  void assign_into(const geom::Envelope& env, std::vector<std::uint32_t>& out) const;

  /// Filtered assignment: computes the same id set as assign_into() (nearest
  /// -cell fallback included), then drops every cell whose resident-side
  /// occupancy bitmap proves `env` matches nothing there. Unlike the
  /// unfiltered variants the result MAY be empty — a fully filtered record
  /// is a true negative and is never shuffled; the fallback cell is subject
  /// to the filter like any other and is not re-derived after filtering.
  /// Returns the number of candidate cells the filter dropped (callers feed
  /// it straight into the shuffle.filtered_records accounting).
  std::uint32_t assign_into(const geom::Envelope& env,
                            const geom::OccupancyFilter& filter,
                            std::vector<std::uint32_t>& out) const;

  /// Smallest id assign() would return for `env`, without materializing the
  /// id list (the reference-point dedup test needs only the canonical cell).
  std::uint32_t min_assigned(const geom::Envelope& env) const;

  /// min_assigned(Envelope::of_point(p)) == cell: is `cell` the canonical
  /// cell of point p? Two cases skip the directory lookup:
  ///  * p lies outside the closed `cell`, inside the extent, and the scheme
  ///    tiles its extent: some other cell contains p, so the nearest-cell
  ///    fallback (the only way to pick a cell not containing p) cannot run,
  ///    and the answer is false;
  ///  * no cell meets another cell's interior (checked at construction) and
  ///    p lies strictly inside `cell`: no other cell contains p, so the
  ///    answer is true.
  bool is_canonical(std::uint32_t cell, const geom::Coord& p) const;

  /// Serialized footprint of the cell table (what gets broadcast /
  /// written as the _master file).
  std::size_t size_bytes() const;

 private:
  /// Nearest cell by envelope distance (the never-empty fallback).
  std::uint32_t nearest_cell(const geom::Envelope& env) const;

  /// Buckets every cell into a uniform grid over the extent (CSR layout).
  void build_grid();

  /// True when no cell meets the interior of another (e.g. the cells tile
  /// the extent). Reads the grid directory, so build_grid() runs first.
  bool interiors_disjoint() const;

  std::vector<geom::Envelope> cells_;
  geom::Envelope extent_;

  // Uniform-grid cell directory backing assign()/assign_into()/min_assigned()
  // (the former STR tree over cells is gone — one directory, one semantics).
  // Each
  // cell is listed in every grid bucket it intersects; queries scan the
  // envelope's bucket range and emit a cell only from the first overlapping
  // bucket (no stamp array, no allocation).
  std::uint32_t grid_cols_ = 1;
  std::uint32_t grid_rows_ = 1;
  double grid_inv_w_ = 0.0;
  double grid_inv_h_ = 0.0;
  std::vector<std::uint32_t> grid_offsets_;  // bucket -> [begin, end) in grid_ids_
  std::vector<std::uint32_t> grid_ids_;
  std::vector<std::uint16_t> cell_bx0_;  // first bucket column/row per cell
  std::vector<std::uint16_t> cell_by0_;

  bool interiors_disjoint_ = false;  // is_canonical's interior accept
  bool tiles_extent_ = false;        // is_canonical's outside reject
};

// Both factories below tile their extent: each axis' cell boundaries run from
// the extent's min to its max, so every point of the extent lies in a cell.

/// Uniform cols x rows tiling of `extent`.
PartitionScheme make_fixed_grid(const geom::Envelope& extent, std::uint32_t cols,
                                std::uint32_t rows);

/// STR tiles over `sample` MBRs targeting `target_cells` cells; tiles are
/// expanded so that together they cover `extent`.
PartitionScheme make_str_partitions(const std::vector<geom::Envelope>& sample,
                                    const geom::Envelope& extent,
                                    std::uint32_t target_cells);

/// Dispatch over `kind` with a uniform interface.
PartitionScheme make_partitions(PartitionerKind kind,
                                const std::vector<geom::Envelope>& sample,
                                const geom::Envelope& extent,
                                std::uint32_t target_cells);

}  // namespace sjc::partition
