#pragma once

// Per-partition-cell occupancy bitmaps: the map-side spatial shuffle filter
// (LocationSpark's "sFilter" analog).
//
// One OccupancyFilter summarises where the *resident* (right/indexed) side of
// a spatial join actually has geometry inside each partition cell.  The
// opposite (streamed/left) side consults it during partition assignment and
// drops any (record, cell) copy whose expanded envelope cannot overlap an
// occupied grid slot — before the copy is ever placed in a ShuffleArena
// bucket, serialized, or handed to the local-join kernel.
//
// Layout per cell (two levels):
//   - a domain envelope: the running union of every envelope marked into the
//     cell.  Cheapest possible reject, and exact for cells whose occupancy is
//     one compact cluster.
//   - a coarse 8x8 bitmap packed into a single uint64 word (level 1).
//   - a fine side x side bitmap, one uint64 word per row (level 2).  `side`
//     is 16 for ordinary cells and kLargeSide for cells whose area is well
//     above the median — the hierarchical refinement for large cells, which
//     under skewed partitioners (notably STR leaves on hotspot data) would
//     otherwise degrade to a handful of giant always-occupied slots.
//
// Soundness contract: both mark() and may_match() rasterise an envelope to
// the *clamped* slot range of the cell box (the same monotone clamp
// PartitionScheme's grid directory uses).  A monotone clamp maps overlapping
// real intervals to overlapping clamped index ranges, so if a marked envelope
// intersects a queried envelope the two bit ranges overlap and may_match()
// returns true — even when either envelope pokes outside the cell box
// (border slots absorb everything beyond the edge; that only weakens
// pruning, never correctness).  may_match() == false therefore proves the
// queried envelope intersects *no* envelope ever marked into that cell: the
// filter drops only true negatives.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/envelope.hpp"

namespace sjc::geom {

class OccupancyFilter {
 public:
  struct Config {
    std::uint32_t fine_side = 32;        // fine bitmap side for ordinary cells
    std::uint32_t large_side = 64;       // fine bitmap side for large cells
    double large_area_factor = 4.0;      // area > factor * median => large
  };

  // `cells` are the partition cell boxes, indexed by partition id.
  // (Two overloads instead of a `= Config{}` default: a nested class with
  // member initializers is incomplete at the default-argument site.)
  explicit OccupancyFilter(const std::vector<Envelope>& cells);
  OccupancyFilter(const std::vector<Envelope>& cells, const Config& config);

  // Records that the resident side has a geometry with envelope `env`
  // assigned to partition `cell`.  Not thread-safe: a parallel build marks
  // into one partial per thread and merges them.
  void mark(std::uint32_t cell, const Envelope& env);

  // Adds every mark of `other`, a filter over the same cells and config:
  // fine rows and coarse words are OR'd, domains unioned, marks summed.  The
  // result equals one filter marked with both filters' envelopes, whatever
  // the order of marks and merges.  Throws InvalidArgument on a different
  // cell layout.
  void merge(const OccupancyFilter& other);

  // Cell by cell: box, domain, coarse word, fine rows and mark count.
  friend bool operator==(const OccupancyFilter&, const OccupancyFilter&) = default;

  // True unless `env` provably intersects no envelope marked into `cell`.
  // Thread-safe once building is done (read-only).
  bool may_match(std::uint32_t cell, const Envelope& env) const;

  bool cell_occupied(std::uint32_t cell) const {
    return cells_[cell].marked > 0;
  }

  std::size_t cell_count() const { return cells_.size(); }
  std::uint64_t marked_envelopes() const { return marked_; }
  std::uint64_t occupied_cells() const;

  // Modeled serialized size: what a real system would broadcast / put in the
  // distributed cache.  Domain envelope + coarse word + fine bitmap per cell.
  std::size_t size_bytes() const;
  // The same size counted over the cells holding a mark only: what a
  // partial filter that touches a few cells ships.
  std::size_t occupied_bytes() const;
  // The modeled size of one cell's summary.
  std::size_t cell_bytes(std::uint32_t cell) const { return bytes_of(cells_[cell]); }

 private:
  struct Cell {
    Envelope box;               // the partition cell (clamp frame)
    Envelope domain;            // union of marked envelopes (starts empty)
    std::uint32_t side = 0;     // fine bitmap side (rows == side, <= 64 bits)
    std::uint32_t word_offset = 0;  // first fine row word in words_
    std::uint64_t coarse = 0;   // 8x8 level-1 summary
    std::uint64_t marked = 0;   // envelopes marked into this cell
    double inv_w = 0.0;         // side / width(box)  (0 for degenerate)
    double inv_h = 0.0;         // side / height(box)

    friend bool operator==(const Cell&, const Cell&) = default;
  };

  struct SlotRange {
    std::uint32_t x0, x1, y0, y1;  // inclusive fine-slot range
  };

  SlotRange clamp_range(const Cell& c, const Envelope& env) const;
  static std::size_t bytes_of(const Cell& c);

  std::vector<Cell> cells_;
  std::vector<std::uint64_t> words_;  // fine rows, side words per cell
  std::uint64_t marked_ = 0;
};

}  // namespace sjc::geom
