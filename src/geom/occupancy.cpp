#include "geom/occupancy.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/status.hpp"

namespace sjc::geom {

namespace {

// Monotone clamp of a real coordinate into [0, n): the same idiom the
// partitioner's grid directory uses. `inv` is n / extent (0 for degenerate
// cells, which collapses every coordinate into slot 0). Monotonicity is what
// makes mark/query rasterisation sound for envelopes outside the cell box.
std::uint32_t clamp_coord(double v, double lo, double inv, std::uint32_t n) {
  const double f = (v - lo) * inv;
  if (!(f > 0.0)) return 0;  // also catches NaN
  if (f >= static_cast<double>(n)) return n - 1;
  return static_cast<std::uint32_t>(f);
}

// Word with bits [x0, x1] (inclusive) set. Requires x0 <= x1 <= 63.
std::uint64_t bit_span(std::uint32_t x0, std::uint32_t x1) {
  const std::uint32_t n = x1 - x0 + 1;
  const std::uint64_t run = n >= 64 ? ~0ULL : (1ULL << n) - 1;
  return run << x0;
}

}  // namespace

OccupancyFilter::OccupancyFilter(const std::vector<Envelope>& cells)
    : OccupancyFilter(cells, Config{}) {}

OccupancyFilter::OccupancyFilter(const std::vector<Envelope>& cells,
                                 const Config& config) {
  // A fine row must fit one 64-bit word; the clamp math needs side >= 1.
  const std::uint32_t fine = std::clamp<std::uint32_t>(config.fine_side, 1, 64);
  const std::uint32_t large = std::clamp<std::uint32_t>(config.large_side, fine, 64);

  std::vector<double> areas;
  areas.reserve(cells.size());
  for (const Envelope& box : cells) areas.push_back(box.area());
  double large_cutoff = std::numeric_limits<double>::infinity();
  if (!areas.empty() && large > fine) {
    std::vector<double> sorted = areas;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    large_cutoff = sorted[sorted.size() / 2] * config.large_area_factor;
  }

  cells_.resize(cells.size());
  std::uint32_t offset = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    Cell& c = cells_[i];
    c.box = cells[i];
    c.side = areas[i] > large_cutoff ? large : fine;
    c.word_offset = offset;
    offset += c.side;  // one word per fine row
    const double w = c.box.width();
    const double h = c.box.height();
    c.inv_w = w > 0.0 ? static_cast<double>(c.side) / w : 0.0;
    c.inv_h = h > 0.0 ? static_cast<double>(c.side) / h : 0.0;
  }
  words_.assign(offset, 0);
}

OccupancyFilter::SlotRange OccupancyFilter::clamp_range(
    const Cell& c, const Envelope& env) const {
  SlotRange r;
  r.x0 = clamp_coord(env.min_x(), c.box.min_x(), c.inv_w, c.side);
  r.x1 = clamp_coord(env.max_x(), c.box.min_x(), c.inv_w, c.side);
  r.y0 = clamp_coord(env.min_y(), c.box.min_y(), c.inv_h, c.side);
  r.y1 = clamp_coord(env.max_y(), c.box.min_y(), c.inv_h, c.side);
  // The clamp is monotone, so min <= max survives it.
  assert(r.x0 <= r.x1 && r.y0 <= r.y1);
  return r;
}

void OccupancyFilter::mark(std::uint32_t cell, const Envelope& env) {
  assert(cell < cells_.size());
  if (env.empty()) return;
  Cell& c = cells_[cell];
  c.domain.expand_to_include(env);
  c.marked += 1;
  marked_ += 1;
  const SlotRange r = clamp_range(c, env);
  // Level 1: 8x8 coarse summary. cx = sx * 8 / side <= 7 since sx < side.
  const std::uint64_t coarse_row = bit_span(r.x0 * 8 / c.side, r.x1 * 8 / c.side);
  for (std::uint32_t cy = r.y0 * 8 / c.side; cy <= r.y1 * 8 / c.side; ++cy) {
    c.coarse |= coarse_row << (cy * 8);
  }
  // Level 2: fine rows.
  const std::uint64_t row_mask = bit_span(r.x0, r.x1);
  for (std::uint32_t y = r.y0; y <= r.y1; ++y) {
    words_[c.word_offset + y] |= row_mask;
  }
}

void OccupancyFilter::merge(const OccupancyFilter& other) {
  require(other.cells_.size() == cells_.size() && other.words_.size() == words_.size(),
          "OccupancyFilter::merge: filters over different cells");
  // Only mark() sets bits, and it counts every envelope it sets them for,
  // so a cell of `other` without marks has nothing to add: a partial that
  // touches a few cells merges in time proportional to those.
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const Cell& o = other.cells_[i];
    if (o.marked == 0) continue;
    Cell& c = cells_[i];
    c.domain.expand_to_include(o.domain);
    c.coarse |= o.coarse;
    c.marked += o.marked;
    for (std::uint32_t y = 0; y < c.side; ++y) {
      words_[c.word_offset + y] |= other.words_[o.word_offset + y];
    }
  }
  marked_ += other.marked_;
}

bool OccupancyFilter::may_match(std::uint32_t cell, const Envelope& env) const {
  assert(cell < cells_.size());
  const Cell& c = cells_[cell];
  if (c.marked == 0) return false;
  if (env.empty() || !env.intersects(c.domain)) return false;
  const SlotRange r = clamp_range(c, env);
  const std::uint64_t coarse_row = bit_span(r.x0 * 8 / c.side, r.x1 * 8 / c.side);
  std::uint64_t coarse_mask = 0;
  for (std::uint32_t cy = r.y0 * 8 / c.side; cy <= r.y1 * 8 / c.side; ++cy) {
    coarse_mask |= coarse_row << (cy * 8);
  }
  if ((c.coarse & coarse_mask) == 0) return false;
  const std::uint64_t row_mask = bit_span(r.x0, r.x1);
  for (std::uint32_t y = r.y0; y <= r.y1; ++y) {
    if ((words_[c.word_offset + y] & row_mask) != 0) return true;
  }
  return false;
}

std::uint64_t OccupancyFilter::occupied_cells() const {
  std::uint64_t n = 0;
  for (const Cell& c : cells_) n += c.marked > 0 ? 1 : 0;
  return n;
}

std::size_t OccupancyFilter::bytes_of(const Cell& c) {
  // Domain envelope (4 doubles) + coarse word + fine bitmap rows.
  return 4 * sizeof(double) + sizeof(std::uint64_t) +
         static_cast<std::size_t>(c.side) * sizeof(std::uint64_t);
}

std::size_t OccupancyFilter::size_bytes() const {
  std::size_t bytes = 0;
  for (const Cell& c : cells_) bytes += bytes_of(c);
  return bytes;
}

std::size_t OccupancyFilter::occupied_bytes() const {
  std::size_t bytes = 0;
  for (const Cell& c : cells_) bytes += c.marked > 0 ? bytes_of(c) : 0;
  return bytes;
}

}  // namespace sjc::geom
