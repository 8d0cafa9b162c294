#include "partition/partitioner.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "util/status.hpp"

namespace sjc::partition {

PartitionScheme::PartitionScheme(std::vector<geom::Envelope> cells,
                                 geom::Envelope extent)
    : cells_(std::move(cells)), extent_(extent) {
  require(!cells_.empty(), "PartitionScheme: needs at least one cell");
  build_grid();
  interiors_disjoint_ = interiors_disjoint();
}

PartitionScheme::PartitionScheme(std::vector<geom::Envelope> cells,
                                 geom::Envelope extent, TilesExtent)
    : PartitionScheme(std::move(cells), extent) {
  tiles_extent_ = true;
}

namespace {

/// Grid column/row of coordinate `v`, clamped into [0, n).
inline std::uint32_t grid_coord(double v, double lo, double inv, std::uint32_t n) {
  const double f = (v - lo) * inv;
  if (!(f > 0.0)) return 0;
  if (f >= static_cast<double>(n)) return n - 1;
  return static_cast<std::uint32_t>(f);
}

}  // namespace

void PartitionScheme::build_grid() {
  const auto n = static_cast<std::uint32_t>(cells_.size());
  // ~4 buckets per cell keeps bucket occupancy near 1 for tiling schemes.
  const double side = std::ceil(2.0 * std::sqrt(static_cast<double>(n)));
  const auto g = static_cast<std::uint32_t>(std::clamp(side, 1.0, 1024.0));
  grid_cols_ = extent_.width() > 0.0 ? g : 1;
  grid_rows_ = extent_.height() > 0.0 ? g : 1;
  grid_inv_w_ =
      extent_.width() > 0.0 ? static_cast<double>(grid_cols_) / extent_.width() : 0.0;
  grid_inv_h_ =
      extent_.height() > 0.0 ? static_cast<double>(grid_rows_) / extent_.height() : 0.0;

  const std::size_t buckets = static_cast<std::size_t>(grid_cols_) * grid_rows_;
  cell_bx0_.resize(n);
  cell_by0_.resize(n);
  std::vector<std::uint32_t> counts(buckets, 0);
  const auto bucket_range = [this](const geom::Envelope& cell) {
    return std::array<std::uint32_t, 4>{
        grid_coord(cell.min_x(), extent_.min_x(), grid_inv_w_, grid_cols_),
        grid_coord(cell.max_x(), extent_.min_x(), grid_inv_w_, grid_cols_),
        grid_coord(cell.min_y(), extent_.min_y(), grid_inv_h_, grid_rows_),
        grid_coord(cell.max_y(), extent_.min_y(), grid_inv_h_, grid_rows_)};
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto [bx0, bx1, by0, by1] = bucket_range(cells_[i]);
    cell_bx0_[i] = static_cast<std::uint16_t>(bx0);
    cell_by0_[i] = static_cast<std::uint16_t>(by0);
    for (std::uint32_t by = by0; by <= by1; ++by) {
      for (std::uint32_t bx = bx0; bx <= bx1; ++bx) {
        ++counts[static_cast<std::size_t>(by) * grid_cols_ + bx];
      }
    }
  }
  grid_offsets_.assign(buckets + 1, 0);
  for (std::size_t b = 0; b < buckets; ++b) {
    grid_offsets_[b + 1] = grid_offsets_[b] + counts[b];
  }
  grid_ids_.resize(grid_offsets_[buckets]);
  std::vector<std::uint32_t> cursor(grid_offsets_.begin(), grid_offsets_.end() - 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto [bx0, bx1, by0, by1] = bucket_range(cells_[i]);
    for (std::uint32_t by = by0; by <= by1; ++by) {
      for (std::uint32_t bx = bx0; bx <= bx1; ++bx) {
        grid_ids_[cursor[static_cast<std::size_t>(by) * grid_cols_ + bx]++] = i;
      }
    }
  }
}

std::vector<std::uint32_t> PartitionScheme::assign(const geom::Envelope& env) const {
  std::vector<std::uint32_t> out;
  assign_into(env, out);
  return out;
}

void PartitionScheme::assign_into(const geom::Envelope& env,
                                  std::vector<std::uint32_t>& out) const {
  out.clear();
  const std::uint32_t ex0 = grid_coord(env.min_x(), extent_.min_x(), grid_inv_w_, grid_cols_);
  const std::uint32_t ex1 = grid_coord(env.max_x(), extent_.min_x(), grid_inv_w_, grid_cols_);
  const std::uint32_t ey0 = grid_coord(env.min_y(), extent_.min_y(), grid_inv_h_, grid_rows_);
  const std::uint32_t ey1 = grid_coord(env.max_y(), extent_.min_y(), grid_inv_h_, grid_rows_);
  for (std::uint32_t by = ey0; by <= ey1; ++by) {
    for (std::uint32_t bx = ex0; bx <= ex1; ++bx) {
      const std::size_t b = static_cast<std::size_t>(by) * grid_cols_ + bx;
      for (std::uint32_t k = grid_offsets_[b]; k < grid_offsets_[b + 1]; ++k) {
        const std::uint32_t id = grid_ids_[k];
        if (!cells_[id].intersects(env)) continue;
        // Emit only from the first bucket both the cell and the query
        // overlap, so multi-bucket scans never emit a cell twice.
        if (std::max<std::uint32_t>(cell_bx0_[id], ex0) != bx) continue;
        if (std::max<std::uint32_t>(cell_by0_[id], ey0) != by) continue;
        out.push_back(id);
      }
    }
  }
  if (out.empty()) out.push_back(nearest_cell(env));
}

std::uint32_t PartitionScheme::assign_into(const geom::Envelope& env,
                                           const geom::OccupancyFilter& filter,
                                           std::vector<std::uint32_t>& out) const {
  assign_into(env, out);
  // In-place compaction: keep only cells whose occupancy bitmap admits a
  // match. An empty result means the record is a proven true negative and
  // is dropped from the shuffle entirely (no fallback re-derivation).
  std::size_t kept = 0;
  for (const std::uint32_t id : out) {
    if (filter.may_match(id, env)) out[kept++] = id;
  }
  const auto dropped = static_cast<std::uint32_t>(out.size() - kept);
  out.resize(kept);
  return dropped;
}

std::uint32_t PartitionScheme::min_assigned(const geom::Envelope& env) const {
  const std::uint32_t ex0 = grid_coord(env.min_x(), extent_.min_x(), grid_inv_w_, grid_cols_);
  const std::uint32_t ex1 = grid_coord(env.max_x(), extent_.min_x(), grid_inv_w_, grid_cols_);
  const std::uint32_t ey0 = grid_coord(env.min_y(), extent_.min_y(), grid_inv_h_, grid_rows_);
  const std::uint32_t ey1 = grid_coord(env.max_y(), extent_.min_y(), grid_inv_h_, grid_rows_);
  std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
  bool found = false;
  for (std::uint32_t by = ey0; by <= ey1; ++by) {
    for (std::uint32_t bx = ex0; bx <= ex1; ++bx) {
      const std::size_t b = static_cast<std::size_t>(by) * grid_cols_ + bx;
      for (std::uint32_t k = grid_offsets_[b]; k < grid_offsets_[b + 1]; ++k) {
        // Duplicate visits are harmless under min().
        const std::uint32_t id = grid_ids_[k];
        if (id < best && cells_[id].intersects(env)) {
          best = id;
          found = true;
        }
      }
    }
  }
  return found ? best : nearest_cell(env);
}

bool PartitionScheme::is_canonical(std::uint32_t cell, const geom::Coord& p) const {
  const geom::Envelope& c = cells_[cell];
  if (!c.contains(p.x, p.y)) {
    // The directory finds every cell containing p, so the lookup can return
    // `cell` only through the nearest-cell fallback, which a tiling rules
    // out inside the extent.
    if (tiles_extent_ && extent_.contains(p.x, p.y)) return false;
  } else if (interiors_disjoint_ && p.x > c.min_x() && p.x < c.max_x() &&
             p.y > c.min_y() && p.y < c.max_y()) {
    return true;
  }
  return min_assigned(geom::Envelope::of_point(p.x, p.y)) == cell;
}

bool PartitionScheme::interiors_disjoint() const {
  // Does closed `a` share a point with the open interior of `b`? False
  // whenever b has zero width or height: such a cell has no interior.
  const auto meets_interior = [](const geom::Envelope& a, const geom::Envelope& b) {
    return b.min_x() < b.max_x() && b.min_y() < b.max_y() && a.min_x() < b.max_x() &&
           a.max_x() > b.min_x() && a.min_y() < b.max_y() && a.max_y() > b.min_y();
  };
  // Two cells that share a point are both listed in that point's bucket,
  // so the pairs within each bucket are exhaustive.
  for (std::size_t b = 0; b + 1 < grid_offsets_.size(); ++b) {
    for (std::uint32_t k = grid_offsets_[b]; k < grid_offsets_[b + 1]; ++k) {
      for (std::uint32_t j = k + 1; j < grid_offsets_[b + 1]; ++j) {
        const geom::Envelope& a = cells_[grid_ids_[k]];
        const geom::Envelope& c = cells_[grid_ids_[j]];
        if (meets_interior(a, c) || meets_interior(c, a)) return false;
      }
    }
  }
  return true;
}

std::uint32_t PartitionScheme::nearest_cell(const geom::Envelope& env) const {
  // Sample under-coverage: route to the nearest cell so no item is dropped.
  std::uint32_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::uint32_t i = 0; i < cells_.size(); ++i) {
    const double d = cells_[i].distance(env);
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  return best;
}

std::size_t PartitionScheme::size_bytes() const {
  return cells_.size() * (sizeof(geom::Envelope) + sizeof(std::uint32_t));
}

PartitionScheme make_fixed_grid(const geom::Envelope& extent, std::uint32_t cols,
                                std::uint32_t rows) {
  require(cols >= 1 && rows >= 1, "make_fixed_grid: grid must be at least 1x1");
  require(!extent.empty(), "make_fixed_grid: extent must be non-empty");
  std::vector<geom::Envelope> cells;
  cells.reserve(static_cast<std::size_t>(cols) * rows);
  const double cw = extent.width() / cols;
  const double ch = extent.height() / rows;
  for (std::uint32_t y = 0; y < rows; ++y) {
    for (std::uint32_t x = 0; x < cols; ++x) {
      cells.emplace_back(extent.min_x() + cw * x, extent.min_y() + ch * y,
                         x + 1 == cols ? extent.max_x() : extent.min_x() + cw * (x + 1),
                         y + 1 == rows ? extent.max_y() : extent.min_y() + ch * (y + 1));
    }
  }
  return PartitionScheme(std::move(cells), extent, PartitionScheme::TilesExtent{});
}

PartitionScheme make_str_partitions(const std::vector<geom::Envelope>& sample,
                                    const geom::Envelope& extent,
                                    std::uint32_t target_cells) {
  require(target_cells >= 1, "make_str_partitions: target_cells must be >= 1");
  if (sample.empty()) return make_fixed_grid(extent, 1, 1);

  // STR tiling of sample centers: slice by x, tile by y within each slice.
  struct Center {
    double x;
    double y;
  };
  std::vector<Center> centers;
  centers.reserve(sample.size());
  for (const auto& e : sample) centers.push_back({e.center_x(), e.center_y()});

  const auto slices = static_cast<std::uint32_t>(std::max(
      1.0, std::round(std::sqrt(static_cast<double>(target_cells)))));
  const std::uint32_t tiles_per_slice = (target_cells + slices - 1) / slices;

  std::sort(centers.begin(), centers.end(),
            [](const Center& a, const Center& b) { return a.x < b.x; });

  std::vector<geom::Envelope> cells;
  const std::size_t per_slice = (centers.size() + slices - 1) / slices;
  for (std::uint32_t s = 0; s < slices; ++s) {
    const std::size_t begin = std::min<std::size_t>(s * per_slice, centers.size());
    const std::size_t end = std::min<std::size_t>(begin + per_slice, centers.size());
    if (begin >= end) break;
    // Slice x-range: extend the first/last slice to the extent edge so the
    // tiles jointly cover it.
    const double x_lo = s == 0 ? extent.min_x() : centers[begin].x;
    const double x_hi = s + 1 == slices || end == centers.size()
                            ? extent.max_x()
                            : centers[end].x;
    std::sort(centers.begin() + static_cast<std::ptrdiff_t>(begin),
              centers.begin() + static_cast<std::ptrdiff_t>(end),
              [](const Center& a, const Center& b) { return a.y < b.y; });
    const std::size_t slice_n = end - begin;
    const std::size_t per_tile = (slice_n + tiles_per_slice - 1) / tiles_per_slice;
    for (std::uint32_t t = 0; t < tiles_per_slice; ++t) {
      const std::size_t tb = begin + std::min<std::size_t>(t * per_tile, slice_n);
      const std::size_t te = begin + std::min<std::size_t>((t + 1) * per_tile, slice_n);
      if (tb >= te) break;
      const double y_lo = t == 0 ? extent.min_y() : centers[tb].y;
      const double y_hi = t + 1 == tiles_per_slice || te == end ? extent.max_y()
                                                                : centers[te].y;
      cells.emplace_back(x_lo, y_lo, x_hi, y_hi);
    }
  }
  if (cells.empty()) return make_fixed_grid(extent, 1, 1);
  // Slices run from the extent's min x to its max x, and each slice's tiles
  // from its min y to its max y, each boundary shared by the neighbours.
  return PartitionScheme(std::move(cells), extent, PartitionScheme::TilesExtent{});
}

PartitionScheme make_partitions(PartitionerKind kind,
                                const std::vector<geom::Envelope>& sample,
                                const geom::Envelope& extent,
                                std::uint32_t target_cells) {
  switch (kind) {
    case PartitionerKind::kFixedGrid: {
      const auto side = static_cast<std::uint32_t>(std::max(
          1.0, std::round(std::sqrt(static_cast<double>(target_cells)))));
      return make_fixed_grid(extent, side, side);
    }
    case PartitionerKind::kStr:
      return make_str_partitions(sample, extent, target_cells);
  }
  throw InvalidArgument("make_partitions: unknown partitioner kind");
}

}  // namespace sjc::partition
