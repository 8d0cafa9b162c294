#include "geom/batch_refine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <type_traits>

#include "geom/algorithms.hpp"
#include "geom/predicates.hpp"
#include "geom/simd_dispatch.hpp"
#include "util/status.hpp"

namespace sjc::geom {

namespace {

// Early-exit path enumeration in collect_paths order (linestrings, then
// shell before holes per polygon part). fn returns true to stop.
template <typename Fn>
bool any_path(const Geometry& g, Fn&& fn) {
  switch (g.type()) {
    case GeomType::kPoint:
      return false;
    case GeomType::kLineString:
      return fn(std::span<const Coord>(g.as_line_string().coords));
    case GeomType::kPolygon: {
      const auto& poly = g.as_polygon();
      if (fn(std::span<const Coord>(poly.shell))) return true;
      for (const auto& hole : poly.holes) {
        if (fn(std::span<const Coord>(hole))) return true;
      }
      return false;
    }
    case GeomType::kMultiLineString:
      for (const auto& part : g.as_multi_line_string().parts) {
        if (fn(std::span<const Coord>(part.coords))) return true;
      }
      return false;
    case GeomType::kMultiPolygon:
      for (const auto& part : g.as_multi_polygon().parts) {
        if (fn(std::span<const Coord>(part.shell))) return true;
        for (const auto& hole : part.holes) {
          if (fn(std::span<const Coord>(hole))) return true;
        }
      }
      return false;
  }
  return false;
}

// Does [a, b] share a point with the *closed* rectangle r?
bool segment_touches_rect(const Coord& a, const Coord& b, const Envelope& r) {
  if (std::max(a.x, b.x) < r.min_x() || std::min(a.x, b.x) > r.max_x() ||
      std::max(a.y, b.y) < r.min_y() || std::min(a.y, b.y) > r.max_y()) {
    return false;
  }
  if (r.contains(a.x, a.y) || r.contains(b.x, b.y)) return true;
  const Coord c00{r.min_x(), r.min_y()};
  const Coord c10{r.max_x(), r.min_y()};
  const Coord c11{r.max_x(), r.max_y()};
  const Coord c01{r.min_x(), r.max_y()};
  return segments_intersect(a, b, c00, c10) || segments_intersect(a, b, c10, c11) ||
         segments_intersect(a, b, c11, c01) || segments_intersect(a, b, c01, c00);
}

// The anchor's areal parts: none for points and lines.
std::span<const Polygon> areal_parts(const Geometry& g) {
  switch (g.type()) {
    case GeomType::kPolygon:
      return {&g.as_polygon(), 1};
    case GeomType::kMultiPolygon:
      return g.as_multi_polygon().parts;
    default:
      return {};
  }
}

// Turns per-bucket counts kept one slot up (offsets[b + 1] = count of b)
// into bucket starts one slot up. Placing every entry at offsets[b + 1]++
// afterwards leaves offsets[b + 1] at bucket b's end, so offsets[] ends up
// as the CSR offsets with no count or cursor array beside it. Returns the
// total.
std::uint32_t counts_to_starts(std::uint32_t* offsets, std::size_t buckets) {
  std::uint32_t start = 0;
  for (std::size_t b = 1; b <= buckets; ++b) {
    const std::uint32_t count = offsets[b];
    offsets[b] = start;
    start += count;
  }
  return start;
}

// Adaptive chunk length for `segments` linework segments: the reject scan
// stays a short SoA pass (≤ ~64 envelope tests) even for long polylines.
std::size_t chunk_length(std::size_t segments) {
  constexpr std::size_t kMaxChunks = 64;
  return std::max<std::size_t>(4, (segments + kMaxChunks - 1) / kMaxChunks);
}

// Grid resolution for the inscribed-rectangle search. The search is a
// heuristic — any candidate it proposes is verified exactly below — so a
// coarse grid only costs approximation quality, never correctness.
constexpr int kInnerGrid = 16;

}  // namespace

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

BatchRefiner::BatchRefiner(const Geometry& anchor) : anchor_(&anchor) {
  static_assert(std::is_trivially_destructible_v<SoAPart>);
  const std::span<const Polygon> polys = areal_parts(anchor);

  // Counting pass: the length of every derived array, so one allocation
  // holds them all and the fill pass never grows or copies anything.
  std::size_t doubles = 0;
  std::size_t words = 0;
  for (const Polygon& poly : polys) {
    const SoAPart shape = part_shape(poly);
    std::size_t slots = 0;
    any_polygon_edge(poly, [&](const Coord& a, const Coord& b) {
      slots += shape.bucket_of(std::max(a.y, b.y)) - shape.bucket_of(std::min(a.y, b.y)) + 1;
      return false;
    });
    doubles += 4 * slots;
    words += shape.bucket_count + 1;
  }
  std::size_t segments = 0;
  any_path(anchor, [&](std::span<const Coord> path) {
    segments += path.size() > 0 ? path.size() - 1 : 0;
    return false;
  });
  const std::size_t chunk_len = chunk_length(segments);
  std::size_t entries = 0;
  if (segments > 0) {
    // ≈ segments/2 cells, square grid over the anchor envelope.
    seg_env_ = anchor.envelope();
    const auto target_cells = std::clamp<std::size_t>(segments / 2, 1, 64 * 64);
    seg_w_ = seg_h_ = static_cast<std::uint32_t>(std::max<std::size_t>(
        1, static_cast<std::size_t>(std::sqrt(static_cast<double>(target_cells)))));
    const double w = seg_env_.width();
    const double h = seg_env_.height();
    seg_x_inv_ = w > 0.0 ? seg_w_ / w : 0.0;
    seg_y_inv_ = h > 0.0 ? seg_h_ / h : 0.0;
    any_path(anchor, [&](std::span<const Coord> path) {
      if (path.size() > 1) chunk_count_ += (path.size() - 2) / chunk_len + 1;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const CellSpan span = segment_cells(path[i], path[i + 1]);
        entries += std::size_t{span.x1 - span.x0 + 1} * (span.y1 - span.y0 + 1);
      }
      return false;
    });
    doubles += 4 * chunk_count_ + 8 * entries;
    words += static_cast<std::size_t>(seg_w_) * seg_h_ + 1;
  }
  const std::size_t header_bytes = polys.size() * sizeof(SoAPart);
  const std::size_t bytes =
      header_bytes + doubles * sizeof(double) + words * sizeof(std::uint32_t);
  // Point anchors have neither parts nor linework, so the envelope union
  // would be vacuously empty and reject everything; they stay exact-only.
  if (bytes == 0) return;

  // Fill pass, in layout order: part headers, doubles, uint32 offsets.
  buffer_ = std::make_unique_for_overwrite<std::byte[]>(bytes);
  auto* headers = reinterpret_cast<SoAPart*>(buffer_.get());
  Runs<double> double_runs{reinterpret_cast<double*>(buffer_.get() + header_bytes)};
  Runs<std::uint32_t> word_runs{
      reinterpret_cast<std::uint32_t*>(double_runs.next + doubles)};
  for (std::size_t i = 0; i < polys.size(); ++i) {
    fill_part(*std::construct_at(headers + i, part_shape(polys[i])), polys[i], double_runs,
              word_runs);
  }
  parts_ = {headers, polys.size()};
  if (segments > 0) {
    fill_chunks(chunk_len, double_runs);
    fill_segment_grid(entries, double_runs, word_runs);
  }
  approx_ = true;
}

BatchRefiner::SoAPart BatchRefiner::part_shape(const Polygon& poly) {
  SoAPart part;
  std::size_t edges = 0;
  double y_min = std::numeric_limits<double>::infinity();
  double y_max = -std::numeric_limits<double>::infinity();
  any_polygon_edge(poly, [&](const Coord& a, const Coord& b) {
    ++edges;
    y_min = std::min({y_min, a.y, b.y});
    y_max = std::max({y_max, a.y, b.y});
    part.env.expand_to_include(a.x, a.y);
    part.env.expand_to_include(b.x, b.y);
    return false;
  });
  part.y_min = y_min;
  part.y_max = y_max;
  const double span = y_max - y_min;
  part.bucket_count =
      static_cast<std::uint32_t>(std::clamp<std::size_t>(edges / 2, 1, 4096));
  part.y_inv_step = span > 0.0 ? part.bucket_count / span : 0.0;
  return part;
}

void BatchRefiner::fill_part(SoAPart& part, const Polygon& poly, Runs<double>& doubles,
                             Runs<std::uint32_t>& words) {
  // CSR fill that scatters edge coordinates, duplicated per bucket: one
  // probe reads one contiguous SoA run.
  const auto for_each_slot = [&part, &poly](auto&& fn) {
    any_polygon_edge(poly, [&](const Coord& a, const Coord& b) {
      const std::uint32_t last = part.bucket_of(std::max(a.y, b.y));
      for (std::uint32_t k = part.bucket_of(std::min(a.y, b.y)); k <= last; ++k) {
        fn(k, a, b);
      }
      return false;
    });
  };
  std::uint32_t* offsets = words.take(part.bucket_count + 1);
  std::fill_n(offsets, part.bucket_count + 1, 0u);
  for_each_slot([offsets](std::uint32_t k, const Coord&, const Coord&) { ++offsets[k + 1]; });
  const std::uint32_t slots = counts_to_starts(offsets, part.bucket_count);
  double* ax = doubles.take(slots);
  double* ay = doubles.take(slots);
  double* bx = doubles.take(slots);
  double* by = doubles.take(slots);
  for_each_slot([&](std::uint32_t k, const Coord& a, const Coord& b) {
    const std::uint32_t s = offsets[k + 1]++;
    ax[s] = a.x;
    ay[s] = a.y;
    bx[s] = b.x;
    by[s] = b.y;
  });
  part.ax = ax;
  part.ay = ay;
  part.bx = bx;
  part.by = by;
  part.bucket_offsets = offsets;

  // Inner approximation: grid search for a large all-covered rectangle,
  // then exact verification (corner coverage + no edge touching the closed
  // rectangle). A failed verification just drops the rectangle.
  constexpr int G = kInnerGrid;
  const double w = part.env.width();
  const double h = part.env.height();
  if (w > 0.0 && h > 0.0) {
    const double sx = w / G;
    const double sy = h / G;
    const auto cell_of = [](double v, double lo, double step) {
      return std::clamp(static_cast<int>((v - lo) / step), 0, G - 1);
    };
    // A cell is "free" when no edge envelope overlaps it (conservative: no
    // boundary point can lie inside it) and its center is covered — then
    // the whole cell is covered, since coverage is constant on a connected
    // set that avoids the boundary.
    std::array<std::array<bool, G>, G> blocked{};
    any_polygon_edge(poly, [&](const Coord& a, const Coord& b) {
      const int c0 = cell_of(std::min(a.x, b.x), part.env.min_x(), sx);
      const int c1 = cell_of(std::max(a.x, b.x), part.env.min_x(), sx);
      const int r0 = cell_of(std::min(a.y, b.y), part.env.min_y(), sy);
      const int r1 = cell_of(std::max(a.y, b.y), part.env.min_y(), sy);
      for (int r = r0; r <= r1; ++r) {
        for (int c = c0; c <= c1; ++c) blocked[r][c] = true;
      }
      return false;
    });
    std::array<std::array<bool, G>, G> free_cell{};
    for (int r = 0; r < G; ++r) {
      for (int c = 0; c < G; ++c) {
        if (blocked[r][c]) continue;
        const Coord center{part.env.min_x() + (c + 0.5) * sx,
                           part.env.min_y() + (r + 0.5) * sy};
        free_cell[r][c] = part.covers(center);
      }
    }
    // Largest rectangle of free cells: per-row histogram + stack.
    int best_area = 0, best_r0 = 0, best_c0 = 0, best_r1 = 0, best_c1 = 0;
    std::array<int, G> heights{};
    for (int r = 0; r < G; ++r) {
      for (int c = 0; c < G; ++c) heights[c] = free_cell[r][c] ? heights[c] + 1 : 0;
      std::array<int, G + 1> stack{};
      int top = -1;
      for (int c = 0; c <= G; ++c) {
        const int cur = c < G ? heights[c] : 0;
        while (top >= 0 && heights[stack[top]] >= cur) {
          const int hgt = heights[stack[top--]];
          const int left = top >= 0 ? stack[top] + 1 : 0;
          const int area = hgt * (c - left);
          if (area > best_area) {
            best_area = area;
            best_r0 = r - hgt + 1;
            best_c0 = left;
            best_r1 = r;
            best_c1 = c - 1;
          }
        }
        stack[++top] = c;
      }
    }
    if (best_area > 0) {
      Envelope rect(part.env.min_x() + best_c0 * sx, part.env.min_y() + best_r0 * sy,
                    part.env.min_x() + (best_c1 + 1) * sx,
                    part.env.min_y() + (best_r1 + 1) * sy);
      const std::array<Coord, 4> corners{
          Coord{rect.min_x(), rect.min_y()}, Coord{rect.max_x(), rect.min_y()},
          Coord{rect.max_x(), rect.max_y()}, Coord{rect.min_x(), rect.max_y()}};
      bool ok = true;
      for (const auto& corner : corners) ok = ok && part.covers(corner);
      ok = ok && !any_polygon_edge(poly, [&rect](const Coord& a, const Coord& b) {
        return segment_touches_rect(a, b, rect);
      });
      if (ok) part.inner = rect;
    }
  }
}

void BatchRefiner::fill_chunks(std::size_t chunk_len, Runs<double>& doubles) {
  double* min_x = doubles.take(chunk_count_);
  double* min_y = doubles.take(chunk_count_);
  double* max_x = doubles.take(chunk_count_);
  double* max_y = doubles.take(chunk_count_);
  std::size_t k = 0;
  any_path(*anchor_, [&](std::span<const Coord> path) {
    std::size_t i = 0;
    while (i + 1 < path.size()) {
      Envelope e;
      const std::size_t stop = std::min(path.size() - 1, i + chunk_len);
      for (std::size_t j = i; j <= stop; ++j) e.expand_to_include(path[j].x, path[j].y);
      min_x[k] = e.min_x();
      min_y[k] = e.min_y();
      max_x[k] = e.max_x();
      max_y[k] = e.max_y();
      ++k;
      i = stop;
    }
    return false;
  });
  chunk_min_x_ = min_x;
  chunk_min_y_ = min_y;
  chunk_max_x_ = max_x;
  chunk_max_y_ = max_y;
}

void BatchRefiner::fill_segment_grid(std::size_t entries, Runs<double>& doubles,
                                     Runs<std::uint32_t>& words) {
  // The per-cell payload is SoA: endpoint and bbox doubles duplicated per
  // cell entry. A segment is registered in every cell its bbox overlaps,
  // so any probe segment's cell range covers every segment it could
  // intersect. CSR fill: count, prefix, scatter.
  const auto for_each_entry = [this](auto&& fn) {
    any_path(*anchor_, [&](std::span<const Coord> path) {
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const CellSpan span = segment_cells(path[i], path[i + 1]);
        for (std::uint32_t cy = span.y0; cy <= span.y1; ++cy) {
          for (std::uint32_t cx = span.x0; cx <= span.x1; ++cx) {
            fn(static_cast<std::size_t>(cy) * seg_w_ + cx, path[i], path[i + 1]);
          }
        }
      }
      return false;
    });
  };
  const std::size_t cells = static_cast<std::size_t>(seg_w_) * seg_h_;
  std::uint32_t* offsets = words.take(cells + 1);
  std::fill_n(offsets, cells + 1, 0u);
  for_each_entry([offsets](std::size_t cell, const Coord&, const Coord&) {
    ++offsets[cell + 1];
  });
  counts_to_starts(offsets, cells);
  double* ax = doubles.take(entries);
  double* ay = doubles.take(entries);
  double* bx = doubles.take(entries);
  double* by = doubles.take(entries);
  double* min_x = doubles.take(entries);
  double* min_y = doubles.take(entries);
  double* max_x = doubles.take(entries);
  double* max_y = doubles.take(entries);
  for_each_entry([&](std::size_t cell, const Coord& a, const Coord& b) {
    const std::uint32_t at = offsets[cell + 1]++;
    ax[at] = a.x;
    ay[at] = a.y;
    bx[at] = b.x;
    by[at] = b.y;
    min_x[at] = std::min(a.x, b.x);
    min_y[at] = std::min(a.y, b.y);
    max_x[at] = std::max(a.x, b.x);
    max_y[at] = std::max(a.y, b.y);
  });
  seg_offsets_ = offsets;
  segs_ = {ax, ay, bx, by, min_x, min_y, max_x, max_y};
}

BatchRefiner::CellSpan BatchRefiner::grid_cells(double min_x, double min_y, double max_x,
                                                double max_y) const {
  const auto clamp_cell = [](double v, std::uint32_t n) {
    const auto i = static_cast<std::int64_t>(v);
    return static_cast<std::uint32_t>(std::clamp<std::int64_t>(i, 0, n - 1));
  };
  return {clamp_cell((min_x - seg_env_.min_x()) * seg_x_inv_, seg_w_),
          clamp_cell((max_x - seg_env_.min_x()) * seg_x_inv_, seg_w_),
          clamp_cell((min_y - seg_env_.min_y()) * seg_y_inv_, seg_h_),
          clamp_cell((max_y - seg_env_.min_y()) * seg_y_inv_, seg_h_)};
}

BatchRefiner::CellSpan BatchRefiner::segment_cells(const Coord& a, const Coord& b) const {
  return grid_cells(std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x),
                    std::max(a.y, b.y));
}

template <typename Fn>
bool BatchRefiner::any_grid_segment(double min_x, double min_y, double max_x,
                                    double max_y, Fn&& fn) const {
  if (seg_w_ == 0) return false;
  const CellSpan span = grid_cells(min_x, min_y, max_x, max_y);
  for (std::uint32_t cy = span.y0; cy <= span.y1; ++cy) {
    for (std::uint32_t cx = span.x0; cx <= span.x1; ++cx) {
      const std::size_t cell = static_cast<std::size_t>(cy) * seg_w_ + cx;
      for (std::uint32_t i = seg_offsets_[cell]; i < seg_offsets_[cell + 1]; ++i) {
        if (fn(Coord{segs_.ax[i], segs_.ay[i]}, Coord{segs_.bx[i], segs_.by[i]})) return true;
      }
    }
  }
  return false;
}

bool BatchRefiner::segment_grid_intersects(const Coord& a, const Coord& b) const {
  if (seg_w_ == 0) return false;
  const double bx0 = std::min(a.x, b.x);
  const double bx1 = std::max(a.x, b.x);
  const double by0 = std::min(a.y, b.y);
  const double by1 = std::max(a.y, b.y);
  const CellSpan span = grid_cells(bx0, by0, bx1, by1);
  // Per-cell bbox prune + exact test through the dispatched kernel: two
  // segments can only intersect when their bboxes overlap, so skipping
  // non-overlapping candidates never changes the boolean, and the kernels
  // run the same exact test on the same candidates in the same order.
  const auto seg_run = simd::kernels().seg_run_intersects;
  for (std::uint32_t cy = span.y0; cy <= span.y1; ++cy) {
    for (std::uint32_t cx = span.x0; cx <= span.x1; ++cx) {
      const std::size_t cell = static_cast<std::size_t>(cy) * seg_w_ + cx;
      if (seg_run(segs_, seg_offsets_[cell], seg_offsets_[cell + 1], a.x, a.y, b.x,
                  b.y, bx0, by0, bx1, by1)) {
        return true;
      }
    }
  }
  return false;
}

bool BatchRefiner::linework_intersects(const Coord& a, const Coord& b) const {
  return any_grid_segment(std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x),
                          std::max(a.y, b.y), [&](const Coord& s0, const Coord& s1) {
                            return segments_intersect(a, b, s0, s1);
                          });
}

bool BatchRefiner::linework_touches_point(const Coord& p) const {
  return any_grid_segment(p.x, p.y, p.x, p.y, [&](const Coord& s0, const Coord& s1) {
    return point_on_segment(p, s0, s1);
  });
}

// ---------------------------------------------------------------------------
// Approximations
// ---------------------------------------------------------------------------

bool BatchRefiner::inner_accepts(const Envelope& probe_env) const {
  for (const auto& part : parts_) {
    if (part.inner.contains(probe_env)) return true;
  }
  return false;
}

bool BatchRefiner::overlaps_any_part_env(const Envelope& probe_env) const {
  for (const auto& part : parts_) {
    if (part.env.intersects(probe_env)) return true;
  }
  return false;
}

bool BatchRefiner::outer_rejects(const Envelope& probe_env) const {
  if (overlaps_any_part_env(probe_env)) return false;
  // Chunk-envelope early-reject sweep over the SoA arrays via the
  // dispatched kernel (SIMD paths test 2/4 chunks per step).
  return !simd::kernels().env_any_overlaps(chunk_min_x_, chunk_min_y_, chunk_max_x_,
                                           chunk_max_y_, chunk_count_, probe_env.min_x(),
                                           probe_env.min_y(), probe_env.max_x(),
                                           probe_env.max_y());
}

// ---------------------------------------------------------------------------
// Point-in-polygon: batched SIMD pass and scalar exact scans
// ---------------------------------------------------------------------------

std::uint32_t BatchRefiner::SoAPart::bucket_of(double y) const {
  return static_cast<std::uint32_t>(std::clamp<std::int64_t>(
      static_cast<std::int64_t>((y - y_min) * y_inv_step), 0, bucket_count - 1));
}

bool BatchRefiner::SoAPart::covers(const Coord& p) const {
  if (p.y < y_min || p.y > y_max) return false;
  const std::uint32_t b = bucket_of(p.y);
  const std::size_t begin = bucket_offsets[b];
  const std::size_t end = bucket_offsets[b + 1];
  // Branchless crossing count over the bucket's SoA run via the dispatched
  // kernel: per edge, accumulate boundary hits (OR) and parity toggles
  // (XOR) without early exits, escalating the boundary sign to the adaptive
  // exact predicate when the float filter is uncertain — the same decisions
  // as point_covered. The parity division is masked by the straddle test,
  // which is false whenever the denominator would be zero.
  return simd::kernels().pip_covers_run(ax + begin, ay + begin, bx + begin, by + begin,
                                        end - begin, p.x, p.y);
}

bool BatchRefiner::SoAPart::point_covered(const Coord& p) const {
  if (p.y < y_min || p.y > y_max) return false;
  const std::uint32_t b = bucket_of(p.y);
  bool inside = false;
  for (std::uint32_t i = bucket_offsets[b]; i < bucket_offsets[b + 1]; ++i) {
    const Coord a{ax[i], ay[i]};
    const Coord e{bx[i], by[i]};
    if (point_on_segment(p, a, e)) return true;  // boundary: covered
    if ((a.y > p.y) != (e.y > p.y)) {
      const double x_cross = a.x + (p.y - a.y) * (e.x - a.x) / (e.y - a.y);
      if (x_cross > p.x) inside = !inside;
    }
  }
  return inside;
}

bool BatchRefiner::SoAPart::strictly_crossed(const Coord& a, const Coord& b) const {
  // Any edge that strictly crosses [a, b] has a y-span overlapping the
  // segment's y-span, so scanning the overlapped buckets is exhaustive.
  // Consecutive buckets are one contiguous run of the CSR arrays.
  const double lo = std::min(a.y, b.y);
  const double hi = std::max(a.y, b.y);
  if (hi < y_min || lo > y_max) return false;
  for (std::uint32_t i = bucket_offsets[bucket_of(lo)];
       i < bucket_offsets[bucket_of(hi) + 1]; ++i) {
    if (strict_crossing(a, b, {ax[i], ay[i]}, {bx[i], by[i]})) return true;
  }
  return false;
}

bool BatchRefiner::SoAPart::covers_path(std::span<const Coord> path) const {
  for (const auto& c : path) {
    if (!point_covered(c)) return false;
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (strictly_crossed(path[i], path[i + 1])) return false;
    const Coord mid{(path[i].x + path[i + 1].x) / 2.0,
                    (path[i].y + path[i + 1].y) / 2.0};
    if (!point_covered(mid)) return false;
  }
  return true;
}

bool BatchRefiner::covers_point(const Coord& p) const {
  if (!anchor_->envelope().contains(p.x, p.y)) return false;
  for (const auto& part : parts_) {
    if (part.point_covered(p)) return true;
  }
  return false;
}

bool BatchRefiner::any_part_covers_path(std::span<const Coord> path) const {
  for (const auto& part : parts_) {
    if (part.covers_path(path)) return true;
  }
  return false;
}

void BatchRefiner::covers_points(std::span<const Coord> pts,
                                 std::vector<std::uint8_t>& out,
                                 RefineStats& stats) const {
  out.resize(pts.size());
  const Envelope& env = anchor_->envelope();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Coord& p = pts[i];
    if (!env.contains(p.x, p.y)) {
      ++stats.early_rejects;
      out[i] = 0;
      continue;
    }
    bool accepted = false;
    for (const auto& part : parts_) {
      if (part.inner.contains(p.x, p.y)) {
        accepted = true;
        break;
      }
    }
    if (accepted) {
      ++stats.early_accepts;
      out[i] = 1;
      continue;
    }
    const std::uint64_t slow0 = exact::slowpath_calls();
    bool covered = false;
    for (const auto& part : parts_) {
      if (part.covers(p)) {
        covered = true;
        break;
      }
    }
    stats.note_exact(slow0);
    out[i] = covered ? 1 : 0;
  }
}

// ---------------------------------------------------------------------------
// Scalar predicates: approximation gates + exact fallbacks
// ---------------------------------------------------------------------------

bool BatchRefiner::intersects(const Geometry& probe, RefineStats& stats) const {
  if (approx_) {
    const Envelope& pe = probe.envelope();
    if (inner_accepts(pe)) {
      ++stats.early_accepts;
      return true;
    }
    // Sound because the anchor's point set is contained in the union of
    // part envelopes and linework chunk envelopes: a shared point would
    // have to lie in the probe envelope too.
    if (outer_rejects(pe)) {
      ++stats.early_rejects;
      return false;
    }
  }
  const std::uint64_t slow0 = exact::slowpath_calls();
  const bool hit = exact_intersects(probe, /*pruned=*/true);
  stats.note_exact(slow0);
  return hit;
}

bool BatchRefiner::contains(const Geometry& probe, RefineStats& stats) const {
  // Checked before the approximation gates so a non-areal anchor throws
  // instead of early-rejecting.
  require(anchor_->is_areal(), "BatchRefiner::contains: target must be areal");
  if (approx_) {
    const Envelope& pe = probe.envelope();
    if (inner_accepts(pe)) {
      ++stats.early_accepts;
      return true;
    }
    if (!anchor_->envelope().contains(pe) || !overlaps_any_part_env(pe)) {
      ++stats.early_rejects;
      return false;
    }
  }
  const std::uint64_t slow0 = exact::slowpath_calls();
  const bool hit = exact_contains(probe);
  stats.note_exact(slow0);
  return hit;
}

bool BatchRefiner::within_distance(const Geometry& probe, double d,
                                   RefineStats& stats) const {
  if (anchor_->envelope().distance(probe.envelope()) > d) {
    ++stats.early_rejects;
    return false;
  }
  if (approx_ && inner_accepts(probe.envelope())) {
    ++stats.early_accepts;  // probe inside a part: distance is exactly 0
    return true;
  }
  const std::uint64_t slow0 = exact::slowpath_calls();
  const bool hit = distance(probe) <= d;
  stats.note_exact(slow0);
  return hit;
}

bool BatchRefiner::exact_intersects(const Geometry& probe, bool pruned) const {
  if (!anchor_->envelope().intersects(probe.envelope())) return false;

  if (probe.type() == GeomType::kPoint) {
    const Coord& p = probe.as_point();
    if (has_areal() && covers_point(p)) return true;
    if (anchor_->type() == GeomType::kPoint) return anchor_->as_point() == p;
    return linework_touches_point(p);
  }
  if (anchor_->type() == GeomType::kPoint) {
    return intersects_naive(*anchor_, probe);
  }

  // 1) Any boundary/linework crossing?
  if (any_path(probe, [&](std::span<const Coord> path) {
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
          if (pruned ? segment_grid_intersects(path[i], path[i + 1])
                     : linework_intersects(path[i], path[i + 1])) {
            return true;
          }
        }
        return false;
      })) {
    return true;
  }

  // 2) No crossings: containment one way or the other decides.
  if (has_areal()) {
    if (any_path(probe, [&](std::span<const Coord> path) {
          return !path.empty() && covers_point(path.front());
        })) {
      return true;
    }
  }
  if (probe.is_areal()) {
    // Is the first vertex of any anchor path inside the probe? One vertex
    // per path suffices because, absent crossings, each path lies entirely
    // on one side of the probe's boundary.
    const auto check_poly = [&](const Polygon& poly) {
      return any_path(*anchor_, [&](std::span<const Coord> path) {
        return !path.empty() && point_in_polygon(path.front(), poly);
      });
    };
    if (probe.type() == GeomType::kPolygon) return check_poly(probe.as_polygon());
    for (const auto& part : probe.as_multi_polygon().parts) {
      if (check_poly(part)) return true;
    }
  }
  return false;
}

bool BatchRefiner::exact_contains(const Geometry& probe) const {
  if (!anchor_->envelope().contains(probe.envelope())) return false;
  // contains_naive's rule without materializing the probe's SimplePart
  // list: every simple part of the probe must be covered by at least one
  // areal part of the anchor.
  switch (probe.type()) {
    case GeomType::kPoint:
      return covers_point(probe.as_point());
    case GeomType::kLineString:
      return any_part_covers_path(probe.as_line_string().coords);
    case GeomType::kPolygon:
      return any_part_covers_path(probe.as_polygon().shell);
    case GeomType::kMultiLineString:
      for (const auto& part : probe.as_multi_line_string().parts) {
        if (!any_part_covers_path(part.coords)) return false;
      }
      return true;
    case GeomType::kMultiPolygon:
      for (const auto& part : probe.as_multi_polygon().parts) {
        if (!any_part_covers_path(part.shell)) return false;
      }
      return true;
  }
  return false;
}

double BatchRefiner::distance(const Geometry& probe) const {
  // The crossing scan runs unpruned, so every exact test of the intersects
  // step below is made, in grid order.
  if (exact_intersects(probe, /*pruned=*/false)) return 0.0;

  // Disjoint: the distance is realized between linework (or isolated
  // points). Scan the anchor's segments in path order.
  double best = std::numeric_limits<double>::infinity();
  if (probe.type() == GeomType::kPoint) {
    const Coord& p = probe.as_point();
    if (anchor_->type() == GeomType::kPoint) {
      return std::sqrt(squared_distance(anchor_->as_point(), p));
    }
    any_path(*anchor_, [&](std::span<const Coord> path) {
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        best = std::min(best, squared_distance_point_segment(p, path[i], path[i + 1]));
        if (best == 0.0) return true;
      }
      return false;
    });
    return std::sqrt(best);
  }

  if (anchor_->type() == GeomType::kPoint) {
    const Coord& p = anchor_->as_point();
    any_path(probe, [&](std::span<const Coord> path) {
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        best = std::min(best, squared_distance_point_segment(p, path[i], path[i + 1]));
      }
      if (path.size() == 1) best = std::min(best, squared_distance(p, path.front()));
      return false;
    });
    return std::sqrt(best);
  }

  // Each probe segment against every anchor segment; a probe path stops at
  // distance 0, the next one still runs.
  any_path(probe, [&](std::span<const Coord> path) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      double seg_best = std::numeric_limits<double>::infinity();
      any_path(*anchor_, [&](std::span<const Coord> anchor_path) {
        for (std::size_t j = 0; j + 1 < anchor_path.size(); ++j) {
          seg_best = std::min(seg_best, squared_distance_segments(path[i], path[i + 1],
                                                                  anchor_path[j],
                                                                  anchor_path[j + 1]));
          if (seg_best == 0.0) return true;
        }
        return false;
      });
      best = std::min(best, seg_best);
      if (best == 0.0) break;
    }
    return false;
  });
  return std::sqrt(best);
}

}  // namespace sjc::geom
