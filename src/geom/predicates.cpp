#include "geom/predicates.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "geom/algorithms.hpp"
#include "geom/simple_parts.hpp"
#include "util/status.hpp"

namespace sjc::geom {

namespace {

using detail::SimplePart;
using detail::collect_parts;

bool point_on_linestring(const Coord& p, const LineString& line) {
  for (std::size_t i = 0; i + 1 < line.coords.size(); ++i) {
    if (point_on_segment(p, line.coords[i], line.coords[i + 1])) return true;
  }
  return false;
}

bool line_polygon_intersects(const LineString& line, const Polygon& poly) {
  // Any vertex inside (hole-aware) => overlap.
  for (const auto& c : line.coords) {
    if (point_in_polygon(c, poly)) return true;
  }
  // Otherwise an overlap requires a boundary crossing.
  for (std::size_t i = 0; i + 1 < line.coords.size(); ++i) {
    if (any_polygon_edge(poly, [&](const Coord& a, const Coord& b) {
          return segments_intersect(line.coords[i], line.coords[i + 1], a, b);
        })) {
      return true;
    }
  }
  return false;
}

bool polygons_intersect(const Polygon& a, const Polygon& b) {
  // Boundary crossing?
  if (any_polygon_edge(a, [&](const Coord& a1, const Coord& a2) {
        return any_polygon_edge(b, [&](const Coord& b1, const Coord& b2) {
          return segments_intersect(a1, a2, b1, b2);
        });
      })) {
    return true;
  }
  // No crossings: either disjoint or one region contains the other; a single
  // representative vertex of each shell decides (point_in_polygon is
  // hole-aware, so "inside a hole" correctly reads as outside).
  return point_in_polygon(a.shell.front(), b) || point_in_polygon(b.shell.front(), a);
}

bool parts_intersect(const SimplePart& pa, const SimplePart& pb) {
  if (pa.point != nullptr) {
    if (pb.point != nullptr) return *pa.point == *pb.point;
    if (pb.line != nullptr) return point_on_linestring(*pa.point, *pb.line);
    return point_in_polygon(*pa.point, *pb.polygon);
  }
  if (pa.line != nullptr) {
    if (pb.point != nullptr) return point_on_linestring(*pb.point, *pa.line);
    if (pb.line != nullptr) return linestrings_intersect_naive(*pa.line, *pb.line);
    return line_polygon_intersects(*pa.line, *pb.polygon);
  }
  // pa is a polygon.
  if (pb.point != nullptr) return point_in_polygon(*pb.point, *pa.polygon);
  if (pb.line != nullptr) return line_polygon_intersects(*pb.line, *pa.polygon);
  return polygons_intersect(*pa.polygon, *pb.polygon);
}

double polygon_boundary_sqdist_point(const Coord& p, const Polygon& poly) {
  double best = std::numeric_limits<double>::infinity();
  any_polygon_edge(poly, [&](const Coord& a, const Coord& b) {
    best = std::min(best, squared_distance_point_segment(p, a, b));
    return false;  // scan all edges
  });
  return best;
}

double lines_sqdist(const LineString& a, const LineString& b) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i + 1 < a.coords.size(); ++i) {
    for (std::size_t j = 0; j + 1 < b.coords.size(); ++j) {
      best = std::min(best, squared_distance_segments(a.coords[i], a.coords[i + 1],
                                                      b.coords[j], b.coords[j + 1]));
      if (best == 0.0) return 0.0;
    }
  }
  return best;
}

double line_polygon_boundary_sqdist(const LineString& line, const Polygon& poly) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i + 1 < line.coords.size(); ++i) {
    any_polygon_edge(poly, [&](const Coord& a, const Coord& b) {
      best = std::min(best, squared_distance_segments(line.coords[i],
                                                      line.coords[i + 1], a, b));
      return best == 0.0;
    });
    if (best == 0.0) break;
  }
  return best;
}

double polygon_boundaries_sqdist(const Polygon& pa, const Polygon& pb) {
  double best = std::numeric_limits<double>::infinity();
  any_polygon_edge(pa, [&](const Coord& a1, const Coord& a2) {
    any_polygon_edge(pb, [&](const Coord& b1, const Coord& b2) {
      best = std::min(best, squared_distance_segments(a1, a2, b1, b2));
      return best == 0.0;
    });
    return best == 0.0;
  });
  return best;
}

double parts_sqdist(const SimplePart& pa, const SimplePart& pb) {
  if (parts_intersect(pa, pb)) return 0.0;
  if (pa.point != nullptr) {
    if (pb.point != nullptr) return squared_distance(*pa.point, *pb.point);
    if (pb.line != nullptr) return squared_distance_point_linestring(*pa.point, *pb.line);
    return polygon_boundary_sqdist_point(*pa.point, *pb.polygon);
  }
  if (pa.line != nullptr) {
    if (pb.point != nullptr) return squared_distance_point_linestring(*pb.point, *pa.line);
    if (pb.line != nullptr) return lines_sqdist(*pa.line, *pb.line);
    return line_polygon_boundary_sqdist(*pa.line, *pb.polygon);
  }
  if (pb.point != nullptr) return polygon_boundary_sqdist_point(*pb.point, *pa.polygon);
  if (pb.line != nullptr) return line_polygon_boundary_sqdist(*pb.line, *pa.polygon);
  return polygon_boundaries_sqdist(*pa.polygon, *pb.polygon);
}

bool polygon_covers_point(const Polygon& poly, const Coord& p) {
  return point_in_polygon(p, poly);
}

// Covers test for a coordinate path against one polygon: every vertex and
// every segment midpoint covered, and no strict boundary crossing. Midpoints
// guard against segments that dip through a hole while both endpoints stay
// covered and only touch ring edges at isolated points. For typical map
// data (paths crossing a hole cross its ring) this matches exact covers.
bool polygon_covers_path(const Polygon& poly, std::span<const Coord> path) {
  for (const auto& c : path) {
    if (!point_in_polygon(c, poly)) return false;
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (any_polygon_edge(poly, [&](const Coord& a, const Coord& b) {
          return strict_crossing(path[i], path[i + 1], a, b);
        })) {
      return false;
    }
    const Coord mid{(path[i].x + path[i + 1].x) / 2.0,
                    (path[i].y + path[i + 1].y) / 2.0};
    if (!point_in_polygon(mid, poly)) return false;
  }
  return true;
}

bool polygon_covers_part(const Polygon& poly, const SimplePart& part) {
  if (part.point != nullptr) return polygon_covers_point(poly, *part.point);
  if (part.line != nullptr) return polygon_covers_path(poly, part.line->coords);
  // Covering a polygon part reduces to covering its shell path (the part's
  // covered region is a subset of its shell region).
  return polygon_covers_path(poly, part.polygon->shell);
}

}  // namespace

bool intersects_naive(const Geometry& a, const Geometry& b) {
  if (!a.envelope().intersects(b.envelope())) return false;
  std::vector<SimplePart> parts_a;
  std::vector<SimplePart> parts_b;
  collect_parts(a, parts_a);
  collect_parts(b, parts_b);
  for (const auto& pa : parts_a) {
    for (const auto& pb : parts_b) {
      if (parts_intersect(pa, pb)) return true;
    }
  }
  return false;
}

bool contains_naive(const Geometry& a, const Geometry& b) {
  require(a.is_areal(), "contains_naive: left side must be areal");
  if (!a.envelope().contains(b.envelope())) return false;
  std::vector<SimplePart> parts_a;
  std::vector<SimplePart> parts_b;
  collect_parts(a, parts_a);
  collect_parts(b, parts_b);
  // Every part of b must be covered by at least one polygon of a. (For
  // parts straddling two touching polygons of a multipolygon this is
  // conservative, i.e. may report false; census/TIGER multipolygon parts are
  // disjoint so this does not arise in the evaluated workloads.)
  for (const auto& pb : parts_b) {
    bool covered = false;
    for (const auto& pa : parts_a) {
      if (polygon_covers_part(*pa.polygon, pb)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

namespace {

Envelope part_envelope(const SimplePart& part) {
  Envelope e;
  if (part.point != nullptr) {
    e.expand_to_include(part.point->x, part.point->y);
  } else if (part.line != nullptr) {
    for (const auto& c : part.line->coords) e.expand_to_include(c.x, c.y);
  } else {
    for (const auto& c : part.polygon->shell) e.expand_to_include(c.x, c.y);
  }
  return e;
}

// Squared envelope gap (Envelope::distance without the sqrt): a lower bound
// on parts_sqdist for the two parts the envelopes bound.
double envelope_gap_sq(const Envelope& ea, const Envelope& eb) {
  const double dx = std::max({0.0, eb.min_x() - ea.max_x(), ea.min_x() - eb.max_x()});
  const double dy = std::max({0.0, eb.min_y() - ea.max_y(), ea.min_y() - eb.max_y()});
  return dx * dx + dy * dy;
}

}  // namespace

double distance_naive(const Geometry& a, const Geometry& b) {
  std::vector<SimplePart> parts_a;
  std::vector<SimplePart> parts_b;
  collect_parts(a, parts_a);
  collect_parts(b, parts_b);

  // Single-part pair (the overwhelmingly common case): one exact test, no
  // pruning machinery.
  if (parts_a.size() == 1 && parts_b.size() == 1) {
    return std::sqrt(parts_sqdist(parts_a[0], parts_b[0]));
  }

  // Multipart: the per-part envelope gap lower-bounds the exact part
  // distance, so processing part pairs in ascending gap order seeds the
  // running bound from the closest-envelope pair and lets every later pair
  // whose gap already exceeds the bound exit without a coordinate scan.
  struct PairGap {
    double gap_sq;
    std::uint32_t ia;
    std::uint32_t ib;
  };
  std::vector<Envelope> envs_a(parts_a.size());
  std::vector<Envelope> envs_b(parts_b.size());
  for (std::size_t i = 0; i < parts_a.size(); ++i) envs_a[i] = part_envelope(parts_a[i]);
  for (std::size_t i = 0; i < parts_b.size(); ++i) envs_b[i] = part_envelope(parts_b[i]);
  std::vector<PairGap> order;
  order.reserve(parts_a.size() * parts_b.size());
  for (std::uint32_t i = 0; i < parts_a.size(); ++i) {
    for (std::uint32_t j = 0; j < parts_b.size(); ++j) {
      order.push_back({envelope_gap_sq(envs_a[i], envs_b[j]), i, j});
    }
  }
  std::sort(order.begin(), order.end(),
            [](const PairGap& x, const PairGap& y) { return x.gap_sq < y.gap_sq; });

  double best = std::numeric_limits<double>::infinity();
  for (const auto& pg : order) {
    // Conservative slack: prune only when the gap exceeds the bound by a
    // relative margin, so ulp-level noise in the exact kernels can never
    // change the returned minimum.
    if (pg.gap_sq > best * (1.0 + 1e-9)) break;  // sorted: nothing later helps
    best = std::min(best, parts_sqdist(parts_a[pg.ia], parts_b[pg.ib]));
    if (best == 0.0) return 0.0;
  }
  return std::sqrt(best);
}

bool within_distance_naive(const Geometry& a, const Geometry& b, double d) {
  require(d >= 0.0, "within_distance_naive: d must be non-negative");
  if (a.envelope().distance(b.envelope()) > d) return false;
  return distance_naive(a, b) <= d;
}

}  // namespace sjc::geom
