// Low-level computational-geometry kernels shared by both geometry engines.
//
// Everything here is branch-light and allocation-free; the engines differ in
// *how often* and *over which candidate sets* these kernels run, not in the
// kernels themselves (which keeps the fast and slow engines bit-identical in
// their answers).
#pragma once

#include <cstddef>

#include "geom/geometry.hpp"

namespace sjc::geom {

/// Sign of the cross product (b-a) x (c-a):
///  > 0 left turn, < 0 right turn, 0 collinear.
/// The sign is exact for the given double inputs (adaptive Shewchuk
/// predicate, see geom/exact_predicates.hpp); the magnitude is only
/// approximate on the fast path and must not be used quantitatively.
double orientation(const Coord& a, const Coord& b, const Coord& c);

/// True when point p lies on segment [a, b] (inclusive of endpoints).
bool point_on_segment(const Coord& p, const Coord& a, const Coord& b);

/// True when segments [a1,a2] and [b1,b2] share at least one point
/// (proper crossing, endpoint touch, or collinear overlap).
bool segments_intersect(const Coord& a1, const Coord& a2, const Coord& b1,
                        const Coord& b2);

/// True when [a1, a2] and [b1, b2] cross at a point interior to both.
inline bool strict_crossing(const Coord& a1, const Coord& a2, const Coord& b1,
                            const Coord& b2) {
  const double d1 = orientation(b1, b2, a1);
  const double d2 = orientation(b1, b2, a2);
  const double d3 = orientation(a1, a2, b1);
  const double d4 = orientation(a1, a2, b2);
  return ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
         ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0));
}

/// Calls fn(a, b) on every edge [a, b] of the polygon's rings (shell, then
/// holes, each in ring order) until fn returns true; returns whether it did.
template <typename Fn>
bool any_polygon_edge(const Polygon& poly, Fn&& fn) {
  const auto ring_edges = [&fn](const Ring& ring) {
    for (std::size_t i = 0; i + 1 < ring.size(); ++i) {
      if (fn(ring[i], ring[i + 1])) return true;
    }
    return false;
  };
  if (ring_edges(poly.shell)) return true;
  for (const auto& hole : poly.holes) {
    if (ring_edges(hole)) return true;
  }
  return false;
}

/// Squared euclidean distance between two points.
double squared_distance(const Coord& a, const Coord& b);

/// Squared distance from point p to segment [a, b].
double squared_distance_point_segment(const Coord& p, const Coord& a, const Coord& b);

/// Squared distance between segments [a1,a2] and [b1,b2] (0 if they
/// intersect).
double squared_distance_segments(const Coord& a1, const Coord& a2, const Coord& b1,
                                 const Coord& b2);

enum class RingSide : int { kOutside = 0, kInside = 1, kBoundary = 2 };

/// Point-in-ring test via ray casting; boundary points are classified as
/// kBoundary. The ring must be closed (first == last coordinate).
RingSide point_in_ring(const Coord& p, const Ring& ring);

/// Point-in-polygon with holes: inside the shell and outside every hole.
/// Boundary (of shell or hole) counts as inside, matching the "covers"
/// semantics that point-in-polygon spatial joins expect (a taxi pickup on a
/// census-block edge belongs to the block).
bool point_in_polygon(const Coord& p, const Polygon& poly);

/// True when any segment of `line` intersects any segment of `other`
/// (naive O(n*m) scan; engines provide indexed variants).
bool linestrings_intersect_naive(const LineString& line, const LineString& other);

/// Squared distance from a point to a polyline.
double squared_distance_point_linestring(const Coord& p, const LineString& line);

}  // namespace sjc::geom
