// Tests for the naive (reference) predicates across geometry type pairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "geom/algorithms.hpp"
#include "geom/exact_predicates.hpp"
#include "geom/predicates.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace sjc::geom {
namespace {

Geometry unit_square() {
  return Geometry::polygon({{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}});
}

Geometry donut() {
  return Geometry::polygon({{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}},
                           {{{3, 3}, {7, 3}, {7, 7}, {3, 7}, {3, 3}}});
}

// ---------------------------------------------------------------------------
// intersects
// ---------------------------------------------------------------------------

TEST(Intersects, PointPoint) {
  EXPECT_TRUE(intersects_naive(Geometry::point(1, 2), Geometry::point(1, 2)));
  EXPECT_FALSE(intersects_naive(Geometry::point(1, 2), Geometry::point(1, 3)));
}

TEST(Intersects, PointLine) {
  const Geometry l = Geometry::line_string({{0, 0}, {4, 4}});
  EXPECT_TRUE(intersects_naive(Geometry::point(2, 2), l));
  EXPECT_TRUE(intersects_naive(l, Geometry::point(2, 2)));  // symmetric
  EXPECT_FALSE(intersects_naive(Geometry::point(2, 3), l));
}

TEST(Intersects, PointPolygon) {
  EXPECT_TRUE(intersects_naive(Geometry::point(2, 2), unit_square()));
  EXPECT_TRUE(intersects_naive(Geometry::point(0, 2), unit_square()));  // boundary
  EXPECT_FALSE(intersects_naive(Geometry::point(5, 5), unit_square()));
}

TEST(Intersects, PointInHoleIsOutside) {
  EXPECT_FALSE(intersects_naive(Geometry::point(5, 5), donut()));
  EXPECT_TRUE(intersects_naive(Geometry::point(1, 5), donut()));
}

TEST(Intersects, LineLine) {
  const Geometry a = Geometry::line_string({{0, 0}, {4, 4}});
  const Geometry b = Geometry::line_string({{0, 4}, {4, 0}});
  const Geometry c = Geometry::line_string({{10, 10}, {11, 10}});
  EXPECT_TRUE(intersects_naive(a, b));
  EXPECT_FALSE(intersects_naive(a, c));
}

TEST(Intersects, LinePolygonCrossing) {
  const Geometry l = Geometry::line_string({{-1, 2}, {5, 2}});
  EXPECT_TRUE(intersects_naive(l, unit_square()));
  EXPECT_TRUE(intersects_naive(unit_square(), l));
}

TEST(Intersects, LineFullyInsidePolygon) {
  const Geometry l = Geometry::line_string({{1, 1}, {3, 3}});
  EXPECT_TRUE(intersects_naive(l, unit_square()));
}

TEST(Intersects, LineInsideHoleDoesNotIntersect) {
  const Geometry l = Geometry::line_string({{4, 4}, {6, 6}});
  EXPECT_FALSE(intersects_naive(l, donut()));
}

TEST(Intersects, LineCrossingHoleBoundary) {
  const Geometry l = Geometry::line_string({{5, 5}, {5, 9}});
  EXPECT_TRUE(intersects_naive(l, donut()));
}

TEST(Intersects, PolygonPolygonOverlap) {
  const Geometry a = unit_square();
  const Geometry b = Geometry::polygon({{2, 2}, {6, 2}, {6, 6}, {2, 6}, {2, 2}});
  EXPECT_TRUE(intersects_naive(a, b));
}

TEST(Intersects, PolygonContainedInPolygon) {
  const Geometry inner = Geometry::polygon({{1, 1}, {2, 1}, {2, 2}, {1, 2}, {1, 1}});
  EXPECT_TRUE(intersects_naive(inner, unit_square()));
  EXPECT_TRUE(intersects_naive(unit_square(), inner));
}

TEST(Intersects, PolygonInsideHoleDisjoint) {
  const Geometry in_hole = Geometry::polygon({{4, 4}, {6, 4}, {6, 6}, {4, 6}, {4, 4}});
  EXPECT_FALSE(intersects_naive(in_hole, donut()));
  EXPECT_FALSE(intersects_naive(donut(), in_hole));
}

TEST(Intersects, PolygonsTouchingAtEdge) {
  const Geometry a = unit_square();
  const Geometry b = Geometry::polygon({{4, 0}, {8, 0}, {8, 4}, {4, 4}, {4, 0}});
  EXPECT_TRUE(intersects_naive(a, b));
}

TEST(Intersects, MultiGeometryAnyPartCounts) {
  const Geometry m = Geometry::multi_polygon(
      {Polygon{{{20, 20}, {21, 20}, {21, 21}, {20, 21}, {20, 20}}, {}},
       Polygon{{{1, 1}, {2, 1}, {2, 2}, {1, 2}, {1, 1}}, {}}});
  EXPECT_TRUE(intersects_naive(m, unit_square()));
  EXPECT_TRUE(intersects_naive(unit_square(), m));
}

TEST(Intersects, EnvelopeDisjointShortCircuit) {
  const Geometry a = Geometry::line_string({{0, 0}, {1, 1}});
  const Geometry b = Geometry::line_string({{100, 100}, {101, 101}});
  EXPECT_FALSE(intersects_naive(a, b));
}

// ---------------------------------------------------------------------------
// contains (covers semantics)
// ---------------------------------------------------------------------------

TEST(Contains, PolygonPoint) {
  EXPECT_TRUE(contains_naive(unit_square(), Geometry::point(2, 2)));
  EXPECT_TRUE(contains_naive(unit_square(), Geometry::point(0, 0)));  // corner
  EXPECT_FALSE(contains_naive(unit_square(), Geometry::point(5, 5)));
}

TEST(Contains, DonutDoesNotContainHolePoint) {
  EXPECT_FALSE(contains_naive(donut(), Geometry::point(5, 5)));
  EXPECT_TRUE(contains_naive(donut(), Geometry::point(3, 5)));  // hole boundary
}

TEST(Contains, PolygonLine) {
  EXPECT_TRUE(contains_naive(unit_square(), Geometry::line_string({{1, 1}, {3, 3}})));
  EXPECT_FALSE(contains_naive(unit_square(), Geometry::line_string({{1, 1}, {9, 9}})));
  // On-boundary line is covered.
  EXPECT_TRUE(contains_naive(unit_square(), Geometry::line_string({{0, 0}, {4, 0}})));
}

TEST(Contains, LineThroughHoleNotContained) {
  EXPECT_FALSE(contains_naive(donut(), Geometry::line_string({{1, 5}, {9, 5}})));
}

TEST(Contains, PolygonPolygon) {
  const Geometry inner = Geometry::polygon({{1, 1}, {3, 1}, {3, 3}, {1, 3}, {1, 1}});
  EXPECT_TRUE(contains_naive(unit_square(), inner));
  EXPECT_FALSE(contains_naive(inner, unit_square()));
}

TEST(Contains, NonArealLeftThrows) {
  EXPECT_THROW(contains_naive(Geometry::point(0, 0), Geometry::point(0, 0)),
               InvalidArgument);
  EXPECT_THROW(
      contains_naive(Geometry::line_string({{0, 0}, {1, 1}}), Geometry::point(0, 0)),
      InvalidArgument);
}

TEST(Contains, MultiPolygonContainsAcrossParts) {
  const Geometry m = Geometry::multi_polygon(
      {Polygon{{{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}}, {}},
       Polygon{{{10, 10}, {14, 10}, {14, 14}, {10, 14}, {10, 10}}, {}}});
  EXPECT_TRUE(contains_naive(m, Geometry::point(2, 2)));
  EXPECT_TRUE(contains_naive(m, Geometry::point(12, 12)));
  EXPECT_FALSE(contains_naive(m, Geometry::point(7, 7)));
}

// ---------------------------------------------------------------------------
// distance / within_distance
// ---------------------------------------------------------------------------

TEST(Distance, IntersectingIsZero) {
  EXPECT_EQ(distance_naive(Geometry::point(2, 2), unit_square()), 0.0);
}

TEST(Distance, PointToPolygonBoundary) {
  EXPECT_DOUBLE_EQ(distance_naive(Geometry::point(7, 2), unit_square()), 3.0);
}

TEST(Distance, PointToLine) {
  const Geometry l = Geometry::line_string({{0, 0}, {10, 0}});
  EXPECT_DOUBLE_EQ(distance_naive(Geometry::point(5, 4), l), 4.0);
}

TEST(Distance, LineToLine) {
  const Geometry a = Geometry::line_string({{0, 0}, {10, 0}});
  const Geometry b = Geometry::line_string({{0, 3}, {10, 3}});
  EXPECT_DOUBLE_EQ(distance_naive(a, b), 3.0);
}

TEST(Distance, PolygonToPolygon) {
  const Geometry a = unit_square();
  const Geometry b = Geometry::polygon({{7, 0}, {9, 0}, {9, 4}, {7, 4}, {7, 0}});
  EXPECT_DOUBLE_EQ(distance_naive(a, b), 3.0);
}

// Pin for the multipart envelope-gap pruning in distance_naive: the pruned
// scan must return the EXACT value of the unoptimized all-pairs scan. The
// reference decomposes both sides into single-part geometries (whose
// distance_naive calls take the pruning-free 1x1 fast path) and minimizes
// over every part pair; min/sqrt commute exactly, so EXPECT_DOUBLE_EQ.
TEST(Distance, MultipartPruningMatchesUnprunedScan) {
  const auto decompose = [](const Geometry& g) {
    std::vector<Geometry> parts;
    switch (g.type()) {
      case GeomType::kMultiLineString:
        for (const auto& part : g.as_multi_line_string().parts) {
          parts.push_back(Geometry::line_string(part.coords));
        }
        break;
      case GeomType::kMultiPolygon:
        for (const auto& part : g.as_multi_polygon().parts) {
          parts.push_back(Geometry::polygon(part.shell, part.holes));
        }
        break;
      default:
        parts.push_back(g);
    }
    return parts;
  };
  Rng rng(808);
  const auto random_multi = [&rng](bool lines) -> Geometry {
    const auto k = 2 + rng.next_below(4);
    if (lines) {
      std::vector<LineString> parts;
      for (std::uint64_t p = 0; p < k; ++p) {
        const double x = rng.uniform(-80, 80);
        const double y = rng.uniform(-80, 80);
        parts.push_back(LineString{{{x, y},
                                    {x + rng.uniform(-9, 9), y + rng.uniform(-9, 9)},
                                    {x + rng.uniform(-9, 9), y + rng.uniform(-9, 9)}}});
      }
      return Geometry::multi_line_string(std::move(parts));
    }
    std::vector<Polygon> parts;
    for (std::uint64_t p = 0; p < k; ++p) {
      const double x = rng.uniform(-80, 80);
      const double y = rng.uniform(-80, 80);
      const double w = rng.uniform(1, 8);
      parts.push_back(Polygon{{{x, y}, {x + w, y}, {x + w, y + w}, {x, y + w}, {x, y}},
                              {}});
    }
    return Geometry::multi_polygon(std::move(parts));
  };
  for (int trial = 0; trial < 200; ++trial) {
    const Geometry a = random_multi(trial % 2 == 0);
    const Geometry b = random_multi(trial % 3 == 0);
    double reference = std::numeric_limits<double>::infinity();
    for (const Geometry& pa : decompose(a)) {
      for (const Geometry& pb : decompose(b)) {
        reference = std::min(reference, distance_naive(pa, pb));
      }
    }
    EXPECT_DOUBLE_EQ(distance_naive(a, b), reference) << "trial " << trial;
  }
}

TEST(WithinDistance, ThresholdSemantics) {
  const Geometry p = Geometry::point(7, 2);
  EXPECT_TRUE(within_distance_naive(p, unit_square(), 3.0));   // exactly at
  EXPECT_TRUE(within_distance_naive(p, unit_square(), 3.5));
  EXPECT_FALSE(within_distance_naive(p, unit_square(), 2.9));
}

TEST(WithinDistance, NegativeDistanceThrows) {
  EXPECT_THROW(within_distance_naive(Geometry::point(0, 0), unit_square(), -1.0),
               InvalidArgument);
}

TEST(WithinDistance, EnvelopeEarlyOut) {
  const Geometry far = Geometry::point(1000, 1000);
  EXPECT_FALSE(within_distance_naive(far, unit_square(), 10.0));
}

// ---------------------------------------------------------------------------
// Adaptive exact predicates: degenerate-case regression corpus + oracles
// ---------------------------------------------------------------------------

int sign_of(double v) { return v > 0.0 ? 1 : (v < 0.0 ? -1 : 0); }

/// Integer-exact orientation oracle: all inputs must be integers small
/// enough that every product fits __int128 (|coord| < 2^60 suffices).
int orient_oracle(long long ax, long long ay, long long bx, long long by,
                  long long cx, long long cy) {
  const __int128 det = static_cast<__int128>(bx - ax) * (cy - ay) -
                       static_cast<__int128>(by - ay) * (cx - ax);
  return det > 0 ? 1 : (det < 0 ? -1 : 0);
}

TEST(ExactPredicates, CollinearTriplesAreExactlyZero) {
  // Exactly-collinear triples whose float determinant is garbage: the
  // classic 2D robustness failures.
  EXPECT_EQ(orientation({0, 0}, {1e16, 1e16}, {3, 3}), 0.0);
  EXPECT_EQ(orientation({12, 12}, {24, 24}, {0.5, 0.5}), 0.0);
  // Midpoint of a huge span: (-8e307,0) -> (8e307,2) passes through (0,1)
  // exactly; detsum overflows to inf, forcing the magnitude-rescue path.
  EXPECT_EQ(orientation({-8e307, 0}, {8e307, 2}, {0, 1}), 0.0);
  // Near-collinear by one ulp either side of a long integer edge must get
  // the (tiny but nonzero) sign right.
  EXPECT_GT(orientation({0, 0}, {1e16, 1e16}, {3, std::nextafter(3.0, 4.0)}), 0.0);
  EXPECT_LT(orientation({0, 0}, {1e16, 1e16}, {3, std::nextafter(3.0, 2.0)}), 0.0);
}

TEST(ExactPredicates, OverflowingDeterminantsEscalateAndRescale) {
  // (b - a) x (c - a) overflows to -inf in floats; the rescue path rescales
  // by an exact power of two and still decides the sign exactly.
  const std::uint64_t slow0 = exact::slowpath_calls();
  EXPECT_LT(orientation({-8e307, -8e307}, {8e307, 8e307}, {8e307, -8e307}), 0.0);
  EXPECT_GT(orientation({-8e307, -8e307}, {8e307, 8e307}, {-8e307, 8e307}), 0.0);
  // The diagonal itself through +/-8e307 is exact.
  EXPECT_EQ(orientation({-8e307, -8e307}, {8e307, 8e307}, {0, 0}), 0.0);
  EXPECT_GT(exact::slowpath_calls(), slow0) << "overflow cases must escalate";
}

TEST(ExactPredicates, SubnormalSliversKeepExactSigns) {
  // Sliver thinner than any normal number: edge (0,0)-(4, 2^-1072). The
  // probe (1, 2^-1074) lies exactly on the line (all products are exact
  // powers of two); (1, 0) lies strictly below it even though the error
  // bound underflows to zero.
  const Coord a{0.0, 0.0};
  const Coord b{4.0, 0x1p-1072};
  EXPECT_EQ(orientation(a, b, {1.0, 0x1p-1074}), 0.0);
  EXPECT_TRUE(point_on_segment({1.0, 0x1p-1074}, a, b));
  EXPECT_LT(orientation(a, b, {1.0, 0.0}), 0.0);
  EXPECT_FALSE(point_on_segment({1.0, 0.0}, a, b));
  EXPECT_GT(orientation(a, b, {1.0, 0x1p-1072}), 0.0);
}

TEST(ExactPredicates, SharedEdgeProbesAgreeWithOracle) {
  // Polygons sharing an edge: every vertex and midpoint decision on the
  // shared edge is a zero-determinant case.
  const Geometry left = Geometry::polygon({{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}});
  const Geometry right = Geometry::polygon({{4, 0}, {8, 0}, {8, 4}, {4, 4}, {4, 0}});
  EXPECT_TRUE(intersects_naive(left, right));
  EXPECT_TRUE(intersects_naive(left, Geometry::point(4, 2)));
  EXPECT_TRUE(intersects_naive(right, Geometry::point(4, 2)));
  EXPECT_FALSE(contains_naive(left, right));
}

TEST(ExactPredicates, RandomizedNearCollinearMatchesInt128Oracle) {
  // Integer grids with constructed near-collinear triples: b and c sit on a
  // shared direction from a, with c nudged by -1/0/+1 on one axis. Floats
  // represent every input exactly; the int128 oracle is ground truth.
  Rng rng(424242);
  for (int trial = 0; trial < 20000; ++trial) {
    const long long ax = static_cast<long long>(rng.next_below(1u << 26)) - (1 << 25);
    const long long ay = static_cast<long long>(rng.next_below(1u << 26)) - (1 << 25);
    const long long dx = static_cast<long long>(rng.next_below(2000)) - 1000;
    const long long dy = static_cast<long long>(rng.next_below(2000)) - 1000;
    const long long k = static_cast<long long>(rng.next_below(1u << 20));
    const long long m = static_cast<long long>(rng.next_below(1u << 20));
    const long long nudge = static_cast<long long>(rng.next_below(3)) - 1;
    const long long bx = ax + k * dx, by = ay + k * dy;
    const long long cx = ax + m * dx + nudge, cy = ay + m * dy;
    const int want = orient_oracle(ax, ay, bx, by, cx, cy);
    const double got = orientation(
        {static_cast<double>(ax), static_cast<double>(ay)},
        {static_cast<double>(bx), static_cast<double>(by)},
        {static_cast<double>(cx), static_cast<double>(cy)});
    ASSERT_EQ(sign_of(got), want)
        << "a=(" << ax << "," << ay << ") b=(" << bx << "," << by << ") c=(" << cx
        << "," << cy << ")";
  }
}

TEST(ExactPredicates, SlowpathCounterMonotonicAndBumpedByEscalations) {
  const std::uint64_t before = exact::slowpath_calls();
  // Certain fast-path case: no escalation.
  EXPECT_LT(orientation({0, 0}, {1, 0}, {0.5, -1}), 0.0);
  EXPECT_EQ(exact::slowpath_calls(), before);
  // Degenerate case: must escalate at least once.
  EXPECT_EQ(orientation({0, 0}, {1e16, 1e16}, {3, 3}), 0.0);
  EXPECT_GT(exact::slowpath_calls(), before);
}

}  // namespace
}  // namespace sjc::geom
