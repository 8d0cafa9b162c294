// Prepared (JTS-analog) engine unit cases: BatchRefiner's exact fallbacks
// over its own y-bucket edge tables and segment grid — covered point,
// covered path with strict crossing, point on linework, distance — answer
// as predicates.hpp's naive reference. The randomized equivalence property
// over every anchor/probe type pair lives in test_batch_refine.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "geom/algorithms.hpp"
#include "geom/batch_refine.hpp"
#include "geom/predicates.hpp"
#include "geom/wkt.hpp"
#include "util/rng.hpp"

namespace sjc::geom {
namespace {

Geometry big_polygon() {
  // A 64-gon of radius 100: enough edges that bucket/grid paths engage.
  Ring ring;
  for (int i = 0; i < 64; ++i) {
    const double a = i * 2.0 * 3.14159265358979 / 64;
    ring.push_back({100 * std::cos(a), 100 * std::sin(a)});
  }
  ring.push_back(ring.front());
  return Geometry::polygon(std::move(ring));
}

TEST(Prepared, CoversPointMatchesNaive) {
  const Geometry poly = big_polygon();
  const BatchRefiner refiner(poly);
  RefineStats stats;
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    const Coord p{rng.uniform(-120, 120), rng.uniform(-120, 120)};
    const Geometry probe = Geometry::point(p.x, p.y);
    EXPECT_EQ(refiner.intersects(probe, stats), point_in_polygon(p, poly.as_polygon()))
        << p.x << "," << p.y;
    EXPECT_EQ(refiner.contains(probe, stats), point_in_polygon(p, poly.as_polygon()))
        << p.x << "," << p.y;
  }
  EXPECT_EQ(stats.total(), 4000u);
}

TEST(Prepared, IntersectsLineMatchesNaive) {
  const Geometry poly = big_polygon();
  const BatchRefiner refiner(poly);
  RefineStats stats;
  Rng rng(43);
  for (int i = 0; i < 1000; ++i) {
    std::vector<Coord> pts;
    const auto n = 2 + rng.next_below(6);
    for (std::uint64_t k = 0; k < n; ++k) {
      pts.push_back({rng.uniform(-150, 150), rng.uniform(-150, 150)});
    }
    const Geometry line = Geometry::line_string(std::move(pts));
    EXPECT_EQ(refiner.intersects(line, stats), intersects_naive(poly, line)) << to_wkt(line);
    EXPECT_EQ(refiner.contains(line, stats), contains_naive(poly, line)) << to_wkt(line);
  }
  EXPECT_EQ(stats.total(), 2000u);
}

TEST(Prepared, DonutHoleSemantics) {
  const Geometry donut = Geometry::polygon(
      {{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}},
      {{{3, 3}, {7, 3}, {7, 7}, {3, 7}, {3, 3}}});
  const BatchRefiner refiner(donut);
  RefineStats stats;
  EXPECT_FALSE(refiner.intersects(Geometry::point(5, 5), stats));
  EXPECT_TRUE(refiner.intersects(Geometry::point(1, 5), stats));
  EXPECT_TRUE(refiner.intersects(Geometry::point(3, 5), stats));  // hole boundary covered
  EXPECT_FALSE(refiner.intersects(
      Geometry::polygon({{4, 4}, {6, 4}, {6, 6}, {4, 6}, {4, 4}}), stats));
  EXPECT_TRUE(refiner.contains(Geometry::line_string({{1, 1}, {2, 2}}), stats));
  EXPECT_FALSE(refiner.contains(Geometry::line_string({{1, 5}, {9, 5}}), stats));
  EXPECT_DOUBLE_EQ(refiner.distance(Geometry::point(5, 5)), 2.0);  // to the hole ring
}

TEST(Prepared, PointOnLinework) {
  const Geometry path = Geometry::line_string({{0, 0}, {10, 0}, {10, 10}});
  const BatchRefiner refiner(path);
  RefineStats stats;
  EXPECT_TRUE(refiner.intersects(Geometry::point(5, 0), stats));
  EXPECT_TRUE(refiner.intersects(Geometry::point(10, 10), stats));
  EXPECT_FALSE(refiner.intersects(Geometry::point(5, 1), stats));
  EXPECT_DOUBLE_EQ(refiner.distance(Geometry::point(5, 1)), 1.0);
}

TEST(Prepared, PointAnchor) {
  const Geometry anchor = Geometry::point(3, 3);
  const BatchRefiner refiner(anchor);
  RefineStats stats;
  EXPECT_TRUE(refiner.intersects(Geometry::line_string({{0, 0}, {6, 6}}), stats));
  EXPECT_DOUBLE_EQ(refiner.distance(Geometry::point(0, -1)), 5.0);
}

}  // namespace
}  // namespace sjc::geom
