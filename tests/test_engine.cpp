// Engine-axis tests: both engines' one-shot evaluate_predicate answers as
// predicates.hpp's naive reference, on both sides of the Prepared engine's
// 32-coordinate prepare threshold.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/local_join.hpp"
#include "geom/engine.hpp"
#include "geom/predicates.hpp"
#include "util/rng.hpp"

namespace sjc::geom {
namespace {

using core::JoinPredicate;
using core::evaluate_predicate;

constexpr EngineKind kEngines[] = {EngineKind::kSimple, EngineKind::kPrepared};

Geometry census_blockish(Rng& rng, int n) {
  const Coord c{rng.uniform(-40, 40), rng.uniform(-40, 40)};
  Ring ring;
  for (int i = 0; i < n; ++i) {
    const double a = i * 2.0 * 3.14159265358979 / n;
    const double r = rng.uniform(4.0, 9.0);
    ring.push_back({c.x + r * std::cos(a), c.y + r * std::sin(a)});
  }
  ring.push_back(ring.front());
  return Geometry::polygon(std::move(ring));
}

Geometry random_walk(Rng& rng, int n) {
  std::vector<Coord> pts;
  Coord cur{rng.uniform(-50, 50), rng.uniform(-50, 50)};
  pts.push_back(cur);
  for (int i = 1; i < n; ++i) {
    cur = {cur.x + rng.uniform(-3, 3), cur.y + rng.uniform(-3, 3)};
    pts.push_back(cur);
  }
  return Geometry::line_string(std::move(pts));
}

TEST(Engine, NamesMentionTheAnalogs) {
  EXPECT_NE(std::string(engine_kind_name(EngineKind::kSimple)).find("geos"),
            std::string::npos);
  EXPECT_NE(std::string(engine_kind_name(EngineKind::kPrepared)).find("jts"),
            std::string::npos);
}

TEST(Engine, EnginesAgreeOnRandomPredicates) {
  // 16-vertex polygons: below the prepare threshold, so both engines call
  // the naive functions.
  Rng rng(314);
  for (int trial = 0; trial < 500; ++trial) {
    const Geometry poly = census_blockish(rng, 16);
    const Geometry p = Geometry::point(rng.uniform(-50, 50), rng.uniform(-50, 50));
    for (const EngineKind engine : kEngines) {
      EXPECT_EQ(evaluate_predicate(engine, JoinPredicate::kIntersects, 0, poly, p),
                intersects_naive(poly, p));
      EXPECT_EQ(evaluate_predicate(engine, JoinPredicate::kWithin, 0, p, poly),
                contains_naive(poly, p));
      EXPECT_EQ(evaluate_predicate(engine, JoinPredicate::kWithinDistance, 2.0, p, poly),
                distance_naive(p, poly) <= 2.0);
    }
  }
}

TEST(Engine, PreparedOneShotMatchesNaiveOnLargeAnchors) {
  // Anchors of at least 32 coordinates: the Prepared engine builds a
  // BatchRefiner for them. `intersects` anchors on the left geometry,
  // `within` on the right one.
  Rng rng(2718);
  for (int trial = 0; trial < 200; ++trial) {
    const Geometry poly = census_blockish(rng, 40);
    const Geometry line = random_walk(rng, 48);
    ASSERT_GE(poly.num_coords(), 32u);
    ASSERT_GE(line.num_coords(), 32u);
    const Geometry probes[] = {
        Geometry::point(rng.uniform(-50, 50), rng.uniform(-50, 50)),
        random_walk(rng, 4),
        census_blockish(rng, 8),
    };
    for (const Geometry& probe : probes) {
      for (const EngineKind engine : kEngines) {
        EXPECT_EQ(evaluate_predicate(engine, JoinPredicate::kIntersects, 0, poly, probe),
                  intersects_naive(poly, probe));
        EXPECT_EQ(evaluate_predicate(engine, JoinPredicate::kIntersects, 0, line, probe),
                  intersects_naive(line, probe));
        EXPECT_EQ(evaluate_predicate(engine, JoinPredicate::kWithin, 0, probe, poly),
                  contains_naive(poly, probe));
      }
    }
  }
}

TEST(Engine, WithinDistanceIsInclusive) {
  const Geometry poly = Geometry::polygon({{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}});
  for (const EngineKind engine : kEngines) {
    const auto within = [&](const Geometry& probe, double d) {
      return evaluate_predicate(engine, JoinPredicate::kWithinDistance, d, probe, poly);
    };
    EXPECT_TRUE(within(Geometry::point(7, 2), 3.0));
    EXPECT_FALSE(within(Geometry::point(7, 2), 2.9));
    EXPECT_FALSE(within(Geometry::point(1000, 1000), 10.0));
  }
}

}  // namespace
}  // namespace sjc::geom
