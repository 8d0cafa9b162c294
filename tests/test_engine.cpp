// Engine-axis tests: the engines' names, and the within-distance bound,
// which both engines' refinement in the shared local join must treat as
// inclusive.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "core/local_join.hpp"
#include "geom/engine.hpp"

namespace sjc::geom {
namespace {

constexpr EngineKind kEngines[] = {EngineKind::kSimple, EngineKind::kPrepared};

TEST(Engine, NamesMentionTheAnalogs) {
  EXPECT_NE(std::string(engine_kind_name(EngineKind::kSimple)).find("geos"),
            std::string::npos);
  EXPECT_NE(std::string(engine_kind_name(EngineKind::kPrepared)).find("jts"),
            std::string::npos);
}

TEST(Engine, WithinDistanceIsInclusive) {
  const std::vector<Feature> right = {
      {0, Geometry::polygon({{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}})}};
  for (const EngineKind engine : kEngines) {
    const auto within = [&](const Geometry& probe, double d) {
      const std::vector<Feature> left = {{0, probe}};
      PreparedCache cache;
      core::LocalJoinSpec spec;
      spec.engine = engine;
      spec.predicate = core::JoinPredicate::kWithinDistance;
      spec.within_distance = d;
      spec.prepared_cache = &cache;
      core::LocalJoinScratch scratch;
      std::vector<core::JoinPair> out;
      core::run_local_join(std::span<const Feature>(left), std::span<const Feature>(right),
                           spec, core::AcceptAllPairs{}, scratch, out);
      return !out.empty();
    };
    // (7, 2) lies exactly 3 from the polygon's right edge.
    EXPECT_TRUE(within(Geometry::point(7, 2), 3.0));
    EXPECT_FALSE(within(Geometry::point(7, 2), 2.9));
    EXPECT_FALSE(within(Geometry::point(1000, 1000), 10.0));
  }
}

}  // namespace
}  // namespace sjc::geom
