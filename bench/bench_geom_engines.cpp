// Microbenchmark of the two geometry engines — the GEOS-vs-JTS axis the
// paper identifies as a major factor in HadoopGIS's slow refinement
// (Section II.C, citing its ref [6]: "JTS can be several times faster than
// GEOS"). The Simple engine recomputes every predicate naively
// (predicates.hpp); the Prepared engine builds the anchor's BatchRefiner
// once per iteration and refines every probe against it, as the local join
// does. The measured ratio is the structural speed gap. BM_Prepare times
// the refiner's build and teardown alone.
#include <benchmark/benchmark.h>

#include <cmath>

#include "geom/batch_refine.hpp"
#include "geom/engine.hpp"
#include "geom/predicates.hpp"
#include "util/rng.hpp"

namespace {

using namespace sjc;

geom::Geometry census_block(Rng& rng, int vertices) {
  const geom::Coord c{rng.uniform(0, 1000), rng.uniform(0, 1000)};
  geom::Ring ring;
  for (int i = 0; i < vertices; ++i) {
    const double a = i * 2.0 * 3.14159265358979 / vertices;
    const double r = rng.uniform(30.0, 60.0);
    ring.push_back({c.x + r * std::cos(a), c.y + r * std::sin(a)});
  }
  ring.push_back(ring.front());
  return geom::Geometry::polygon(std::move(ring));
}

geom::Geometry river(Rng& rng, int vertices) {
  std::vector<geom::Coord> pts;
  geom::Coord cur{rng.uniform(0, 1000), rng.uniform(0, 1000)};
  double heading = rng.uniform(0, 6.28);
  pts.push_back(cur);
  for (int i = 1; i < vertices; ++i) {
    heading += rng.uniform(-0.3, 0.3);
    cur = {cur.x + 8 * std::cos(heading), cur.y + 8 * std::sin(heading)};
    pts.push_back(cur);
  }
  return geom::Geometry::line_string(std::move(pts));
}

// Point-in-polygon refinement: one polygon probed by many points (the
// taxi x nycb access pattern; the Prepared engine's batched point pass).
void BM_PointInPolygon(benchmark::State& state, geom::EngineKind kind) {
  Rng rng(1);
  const int vertices = static_cast<int>(state.range(0));
  const geom::Geometry poly = census_block(rng, vertices);
  std::vector<geom::Coord> points;
  std::vector<geom::Geometry> probes;
  const auto& env = poly.envelope();
  for (int i = 0; i < 512; ++i) {
    points.push_back({rng.uniform(env.min_x() - 10, env.max_x() + 10),
                      rng.uniform(env.min_y() - 10, env.max_y() + 10)});
    probes.push_back(geom::Geometry::point(points.back().x, points.back().y));
  }
  std::vector<std::uint8_t> covered;
  for (auto _ : state) {
    int hits = 0;
    if (kind == geom::EngineKind::kPrepared) {
      const geom::BatchRefiner refiner(poly);
      geom::RefineStats stats;
      refiner.covers_points(points, covered, stats);
      for (const auto c : covered) hits += c;
    } else {
      for (const auto& p : probes) hits += geom::contains_naive(poly, p) ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}

// Polyline-intersection refinement: one river probed by many street
// segments (the edges x linearwater access pattern).
void BM_PolylineIntersect(benchmark::State& state, geom::EngineKind kind) {
  Rng rng(2);
  const int vertices = static_cast<int>(state.range(0));
  const geom::Geometry water = river(rng, vertices);
  std::vector<geom::Geometry> probes;
  const auto& env = water.envelope();
  for (int i = 0; i < 256; ++i) {
    const double x = rng.uniform(env.min_x() - 5, env.max_x() + 5);
    const double y = rng.uniform(env.min_y() - 5, env.max_y() + 5);
    probes.push_back(geom::Geometry::line_string(
        {{x, y}, {x + rng.uniform(-15, 15), y + rng.uniform(-15, 15)},
         {x + rng.uniform(-15, 15), y + rng.uniform(-15, 15)}}));
  }
  for (auto _ : state) {
    int hits = 0;
    if (kind == geom::EngineKind::kPrepared) {
      const geom::BatchRefiner refiner(water);
      geom::RefineStats stats;
      for (const auto& p : probes) hits += refiner.intersects(p, stats) ? 1 : 0;
    } else {
      for (const auto& p : probes) hits += geom::intersects_naive(water, p) ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}

// Refiner build and teardown: what one PreparedCache miss costs to build,
// and one cached entry to free (rivers as in edges x linearwater, census
// blocks as in taxi x nycb).
void BM_Prepare(benchmark::State& state, bool areal) {
  Rng rng(3);
  const int vertices = static_cast<int>(state.range(0));
  const geom::Geometry anchor = areal ? census_block(rng, vertices) : river(rng, vertices);
  for (auto _ : state) {
    const geom::BatchRefiner refiner(anchor);
    benchmark::DoNotOptimize(&refiner);
    benchmark::ClobberMemory();
  }
}

BENCHMARK_CAPTURE(BM_PointInPolygon, simple_geos_analog, geom::EngineKind::kSimple)
    ->Arg(16)->Arg(64)->Arg(256);
BENCHMARK_CAPTURE(BM_PointInPolygon, prepared_jts_analog, geom::EngineKind::kPrepared)
    ->Arg(16)->Arg(64)->Arg(256);
BENCHMARK_CAPTURE(BM_PolylineIntersect, simple_geos_analog, geom::EngineKind::kSimple)
    ->Arg(16)->Arg(64)->Arg(256);
BENCHMARK_CAPTURE(BM_PolylineIntersect, prepared_jts_analog, geom::EngineKind::kPrepared)
    ->Arg(16)->Arg(64)->Arg(256);
BENCHMARK_CAPTURE(BM_Prepare, river, false)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK_CAPTURE(BM_Prepare, census_block, true)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
