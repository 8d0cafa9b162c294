// Cross-dispatch equivalence for the SIMD refinement kernels: every path
// available on this host (scalar always; AVX2 when compiled + CPU
// supported) must produce bit-identical accept/reject vectors AND identical
// RefineStats counter sums to the scalar path on randomized geometry. Also
// covers the dispatch plumbing itself: SJC_SIMD env override, forced-path
// API, unavailable-path rejection.
//
// The suite runs under ASan/UBSan in CI (the sanitize leg runs all tests),
// which is what makes the bounds-checked expansion arithmetic in
// exact_predicates.cpp load-bearing: classic Shewchuk code reads one past
// the end of its expansion arrays and would trip here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "geom/batch_refine.hpp"
#include "geom/simd_dispatch.hpp"
#include "util/rng.hpp"

namespace sjc::geom {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Generator shapes shared with test_batch_refine: star polygon, donut,
// sliver, random-walk line, point. Probes intentionally include boundary
// vertices and edge midpoints so the exact predicate escalates on real
// collinear cases, exercising the per-lane escalation paths.
Geometry star_polygon(Rng& rng) {
  const Coord c{rng.uniform(-40, 40), rng.uniform(-40, 40)};
  const auto n = 3 + rng.next_below(40);
  std::vector<double> angles;
  for (std::uint64_t i = 0; i < n; ++i) angles.push_back(rng.uniform(0, 6.2831));
  std::sort(angles.begin(), angles.end());
  Ring ring;
  for (const double a : angles) {
    const double r = rng.uniform(5.0, 35.0);
    ring.push_back({c.x + r * std::cos(a), c.y + r * std::sin(a)});
  }
  ring.push_back(ring.front());
  return Geometry::polygon(std::move(ring));
}

Geometry donut(Rng& rng) {
  const int n = 8 + static_cast<int>(rng.next_below(12));
  const double outer = rng.uniform(10, 20);
  const double inner = rng.uniform(1, 6);
  const Coord c{rng.uniform(-30, 30), rng.uniform(-30, 30)};
  Ring shell;
  Ring hole;
  for (int i = 0; i < n; ++i) {
    const double a = i * 2.0 * kPi / n;
    shell.push_back({c.x + outer * std::cos(a), c.y + outer * std::sin(a)});
    hole.push_back({c.x + inner * std::cos(a), c.y + inner * std::sin(a)});
  }
  shell.push_back(shell.front());
  hole.push_back(hole.front());
  return Geometry::polygon(std::move(shell), {std::move(hole)});
}

Geometry sliver(Rng& rng) {
  const double x0 = rng.uniform(-50, 50);
  const double y0 = rng.uniform(-50, 50);
  const double len = rng.uniform(5, 30);
  const double h = 1e-8 * rng.uniform(0.5, 2.0);
  Ring ring{{x0, y0}, {x0 + len, y0}, {x0 + len, y0 + h}, {x0, y0 + h}, {x0, y0}};
  return Geometry::polygon(std::move(ring));
}

Geometry walk_line(Rng& rng) {
  std::vector<Coord> pts;
  const auto n = 2 + rng.next_below(24);
  Coord cur{rng.uniform(-60, 60), rng.uniform(-60, 60)};
  pts.push_back(cur);
  for (std::uint64_t i = 1; i < n; ++i) {
    cur = {cur.x + rng.uniform(-12, 12), cur.y + rng.uniform(-12, 12)};
    pts.push_back(cur);
  }
  return Geometry::line_string(std::move(pts));
}

Geometry random_anchor(Rng& rng, std::uint64_t trial) {
  switch (trial % 4) {
    case 0:
      return star_polygon(rng);
    case 1:
      return donut(rng);
    case 2:
      return sliver(rng);
    default:
      return walk_line(rng);
  }
}

std::vector<Geometry> random_probes(Rng& rng, const Geometry& anchor) {
  std::vector<Geometry> probes;
  for (int i = 0; i < 24; ++i) {
    probes.push_back(Geometry::point(rng.uniform(-60, 60), rng.uniform(-60, 60)));
  }
  for (int i = 0; i < 6; ++i) probes.push_back(walk_line(rng));
  for (int i = 0; i < 4; ++i) probes.push_back(star_polygon(rng));
  // Boundary-exact probes: anchor vertices and edge midpoints force
  // zero-determinant orientation tests, i.e. genuine escalations.
  if (anchor.type() == GeomType::kPolygon) {
    const Ring& shell = anchor.as_polygon().shell;
    for (std::size_t i = 0; i + 1 < shell.size() && i < 12; ++i) {
      probes.push_back(Geometry::point(shell[i].x, shell[i].y));
      probes.push_back(Geometry::point((shell[i].x + shell[i + 1].x) / 2,
                                       (shell[i].y + shell[i + 1].y) / 2));
    }
  }
  return probes;
}

/// One path's complete answer sheet for one anchor/probe set.
struct PathAnswers {
  std::vector<std::uint8_t> intersects, contains, within;
  std::vector<std::uint8_t> covered;  // batched covers_points, point probes
  RefineStats stats;
};

PathAnswers evaluate(const Geometry& anchor, const std::vector<Geometry>& probes) {
  PathAnswers out;
  const BatchRefiner refiner(anchor);
  std::vector<Coord> pts;
  for (const auto& probe : probes) {
    out.intersects.push_back(refiner.intersects(probe, out.stats) ? 1 : 0);
    if (anchor.is_areal()) {
      out.contains.push_back(refiner.contains(probe, out.stats) ? 1 : 0);
    }
    out.within.push_back(refiner.within_distance(probe, 2.5, out.stats) ? 1 : 0);
    if (probe.type() == GeomType::kPoint) pts.push_back(probe.as_point());
  }
  if (anchor.is_areal() && !pts.empty()) {
    refiner.covers_points(pts, out.covered, out.stats);
  }
  return out;
}

TEST(SimdDispatch, AllPathsBitIdenticalToScalarOnRandomGeometry) {
  const auto paths = simd::available_paths();
  ASSERT_FALSE(paths.empty());
  ASSERT_EQ(paths.front(), simd::Path::kScalar);
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    Rng grng(9100 + trial);
    const Geometry anchor = random_anchor(grng, trial);
    const std::vector<Geometry> probes = random_probes(grng, anchor);

    ASSERT_TRUE(simd::force_path(simd::Path::kScalar));
    const PathAnswers baseline = evaluate(anchor, probes);
    // The exact-test split invariant holds on the scalar reference.
    EXPECT_EQ(baseline.stats.exact_fastpath + baseline.stats.exact_slowpath,
              baseline.stats.exact_tests);

    for (const auto path : paths) {
      if (path == simd::Path::kScalar) continue;
      ASSERT_TRUE(simd::force_path(path));
      const PathAnswers got = evaluate(anchor, probes);
      const char* pn = simd::path_name(path);
      EXPECT_EQ(got.intersects, baseline.intersects) << pn << " trial " << trial;
      EXPECT_EQ(got.contains, baseline.contains) << pn << " trial " << trial;
      EXPECT_EQ(got.within, baseline.within) << pn << " trial " << trial;
      EXPECT_EQ(got.covered, baseline.covered) << pn << " trial " << trial;
      // Counter sums bit-identical: same early-out decisions AND the same
      // escalation set (fastpath/slowpath classification matches per test).
      EXPECT_EQ(got.stats.exact_tests, baseline.stats.exact_tests) << pn;
      EXPECT_EQ(got.stats.early_accepts, baseline.stats.early_accepts) << pn;
      EXPECT_EQ(got.stats.early_rejects, baseline.stats.early_rejects) << pn;
      EXPECT_EQ(got.stats.exact_fastpath, baseline.stats.exact_fastpath) << pn;
      EXPECT_EQ(got.stats.exact_slowpath, baseline.stats.exact_slowpath) << pn;
    }
  }
  simd::reset_from_env();
}

TEST(SimdDispatch, ScalarKernelsAlwaysPresent) {
  ASSERT_NE(simd::kernels_for(simd::Path::kScalar), nullptr);
  const auto paths = simd::available_paths();
  for (const auto path : paths) {
    EXPECT_NE(simd::kernels_for(path), nullptr) << simd::path_name(path);
  }
}

TEST(SimdDispatch, UnavailablePathIsRejected) {
  const auto paths = simd::available_paths();
  const auto available = [&paths](simd::Path p) {
    return std::find(paths.begin(), paths.end(), p) != paths.end();
  };
  const simd::Path before = simd::active_path();
  // A value past the last path is never available, so the rejected force
  // is exercised on every host, AVX2 or not.
  const simd::Path unknown = static_cast<simd::Path>(2);
  ASSERT_FALSE(available(unknown));
  for (const simd::Path p : {simd::Path::kAvx2, unknown}) {
    if (available(p)) {
      EXPECT_TRUE(simd::force_path(p));
      simd::force_path(before);
    } else {
      EXPECT_EQ(simd::kernels_for(p), nullptr);
      EXPECT_FALSE(simd::force_path(p));
      EXPECT_EQ(simd::active_path(), before) << "failed force must not switch";
    }
  }
  simd::reset_from_env();
}

TEST(SimdDispatch, EnvOverrideControlsStartupPolicy) {
  // reset_from_env re-reads SJC_SIMD, so the startup policy is testable
  // in-process.
  ASSERT_EQ(setenv("SJC_SIMD", "scalar", 1), 0);
  simd::reset_from_env();
  EXPECT_EQ(simd::active_path(), simd::Path::kScalar);
  EXPECT_STREQ(simd::active_path_name(), "scalar");

  // Unknown value: warning + fall back to detection; the result must be one
  // of the available paths.
  ASSERT_EQ(setenv("SJC_SIMD", "avx512-vnni-please", 1), 0);
  simd::reset_from_env();
  const auto paths = simd::available_paths();
  EXPECT_NE(std::find(paths.begin(), paths.end(), simd::active_path()), paths.end());

  // auto = best available = what plain detection picks.
  ASSERT_EQ(setenv("SJC_SIMD", "auto", 1), 0);
  simd::reset_from_env();
  const simd::Path detected = simd::active_path();
  ASSERT_EQ(unsetenv("SJC_SIMD"), 0);
  simd::reset_from_env();
  EXPECT_EQ(simd::active_path(), detected);

  // Requesting each compiled-in path by name activates it.
  for (const auto path : paths) {
    ASSERT_EQ(setenv("SJC_SIMD", simd::path_name(path), 1), 0);
    simd::reset_from_env();
    EXPECT_EQ(simd::active_path(), path) << simd::path_name(path);
  }
  ASSERT_EQ(unsetenv("SJC_SIMD"), 0);
  simd::reset_from_env();
}

}  // namespace
}  // namespace sjc::geom
