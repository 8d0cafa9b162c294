// BatchRefiner tests: unit cases plus the central property — the batched
// SoA refiner (the Prepared engine) answers every predicate exactly as
// predicates.hpp's naive reference (the Simple engine), and distances to
// within 1e-9, on randomized geometry — including polygons with holes,
// multipolygons, boundary-touch probes and degenerate slivers — while
// accounting every call to exactly one of
// {exact_tests, early_accepts, early_rejects}. This is what licenses using
// different engines in different systems while still cross-validating join
// outputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "geom/batch_refine.hpp"
#include "geom/predicates.hpp"
#include "geom/wkt.hpp"
#include "util/rng.hpp"

namespace sjc::geom {
namespace {

constexpr double kPi = 3.14159265358979323846;

// 0 point, 1 random-walk line, 2 star polygon, 3 multiline, 4 multipolygon.
Geometry random_geometry(Rng& rng, int kind) {
  switch (kind) {
    case 0:
      return Geometry::point(rng.uniform(-60, 60), rng.uniform(-60, 60));
    case 1: {
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
    case 2: {
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
    case 3: {
      std::vector<LineString> parts;
      const auto k = 1 + rng.next_below(3);
      for (std::uint64_t p = 0; p < k; ++p) {
        parts.push_back(LineString{{{rng.uniform(-60, 60), rng.uniform(-60, 60)},
                                    {rng.uniform(-60, 60), rng.uniform(-60, 60)},
                                    {rng.uniform(-60, 60), rng.uniform(-60, 60)}}});
      }
      return Geometry::multi_line_string(std::move(parts));
    }
    default: {
      std::vector<Polygon> parts;
      const auto k = 1 + rng.next_below(3);
      for (std::uint64_t p = 0; p < k; ++p) {
        parts.push_back(random_geometry(rng, 2).as_polygon());
      }
      return Geometry::multi_polygon(std::move(parts));
    }
  }
}

// Regular n-gon donut: hole radius < R*cos(pi/n), so the hole ring stays
// strictly inside the shell.
Geometry random_donut(Rng& rng) {
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

// Axis-aligned quad of height ~1e-8: the inner-rect heuristic finds nothing
// and every bucket/grid structure degenerates to a near-line.
Geometry random_sliver(Rng& rng) {
  const double x0 = rng.uniform(-50, 50);
  const double y0 = rng.uniform(-50, 50);
  const double len = rng.uniform(5, 30);
  const double h = 1e-8 * rng.uniform(0.5, 2.0);
  Ring ring{{x0, y0}, {x0 + len, y0}, {x0 + len, y0 + h}, {x0, y0 + h}, {x0, y0}};
  return Geometry::polygon(std::move(ring));
}

/// Shell vertices and edge midpoints of every areal part: exact
/// boundary-touch probe locations.
std::vector<Coord> boundary_probes(const Geometry& g) {
  std::vector<Coord> out;
  const auto add_ring = [&out](const Ring& ring) {
    for (std::size_t i = 0; i + 1 < ring.size(); ++i) {
      out.push_back(ring[i]);
      out.push_back({(ring[i].x + ring[i + 1].x) / 2, (ring[i].y + ring[i + 1].y) / 2});
    }
  };
  if (g.type() == GeomType::kPolygon) {
    add_ring(g.as_polygon().shell);
    for (const auto& h : g.as_polygon().holes) add_ring(h);
  } else if (g.type() == GeomType::kMultiPolygon) {
    for (const auto& part : g.as_multi_polygon().parts) {
      add_ring(part.shell);
      for (const auto& h : part.holes) add_ring(h);
    }
  }
  return out;
}

struct TypePair {
  int anchor;
  int probe;
};

class BatchRefineEquivalence : public ::testing::TestWithParam<TypePair> {};

TEST_P(BatchRefineEquivalence, IntersectsMatchesNaive) {
  Rng rng(4100 + GetParam().anchor * 10 + GetParam().probe);
  RefineStats stats;
  const int trials = 250;
  for (int trial = 0; trial < trials; ++trial) {
    const Geometry anchor = random_geometry(rng, GetParam().anchor);
    const Geometry probe = random_geometry(rng, GetParam().probe);
    const BatchRefiner refiner(anchor);
    EXPECT_EQ(refiner.intersects(probe, stats), intersects_naive(anchor, probe))
        << "anchor=" << to_wkt(anchor) << "\nprobe=" << to_wkt(probe);
  }
  // Every call lands in exactly one bucket.
  EXPECT_EQ(stats.total(), static_cast<std::uint64_t>(trials));
}

TEST_P(BatchRefineEquivalence, ContainsMatchesNaive) {
  const int anchor_kind = GetParam().anchor;
  if (anchor_kind != 2 && anchor_kind != 4) {
    GTEST_SKIP() << "contains requires areal anchor";
  }
  Rng rng(5200 + anchor_kind * 10 + GetParam().probe);
  RefineStats stats;
  const int trials = 250;
  for (int trial = 0; trial < trials; ++trial) {
    const Geometry anchor = random_geometry(rng, anchor_kind);
    const Geometry probe = random_geometry(rng, GetParam().probe);
    const BatchRefiner refiner(anchor);
    EXPECT_EQ(refiner.contains(probe, stats), contains_naive(anchor, probe))
        << "anchor=" << to_wkt(anchor) << "\nprobe=" << to_wkt(probe);
  }
  EXPECT_EQ(stats.total(), static_cast<std::uint64_t>(trials));
}

TEST_P(BatchRefineEquivalence, DistanceMatchesNaive) {
  Rng rng(2600 + GetParam().anchor * 10 + GetParam().probe);
  for (int trial = 0; trial < 150; ++trial) {
    const Geometry anchor = random_geometry(rng, GetParam().anchor);
    const Geometry probe = random_geometry(rng, GetParam().probe);
    const BatchRefiner refiner(anchor);
    const double expected = distance_naive(anchor, probe);
    const double actual = refiner.distance(probe);
    EXPECT_NEAR(actual, expected, 1e-9 * std::max(1.0, expected))
        << "anchor=" << to_wkt(anchor) << "\nprobe=" << to_wkt(probe);
  }
}

TEST_P(BatchRefineEquivalence, WithinDistanceMatchesNaive) {
  Rng rng(6300 + GetParam().anchor * 10 + GetParam().probe);
  RefineStats stats;
  const int trials = 120;
  for (int trial = 0; trial < trials; ++trial) {
    const Geometry anchor = random_geometry(rng, GetParam().anchor);
    const Geometry probe = random_geometry(rng, GetParam().probe);
    const double d = rng.uniform(0, 40);
    const BatchRefiner refiner(anchor);
    EXPECT_EQ(refiner.within_distance(probe, d, stats), distance_naive(anchor, probe) <= d)
        << "anchor=" << to_wkt(anchor) << "\nprobe=" << to_wkt(probe) << "\nd=" << d;
  }
  EXPECT_EQ(stats.total(), static_cast<std::uint64_t>(trials));
}

std::vector<TypePair> all_pairs() {
  std::vector<TypePair> out;
  for (int a = 0; a < 5; ++a) {
    for (int p = 0; p < 5; ++p) out.push_back({a, p});
  }
  return out;
}

std::string type_pair_name(const TypePair& pair) {
  static const char* kNames[] = {"pt", "line", "poly", "mline", "mpoly"};
  return std::string(kNames[pair.anchor]) + "_vs_" + kNames[pair.probe];
}

INSTANTIATE_TEST_SUITE_P(AllTypePairs, BatchRefineEquivalence,
                         ::testing::ValuesIn(all_pairs()),
                         [](const auto& info) { return type_pair_name(info.param); });

// ---------------------------------------------------------------------------
// Holes, boundary touches, slivers
// ---------------------------------------------------------------------------

TEST(BatchRefine, DonutMatchesNaiveIncludingBoundaryTouch) {
  Rng rng(7100);
  RefineStats stats;
  std::uint64_t calls = 0;
  for (int trial = 0; trial < 60; ++trial) {
    // Alternate single donuts and two-donut multipolygons.
    Geometry anchor;
    if (trial % 2 == 0) {
      anchor = random_donut(rng);
    } else {
      std::vector<Polygon> parts;
      parts.push_back(random_donut(rng).as_polygon());
      parts.push_back(random_donut(rng).as_polygon());
      anchor = Geometry::multi_polygon(std::move(parts));
    }
    const BatchRefiner refiner(anchor);
    // Exact boundary touches: shell/hole vertices and edge midpoints probe
    // as points — covered (boundary counts) in both implementations.
    for (const Coord& p : boundary_probes(anchor)) {
      const Geometry probe = Geometry::point(p.x, p.y);
      ++calls;
      EXPECT_EQ(refiner.intersects(probe, stats), intersects_naive(anchor, probe))
          << "anchor=" << to_wkt(anchor) << "\nboundary point " << p.x << "," << p.y;
      ++calls;
      EXPECT_EQ(refiner.contains(probe, stats), contains_naive(anchor, probe))
          << "anchor=" << to_wkt(anchor) << "\nboundary point " << p.x << "," << p.y;
    }
    // Random probes around the donut, including deep inside the hole.
    for (int i = 0; i < 40; ++i) {
      const Geometry probe = random_geometry(rng, static_cast<int>(rng.next_below(5)));
      ++calls;
      EXPECT_EQ(refiner.intersects(probe, stats), intersects_naive(anchor, probe))
          << "anchor=" << to_wkt(anchor) << "\nprobe=" << to_wkt(probe);
    }
  }
  EXPECT_EQ(stats.total(), calls);
}

TEST(BatchRefine, SharedEdgeProbes) {
  // A probe polygon sharing a full edge with the anchor: touches without
  // interior overlap, the classic boundary-case disagreement source.
  const Geometry anchor =
      Geometry::polygon({{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}});
  const BatchRefiner refiner(anchor);
  RefineStats stats;
  const Geometry neighbor =
      Geometry::polygon({{10, 0}, {20, 0}, {20, 10}, {10, 10}, {10, 0}});
  EXPECT_EQ(refiner.intersects(neighbor, stats), intersects_naive(anchor, neighbor));
  EXPECT_TRUE(refiner.intersects(neighbor, stats));
  const Geometry edge_line = Geometry::line_string({{10, 2}, {10, 8}});
  EXPECT_EQ(refiner.intersects(edge_line, stats), intersects_naive(anchor, edge_line));
  EXPECT_EQ(refiner.contains(edge_line, stats), contains_naive(anchor, edge_line));
}

TEST(BatchRefine, SliverPolygonsMatchNaive) {
  Rng rng(7300);
  RefineStats stats;
  std::uint64_t calls = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const Geometry anchor = random_sliver(rng);
    const BatchRefiner refiner(anchor);
    const Envelope& env = anchor.envelope();
    // Probes hugging the sliver: on it, just off it, and crossing it.
    const double mx = (env.min_x() + env.max_x()) / 2;
    const Geometry probes[] = {
        Geometry::point(mx, env.min_y()),
        Geometry::point(mx, (env.min_y() + env.max_y()) / 2),
        Geometry::point(mx, env.max_y() + 2e-8),
        Geometry::line_string({{mx, env.min_y() - 1}, {mx, env.max_y() + 1}}),
        Geometry::line_string({{env.min_x() - 1, env.max_y() + 1e-7},
                               {env.max_x() + 1, env.max_y() + 1e-7}}),
    };
    for (const Geometry& probe : probes) {
      ++calls;
      EXPECT_EQ(refiner.intersects(probe, stats), intersects_naive(anchor, probe))
          << "anchor=" << to_wkt(anchor) << "\nprobe=" << to_wkt(probe);
    }
  }
  EXPECT_EQ(stats.total(), calls);
}

// ---------------------------------------------------------------------------
// Batched point pass and approximation soundness
// ---------------------------------------------------------------------------

TEST(BatchRefine, CoversPointsMatchesPerPointNaive) {
  Rng rng(7500);
  for (int trial = 0; trial < 40; ++trial) {
    const int kind = (trial % 3 == 0) ? 4 : 2;
    Geometry anchor =
        (trial % 5 == 0) ? random_donut(rng) : random_geometry(rng, kind);
    const BatchRefiner refiner(anchor);
    ASSERT_TRUE(refiner.has_areal());
    std::vector<Coord> pts;
    for (int i = 0; i < 120; ++i) {
      pts.push_back({rng.uniform(-70, 70), rng.uniform(-70, 70)});
    }
    for (const Coord& p : boundary_probes(anchor)) pts.push_back(p);
    std::vector<std::uint8_t> covered;
    RefineStats stats;
    refiner.covers_points(pts, covered, stats);
    ASSERT_EQ(covered.size(), pts.size());
    EXPECT_EQ(stats.total(), pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const Geometry probe = Geometry::point(pts[i].x, pts[i].y);
      EXPECT_EQ(covered[i] != 0, intersects_naive(anchor, probe))
          << "anchor=" << to_wkt(anchor) << "\npoint " << pts[i].x << "," << pts[i].y;
    }
  }
}

TEST(BatchRefine, InnerRectIsSound) {
  // Every point of a verified inscribed rectangle must be covered by the
  // anchor — the early-accept path rests on exactly this.
  Rng rng(7700);
  int verified_rects = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Geometry anchor =
        (trial % 4 == 0) ? random_donut(rng) : random_geometry(rng, trial % 2 == 0 ? 2 : 4);
    const BatchRefiner refiner(anchor);
    for (std::size_t part = 0; part < refiner.part_count(); ++part) {
      const Envelope& rect = refiner.inner_rect(part);
      if (rect.empty()) continue;
      ++verified_rects;
      for (int i = 0; i < 40; ++i) {
        const Coord p{rng.uniform(rect.min_x(), rect.max_x()),
                      rng.uniform(rect.min_y(), rect.max_y())};
        EXPECT_TRUE(intersects_naive(anchor, Geometry::point(p.x, p.y)))
            << "anchor=" << to_wkt(anchor) << "\ninner-rect point " << p.x << "," << p.y;
      }
    }
  }
  // The star/donut generators produce fat polygons; the heuristic must
  // prove rectangles for a healthy share of them or early accepts are dead.
  EXPECT_GT(verified_rects, 20);
}

TEST(BatchRefine, PointAnchorFallsBackToExact) {
  const Geometry anchor = Geometry::point(3, 3);
  const BatchRefiner refiner(anchor);
  RefineStats stats;
  EXPECT_TRUE(refiner.intersects(Geometry::point(3, 3), stats));
  EXPECT_FALSE(refiner.intersects(Geometry::point(3, 4), stats));
  EXPECT_TRUE(refiner.intersects(Geometry::line_string({{0, 0}, {6, 6}}), stats));
  // Point anchors have no approximations: everything is an exact test.
  EXPECT_EQ(stats.exact_tests, 3u);
  EXPECT_EQ(stats.early_accepts, 0u);
  EXPECT_EQ(stats.early_rejects, 0u);
}

TEST(BatchRefine, HoleOutsideShellIsProbed) {
  // Invalid but accepted input: a [0,10]^2 shell whose hexagonal hole sits
  // at (50,50). The dense path's envelope reaches the shell's, but the path
  // itself only crosses the hole ring, so a probe envelope that ignored the
  // hole would let the chunk envelopes reject the pair.
  const Ring hole{{53, 50}, {51.5, 52.5}, {48.5, 52.5}, {47, 50},
                  {48.5, 47.5}, {51.5, 47.5}, {53, 50}};
  const Geometry odd =
      Geometry::polygon({{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}}, {hole});
  EXPECT_EQ(odd.envelope(), Envelope(0, 0, 53, 52.5));
  std::vector<Coord> path;
  for (int x = 5; x <= 50; ++x) path.push_back({static_cast<double>(x), 11});
  for (int y = 12; y <= 50; ++y) path.push_back({50, static_cast<double>(y)});
  for (int x = 51; x <= 60; ++x) path.push_back({static_cast<double>(x), 50});
  for (int y = 49; y >= 5; --y) path.push_back({60, static_cast<double>(y)});
  const Geometry river = Geometry::line_string(std::move(path));
  ASSERT_TRUE(intersects_naive(river, odd));

  RefineStats stats;
  const BatchRefiner by_path(river);
  EXPECT_EQ(by_path.intersects(odd, stats), intersects_naive(river, odd));
  EXPECT_EQ(by_path.distance(odd), 0.0);
  const BatchRefiner by_polygon(odd);
  EXPECT_EQ(by_polygon.intersects(river, stats), intersects_naive(odd, river));
  const Geometry multi = Geometry::multi_polygon({odd.as_polygon()});
  EXPECT_EQ(multi.envelope(), odd.envelope());
  EXPECT_EQ(by_path.intersects(multi, stats), intersects_naive(river, multi));
}

// ---------------------------------------------------------------------------
// Exact-test fast/slow split on near-degenerate pairs
// ---------------------------------------------------------------------------

// Star polygon built without trigonometry, so its coordinates (and the
// escalation counts pinned below) do not depend on the libm: vertices at
// L-infinity radius [r_lo, r_hi) around c, sorted by a pseudo-angle that is
// monotone in the true angle.
Ring star_ring(Rng& rng, const Coord& c, int n, double r_lo, double r_hi) {
  std::vector<std::pair<double, Coord>> vertices;
  for (int i = 0; i < n; ++i) {
    const double dx = rng.uniform(-1, 1);
    const double dy = rng.uniform(-1, 1);
    const double l1 = std::abs(dx) + std::abs(dy);
    const double t = dy / l1;
    const double key = dx >= 0 ? (dy >= 0 ? t : 4 + t) : 2 - t;
    const double scale = rng.uniform(r_lo, r_hi) / std::max(std::abs(dx), std::abs(dy));
    vertices.push_back({key, {c.x + dx * scale, c.y + dy * scale}});
  }
  std::sort(vertices.begin(), vertices.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Ring ring;
  for (const auto& v : vertices) ring.push_back(v.second);
  ring.push_back(ring.front());
  return ring;
}

// 0 random-walk line, 1 star polygon, 2 two-part multipolygon, 3 star with
// a square hole.
Geometry degenerate_anchor(Rng& rng, int kind) {
  const Coord c{rng.uniform(-40, 40), rng.uniform(-40, 40)};
  switch (kind) {
    case 0: {
      std::vector<Coord> pts{c};
      const auto n = 3 + rng.next_below(20);
      for (std::uint64_t i = 1; i < n; ++i) {
        pts.push_back({pts.back().x + rng.uniform(-12, 12),
                       pts.back().y + rng.uniform(-12, 12)});
      }
      return Geometry::line_string(std::move(pts));
    }
    case 1:
      return Geometry::polygon(star_ring(rng, c, 3 + static_cast<int>(rng.next_below(30)),
                                         8, 30));
    case 2:
      return Geometry::multi_polygon(
          {Polygon{star_ring(rng, c, 12, 4, 12), {}},
           Polygon{star_ring(rng, {c.x + 30, c.y}, 9, 4, 12), {}}});
    default:
      return Geometry::polygon(star_ring(rng, c, 16, 12, 20),
                               {{{c.x - 4, c.y - 4}, {c.x + 4, c.y - 4}, {c.x + 4, c.y + 4},
                                 {c.x - 4, c.y + 4}, {c.x - 4, c.y - 4}}});
  }
}

/// Every segment of g's coordinate paths (lines, then shell before holes).
std::vector<std::pair<Coord, Coord>> segments_of(const Geometry& g) {
  std::vector<std::pair<Coord, Coord>> out;
  const auto add = [&out](const std::vector<Coord>& path) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) out.push_back({path[i], path[i + 1]});
  };
  switch (g.type()) {
    case GeomType::kLineString:
      add(g.as_line_string().coords);
      break;
    case GeomType::kPolygon:
      add(g.as_polygon().shell);
      for (const auto& hole : g.as_polygon().holes) add(hole);
      break;
    case GeomType::kMultiPolygon:
      for (const auto& part : g.as_multi_polygon().parts) {
        add(part.shell);
        for (const auto& hole : part.holes) add(hole);
      }
      break;
    default:
      break;
  }
  return out;
}

// One predicate's summed accounting plus its number of true answers.
struct Tally {
  RefineStats stats;
  std::uint64_t hits = 0;

  std::vector<std::uint64_t> split() const {
    return {stats.exact_tests,    stats.early_accepts,  stats.early_rejects,
            stats.exact_fastpath, stats.exact_slowpath, hits};
  }
};

TEST(BatchRefine, ExactSplitOnNearDegeneratePairsIsPinned) {
  // Probes on or beside the anchor's own linework — shared vertices, edge
  // midpoints, collinear sub-segments and extensions, chords and triangles
  // on an edge — drive the adaptive predicates into their expansion stage.
  // The summed accounting (exact tests split into fast and slow path) and
  // the answers are pinned: a change to a refiner's scan order, its pruning
  // or its early exits moves these counts even where every answer stays
  // the same.
  // within_distance runs distance's unpruned crossing scan. contains,
  // within_distance and covers_points also match the naive reference pair
  // by pair. intersects is pinned by count only: on two collinear
  // sub-segment probes it answers false where intersects_naive answers
  // true, because the naive test runs the inexact crossing parity on every
  // probe vertex and the refiner on the first one only.
  Rng rng(9100);
  Tally by_intersects, by_contains, by_distance, by_points;
  std::vector<std::uint8_t> covered;
  for (int trial = 0; trial < 48; ++trial) {
    const Geometry anchor = degenerate_anchor(rng, trial % 4);
    const BatchRefiner refiner(anchor);
    const auto segs = segments_of(anchor);
    std::vector<Geometry> probes;
    std::vector<Coord> points;
    for (const auto& [a, b] : segs) {
      const Coord mid{(a.x + b.x) / 2, (a.y + b.y) / 2};
      const Coord q1{a.x + (b.x - a.x) / 4, a.y + (b.y - a.y) / 4};
      const Coord q3{a.x + 3 * (b.x - a.x) / 4, a.y + 3 * (b.y - a.y) / 4};
      const Coord out{mid.x + (b.y - a.y) / 2, mid.y - (b.x - a.x) / 2};
      const Coord e1{b.x + (b.x - a.x) / 8, b.y + (b.y - a.y) / 8};
      const Coord e2{b.x + (b.x - a.x) / 4, b.y + (b.y - a.y) / 4};
      const Coord& far = segs[rng.next_below(segs.size())].second;
      points.insert(points.end(), {a, mid, q1});
      probes.push_back(Geometry::point(a.x, a.y));
      probes.push_back(Geometry::point(mid.x, mid.y));
      probes.push_back(Geometry::line_string({q1, q3}));
      probes.push_back(Geometry::line_string({e1, e2}));
      probes.push_back(Geometry::line_string({mid, out}));
      if (!(far == a)) probes.push_back(Geometry::line_string({a, far}));
      probes.push_back(Geometry::polygon({a, b, out, a}));
    }
    for (const Geometry& probe : probes) {
      by_intersects.hits += refiner.intersects(probe, by_intersects.stats);
      if (refiner.has_areal()) {
        const bool hit = refiner.contains(probe, by_contains.stats);
        by_contains.hits += hit;
        EXPECT_EQ(hit, contains_naive(anchor, probe))
            << "anchor=" << to_wkt(anchor) << "\nprobe=" << to_wkt(probe);
      }
      const bool near = refiner.within_distance(probe, 0.0, by_distance.stats);
      by_distance.hits += near;
      EXPECT_EQ(near, distance_naive(anchor, probe) <= 0.0)
          << "anchor=" << to_wkt(anchor) << "\nprobe=" << to_wkt(probe);
    }
    if (refiner.has_areal()) {
      refiner.covers_points(points, covered, by_points.stats);
      for (std::size_t i = 0; i < points.size(); ++i) {
        by_points.hits += covered[i];
        EXPECT_EQ(covered[i] != 0,
                  intersects_naive(anchor, Geometry::point(points[i].x, points[i].y)));
      }
    }
  }
  // {exact_tests, early_accepts, early_rejects, exact_fastpath,
  //  exact_slowpath, true answers}
  EXPECT_EQ(by_intersects.split(),
            (std::vector<std::uint64_t>{5718, 32, 283, 1818, 3900, 4930}));
  EXPECT_EQ(by_contains.split(),
            (std::vector<std::uint64_t>{4151, 32, 714, 1230, 2921, 1944}));
  EXPECT_EQ(by_distance.split(),
            (std::vector<std::uint64_t>{5778, 32, 223, 1627, 4151, 5291}));
  EXPECT_EQ(by_points.split(),
            (std::vector<std::uint64_t>{2112, 0, 0, 837, 1275, 1575}));
}

}  // namespace
}  // namespace sjc::geom
