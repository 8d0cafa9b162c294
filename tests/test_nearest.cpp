// Tests for best-first nearest-neighbor search.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "index/nearest.hpp"
#include "util/rng.hpp"

namespace sjc {
namespace {

std::vector<index::IndexEntry> random_points(Rng& rng, std::size_t n) {
  std::vector<index::IndexEntry> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back({geom::Envelope::of_point(rng.uniform(0, 100), rng.uniform(0, 100)), i});
  }
  return out;
}

TEST(Nearest, EmptyTree) {
  const index::StrTree tree({});
  EXPECT_TRUE(index::k_nearest_envelopes(tree, geom::Envelope(0, 0, 1, 1), 3).empty());
}

TEST(Nearest, KZeroYieldsNothing) {
  Rng rng(1);
  const index::StrTree tree(random_points(rng, 10));
  EXPECT_TRUE(index::k_nearest_envelopes(tree, geom::Envelope(0, 0, 1, 1), 0).empty());
}

TEST(Nearest, SingleEntry) {
  const index::StrTree tree({{geom::Envelope::of_point(5, 5), 42}});
  const auto hits = index::k_nearest_envelopes(tree, geom::Envelope::of_point(0, 1), 3);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 42u);
  EXPECT_NEAR(hits[0].distance, std::sqrt(25 + 16), 1e-12);
}

TEST(Nearest, AscendingOrderAndMatchesBruteForce) {
  Rng rng(7);
  const auto entries = random_points(rng, 500);
  const index::StrTree tree(entries);
  for (int trial = 0; trial < 50; ++trial) {
    const geom::Envelope q =
        geom::Envelope::of_point(rng.uniform(-10, 110), rng.uniform(-10, 110));
    const auto hits = index::k_nearest_envelopes(tree, q, 10);
    ASSERT_EQ(hits.size(), 10u);
    for (std::size_t i = 1; i < hits.size(); ++i) {
      EXPECT_GE(hits[i].distance, hits[i - 1].distance);
    }
    // Brute-force k-th distance must match.
    std::vector<double> dists;
    for (const auto& e : entries) dists.push_back(e.env.distance(q));
    std::sort(dists.begin(), dists.end());
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_DOUBLE_EQ(hits[i].distance, dists[i]);
    }
  }
}

}  // namespace
}  // namespace sjc
