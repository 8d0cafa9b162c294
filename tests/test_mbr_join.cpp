// MBR join algorithm tests: every algorithm must emit exactly the set of
// intersecting (left, right) pairs — compared against a quadratic
// nested-loop oracle, across sizes, shapes and skews.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "index/mbr_join.hpp"
#include "util/rng.hpp"

namespace sjc::index {
namespace {

using PairSet = std::set<std::pair<std::uint32_t, std::uint32_t>>;

PairSet collect(LocalJoinAlgorithm algo, const std::vector<IndexEntry>& left,
                const std::vector<IndexEntry>& right) {
  PairSet out;
  local_mbr_join(algo, left, right, [&out](std::uint32_t l, std::uint32_t r) {
    const auto [it, inserted] = out.insert({l, r});
    EXPECT_TRUE(inserted) << "duplicate pair (" << l << "," << r << ")";
  });
  return out;
}

/// The oracle: every (left, right) pair whose envelopes intersect, by
/// testing all n * m pairs.
PairSet nested_loop_pairs(const std::vector<IndexEntry>& left,
                          const std::vector<IndexEntry>& right) {
  PairSet out;
  for (const auto& le : left) {
    for (const auto& re : right) {
      if (le.env.intersects(re.env)) out.insert({le.id, re.id});
    }
  }
  return out;
}

std::vector<IndexEntry> random_entries(Rng& rng, std::size_t n, double extent,
                                       double max_size) {
  std::vector<IndexEntry> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    const double x = rng.uniform(0, extent);
    const double y = rng.uniform(0, extent);
    out.push_back({geom::Envelope(x, y, x + rng.uniform(0, max_size),
                                  y + rng.uniform(0, max_size)),
                   i});
  }
  return out;
}

const LocalJoinAlgorithm kAllAlgorithms[] = {
    LocalJoinAlgorithm::kPlaneSweep,
    LocalJoinAlgorithm::kIndexedNestedLoop,
    LocalJoinAlgorithm::kIndexedNestedLoopDynamic,
};

/// Each algorithm's parameter name.
std::string algorithm_name(LocalJoinAlgorithm algo) {
  switch (algo) {
    case LocalJoinAlgorithm::kPlaneSweep: return "plane_sweep";
    case LocalJoinAlgorithm::kIndexedNestedLoop: return "indexed_nested_loop";
    case LocalJoinAlgorithm::kIndexedNestedLoopDynamic: return "indexed_nested_loop_dynamic";
  }
  return "?";
}

class MbrJoinTest : public ::testing::TestWithParam<LocalJoinAlgorithm> {};

TEST_P(MbrJoinTest, EmptySidesYieldNothing) {
  Rng rng(1);
  const auto some = random_entries(rng, 10, 10, 2);
  EXPECT_TRUE(collect(GetParam(), {}, some).empty());
  EXPECT_TRUE(collect(GetParam(), some, {}).empty());
  EXPECT_TRUE(collect(GetParam(), {}, {}).empty());
}

TEST_P(MbrJoinTest, SimpleOverlap) {
  const std::vector<IndexEntry> left = {{geom::Envelope(0, 0, 2, 2), 0},
                                        {geom::Envelope(5, 5, 6, 6), 1}};
  const std::vector<IndexEntry> right = {{geom::Envelope(1, 1, 3, 3), 0},
                                         {geom::Envelope(10, 10, 11, 11), 1}};
  const PairSet expected = {{0, 0}};
  EXPECT_EQ(collect(GetParam(), left, right), expected);
}

TEST_P(MbrJoinTest, TouchingEdgesCount) {
  const std::vector<IndexEntry> left = {{geom::Envelope(0, 0, 1, 1), 0}};
  const std::vector<IndexEntry> right = {{geom::Envelope(1, 0, 2, 1), 0}};
  EXPECT_EQ(collect(GetParam(), left, right).size(), 1u);
}

TEST_P(MbrJoinTest, MatchesNestedLoopOnRandomWorkloads) {
  Rng rng(0xce11);
  for (const auto& [n_left, n_right] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {10, 10}, {100, 7}, {7, 100}, {300, 300}}) {
    const auto left = random_entries(rng, n_left, 50, 4);
    const auto right = random_entries(rng, n_right, 50, 4);
    const PairSet expected = nested_loop_pairs(left, right);
    EXPECT_EQ(collect(GetParam(), left, right), expected)
        << algorithm_name(GetParam()) << " " << n_left << "x" << n_right;
  }
}

TEST_P(MbrJoinTest, HandlesDegeneratePointEnvelopes) {
  Rng rng(0xdead);
  std::vector<IndexEntry> left;
  std::vector<IndexEntry> right;
  for (std::uint32_t i = 0; i < 100; ++i) {
    const double x = rng.uniform(0, 10);
    const double y = rng.uniform(0, 10);
    left.push_back({geom::Envelope::of_point(x, y), i});
    right.push_back({geom::Envelope(x - 0.5, y - 0.5, x + 0.5, y + 0.5), i});
  }
  const PairSet expected = nested_loop_pairs(left, right);
  EXPECT_EQ(collect(GetParam(), left, right), expected);
  EXPECT_GE(expected.size(), 100u);  // each point is inside its own box
}

TEST_P(MbrJoinTest, SkewedClusterWorkload) {
  // Everything piled into one corner: stresses tree splits and sweep ties.
  Rng rng(0x5eed);
  std::vector<IndexEntry> left;
  std::vector<IndexEntry> right;
  for (std::uint32_t i = 0; i < 200; ++i) {
    const double x = rng.uniform(0, 1);
    left.push_back({geom::Envelope(x, x, x + 0.01, x + 0.01), i});
    right.push_back({geom::Envelope(x, x, x + 0.02, x + 0.02), i});
  }
  const PairSet expected = nested_loop_pairs(left, right);
  EXPECT_EQ(collect(GetParam(), left, right), expected);
}

TEST_P(MbrJoinTest, IdenticalEnvelopesAllPair) {
  std::vector<IndexEntry> left;
  std::vector<IndexEntry> right;
  for (std::uint32_t i = 0; i < 20; ++i) {
    left.push_back({geom::Envelope(0, 0, 1, 1), i});
    right.push_back({geom::Envelope(0, 0, 1, 1), i});
  }
  EXPECT_EQ(collect(GetParam(), left, right).size(), 400u);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, MbrJoinTest,
                         ::testing::ValuesIn(kAllAlgorithms),
                         [](const auto& info) { return algorithm_name(info.param); });

}  // namespace
}  // namespace sjc::index
