// Tests for the spatial index structures (STR tree, dynamic R-tree): unit
// cases plus a shared property harness checking every index against brute
// force on randomized workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>

#include "index/rtree_dynamic.hpp"
#include "index/str_tree.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace sjc::index {
namespace {

std::vector<IndexEntry> random_entries(Rng& rng, std::size_t n, double extent,
                                       double max_size) {
  std::vector<IndexEntry> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const double x = rng.uniform(0, extent);
    const double y = rng.uniform(0, extent);
    const double w = rng.uniform(0, max_size);
    const double h = rng.uniform(0, max_size);
    out.push_back({geom::Envelope(x, y, x + w, y + h), i});
  }
  return out;
}

std::vector<std::uint32_t> brute_force(const std::vector<IndexEntry>& entries,
                                       const geom::Envelope& q) {
  std::vector<std::uint32_t> out;
  for (const auto& e : entries) {
    if (e.env.intersects(q)) out.push_back(e.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// STR tree unit tests
// ---------------------------------------------------------------------------

TEST(StrTree, EmptyTree) {
  const StrTree tree({});
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.query_ids(geom::Envelope(0, 0, 1, 1)).empty());
}

TEST(StrTree, SingleEntry) {
  const StrTree tree({{geom::Envelope(1, 1, 2, 2), 7}});
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_EQ(tree.query_ids(geom::Envelope(0, 0, 3, 3)), std::vector<std::uint32_t>{7});
  EXPECT_TRUE(tree.query_ids(geom::Envelope(5, 5, 6, 6)).empty());
}

TEST(StrTree, BoundsCoverAllEntries) {
  Rng rng(1);
  const auto entries = random_entries(rng, 500, 100, 5);
  const StrTree tree(entries);
  for (const auto& e : entries) {
    EXPECT_TRUE(tree.bounds().contains(e.env));
  }
}

TEST(StrTree, HeightGrowsLogarithmically) {
  Rng rng(2);
  const StrTree small(random_entries(rng, 10, 100, 1));
  const StrTree large(random_entries(rng, 10000, 100, 1));
  EXPECT_LE(small.height(), 2u);
  EXPECT_LE(large.height(), 5u);
  EXPECT_GT(large.height(), small.height());
}

TEST(StrTree, RejectsTinyFanout) {
  EXPECT_THROW(StrTree({}, 1), InvalidArgument);
}

// SpatialHadoop charges each block's index at the STR tree's size without
// building the tree: the size function must equal a built tree's, around
// every level boundary of the default fanout (16) and at a small fanout.
TEST(StrTree, SizeWithoutBuildEqualsBuiltTree) {
  Rng rng(3);
  for (const std::size_t n : {0u, 1u, 15u, 16u, 17u, 256u, 257u, 4097u}) {
    const StrTree tree(random_entries(rng, n, 100, 1));
    EXPECT_EQ(StrTree::size_bytes_for(n), tree.size_bytes()) << n;
    const StrTree narrow(random_entries(rng, n, 100, 1), 3);
    EXPECT_EQ(StrTree::size_bytes_for(n, 3), narrow.size_bytes()) << n;
  }
}

// ---------------------------------------------------------------------------
// Dynamic R-tree unit tests
// ---------------------------------------------------------------------------

TEST(DynamicRTree, EmptyTree) {
  const DynamicRTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.query_ids(geom::Envelope(0, 0, 1, 1)).empty());
}

TEST(DynamicRTree, InsertAndQuery) {
  DynamicRTree tree;
  tree.insert(geom::Envelope(0, 0, 1, 1), 1);
  tree.insert(geom::Envelope(5, 5, 6, 6), 2);
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_EQ(tree.query_ids(geom::Envelope(0.5, 0.5, 0.6, 0.6)),
            std::vector<std::uint32_t>{1});
}

TEST(DynamicRTree, SplitsKeepAllEntries) {
  DynamicRTree tree(8);
  Rng rng(3);
  const auto entries = random_entries(rng, 1000, 50, 2);
  for (const auto& e : entries) tree.insert(e.env, e.id);
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_GT(tree.height(), 1u);
  // Whole-extent query returns everything exactly once.
  auto all = tree.query_ids(tree.bounds());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all.size(), 1000u);
  EXPECT_EQ(all.front(), 0u);
  EXPECT_EQ(all.back(), 999u);
}

TEST(DynamicRTree, RejectsTinyNodeCapacity) {
  EXPECT_THROW(DynamicRTree(3), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Property: every index answers exactly like brute force.
// ---------------------------------------------------------------------------

// Index configurations under test: each builds its tree from an entry list.
struct StrDefault {
  static StrTree build(std::vector<IndexEntry> e) { return StrTree(std::move(e)); }
};
struct StrFanout4 {
  static StrTree build(std::vector<IndexEntry> e) { return StrTree(std::move(e), 4); }
};
template <std::uint32_t kMaxEntries>
struct Dynamic {
  static DynamicRTree build(const std::vector<IndexEntry>& e) {
    DynamicRTree tree(kMaxEntries);
    for (const auto& entry : e) tree.insert(entry.env, entry.id);
    return tree;
  }
};

template <typename Config>
class IndexEquivalence : public ::testing::Test {};

using IndexConfigs = ::testing::Types<StrDefault, StrFanout4, Dynamic<16>, Dynamic<8>>;

class IndexConfigNames {
 public:
  template <typename Config>
  static std::string GetName(int) {
    if (std::is_same_v<Config, StrDefault>) return "str";
    if (std::is_same_v<Config, StrFanout4>) return "str_fanout4";
    if (std::is_same_v<Config, Dynamic<16>>) return "dynamic_rtree";
    return "dynamic_rtree_cap8";
  }
};

TYPED_TEST_SUITE(IndexEquivalence, IndexConfigs, IndexConfigNames);

TYPED_TEST(IndexEquivalence, MatchesBruteForceOnRandomWorkloads) {
  Rng rng(0xfeed);
  for (const std::size_t n : {0ULL, 1ULL, 7ULL, 100ULL, 2000ULL}) {
    const auto entries = random_entries(rng, n, 100, 4);
    const auto idx = TypeParam::build(entries);
    EXPECT_EQ(idx.size(), n);
    for (int q = 0; q < 100; ++q) {
      const double x = rng.uniform(-10, 110);
      const double y = rng.uniform(-10, 110);
      const geom::Envelope query(x, y, x + rng.uniform(0, 30), y + rng.uniform(0, 30));
      auto got = idx.query_ids(query);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, brute_force(entries, query)) << "n=" << n;
    }
  }
}

TYPED_TEST(IndexEquivalence, PointQueries) {
  Rng rng(0xbeef);
  const auto entries = random_entries(rng, 500, 50, 3);
  const auto idx = TypeParam::build(entries);
  for (int q = 0; q < 200; ++q) {
    const geom::Envelope query =
        geom::Envelope::of_point(rng.uniform(0, 55), rng.uniform(0, 55));
    auto got = idx.query_ids(query);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute_force(entries, query));
  }
}

TYPED_TEST(IndexEquivalence, ReportsPositiveSizeBytes) {
  Rng rng(7);
  const auto idx = TypeParam::build(random_entries(rng, 100, 10, 1));
  EXPECT_GT(idx.size_bytes(), 0u);
}

}  // namespace
}  // namespace sjc::index
