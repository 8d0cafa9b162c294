// Tests for the shared local-join (filter + refine) building block and the
// reference-point duplicate-avoidance machinery.
#include <gtest/gtest.h>

#include <set>

#include "core/local_join.hpp"
#include "util/rng.hpp"

namespace sjc::core {
namespace {

/// run_local_join over whole feature vectors with a fresh scratch.
template <typename AcceptFn = AcceptAllPairs>
std::vector<JoinPair> local_join(const std::vector<geom::Feature>& left,
                                 const std::vector<geom::Feature>& right,
                                 const LocalJoinSpec& spec, AcceptFn accept = {}) {
  LocalJoinScratch scratch;
  std::vector<JoinPair> out;
  run_local_join(std::span<const geom::Feature>(left), std::span<const geom::Feature>(right),
                 spec, accept, scratch, out);
  return out;
}

std::vector<geom::Feature> point_features(const std::vector<geom::Coord>& coords,
                                          std::uint64_t base_id = 0) {
  std::vector<geom::Feature> out;
  for (std::size_t i = 0; i < coords.size(); ++i) {
    out.push_back({base_id + i, geom::Geometry::point(coords[i].x, coords[i].y)});
  }
  return out;
}

TEST(ReferencePoint, TopLeftOfIntersection) {
  const geom::Envelope a(0, 0, 4, 4);
  const geom::Envelope b(2, 1, 6, 5);
  const geom::Coord p = reference_point(a, b);
  EXPECT_EQ(p.x, 2.0);
  EXPECT_EQ(p.y, 1.0);
  // Symmetric.
  const geom::Coord q = reference_point(b, a);
  EXPECT_EQ(q.x, p.x);
  EXPECT_EQ(q.y, p.y);
}

TEST(EvaluatePredicate, AllThreePredicates) {
  const auto& engine = geom::GeometryEngine::prepared();
  const geom::Geometry poly =
      geom::Geometry::polygon({{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}});
  const geom::Geometry inside = geom::Geometry::point(2, 2);
  const geom::Geometry outside = geom::Geometry::point(7, 2);
  EXPECT_TRUE(evaluate_predicate(engine, JoinPredicate::kIntersects, 0, inside, poly));
  EXPECT_TRUE(evaluate_predicate(engine, JoinPredicate::kWithin, 0, inside, poly));
  EXPECT_FALSE(evaluate_predicate(engine, JoinPredicate::kWithin, 0, outside, poly));
  EXPECT_TRUE(
      evaluate_predicate(engine, JoinPredicate::kWithinDistance, 3.0, outside, poly));
  EXPECT_FALSE(
      evaluate_predicate(engine, JoinPredicate::kWithinDistance, 2.0, outside, poly));
}

TEST(LocalJoin, EmptySidesProduceNothing) {
  LocalJoinSpec spec;
  EXPECT_TRUE(local_join({}, {}, spec).empty());
}

TEST(LocalJoin, PointInPolygonPairs) {
  const auto left = point_features({{1, 1}, {5, 5}, {2, 3}});
  std::vector<geom::Feature> right = {
      {100, geom::Geometry::polygon({{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}})}};
  LocalJoinSpec spec;
  spec.predicate = JoinPredicate::kWithin;
  const std::vector<JoinPair> out = local_join(left, right, spec);
  std::set<JoinPair> got(out.begin(), out.end());
  EXPECT_EQ(got, (std::set<JoinPair>{{0, 100}, {2, 100}}));
}

TEST(LocalJoin, EnginesProduceIdenticalPairs) {
  Rng rng(99);
  std::vector<geom::Feature> left;
  for (std::uint64_t i = 0; i < 300; ++i) {
    left.push_back({i, geom::Geometry::point(rng.uniform(0, 50), rng.uniform(0, 50))});
  }
  std::vector<geom::Feature> right;
  for (std::uint64_t i = 0; i < 30; ++i) {
    const double x = rng.uniform(0, 45);
    const double y = rng.uniform(0, 45);
    right.push_back({i, geom::Geometry::polygon({{x, y}, {x + 5, y}, {x + 5, y + 5},
                                                 {x, y + 5}, {x, y}})});
  }
  const auto run_with = [&](const geom::GeometryEngine& engine) {
    LocalJoinSpec spec;
    spec.engine = &engine;
    spec.predicate = JoinPredicate::kWithin;
    std::vector<JoinPair> out = local_join(left, right, spec);
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(run_with(geom::GeometryEngine::simple()),
            run_with(geom::GeometryEngine::prepared()));
}

TEST(LocalJoin, AllAlgorithmsProduceIdenticalPairs) {
  Rng rng(7);
  std::vector<geom::Feature> left;
  std::vector<geom::Feature> right;
  for (std::uint64_t i = 0; i < 150; ++i) {
    const double x = rng.uniform(0, 30);
    const double y = rng.uniform(0, 30);
    left.push_back({i, geom::Geometry::line_string({{x, y}, {x + 2, y + 2}})});
    const double u = rng.uniform(0, 30);
    const double v = rng.uniform(0, 30);
    right.push_back({i, geom::Geometry::line_string({{u, v + 2}, {u + 2, v}})});
  }
  std::vector<std::vector<JoinPair>> results;
  for (const auto algo :
       {index::LocalJoinAlgorithm::kPlaneSweep, index::LocalJoinAlgorithm::kSyncTraversal,
        index::LocalJoinAlgorithm::kIndexedNestedLoop,
        index::LocalJoinAlgorithm::kIndexedNestedLoopDynamic,
        index::LocalJoinAlgorithm::kNestedLoop}) {
    LocalJoinSpec spec;
    spec.algorithm = algo;
    std::vector<JoinPair> out = local_join(left, right, spec);
    std::sort(out.begin(), out.end());
    results.push_back(std::move(out));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]);
  }
  EXPECT_GT(results[0].size(), 0u);
}

// Cross-algorithm x cross-path equivalence: every MBR-join algorithm, with a
// fresh scratch and with a scratch reused across calls (with and without a
// PreparedCache), must produce the same pair multiset on seeded random
// workloads.
TEST(LocalJoin, AllAlgorithmsAndPathsProduceIdenticalPairs) {
  for (const std::uint64_t seed : {11u, 23u, 37u}) {
    Rng rng(seed);
    std::vector<geom::Feature> left;
    std::vector<geom::Feature> right;
    for (std::uint64_t i = 0; i < 120; ++i) {
      const double x = rng.uniform(0, 25);
      const double y = rng.uniform(0, 25);
      left.push_back({i, geom::Geometry::line_string({{x, y}, {x + 2, y + 2}})});
      const double u = rng.uniform(0, 25);
      const double v = rng.uniform(0, 25);
      right.push_back({1000 + i, geom::Geometry::polygon(
                                     {{u, v}, {u + 3, v}, {u + 3, v + 3},
                                      {u, v + 3}, {u, v}})});
    }

    // Scratch and cache are shared across all algorithm runs on purpose:
    // reuse across heterogeneous calls must not leak state between runs.
    LocalJoinScratch scratch;
    geom::PreparedCache cache;
    std::vector<std::vector<JoinPair>> results;
    for (const auto algo :
         {index::LocalJoinAlgorithm::kPlaneSweep,
          index::LocalJoinAlgorithm::kSyncTraversal,
          index::LocalJoinAlgorithm::kIndexedNestedLoop,
          index::LocalJoinAlgorithm::kIndexedNestedLoopDynamic,
          index::LocalJoinAlgorithm::kNestedLoop}) {
      LocalJoinSpec spec;
      spec.algorithm = algo;

      std::vector<JoinPair> fresh = local_join(left, right, spec);
      std::sort(fresh.begin(), fresh.end());
      results.push_back(std::move(fresh));

      std::vector<JoinPair> via_template;
      run_local_join(std::span<const geom::Feature>(left),
                     std::span<const geom::Feature>(right), spec, AcceptAllPairs{},
                     scratch, via_template);
      std::sort(via_template.begin(), via_template.end());
      results.push_back(std::move(via_template));

      spec.prepared_cache = &cache;
      std::vector<JoinPair> via_cache;
      run_local_join(std::span<const geom::Feature>(left),
                     std::span<const geom::Feature>(right), spec, AcceptAllPairs{},
                     scratch, via_cache);
      std::sort(via_cache.begin(), via_cache.end());
      results.push_back(std::move(via_cache));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i], results[0]) << "seed " << seed << " variant " << i;
    }
    EXPECT_GT(results[0].size(), 0u);
    // Second and later algorithms re-bind the same right features: the
    // cache must have served hits (engine default is Prepared).
    EXPECT_GT(cache.hits(), 0u);
  }
}

// Batched vs per-pair refinement: the Prepared engine's batched path must
// emit exactly the pairs of the Simple engine's per-pair path — not even
// their order may differ — across predicates and cache configurations, and
// the refine.* counters must account every candidate.
TEST(LocalJoin, BatchRefineOnOffBitIdenticalWithAccounting) {
  for (const std::uint64_t seed : {5u, 17u}) {
    Rng rng(seed);
    std::vector<geom::Feature> left;
    std::vector<geom::Feature> right;
    for (std::uint64_t i = 0; i < 100; ++i) {
      const double x = rng.uniform(0, 25);
      const double y = rng.uniform(0, 25);
      // Mixed probe types so the batched point pass and the scalar
      // dispatch both engage.
      if (i % 3 == 0) {
        left.push_back({i, geom::Geometry::point(x, y)});
      } else {
        left.push_back({i, geom::Geometry::line_string({{x, y}, {x + 2, y + 2}})});
      }
      const double u = rng.uniform(0, 25);
      const double v = rng.uniform(0, 25);
      right.push_back({1000 + i, geom::Geometry::polygon(
                                     {{u, v}, {u + 3, v}, {u + 3, v + 3},
                                      {u, v + 3}, {u, v}})});
    }
    for (const auto predicate :
         {JoinPredicate::kIntersects, JoinPredicate::kWithin,
          JoinPredicate::kWithinDistance}) {
      for (const bool use_cache : {false, true}) {
        geom::PreparedCache cache;
        LocalJoinScratch scratch;
        const auto run = [&](geom::EngineKind engine) {
          cluster::Counters counters;
          LocalJoinSpec spec;
          spec.engine = &geom::GeometryEngine::get(engine);
          spec.predicate = predicate;
          spec.within_distance = predicate == JoinPredicate::kWithinDistance ? 1.5 : 0.0;
          // Consulted by the Prepared engine only.
          spec.prepared_cache = use_cache ? &cache : nullptr;
          spec.refine_counters = &counters;
          std::vector<JoinPair> out;
          run_local_join(std::span<const geom::Feature>(left),
                         std::span<const geom::Feature>(right), spec, AcceptAllPairs{},
                         scratch, out);
          return std::pair(std::move(out), counters.snapshot());
        };
        const auto [pairs_off, counters_off] = run(geom::EngineKind::kSimple);
        const auto [pairs_on, counters_on] = run(geom::EngineKind::kPrepared);
        // Bit-identical including emission order.
        EXPECT_EQ(pairs_on, pairs_off)
            << "seed " << seed << " predicate " << static_cast<int>(predicate);
        EXPECT_GT(pairs_on.size(), 0u);
        const auto get = [](const std::map<std::string, std::uint64_t>& m,
                            const char* key) {
          const auto it = m.find(key);
          return it == m.end() ? std::uint64_t{0} : it->second;
        };
        const std::uint64_t cand = get(counters_off, "refine.candidates");
        EXPECT_EQ(get(counters_on, "refine.candidates"), cand);
        EXPECT_GT(cand, 0u);
        // Per-pair (Simple) path: every candidate is an exact test.
        EXPECT_EQ(get(counters_off, "refine.exact_tests"), cand);
        EXPECT_EQ(get(counters_off, "refine.early_accepts"), 0u);
        EXPECT_EQ(get(counters_off, "refine.early_rejects"), 0u);
        // Batched (Prepared) path: the three buckets partition the candidates.
        EXPECT_EQ(get(counters_on, "refine.exact_tests") +
                      get(counters_on, "refine.early_accepts") +
                      get(counters_on, "refine.early_rejects"),
                  cand);
        // Both paths: every exact test is classified fastpath or slowpath
        // by the adaptive exact predicate.
        EXPECT_EQ(get(counters_off, "refine.exact_fastpath") +
                      get(counters_off, "refine.exact_slowpath"),
                  get(counters_off, "refine.exact_tests"));
        EXPECT_EQ(get(counters_on, "refine.exact_fastpath") +
                      get(counters_on, "refine.exact_slowpath"),
                  get(counters_on, "refine.exact_tests"));
      }
    }
  }
}

TEST(LocalJoin, AcceptFilterDropsPairs) {
  const auto left = point_features({{1, 1}, {2, 2}});
  std::vector<geom::Feature> right = {
      {9, geom::Geometry::polygon({{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}})}};
  LocalJoinSpec spec;
  spec.predicate = JoinPredicate::kWithin;
  const std::vector<JoinPair> out =
      local_join(left, right, spec, [](const geom::Envelope& le, const geom::Envelope&) {
        return le.min_x() > 1.5;  // keep only the (2,2) point
      });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].left_id, 1u);
}

TEST(LocalJoin, WithinDistancePredicate) {
  const auto left = point_features({{0, 0}, {0, 10}});
  std::vector<geom::Feature> right = {
      {5, geom::Geometry::line_string({{3, -5}, {3, 5}})}};
  LocalJoinSpec spec;
  spec.predicate = JoinPredicate::kWithinDistance;
  spec.within_distance = 4.0;
  const std::vector<JoinPair> out = local_join(left, right, spec);
  // (0,0) is 3 away from the line; (0,10) is ~5.8 away.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].left_id, 0u);
}

TEST(HashPairs, OrderIndependentAndMultisetSensitive) {
  const std::vector<JoinPair> a = {{1, 2}, {3, 4}};
  const std::vector<JoinPair> b = {{3, 4}, {1, 2}};
  const std::vector<JoinPair> c = {{1, 2}};
  const std::vector<JoinPair> d = {{1, 2}, {3, 5}};
  EXPECT_EQ(hash_pairs_unordered(a), hash_pairs_unordered(b));
  EXPECT_NE(hash_pairs_unordered(a), hash_pairs_unordered(c));
  EXPECT_NE(hash_pairs_unordered(a), hash_pairs_unordered(d));
  EXPECT_EQ(hash_pairs_unordered({}), 0u);
}

TEST(Config, EffectiveTargetPartitions) {
  JoinQueryConfig query;
  const auto ws = cluster::ClusterSpec::workstation();
  EXPECT_EQ(effective_target_partitions(query, ws), 128u);
  query.target_partitions = 42;
  EXPECT_EQ(effective_target_partitions(query, ws), 42u);
  query.target_partitions = 0;
  const auto big = cluster::ClusterSpec::ec2(12);  // 96 slots -> 192 cells
  EXPECT_EQ(effective_target_partitions(query, big), 192u);
}

TEST(Config, EffectiveSampleRateFloors) {
  EXPECT_DOUBLE_EQ(effective_sample_rate(0.01, 1000000, 128), 0.01);
  EXPECT_DOUBLE_EQ(effective_sample_rate(0.01, 40, 128), 1.0);
  EXPECT_DOUBLE_EQ(effective_sample_rate(0.5, 40, 128), 1.0);
  EXPECT_DOUBLE_EQ(effective_sample_rate(0.01, 0, 128), 1.0);
  // Floor = 4 * cells / size.
  EXPECT_DOUBLE_EQ(effective_sample_rate(0.0, 1024, 128), 0.5);
}

}  // namespace
}  // namespace sjc::core
