// Tests for the shared local-join (filter + refine) building block and the
// reference-point duplicate-avoidance machinery.
#include <gtest/gtest.h>

#include <set>

#include "core/feature_view.hpp"
#include "core/local_join.hpp"
#include "partition/partitioner.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace sjc::core {
namespace {

/// run_local_join over whole feature vectors with a fresh scratch and, for
/// the Prepared engine, a fresh PreparedCache.
template <typename AcceptFn = AcceptAllPairs>
std::vector<JoinPair> local_join(const std::vector<geom::Feature>& left,
                                 const std::vector<geom::Feature>& right,
                                 LocalJoinSpec spec, AcceptFn accept = {}) {
  LocalJoinScratch scratch;
  geom::PreparedCache cache;
  spec.prepared_cache = &cache;
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
  const auto engine = geom::EngineKind::kPrepared;
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
  const auto run_with = [&](geom::EngineKind engine) {
    LocalJoinSpec spec;
    spec.engine = engine;
    spec.predicate = JoinPredicate::kWithin;
    std::vector<JoinPair> out = local_join(left, right, spec);
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(run_with(geom::EngineKind::kSimple), run_with(geom::EngineKind::kPrepared));
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
        index::LocalJoinAlgorithm::kIndexedNestedLoopDynamic}) {
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
// fresh scratch and cache and with a scratch and cache reused across calls,
// must produce the same pair multiset on seeded random workloads.
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
          index::LocalJoinAlgorithm::kIndexedNestedLoopDynamic}) {
      LocalJoinSpec spec;
      spec.algorithm = algo;

      std::vector<JoinPair> fresh = local_join(left, right, spec);
      std::sort(fresh.begin(), fresh.end());
      results.push_back(std::move(fresh));

      spec.prepared_cache = &cache;
      std::vector<JoinPair> reused;
      run_local_join(std::span<const geom::Feature>(left),
                     std::span<const geom::Feature>(right), spec, AcceptAllPairs{},
                     scratch, reused);
      std::sort(reused.begin(), reused.end());
      results.push_back(std::move(reused));
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
// their order may differ — across predicates, and the refine.* counters
// must account every candidate.
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
      geom::PreparedCache cache;
      LocalJoinScratch scratch;
      const auto run = [&](geom::EngineKind engine) {
        cluster::Counters counters;
        LocalJoinSpec spec;
        spec.engine = engine;
        spec.predicate = predicate;
        spec.within_distance = predicate == JoinPredicate::kWithinDistance ? 1.5 : 0.0;
        // Consulted by the Prepared engine only.
        spec.prepared_cache = &cache;
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

// ---------------------------------------------------------------------------
// Packed-block join (SpatialHadoop's blocks) vs the per-task path
// ---------------------------------------------------------------------------

/// One side partitioned as SpatialHadoop's partition job does: per cell of
/// `scheme`, the records whose expanded envelope meets it, and the block's
/// packed index (expanded envelopes, ids being positions in the block).
struct PackedSide {
  partition::PartitionScheme scheme;
  std::vector<std::vector<std::uint32_t>> members;
  std::vector<index::SweepList> index;
};

PackedSide pack_side(const std::vector<geom::Feature>& features,
                     partition::PartitionerKind kind, double expand) {
  std::vector<geom::Envelope> envs;
  geom::Envelope extent;
  for (const auto& f : features) {
    envs.push_back(f.geometry.envelope());
    extent.expand_to_include(envs.back());
  }
  PackedSide side{partition::make_partitions(kind, envs, extent, 12), {}, {}};
  side.members.resize(side.scheme.cell_count());
  side.index.resize(side.scheme.cell_count());
  std::vector<std::uint32_t> cells;
  for (std::uint32_t i = 0; i < envs.size(); ++i) {
    side.scheme.assign_into(envs[i].expanded_by(expand), cells);
    for (const auto c : cells) side.members[c].push_back(i);
  }
  index::SweepOrder order;
  for (std::size_t c = 0; c < side.members.size(); ++c) {
    std::vector<index::IndexEntry> entries;
    for (std::uint32_t i = 0; i < side.members[c].size(); ++i) {
      entries.push_back({envs[side.members[c][i]].expanded_by(expand), i});
    }
    side.index[c].load(entries, order);
  }
  return side;
}

/// Joins every intersecting (left cell, right cell) block pair both ways,
/// with the reference-point accept, one scratch per path reused across the
/// pairs, and one cache per path: the packed join must emit the per-task
/// plane sweep's pairs in its order, add the same refine.* counts and make
/// the same cache lookups. Returns the packed path's pair count.
std::size_t expect_packed_join_matches(const std::vector<geom::Feature>& left,
                                       const std::vector<geom::Feature>& right,
                                       JoinPredicate predicate, double within_distance,
                                       geom::EngineKind engine) {
  LocalJoinSpec spec;
  spec.algorithm = index::LocalJoinAlgorithm::kPlaneSweep;
  spec.engine = engine;
  spec.predicate = predicate;
  spec.within_distance = within_distance;
  const double expand = spec.envelope_expansion();
  const PackedSide a = pack_side(left, partition::PartitionerKind::kStr, expand);
  const PackedSide b = pack_side(right, partition::PartitionerKind::kBsp, expand);

  struct Path {
    geom::PreparedCache cache;
    cluster::Counters counters;
    LocalJoinScratch scratch;
    std::vector<JoinPair> pairs;
  };
  Path paths[2];  // per-task, packed
  std::uint64_t rejected[2] = {0, 0};
  for (std::uint32_t pa = 0; pa < a.scheme.cell_count(); ++pa) {
    for (std::uint32_t pb = 0; pb < b.scheme.cell_count(); ++pb) {
      if (!a.scheme.cells()[pa].intersects(b.scheme.cells()[pb])) continue;
      const FeatureIndexSpan lv(left, a.members[pa]);
      const FeatureIndexSpan rv(right, b.members[pb]);
      for (const int k : {0, 1}) {
        const auto accept = [&](const geom::Envelope& le, const geom::Envelope& re) {
          const geom::Coord p = reference_point(le, re);
          const bool ok = a.scheme.is_canonical(pa, p) && b.scheme.is_canonical(pb, p);
          rejected[k] += ok ? 0 : 1;
          return ok;
        };
        Path& path = paths[k];
        LocalJoinSpec path_spec = spec;
        path_spec.prepared_cache = &path.cache;
        path_spec.refine_counters = &path.counters;
        if (k == 0) {
          run_local_join(lv, rv, path_spec, accept, path.scratch, path.pairs);
        } else {
          run_local_join(lv, a.index[pa], rv, b.index[pb], path_spec, accept, path.scratch,
                         path.pairs);
        }
      }
    }
  }
  const Path& per_task = paths[0];
  const Path& packed = paths[1];
  EXPECT_EQ(packed.pairs, per_task.pairs);
  EXPECT_EQ(packed.counters.snapshot(), per_task.counters.snapshot());
  EXPECT_EQ(packed.cache.hits(), per_task.cache.hits());
  EXPECT_EQ(packed.cache.misses(), per_task.cache.misses());
  // Both paths test the same candidates, and some are duplicates that only
  // their canonical block pair keeps.
  EXPECT_EQ(rejected[1], rejected[0]);
  EXPECT_GT(rejected[0], 0u);
  return packed.pairs.size();
}

TEST(PackedBlockJoin, RandomBlocksMatchPerTaskPath) {
  for (const std::uint64_t seed : {3u, 41u}) {
    Rng rng(seed);
    std::vector<geom::Feature> left;
    std::vector<geom::Feature> right;
    for (std::uint64_t i = 0; i < 400; ++i) {
      const double x = rng.uniform(0, 100);
      const double y = rng.uniform(0, 100);
      if (i % 3 == 0) {
        left.push_back({i, geom::Geometry::point(x, y)});
      } else {
        left.push_back({i, geom::Geometry::line_string({{x, y}, {x + 4, y + 3}})});
      }
      const double u = rng.uniform(0, 95);
      const double v = rng.uniform(0, 95);
      right.push_back({1000 + i, geom::Geometry::polygon({{u, v}, {u + 6, v}, {u + 6, v + 6},
                                                           {u, v + 6}, {u, v}})});
    }
    for (const auto engine : {geom::EngineKind::kPrepared, geom::EngineKind::kSimple}) {
      for (const auto predicate : {JoinPredicate::kIntersects, JoinPredicate::kWithin}) {
        EXPECT_GT(expect_packed_join_matches(left, right, predicate, 0.0, engine), 0u)
            << "seed " << seed;
      }
    }
  }
}

// The two Table-2 experiments: taxi points within census blocks, and
// edges intersecting linearwater.
TEST(PackedBlockJoin, TableTwoWorkloadsMatchPerTaskPath) {
  workload::WorkloadConfig wc;
  wc.scale = 1e-3;
  const auto taxi = workload::generate(workload::DatasetId::kTaxi1m, wc);
  const auto nycb = workload::generate(workload::DatasetId::kNycb, wc);
  EXPECT_GT(expect_packed_join_matches(taxi.features(), nycb.features(), JoinPredicate::kWithin,
                                       0.0, geom::EngineKind::kPrepared),
            0u);
  wc.scale = 2e-5;
  const auto edges = workload::generate(workload::DatasetId::kEdges, wc);
  const auto water = workload::generate(workload::DatasetId::kLinearwater, wc);
  EXPECT_GT(expect_packed_join_matches(edges.features(), water.features(),
                                       JoinPredicate::kIntersects, 0.0,
                                       geom::EngineKind::kPrepared),
            0u);
}

// Within-distance joins pack and sweep envelopes expanded by d/2, which
// reach past the cells and the extent.
TEST(PackedBlockJoin, WithinDistanceMatchesPerTaskPath) {
  workload::WorkloadConfig wc;
  wc.scale = 2e-5;
  const auto edges = workload::generate(workload::DatasetId::kEdges, wc);
  const auto water = workload::generate(workload::DatasetId::kLinearwater, wc);
  for (const auto engine : {geom::EngineKind::kPrepared, geom::EngineKind::kSimple}) {
    EXPECT_GT(expect_packed_join_matches(edges.features(), water.features(),
                                         JoinPredicate::kWithinDistance, 200.0, engine),
              0u);
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

// A candidate the accept filter declines is dropped where it is generated:
// when every candidate is declined, neither overload binds a refiner or
// writes a refine.* counter.
TEST(LocalJoin, FullyDeclinedGroupsLookNothingUp) {
  const auto left = point_features({{1, 1}, {3.5, 3.5}, {5, 5}});
  const std::vector<geom::Feature> right = {
      {9, geom::Geometry::polygon({{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}})},
      {10, geom::Geometry::polygon({{3, 3}, {6, 3}, {6, 6}, {3, 6}, {3, 3}})}};
  const auto side_index = [](const std::vector<geom::Feature>& features) {
    std::vector<index::IndexEntry> entries;
    for (std::uint32_t i = 0; i < features.size(); ++i) {
      entries.push_back({features[i].geometry.envelope(), i});
    }
    index::SweepList list;
    index::SweepOrder order;
    list.load(entries, order);
    return list;
  };
  const index::SweepList left_index = side_index(left);
  const index::SweepList right_index = side_index(right);
  const std::span<const geom::Feature> lv(left);
  const std::span<const geom::Feature> rv(right);
  for (const bool packed : {false, true}) {
    geom::PreparedCache cache;
    cluster::Counters counters;
    LocalJoinSpec spec;
    spec.algorithm = index::LocalJoinAlgorithm::kPlaneSweep;
    spec.predicate = JoinPredicate::kWithin;
    spec.prepared_cache = &cache;
    spec.refine_counters = &counters;
    std::size_t declined = 0;
    const auto decline = [&](const geom::Envelope&, const geom::Envelope&) {
      ++declined;
      return false;
    };
    LocalJoinScratch scratch;
    std::vector<JoinPair> out;
    if (packed) {
      run_local_join(lv, left_index, rv, right_index, spec, decline, scratch, out);
    } else {
      run_local_join(lv, rv, spec, decline, scratch, out);
    }
    EXPECT_EQ(declined, 4u) << "packed " << packed;  // every MBR candidate
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(cache.lookups(), 0u) << "packed " << packed;
    EXPECT_TRUE(counters.snapshot().empty()) << "packed " << packed;
  }
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
