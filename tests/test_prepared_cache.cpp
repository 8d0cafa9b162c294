// Tests for the batch-refiner cache shared across partition pairs by the
// local-join kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <latch>
#include <thread>
#include <vector>

#include "geom/batch_refine.hpp"
#include "geom/prepared_cache.hpp"
#include "util/status.hpp"

namespace sjc::geom {
namespace {

Geometry square(double x, double y, double side = 1.0) {
  return Geometry::polygon(
      {{x, y}, {x + side, y}, {x + side, y + side}, {x, y + side}, {x, y}});
}

/// A many-vertex circle around (cx, cy): slow enough to prepare that
/// concurrent lookups of one id overlap its build.
Geometry circle(double cx, double cy, double r, int vertices) {
  std::vector<Coord> ring;
  ring.reserve(static_cast<std::size_t>(vertices) + 1);
  for (int i = 0; i < vertices; ++i) {
    const double t = 6.283185307179586 * static_cast<double>(i) / vertices;
    ring.push_back({cx + r * std::cos(t), cy + r * std::sin(t)});
  }
  ring.push_back(ring.front());
  return Geometry::polygon(std::move(ring));
}

bool covers(const BatchRefiner& refiner, double x, double y) {
  RefineStats stats;
  return refiner.intersects(Geometry::point(x, y), stats);
}

TEST(PreparedCache, MissThenHit) {
  PreparedCache cache;
  const Geometry g = square(0, 0, 4);

  const auto first = cache.acquire_refiner(7, g);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 1u);

  const auto second = cache.acquire_refiner(7, g);
  EXPECT_EQ(second.get(), first.get());  // same refiner shared
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);

  // The handle works like a directly built refiner.
  EXPECT_TRUE(covers(*first, 2, 2));
  EXPECT_FALSE(covers(*first, 9, 9));
}

TEST(PreparedCache, HandleOutlivesSourceGeometry) {
  PreparedCache cache;
  std::shared_ptr<const BatchRefiner> handle;
  {
    const Geometry transient = square(0, 0, 4);
    handle = cache.acquire_refiner(1, transient);
  }  // source destroyed; the cache's owned copy must keep the handle valid
  RefineStats stats;
  EXPECT_TRUE(handle->contains(Geometry::point(1, 1), stats));
}

TEST(PreparedCache, CapacityEvictsLeastRecentlyUsed) {
  PreparedCache cache(/*capacity=*/2);
  const auto g0 = square(0, 0);
  const auto g1 = square(10, 0);
  const auto g2 = square(20, 0);

  cache.acquire_refiner(0, g0);
  cache.acquire_refiner(1, g1);
  cache.acquire_refiner(0, g0);                     // bump 0: id 1 is now LRU
  const auto held = cache.acquire_refiner(1, g1);   // bump 1: id 0 is now LRU
  cache.acquire_refiner(2, g2);                     // evicts id 0
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);

  // Id 0 was evicted (re-acquire misses), ids 1 and 2 still hit.
  const auto h = cache.hits();
  const auto m = cache.misses();
  cache.acquire_refiner(1, g1);
  cache.acquire_refiner(2, g2);
  EXPECT_EQ(cache.hits(), h + 2);
  cache.acquire_refiner(0, g0);
  EXPECT_EQ(cache.misses(), m + 1);

  // The handle acquired before the eviction churn stays valid throughout.
  EXPECT_TRUE(covers(*held, 10.5, 0.5));
}

TEST(PreparedCache, RejectsZeroCapacity) {
  EXPECT_THROW(PreparedCache(0), InvalidArgument);
}

TEST(PreparedCache, ClearResetsEntriesButKeepsCounters) {
  PreparedCache cache;
  cache.acquire_refiner(3, square(0, 0));
  cache.acquire_refiner(3, square(0, 0));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 1u);
  cache.acquire_refiner(3, square(0, 0));
  EXPECT_EQ(cache.misses(), 2u);
}

// N threads, released together, look up the same K slow-to-build ids in
// the same order, so every id is requested by several threads while its
// build is still running. Misses are single-flight: exactly one lookup per
// id builds, every other one waits for that build and counts as a hit, and
// all threads end up sharing one refiner per id.
TEST(PreparedCache, ConcurrentMissesAreSingleFlight) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIds = 4;
  PreparedCache cache(/*capacity=*/kIds);
  std::vector<Geometry> geoms;
  for (std::uint64_t id = 0; id < kIds; ++id) {
    geoms.push_back(circle(static_cast<double>(id) * 10.0, 0, 4, 50000));
  }

  std::vector<std::vector<const BatchRefiner*>> seen(
      kThreads, std::vector<const BatchRefiner*>(kIds, nullptr));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::uint64_t id = 0; id < kIds; ++id) {
        const auto refiner = cache.acquire_refiner(id, geoms[id]);
        ASSERT_NE(refiner, nullptr);
        EXPECT_TRUE(covers(*refiner, static_cast<double>(id) * 10.0, 0.0));
        seen[t][id] = refiner.get();
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(cache.misses(), kIds);
  EXPECT_EQ(cache.lookups(), kThreads * kIds);
  EXPECT_EQ(cache.hits() + cache.misses(), cache.lookups());
  EXPECT_EQ(cache.evictions(), 0u);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
}

// Four threads hammer a small cache with overlapping id ranges so hits,
// lookups that wait on an in-flight build, and evictions all interleave.
// Run under the sanitizer CI jobs (TSan included) this is the shared-cache
// race check; the counters must keep hits + misses == lookups under any
// interleaving.
TEST(PreparedCache, SharedCacheHammer) {
  PreparedCache cache(/*capacity=*/8);
  constexpr int kRounds = 1500;
  constexpr std::uint64_t kIds = 16;

  std::vector<Geometry> geoms;
  for (std::uint64_t id = 0; id < kIds; ++id) {
    geoms.push_back(square(static_cast<double>(id) * 10.0, 0, 4));
  }

  auto worker = [&](std::uint64_t stride) {
    for (int i = 0; i < kRounds; ++i) {
      const std::uint64_t id = (static_cast<std::uint64_t>(i) * stride) % kIds;
      const auto refiner = cache.acquire_refiner(id, geoms[id]);
      ASSERT_NE(refiner, nullptr);
      // A refiner built from a torn entry (or against the wrong geometry
      // copy) would answer the centre probe wrong.
      ASSERT_TRUE(covers(*refiner, static_cast<double>(id) * 10.0 + 2.0, 2.0));
    }
  };
  std::thread a(worker, 3);
  std::thread b(worker, 5);
  std::thread c(worker, 7);
  std::thread d(worker, 11);
  a.join();
  b.join();
  c.join();
  d.join();

  EXPECT_EQ(cache.lookups(), 4u * kRounds);
  EXPECT_EQ(cache.hits() + cache.misses(), cache.lookups());
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_LE(cache.size(), 8u);
}

}  // namespace
}  // namespace sjc::geom
