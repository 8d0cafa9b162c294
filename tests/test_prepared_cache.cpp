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

TEST(PreparedCache, HandleOutlivesSourceGeometryAndCache) {
  std::shared_ptr<const BatchRefiner> handle;
  {
    PreparedCache cache;
    const Geometry transient = square(0, 0, 4);
    handle = cache.acquire_refiner(1, transient);
  }  // source and cache destroyed; the handle owns the geometry copy
  RefineStats stats;
  EXPECT_TRUE(handle->contains(Geometry::point(1, 1), stats));
}

// Every refiner is built once and kept: ten thousand distinct ids each
// miss once, and a second pass over them hits every time.
TEST(PreparedCache, KeepsEveryDistinctId) {
  constexpr std::uint64_t kIds = 10000;
  PreparedCache cache;
  std::vector<Geometry> geoms;
  geoms.reserve(kIds);
  for (std::uint64_t id = 0; id < kIds; ++id) {
    geoms.push_back(square(static_cast<double>(id) * 2.0, 0));
  }
  for (std::uint64_t id = 0; id < kIds; ++id) cache.acquire_refiner(id, geoms[id]);
  EXPECT_EQ(cache.misses(), kIds);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), kIds);
  for (std::uint64_t id = 0; id < kIds; ++id) cache.acquire_refiner(id, geoms[id]);
  EXPECT_EQ(cache.hits(), kIds);
  EXPECT_EQ(cache.misses(), kIds);
  EXPECT_EQ(cache.size(), kIds);
  EXPECT_EQ(cache.evictions(), 0u);
}

// A build that throws rethrows to its caller and drops its entry: the cache
// keeps no poisoned id, the next lookup of it builds afresh, and the ids
// built before stay cached.
TEST(PreparedCache, FailedBuildDropsEntry) {
  bool fail_builds = false;
  PreparedCache cache([&fail_builds](const Geometry& g) {
    if (fail_builds) throw SjcError("injected build failure");
    return BatchRefiner(g);
  });
  const auto g0 = square(0, 0);
  const auto g1 = square(10, 0);
  const auto g2 = square(20, 0);

  cache.acquire_refiner(0, g0);
  cache.acquire_refiner(1, g1);
  fail_builds = true;
  EXPECT_THROW(cache.acquire_refiner(2, g2), SjcError);
  fail_builds = false;
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 3u);

  cache.acquire_refiner(0, g0);
  cache.acquire_refiner(1, g1);
  EXPECT_EQ(cache.hits(), 2u);
  const auto rebuilt = cache.acquire_refiner(2, g2);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(covers(*rebuilt, 20.5, 0.5));
  EXPECT_EQ(cache.hits() + cache.misses(), cache.lookups());
}

// N threads, released together, look up the same K slow-to-build ids in
// the same order, so every id is requested by several threads while its
// build is still running. Misses are single-flight: exactly one lookup per
// id builds, every other one waits for that build and counts as a hit, and
// all threads end up sharing one refiner per id.
TEST(PreparedCache, ConcurrentMissesAreSingleFlight) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIds = 4;
  PreparedCache cache;
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
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
}

// Four threads hammer one cache with overlapping id orders so hits and
// lookups that wait on an in-flight build interleave. Run under the
// sanitizer CI jobs (TSan included) this is the shared-cache race check;
// under any interleaving the counters must keep hits + misses == lookups,
// and misses must equal the distinct ids.
TEST(PreparedCache, SharedCacheHammer) {
  PreparedCache cache;
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
  // Every stride is coprime with kIds, so each thread looks up every id.
  EXPECT_EQ(cache.misses(), kIds);
  EXPECT_EQ(cache.size(), kIds);
}

}  // namespace
}  // namespace sjc::geom
