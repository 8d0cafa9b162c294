// ShuffleArena unit tests: chunk-chain bookkeeping, insertion order,
// reset reuse, move-only payloads, and the
// concurrency contract (fill single-threaded, drain distinct buckets from
// many threads). The concurrent tests double as the TSan smoke target.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "mapreduce/shuffle_arena.hpp"

namespace sjc::mapreduce {
namespace {

TEST(ShuffleArena, PreservesInsertionOrderPerBucket) {
  ShuffleArena<int> arena(/*chunk_capacity=*/4);
  arena.reset(3);
  // Interleave pushes so every bucket's chain is built out of
  // non-contiguous chunks.
  for (int i = 0; i < 100; ++i) arena.push(i % 3, i);
  EXPECT_EQ(arena.bucket_count(), 3u);
  EXPECT_EQ(arena.bucket_size(0), 34u);
  EXPECT_EQ(arena.bucket_size(1), 33u);
  EXPECT_EQ(arena.bucket_size(2), 33u);
  EXPECT_EQ(arena.total_size(), 100u);
  for (std::size_t b = 0; b < 3; ++b) {
    std::vector<int> got;
    arena.consume(b, [&got](int& v) { got.push_back(v); });
    ASSERT_EQ(got.size(), b == 0 ? 34u : 33u);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], static_cast<int>(3 * i + b));
    }
  }
  EXPECT_EQ(arena.total_size(), 0u);
}

TEST(ShuffleArena, ConsumeLeavesBucketEmptyAndReusable) {
  ShuffleArena<std::string> arena(2);
  arena.reset(2);
  arena.push(0, "a");
  arena.push(0, "b");
  arena.push(1, "c");
  arena.consume(0, [](std::string&) {});
  EXPECT_EQ(arena.bucket_size(0), 0u);
  EXPECT_EQ(arena.bucket_size(1), 1u);
  // A consumed bucket accepts new pushes (fresh chain).
  arena.push(0, "d");
  std::vector<std::string> got;
  arena.consume(0, [&got](std::string& s) { got.push_back(std::move(s)); });
  EXPECT_EQ(got, std::vector<std::string>({"d"}));
}

TEST(ShuffleArena, ResetDropsAllState) {
  ShuffleArena<int> arena(4);
  arena.reset(5);
  for (int i = 0; i < 40; ++i) arena.push(i % 5, i);
  arena.reset(2);
  EXPECT_EQ(arena.bucket_count(), 2u);
  EXPECT_EQ(arena.total_size(), 0u);
  arena.push(0, 7);
  std::vector<int> got;
  arena.consume(0, [&got](int& v) { got.push_back(v); });
  EXPECT_EQ(got, std::vector<int>({7}));
}

TEST(ShuffleArena, MoveOnlyPayloads) {
  ShuffleArena<std::unique_ptr<int>> arena(3);
  arena.reset(1);
  for (int i = 0; i < 10; ++i) arena.push(0, std::make_unique<int>(i));
  int sum = 0;
  arena.consume(0, [&sum](std::unique_ptr<int>& p) {
    const std::unique_ptr<int> taken = std::move(p);
    sum += *taken;
  });
  EXPECT_EQ(sum, 45);
}

TEST(ShuffleArena, DistinctBucketsDrainConcurrently) {
  // The map/reduce handoff: one thread fills, then reducer threads drain
  // disjoint buckets concurrently. Run under TSan in the CI smoke job.
  constexpr std::size_t kBuckets = 16;
  constexpr int kItems = 20000;
  ShuffleArena<int> arena(64);
  arena.reset(kBuckets);
  std::int64_t pushed = 0;
  for (int i = 0; i < kItems; ++i) {
    arena.push(static_cast<std::size_t>(i) % kBuckets, i);
    pushed += i;
  }
  std::vector<std::int64_t> sums(kBuckets, 0);
  {
    std::vector<std::thread> threads;
    threads.reserve(kBuckets);
    for (std::size_t b = 0; b < kBuckets; ++b) {
      threads.emplace_back([&arena, &sums, b] {
        arena.consume(b, [&sums, b](int& v) { sums[b] += v; });
      });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(std::accumulate(sums.begin(), sums.end(), std::int64_t{0}), pushed);
  EXPECT_EQ(arena.total_size(), 0u);
}

TEST(ShuffleArena, TwoArenasFillAndDrainConcurrently) {
  // Two concurrent map tasks, each with a private arena (the simulator's
  // actual shape: arenas are per-task, only bucket drains cross threads).
  constexpr int kItems = 30000;
  auto job = [](std::int64_t* out) {
    ShuffleArena<std::string> arena;
    arena.reset(8);
    for (int i = 0; i < kItems; ++i) {
      arena.push(static_cast<std::size_t>(i) % 8, std::to_string(i));
    }
    std::int64_t bytes = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      arena.consume(b, [&bytes](std::string& s) {
        bytes += static_cast<std::int64_t>(s.size());
      });
    }
    *out = bytes;
  };
  std::int64_t bytes_a = 0;
  std::int64_t bytes_b = 0;
  {
    std::thread ta(job, &bytes_a);
    std::thread tb(job, &bytes_b);
    ta.join();
    tb.join();
  }
  EXPECT_GT(bytes_a, 0);
  EXPECT_EQ(bytes_a, bytes_b);
}

}  // namespace
}  // namespace sjc::mapreduce
