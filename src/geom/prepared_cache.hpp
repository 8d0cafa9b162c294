// PreparedCache: a cache of BatchRefiner handles keyed by feature id, scoped
// to a run or — in serving mode — shared across every query that touches the
// same resident dataset pair.
//
// Partition-based joins (the paper's §II design choice shared by all three
// systems) overlap-assign features, so the same right-side geometry appears
// in many partitions and — without this cache — is re-prepared once per
// partition pair it meets. LocationSpark (PAPERS.md) demonstrates the win
// from keeping query-side index/prepared structures alive across
// partitions; PreparedCache brings that to the shared local-join kernel: a
// thread-safe map from feature id to a batch refiner, shared by all tasks of
// a join wave (and, via serving::ResidentCatalog, by all queries against one
// resident entry).
//
// Each refiner is built once and kept as long as the cache's owner lives
// (the run's core::LocalJoinStage, or a resident entry). Nothing is evicted,
// so an entry's cache grows to the number of distinct right ids it joins.
//
// The map is cut into 64 shards by id, each with its own mutex, map and
// counters, so a lookup locks only its id's shard: hits on different
// shards never wait for each other, and no lookup takes a cache-wide lock.
//
// Misses are single-flight: the first lookup of an id installs a pending
// entry and builds the refiner outside the lock; concurrent lookups of that
// id wait for the build and count as hits. So misses() equals the number of
// distinct ids looked up, independent of thread scheduling (a failed build
// is dropped, and the next lookup of its id misses again).
//
// The totals above are the cache's, summed over every query that shares
// it. A query counts its own lookups through acquire_refiner's `built`
// out-parameter (core::LocalJoinScratch tallies them per task): a delta of
// the totals would also count any query overlapping it on the same cache.
//
// Each entry owns a private copy of the geometry it was built against, so a
// cached handle stays valid even when the source partition block (or a
// streaming reducer's transient feature vector) is gone, and even after the
// cache itself is destroyed — handles share ownership.
//
// Fidelity note: the cache models reuse of *prepared* structures only. The
// Simple (GEOS-analog) engine's from-scratch per-call evaluation is the
// model being measured, so callers must consult the cache only for the
// Prepared engine (core::run_local_join enforces this), keeping the
// JTS-vs-GEOS engine gap of Tables 2-3 intact.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "geom/batch_refine.hpp"
#include "geom/geometry.hpp"

namespace sjc::geom {

class PreparedCache {
 public:
  /// Builds an entry's refiner against the entry's own geometry copy. The
  /// default prepares a BatchRefiner; tests pass one that throws to drive
  /// the failed-build path.
  using MakeRefiner = std::function<BatchRefiner(const Geometry&)>;

  explicit PreparedCache(MakeRefiner make_refiner = {});

  /// Returns the BatchRefiner for feature `id`, building one (against an
  /// internally owned copy of `geometry`) on a miss. Two features with the
  /// same id must carry equal geometry — true for the partition-duplicated
  /// datasets this serves. A lookup that finds the id's build in flight
  /// waits for it. If a build throws, every lookup waiting on it rethrows
  /// and the id is dropped, so the next lookup builds again. When `built`
  /// is non-null, it is set to whether this lookup built the refiner (a
  /// miss) rather than found it built or in flight (a hit): a caller
  /// sharing the cache with other queries counts its own lookups from it.
  std::shared_ptr<const BatchRefiner> acquire_refiner(std::uint64_t id,
                                                      const Geometry& geometry,
                                                      bool* built = nullptr);

  std::size_t size() const;
  /// Total acquire_refiner() calls. Invariant (checked by tests, including
  /// under TSan): hits() + misses() == lookups() once no lookup is running.
  /// Each count sums the shards' counts.
  std::uint64_t lookups() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  /// Always 0: nothing is evicted. Kept for callers that report it.
  std::uint64_t evictions() const { return 0; }
  /// hits / lookups, 0 when never queried.
  double hit_rate() const;

  static constexpr std::size_t kShards = 64;
  /// The shard holding `id`'s entry, in [0, kShards).
  static std::size_t shard_of(std::uint64_t id) {
    // Fibonacci hashing: the top six bits of id * 2^64/phi, so dense and
    // strided ids both spread over every shard.
    static_assert(kShards == 64);
    return static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ULL) >> 58);
  }

 private:
  using Handle = std::shared_ptr<const BatchRefiner>;
  /// The geometry copy and, inline, the refiner built against it: one
  /// allocation with the handle's control block, plus the copy's
  /// coordinates and the refiner's one buffer.
  struct RefinerHolder {
    RefinerHolder(const Geometry& source, const MakeRefiner& make)
        : geometry(source), refiner(make(geometry)) {}
    Geometry geometry;  // owned copy; `refiner` references it
    BatchRefiner refiner;
  };

  /// One slice of the id space. Cache-line aligned so that lookups on
  /// neighbouring shards do not share a line.
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    /// Pending until the id's build finishes.
    std::unordered_map<std::uint64_t, std::shared_future<Handle>> entries;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  /// Sums `field` over the shards, each read under its lock.
  std::uint64_t sum(std::uint64_t Shard::*field) const;

  const MakeRefiner make_refiner_;
  std::array<Shard, kShards> shards_;
};

}  // namespace sjc::geom
