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
// thread-safe, capacity-bounded (LRU) map from feature id to a batch
// refiner, shared by all tasks of a join wave (and, via
// serving::ResidentCatalog, by all queries against one resident entry).
//
// Misses are single-flight: the first lookup of an id installs a pending
// entry and builds the refiner outside the lock; concurrent lookups of that
// id wait for the build and count as hits. So whenever nothing is evicted,
// misses() equals the number of distinct ids looked up, independent of
// thread scheduling.
//
// Each entry owns a private copy of the geometry it was built against, so a
// cached handle stays valid even when the source partition block (or a
// streaming reducer's transient feature vector) is gone. Eviction never
// invalidates handles already handed out — they share ownership.
//
// Fidelity note: the cache models reuse of *prepared* structures only. The
// Simple (GEOS-analog) engine's from-scratch per-call evaluation is the
// model being measured, so callers must consult the cache only for the
// Prepared engine (core::run_local_join enforces this), keeping the
// JTS-vs-GEOS engine gap of Tables 2-3 intact.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "geom/batch_refine.hpp"
#include "geom/geometry.hpp"

namespace sjc::geom {

class PreparedCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;

  /// Builds an entry's refiner against the entry's own geometry copy. The
  /// default prepares a BatchRefiner; tests pass one that throws to drive
  /// the failed-build path.
  using MakeRefiner = std::function<BatchRefiner(const Geometry&)>;

  explicit PreparedCache(std::size_t capacity = kDefaultCapacity,
                         MakeRefiner make_refiner = {});

  /// Returns the BatchRefiner for feature `id`, building one (against an
  /// internally owned copy of `geometry`) on a miss. Two features with the
  /// same id must carry equal geometry — true for the partition-duplicated
  /// datasets this serves. A lookup that finds the id's build in flight
  /// waits for it. If a build throws, every lookup waiting on it rethrows
  /// and the id is dropped, so the next lookup builds again.
  std::shared_ptr<const BatchRefiner> acquire_refiner(std::uint64_t id,
                                                      const Geometry& geometry);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  /// Total acquire_refiner() calls. Invariant (checked by tests, including
  /// under TSan): hits() + misses() == lookups().
  std::uint64_t lookups() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;
  /// hits / lookups, 0 when never queried.
  double hit_rate() const;

  void clear();

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
  struct Entry {
    std::shared_future<Handle> refiner;  // pending until the build finishes
    std::uint64_t build = 0;             // identifies the build that owns it
    std::list<std::uint64_t>::iterator recency;  // this id's node in recency_
  };

  /// Erases `it` and its recency node. Caller holds mutex_.
  void erase_locked(std::unordered_map<std::uint64_t, Entry>::iterator it);

  const std::size_t capacity_;
  const MakeRefiner make_refiner_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  /// Entry ids by last use, most recent first: a hit splices its id to the
  /// front, eviction takes the back. O(1) under the mutex.
  std::list<std::uint64_t> recency_;
  std::uint64_t builds_ = 0;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace sjc::geom
