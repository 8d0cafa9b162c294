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
// Misses are single-flight: the first lookup of an id installs a pending
// entry and builds the refiner outside the lock; concurrent lookups of that
// id wait for the build and count as hits. So misses() equals the number of
// distinct ids looked up, independent of thread scheduling (a failed build
// is dropped, and the next lookup of its id misses again).
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
  /// and the id is dropped, so the next lookup builds again.
  std::shared_ptr<const BatchRefiner> acquire_refiner(std::uint64_t id,
                                                      const Geometry& geometry);

  std::size_t size() const;
  /// Total acquire_refiner() calls. Invariant (checked by tests, including
  /// under TSan): hits() + misses() == lookups().
  std::uint64_t lookups() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  /// Always 0: nothing is evicted. Kept for callers that report it.
  std::uint64_t evictions() const { return 0; }
  /// hits / lookups, 0 when never queried.
  double hit_rate() const;

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

  const MakeRefiner make_refiner_;
  mutable std::mutex mutex_;
  /// Pending until the id's build finishes.
  std::unordered_map<std::uint64_t, std::shared_future<Handle>> entries_;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace sjc::geom
