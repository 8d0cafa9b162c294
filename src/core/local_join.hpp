// Local join: the per-partition-pair filter + refinement shared by all
// three systems (Section II.C).
//
// Within one partition pair the systems differ only in the MBR-join
// algorithm (plane sweep / STR-indexed nested loop / insert-built R-tree
// nested loop) and in the geometry engine used for refinement (Simple vs
// Prepared). run_local_join factors the common shape in two steps:
// candidate generation MBR-joins the two feature lists and runs the accept
// filter on each candidate; refine_candidates groups the candidates by the
// right-side feature and refines each group against it. Candidates come
// from one of three sources: a per-task index (SpatialSpark's and
// HadoopGIS's trees, built over the pair's envelopes on every call), two
// SweepLists sorted ahead of time (SpatialHadoop's packed blocks), or one
// STR tree over the whole right side that each left partition probes
// (SpatialSpark's broadcast plan, which needs no accept filter because it
// meets each pair once). The Prepared (JTS-analog)
// engine prepares the feature once as a geom::BatchRefiner; the Simple
// (GEOS-analog) engine calls predicates.hpp's naive functions per
// candidate, the feature first.
//
// run_local_join is templated end to end: the MBR-join sink and the accept
// filter inline into the kernel loops, candidate grouping is a
// counting-sort scatter (right ids are dense) instead of a comparison sort,
// expanded envelopes are computed once per feature, and a caller-owned
// LocalJoinScratch keeps entry buffers and per-task index trees warm across
// partition pairs. The Prepared engine takes its batch refiners from
// LocalJoinSpec::prepared_cache, a PreparedCache shared across partitions —
// each overlap-duplicated right geometry is prepared once per run instead
// of once per partition. The Simple engine never touches the cache: its
// from-scratch per-call work is the model being measured.
//
// Accounting: each call adds the candidates it refined, their RefineStats
// split and its PreparedCache hits and builds to the scratch's RefineTally.
// A scratch serves one task at a time, so no tally is written from two
// threads; the run's LocalJoinStage sums its pool's scratches and writes
// the refine.* and join.prepared_cache_* counters from the sum. The cache
// counts are the call's own lookups, not a delta of a cache other queries
// may be using at the same time.
//
// Duplicate avoidance: partitions overlap-assign features, so the same
// (left, right) pair can meet in several partition pairs. The caller
// supplies an `accept` filter — typically the reference-point test
// (`reference_point` below + "is this cell the canonical cell"), or
// AcceptAllPairs to keep everything and deduplicate globally
// (HadoopGIS-style).
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "cluster/counters.hpp"
#include "core/spatial_join.hpp"
#include "geom/batch_refine.hpp"
#include "geom/engine.hpp"
#include "geom/predicates.hpp"
#include "geom/prepared_cache.hpp"
#include "index/mbr_join.hpp"
#include "workload/dataset.hpp"

namespace sjc::core {

struct LocalJoinSpec {
  index::LocalJoinAlgorithm algorithm = index::LocalJoinAlgorithm::kIndexedNestedLoop;
  geom::EngineKind engine = geom::EngineKind::kPrepared;
  JoinPredicate predicate = JoinPredicate::kIntersects;
  double within_distance = 0.0;

  /// The cache of batch refiners, shared across partition pairs (and tasks
  /// — it is thread-safe). Required by the Prepared engine; the Simple
  /// engine never consults it, since its per-call work is the model.
  geom::PreparedCache* prepared_cache = nullptr;

  /// The query's envelope expansion (core::envelope_expansion).
  double envelope_expansion() const {
    return core::envelope_expansion(predicate, within_distance);
  }
};

/// The refinement work done with one LocalJoinScratch, summed over every
/// run_local_join call that used it.
struct RefineTally {
  /// Accept-filtered candidates refined.
  std::uint64_t candidates = 0;
  /// Their exact_tests / early_accepts / early_rejects split (the three sum
  /// to `candidates`; the Simple engine counts every candidate as an exact
  /// test), and the exact_fastpath / exact_slowpath split of exact tests by
  /// whether the adaptive exact predicate escalated past its float filter
  /// (the two sum to exact_tests).
  geom::RefineStats stats;
  /// PreparedCache lookups that found the refiner built or in flight, and
  /// those that built it (the Prepared engine only).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  RefineTally& operator+=(const RefineTally& other) {
    candidates += other.candidates;
    stats += other.stats;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    return *this;
  }
  bool operator==(const RefineTally&) const = default;

  /// Adds refine.candidates and the five refine.* splits to `counters`,
  /// unless no candidate was refined.
  void record(cluster::Counters& counters) const {
    if (candidates == 0) return;
    counters.add("refine.candidates", candidates);
    counters.add("refine.exact_tests", stats.exact_tests);
    counters.add("refine.early_accepts", stats.early_accepts);
    counters.add("refine.early_rejects", stats.early_rejects);
    counters.add("refine.exact_fastpath", stats.exact_fastpath);
    counters.add("refine.exact_slowpath", stats.exact_slowpath);
  }
};

/// Caller-owned reusable buffers for run_local_join. A task that processes
/// many partition pairs keeps one scratch (e.g. thread_local) so entry
/// vectors, candidate buffers and index trees are reused instead of
/// reallocated per pair.
///
/// The scratch also tallies the refinement work done with it: a task adds
/// to its own scratch and nothing else, so no two threads write one tally,
/// and the owner sums the tallies once the tasks are done (LocalJoinStage
/// writes them to the run's counters).
struct LocalJoinScratch {
  std::vector<index::IndexEntry> left_entries;
  std::vector<index::IndexEntry> right_entries;
  index::MbrJoinScratch mbr;
  /// (right id, left id) per MBR candidate the accept filter kept, in the
  /// MBR join's emit order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> candidates;
  std::vector<std::uint32_t> group_ends;  // per-right-id group end offsets
  std::vector<std::uint32_t> group_left;  // left ids grouped by right id
  // Batched-refinement buffers: gathered point probes and their batched
  // covered results.
  std::vector<geom::Coord> probe_points;
  std::vector<std::uint8_t> point_covered;
  RefineTally tally;
};

/// Query-scoped pool of LocalJoinScratch instances.
///
/// The system drivers used to keep one `static thread_local` scratch per
/// worker thread — harmless when every process ran exactly one join, but
/// wrong for a serving process whose pool threads outlive the query: scratch
/// buffers (and their high-water memory) from one tenant's query silently
/// survived into the next. A ScratchPool is owned by the *query* instead:
/// tasks check a scratch out for the duration of one task, buffers stay warm
/// across the partition pairs that task processes, and the whole pool (and
/// every buffer in it) dies with the query.
class ScratchPool {
 public:
  /// RAII checkout: returns the scratch to the pool on destruction.
  class Lease {
   public:
    Lease(ScratchPool& pool, std::unique_ptr<LocalJoinScratch> scratch)
        : pool_(&pool), scratch_(std::move(scratch)) {}
    Lease(Lease&&) = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (scratch_ != nullptr) pool_->release(std::move(scratch_));
    }
    LocalJoinScratch& operator*() const { return *scratch_; }
    LocalJoinScratch* operator->() const { return scratch_.get(); }

   private:
    ScratchPool* pool_;
    std::unique_ptr<LocalJoinScratch> scratch_;
  };

  /// The tallies of every scratch the pool holds: all the work its tasks
  /// did, once no lease is out.
  RefineTally tally() const {
    std::lock_guard<std::mutex> lock(mutex_);
    RefineTally sum;
    for (const auto& scratch : free_) sum += scratch->tally;
    return sum;
  }

  Lease acquire() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        auto scratch = std::move(free_.back());
        free_.pop_back();
        return {*this, std::move(scratch)};
      }
    }
    return {*this, std::make_unique<LocalJoinScratch>()};
  }

 private:
  void release(std::unique_ptr<LocalJoinScratch> scratch) {
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(scratch));
  }

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<LocalJoinScratch>> free_;
};

/// Accept filter that keeps every pair.
struct AcceptAllPairs {
  bool operator()(const geom::Envelope&, const geom::Envelope&) const { return true; }
};

/// Top-left corner of the two envelopes' intersection: the canonical point
/// for duplicate avoidance (identical in every partition pair where the two
/// features meet).
geom::Coord reference_point(const geom::Envelope& a, const geom::Envelope& b);

/// The shared refinement step: groups `scratch.candidates` by right id and
/// refines each group against the right feature, appending hits to `out` in
/// group order, candidate order within a group, and adds the work to
/// `scratch.tally`. Only a right feature with a candidate binds its refiner.
template <typename LeftSeq, typename RightSeq>
void refine_candidates(const LeftSeq& left, const RightSeq& right, const LocalJoinSpec& spec,
                       LocalJoinScratch& scratch, std::vector<JoinPair>& out) {
  const auto& candidates = scratch.candidates;
  if (candidates.empty()) return;

  // Group candidates by the right-side feature so each right geometry is
  // bound (prepared) at most once per pair list. Right ids are dense in
  // [0, right.size()), so a counting-sort scatter groups in O(candidates)
  // instead of the former O(c log c) comparison sort.
  auto& ends = scratch.group_ends;
  auto& grouped = scratch.group_left;
  ends.assign(right.size(), 0);
  for (const auto& [r, l] : candidates) ++ends[r];
  std::uint32_t running = 0;
  for (std::uint32_t r = 0; r < right.size(); ++r) {
    running += ends[r];
    ends[r] = running;  // start cursor of group r+... see scatter below
  }
  // After the prefix pass ends[r] is the END of group r; scatter backwards
  // through a cursor copy-free trick: decrement-and-place.
  grouped.resize(candidates.size());
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    grouped[--ends[it->first]] = it->second;
  }
  // Now ends[r] is the START of group r; group r spans
  // [ends[r], r + 1 < n ? ends[r + 1] : candidates.size()).

  const bool prepared_engine = spec.engine == geom::EngineKind::kPrepared;

  geom::RefineStats stats;

  for (std::uint32_t r = 0; r < right.size(); ++r) {
    const std::size_t begin = ends[r];
    const std::size_t end =
        r + 1 < right.size() ? ends[r + 1] : candidates.size();
    if (begin == end) continue;
    const auto& right_feature = right[r];

    if (prepared_engine) {
      // Batched group refinement: one BatchRefiner per right geometry,
      // whole candidate group refined against it (point probes batched
      // through the SoA point-in-polygon pass, everything else through the
      // approximation-gated scalar predicates). Results and output order
      // are bit-identical to the Simple engine's per-pair path below.
      bool built = false;
      const std::shared_ptr<const geom::BatchRefiner> refiner =
          spec.prepared_cache->acquire_refiner(right_feature.id, right_feature.geometry,
                                               &built);
      ++(built ? scratch.tally.cache_misses : scratch.tally.cache_hits);
      // For point probes against an areal anchor, the hole-aware covered
      // test answers both kIntersects and kWithin; gather them and run one
      // batched pass per group.
      const bool point_batch = refiner->has_areal() &&
                               (spec.predicate == JoinPredicate::kIntersects ||
                                spec.predicate == JoinPredicate::kWithin);
      auto& pts = scratch.probe_points;
      pts.clear();
      for (std::size_t c = begin; c < end; ++c) {
        const std::uint32_t l = grouped[c];
        if (point_batch && left[l].geometry.type() == geom::GeomType::kPoint) {
          pts.push_back(left[l].geometry.as_point());
        }
      }
      if (!pts.empty()) refiner->covers_points(pts, scratch.point_covered, stats);
      // Emit in original candidate order (batched answers are consumed in
      // gather order, which pass 1 produced in this same iteration order).
      std::size_t cursor = 0;
      for (std::size_t c = begin; c < end; ++c) {
        const auto& left_feature = left[grouped[c]];
        bool hit = false;
        if (point_batch && left_feature.geometry.type() == geom::GeomType::kPoint) {
          hit = scratch.point_covered[cursor++] != 0;
        } else {
          switch (spec.predicate) {
            case JoinPredicate::kIntersects:
              hit = refiner->intersects(left_feature.geometry, stats);
              break;
            case JoinPredicate::kWithin:
              hit = refiner->contains(left_feature.geometry, stats);
              break;
            case JoinPredicate::kWithinDistance:
              hit = refiner->within_distance(left_feature.geometry,
                                             spec.within_distance, stats);
              break;
          }
        }
        if (hit) out.push_back({left_feature.id, right_feature.id});
      }
      continue;
    }

    // Simple engine: from-scratch naive predicate per candidate, anchored
    // on the right geometry (the GEOS-analog model; never cached).
    const geom::Geometry& anchor = right_feature.geometry;
    for (std::size_t c = begin; c < end; ++c) {
      // The per-pair path has no approximations: every refined candidate
      // is an exact test, keeping the counter-sum invariant intact.
      const std::uint64_t slow0 = geom::exact::slowpath_calls();
      const auto& left_feature = left[grouped[c]];
      bool hit = false;
      const geom::Geometry& probe = left_feature.geometry;
      switch (spec.predicate) {
        case JoinPredicate::kIntersects:
          hit = geom::intersects_naive(anchor, probe);
          break;
        case JoinPredicate::kWithin:
          hit = geom::contains_naive(anchor, probe);
          break;
        case JoinPredicate::kWithinDistance:
          // MBR early-out first, as BatchRefiner::within_distance does.
          hit = anchor.envelope().distance(probe.envelope()) <= spec.within_distance &&
                geom::distance_naive(anchor, probe) <= spec.within_distance;
          break;
      }
      stats.note_exact(slow0);
      if (hit) out.push_back({left_feature.id, right_feature.id});
    }
  }

  scratch.tally.candidates += candidates.size();
  scratch.tally.stats += stats;
}

/// Joins `left` x `right` within one partition; appends accepted pairs to
/// `out`. `accept(left_env, right_env)` sees the epsilon-expanded envelopes
/// used for partition assignment. Builds spec.algorithm's per-task index
/// over both sides' envelopes on every call. The templated hot path: sink,
/// accept and predicate dispatch all inline, and `scratch` carries reusable
/// state across calls. `left`/`right` are any random-access feature
/// sequences (size()/empty()/operator[] -> const geom::Feature&): std::span
/// for materialized blocks, FeatureIndexSpan/FeatureRefSpan for the
/// zero-copy partition plane.
template <typename LeftSeq, typename RightSeq, typename AcceptFn>
void run_local_join(const LeftSeq& left, const RightSeq& right,
                    const LocalJoinSpec& spec, AcceptFn&& accept,
                    LocalJoinScratch& scratch, std::vector<JoinPair>& out) {
  require(spec.engine != geom::EngineKind::kPrepared || spec.prepared_cache != nullptr,
          "run_local_join: the Prepared engine needs a PreparedCache");
  if (left.empty() || right.empty()) return;

  // Filter phase: MBR join over local indices (epsilon-expanded for
  // within-distance joins). Expanded envelopes are computed once here and
  // reused by both the filter and the accept test.
  const double expand = spec.envelope_expansion();
  auto& left_entries = scratch.left_entries;
  auto& right_entries = scratch.right_entries;
  left_entries.clear();
  right_entries.clear();
  left_entries.reserve(left.size());
  right_entries.reserve(right.size());
  for (std::uint32_t i = 0; i < left.size(); ++i) {
    left_entries.push_back({left[i].geometry.envelope().expanded_by(expand), i});
  }
  for (std::uint32_t i = 0; i < right.size(); ++i) {
    right_entries.push_back({right[i].geometry.envelope().expanded_by(expand), i});
  }
  auto& candidates = scratch.candidates;
  candidates.clear();
  index::local_mbr_join(spec.algorithm, left_entries, right_entries, scratch.mbr,
                        [&](std::uint32_t l, std::uint32_t r) {
                          if (accept(left_entries[l].env, right_entries[r].env)) {
                            candidates.emplace_back(r, l);
                          }
                        });
  refine_candidates(left, right, spec, scratch, out);
}

/// The packed-block join: sweeps `left_index` x `right_index`, each the
/// side's expanded envelopes (spec.envelope_expansion()) sorted by min_x
/// once ahead of time, whose ids are positions in `left` / `right`. Emits
/// the pairs, in the order, that run_local_join with kPlaneSweep emits over
/// the same sides, and adds the same tallies.
template <typename LeftSeq, typename RightSeq, typename AcceptFn>
void run_local_join(const LeftSeq& left, const index::SweepList& left_index,
                    const RightSeq& right, const index::SweepList& right_index,
                    const LocalJoinSpec& spec, AcceptFn&& accept,
                    LocalJoinScratch& scratch, std::vector<JoinPair>& out) {
  require(spec.engine != geom::EngineKind::kPrepared || spec.prepared_cache != nullptr,
          "run_local_join: the Prepared engine needs a PreparedCache");
  if (left.empty() || right.empty()) return;
  auto& candidates = scratch.candidates;
  candidates.clear();
  index::plane_sweep_positions(
      left_index, right_index, scratch.mbr.sweep_hits, [&](std::size_t i, std::size_t k) {
        if (accept(left_index.envelope(i), right_index.envelope(k))) {
          candidates.emplace_back(right_index.ids[k], left_index.ids[i]);
        }
      });
  refine_candidates(left, right, spec, scratch, out);
}

/// The broadcast join: probes `right_index`, an STR tree over the right
/// side's expanded envelopes (spec.envelope_expansion()) whose ids are
/// positions in `right`, with each left feature's expanded envelope, and
/// refines every candidate. The broadcast plan meets each pair once, so no
/// accept filter runs.
template <typename LeftSeq, typename RightSeq>
void run_local_join(const LeftSeq& left, const RightSeq& right,
                    const index::StrTree& right_index, const LocalJoinSpec& spec,
                    LocalJoinScratch& scratch, std::vector<JoinPair>& out) {
  require(spec.engine != geom::EngineKind::kPrepared || spec.prepared_cache != nullptr,
          "run_local_join: the Prepared engine needs a PreparedCache");
  if (left.empty() || right.empty()) return;
  const double expand = spec.envelope_expansion();
  auto& candidates = scratch.candidates;
  candidates.clear();
  for (std::uint32_t l = 0; l < left.size(); ++l) {
    right_index.for_each_intersecting(
        left[l].geometry.envelope().expanded_by(expand),
        [&candidates, l](std::uint32_t r) { candidates.emplace_back(r, l); });
  }
  refine_candidates(left, right, spec, scratch, out);
}

}  // namespace sjc::core
