// Local join: the per-partition-pair filter + refinement shared by all
// three systems (Section II.C).
//
// Within one partition pair the systems differ only in the MBR-join
// algorithm (plane sweep / synchronized R-tree traversal / indexed nested
// loop) and in the geometry engine used for refinement (Simple vs
// Prepared). run_local_join factors the common shape: MBR-join the two
// feature lists, group candidates by the right-side feature, prepare that
// feature once and refine its whole candidate group against it. The
// Prepared (JTS-analog) engine refines each group through a
// geom::BatchRefiner; the Simple (GEOS-analog) engine binds the feature and
// evaluates its from-scratch predicate per candidate.
//
// run_local_join is templated end to end: the MBR-join sink and the accept
// filter inline into the kernel loops, candidate grouping is a
// counting-sort scatter (right ids are dense) instead of a comparison sort,
// expanded envelopes are computed once per feature, and a caller-owned
// LocalJoinScratch keeps entry buffers and per-task index trees warm across
// partition pairs. When LocalJoinSpec::prepared_cache is set and the engine
// is the Prepared one, batch refiners are shared across partitions through
// a PreparedCache — each overlap-duplicated right geometry is prepared once
// per run instead of once per partition. The Simple engine never touches
// the cache: its from-scratch per-call work is the model being measured.
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
#include "geom/prepared_cache.hpp"
#include "index/mbr_join.hpp"
#include "workload/dataset.hpp"

namespace sjc::core {

struct LocalJoinSpec {
  index::LocalJoinAlgorithm algorithm = index::LocalJoinAlgorithm::kIndexedNestedLoop;
  const geom::GeometryEngine* engine = &geom::GeometryEngine::prepared();
  JoinPredicate predicate = JoinPredicate::kIntersects;
  double within_distance = 0.0;

  /// Optional run-scoped cache of batch refiners, shared across partition
  /// pairs (and tasks — it is thread-safe). Consulted only when `engine` is
  /// the Prepared one; the Simple engine's per-call work is the model.
  geom::PreparedCache* prepared_cache = nullptr;

  /// Optional sink for refinement accounting. Per run_local_join call, adds
  /// `refine.candidates` (accept-filtered candidates refined), the
  /// `refine.exact_tests` / `refine.early_accepts` / `refine.early_rejects`
  /// split (the three always sum to refine.candidates; the Simple engine
  /// counts every candidate as an exact test), and the
  /// `refine.exact_fastpath` / `refine.exact_slowpath` split of exact tests
  /// by whether the adaptive exact predicate escalated past its float
  /// filter (the two always sum to refine.exact_tests).
  cluster::Counters* refine_counters = nullptr;

  /// The query's envelope expansion (core::envelope_expansion).
  double envelope_expansion() const {
    return core::envelope_expansion(predicate, within_distance);
  }
};

/// Caller-owned reusable buffers for run_local_join. A task that processes
/// many partition pairs keeps one scratch (e.g. thread_local) so entry
/// vectors, candidate buffers and index trees are reused instead of
/// reallocated per pair.
struct LocalJoinScratch {
  std::vector<index::IndexEntry> left_entries;
  std::vector<index::IndexEntry> right_entries;
  index::MbrJoinScratch mbr;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> candidates;  // (right, left)
  std::vector<std::uint32_t> group_ends;  // per-right-id group end offsets
  std::vector<std::uint32_t> group_left;  // left ids grouped by right id
  // Batched-refinement buffers: per-group accept mask, gathered point
  // probes and their batched covered results.
  std::vector<std::uint8_t> accept_flags;
  std::vector<geom::Coord> probe_points;
  std::vector<std::uint8_t> point_covered;
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

  std::mutex mutex_;
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

/// Exact predicate evaluation used by the refinement step (and by tests).
bool evaluate_predicate(const geom::GeometryEngine& engine, JoinPredicate predicate,
                        double within_distance, const geom::Geometry& left,
                        const geom::Geometry& right);

/// Joins `left` x `right` within one partition; appends accepted pairs to
/// `out`. `accept(left_env, right_env)` sees the epsilon-expanded envelopes
/// used for partition assignment. The templated hot path: sink, accept and
/// predicate dispatch all inline, and `scratch` carries reusable state
/// across calls. `left`/`right` are any random-access feature sequences
/// (size()/empty()/operator[] -> const geom::Feature&): std::span for
/// materialized blocks, FeatureIndexSpan/FeatureRefSpan for the zero-copy
/// partition plane.
template <typename LeftSeq, typename RightSeq, typename AcceptFn>
void run_local_join(const LeftSeq& left, const RightSeq& right,
                    const LocalJoinSpec& spec, AcceptFn&& accept,
                    LocalJoinScratch& scratch, std::vector<JoinPair>& out) {
  if (left.empty() || right.empty()) return;

  // Filter phase: MBR join over local indices (epsilon-expanded for
  // within-distance joins). Expanded envelopes are computed once here and
  // reused by both the filter and the accept test below.
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
                        [&candidates](std::uint32_t l, std::uint32_t r) {
                          candidates.emplace_back(r, l);
                        });
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

  const geom::GeometryEngine& engine = *spec.engine;
  const bool prepared_engine = engine.kind() == geom::EngineKind::kPrepared;

  geom::RefineStats stats;
  std::uint64_t refined = 0;

  for (std::uint32_t r = 0; r < right.size(); ++r) {
    const std::size_t begin = ends[r];
    const std::size_t end =
        r + 1 < right.size() ? ends[r + 1] : candidates.size();
    if (begin == end) continue;
    const auto& right_feature = right[r];
    const geom::Envelope& right_env = right_entries[r].env;

    if (prepared_engine) {
      // Batched group refinement: one BatchRefiner per right geometry,
      // whole candidate group refined against it (point probes batched
      // through the SoA point-in-polygon pass, everything else through the
      // approximation-gated scalar predicates). Results and output order
      // are bit-identical to the Simple engine's per-pair path below.
      std::shared_ptr<const geom::BatchRefiner> shared_refiner;
      std::unique_ptr<geom::BatchRefiner> owned_refiner;
      const geom::BatchRefiner* refiner;
      if (spec.prepared_cache != nullptr) {
        shared_refiner = spec.prepared_cache->acquire_refiner(right_feature.id,
                                                              right_feature.geometry);
        refiner = shared_refiner.get();
      } else {
        owned_refiner = std::make_unique<geom::BatchRefiner>(right_feature.geometry);
        refiner = owned_refiner.get();
      }
      // For point probes against an areal anchor, the hole-aware covered
      // test answers both kIntersects and kWithin; gather them and run one
      // batched pass per group.
      const bool point_batch = refiner->has_areal() &&
                               (spec.predicate == JoinPredicate::kIntersects ||
                                spec.predicate == JoinPredicate::kWithin);
      auto& flags = scratch.accept_flags;
      flags.resize(end - begin);
      auto& pts = scratch.probe_points;
      pts.clear();
      for (std::size_t c = begin; c < end; ++c) {
        const std::uint32_t l = grouped[c];
        const bool ok = accept(left_entries[l].env, right_env);
        flags[c - begin] = ok ? 1 : 0;
        if (ok) {
          ++refined;
          if (point_batch && left[l].geometry.type() == geom::GeomType::kPoint) {
            pts.push_back(left[l].geometry.as_point());
          }
        }
      }
      if (!pts.empty()) refiner->covers_points(pts, scratch.point_covered, stats);
      // Emit in original candidate order (batched answers are consumed in
      // gather order, which pass 1 produced in this same iteration order).
      std::size_t cursor = 0;
      for (std::size_t c = begin; c < end; ++c) {
        if (flags[c - begin] == 0) continue;
        const std::uint32_t l = grouped[c];
        const auto& left_feature = left[l];
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

    // Simple engine: bind per right geometry, from-scratch predicate per
    // candidate (the GEOS-analog model; never cached).
    const std::unique_ptr<geom::BoundPredicate> bound =
        engine.bind(right_feature.geometry);
    for (std::size_t c = begin; c < end; ++c) {
      const std::uint32_t l = grouped[c];
      // The accept filter sees the same (expanded) envelopes used for
      // partition assignment so reference-point dedup stays consistent.
      if (!accept(left_entries[l].env, right_env)) continue;
      // The per-pair path has no approximations: every refined candidate
      // is an exact test, keeping the counter-sum invariant intact.
      ++refined;
      const std::uint64_t slow0 = geom::exact::slowpath_calls();
      const auto& left_feature = left[l];
      bool hit = false;
      switch (spec.predicate) {
        case JoinPredicate::kIntersects:
          hit = bound->intersects(left_feature.geometry);
          break;
        case JoinPredicate::kWithin:
          hit = bound->contains(left_feature.geometry);
          break;
        case JoinPredicate::kWithinDistance:
          hit = bound->within_distance(left_feature.geometry, spec.within_distance);
          break;
      }
      stats.note_exact(slow0);
      if (hit) out.push_back({left_feature.id, right_feature.id});
    }
  }

  if (spec.refine_counters != nullptr && refined > 0) {
    spec.refine_counters->add("refine.candidates", refined);
    spec.refine_counters->add("refine.exact_tests", stats.exact_tests);
    spec.refine_counters->add("refine.early_accepts", stats.early_accepts);
    spec.refine_counters->add("refine.early_rejects", stats.early_rejects);
    spec.refine_counters->add("refine.exact_fastpath", stats.exact_fastpath);
    spec.refine_counters->add("refine.exact_slowpath", stats.exact_slowpath);
  }
}

}  // namespace sjc::core
