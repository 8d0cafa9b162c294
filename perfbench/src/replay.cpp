#include "replay.hpp"

#include <algorithm>
#include <latch>
#include <memory>
#include <thread>

#include "geom/batch_refine.hpp"
#include "geom/prepared_cache.hpp"
#include "index/mbr_join.hpp"
#include "index/nearest.hpp"
#include "partition/partitioner.hpp"
#include "reference.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace pb {

namespace {

using sjc::core::JoinPair;
using sjc::core::JoinPredicate;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Candidate {
  std::uint32_t right;
  std::uint32_t left;
  friend bool operator<(const Candidate& a, const Candidate& b) {
    return a.right != b.right ? a.right < b.right : a.left < b.left;
  }
};

ReplayResult replay_once(const WorkloadSpec& spec, const Inputs& inputs,
                         const sjc::cluster::ClusterSpec& cluster, const Reference& ref) {
  namespace idx = sjc::index;
  ReplayResult r;
  sjc::core::JoinQueryConfig query;
  query.predicate = spec.predicate;
  const auto lenv = inputs.left.envelopes();
  const auto renv = inputs.right.envelopes();
  const auto& lfeat = inputs.left.features();
  const auto& rfeat = inputs.right.features();
  const std::size_t records = lenv.size() + renv.size();
  const std::uint32_t target = sjc::core::effective_target_partitions(query, cluster);

  // ---- partition: sample + scheme, then assign both sides -----------------
  sjc::CpuStopwatch sw;
  sjc::Rng rng(query.seed);
  std::vector<sjc::geom::Envelope> sample;
  for (const auto side : {lenv, renv}) {
    const double rate = sjc::core::effective_sample_rate(query.sample_rate, side.size(), target);
    for (const auto& env : side) {
      if (rng.bernoulli(rate)) sample.push_back(env);
    }
  }
  sjc::geom::Envelope extent = inputs.left.extent();
  extent.expand_to_include(inputs.right.extent());
  const auto scheme = sjc::partition::make_partitions(query.partitioner, sample, extent, target);
  r.sample_scheme_cpu_s = sw.seconds();

  sw.reset();
  const std::size_t cells = scheme.cell_count();
  std::vector<std::vector<std::uint32_t>> lcells(cells);
  std::vector<std::vector<std::uint32_t>> rcells(cells);
  std::vector<std::uint32_t> assigned;
  std::uint64_t assignments = 0;
  for (const auto& [envs, out] : {std::pair{lenv, &lcells}, std::pair{renv, &rcells}}) {
    for (std::size_t i = 0; i < envs.size(); ++i) {
      scheme.assign_into(envs[i], assigned);
      for (const auto c : assigned) (*out)[c].push_back(static_cast<std::uint32_t>(i));
      assignments += assigned.size();
    }
  }
  r.assign_cpu_s = sw.seconds();
  r.assign_ns_per_record = r.assign_cpu_s * 1e9 / static_cast<double>(records);
  r.dup_ratio = static_cast<double>(assignments) / static_cast<double>(records);

  // ---- index: per-cell MBR join with each system's algorithm --------------
  std::vector<std::vector<idx::IndexEntry>> lentries(cells);
  std::vector<std::vector<idx::IndexEntry>> rentries(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    for (const auto i : lcells[c]) lentries[c].push_back({lenv[i], i});
    for (const auto i : rcells[c]) rentries[c].push_back({renv[i], i});
  }
  idx::MbrJoinScratch scratch;
  double mbr_s = 0.0;
  std::uint64_t mbr_candidates = 0;
  for (const auto algo : {idx::LocalJoinAlgorithm::kPlaneSweep,                // SpatialHadoop
                          idx::LocalJoinAlgorithm::kIndexedNestedLoopDynamic,  // HadoopGIS
                          idx::LocalJoinAlgorithm::kIndexedNestedLoop}) {      // SpatialSpark
    std::uint64_t count = 0;
    for (std::size_t c = 0; c < cells; ++c) {
      if (lentries[c].empty() || rentries[c].empty()) continue;
      sw.reset();
      idx::local_mbr_join(algo, lentries[c], rentries[c], scratch,
                          [&count](std::uint32_t, std::uint32_t) { ++count; });
      mbr_s += sw.seconds();
    }
    mbr_candidates += count;
  }
  // Candidates grouped per cell by right feature, as run_local_join groups them.
  std::vector<std::vector<Candidate>> candidates(cells);
  std::uint64_t candidate_count = 0;
  for (std::size_t c = 0; c < cells; ++c) {
    if (lentries[c].empty() || rentries[c].empty()) continue;
    idx::local_mbr_join(idx::LocalJoinAlgorithm::kPlaneSweep, lentries[c], rentries[c], scratch,
                        [&](std::uint32_t l, std::uint32_t rr) {
                          candidates[c].push_back({rr, l});
                        });
    std::sort(candidates[c].begin(), candidates[c].end());
    candidate_count += candidates[c].size();
  }
  r.mbr_ns_per_candidate =
      mbr_candidates == 0 ? 0.0 : mbr_s * 1e9 / static_cast<double>(mbr_candidates);
  r.candidates_per_result =
      ref.count == 0 ? 0.0 : static_cast<double>(candidate_count) / static_cast<double>(ref.count);

  // ---- geom: batched refinement of every candidate -------------------------
  std::vector<std::unique_ptr<sjc::geom::BatchRefiner>> refiners(rfeat.size());
  for (const auto& cell : candidates) {
    for (const auto& cand : cell) {
      if (!refiners[cand.right]) {
        refiners[cand.right] = std::make_unique<sjc::geom::BatchRefiner>(rfeat[cand.right].geometry);
      }
    }
  }
  std::vector<JoinPair> hits;
  std::vector<sjc::geom::Coord> points;
  std::vector<std::uint32_t> point_lefts;
  std::vector<std::uint8_t> covered;
  sjc::geom::RefineStats stats;
  sw.reset();
  for (const auto& cell : candidates) {
    for (std::size_t begin = 0; begin < cell.size();) {
      const std::uint32_t right = cell[begin].right;
      std::size_t end = begin;
      while (end < cell.size() && cell[end].right == right) ++end;
      const auto& refiner = *refiners[right];
      points.clear();
      point_lefts.clear();
      for (std::size_t k = begin; k < end; ++k) {
        const auto& probe = lfeat[cell[k].left].geometry;
        if (refiner.has_areal() && probe.type() == sjc::geom::GeomType::kPoint) {
          points.push_back(probe.as_point());
          point_lefts.push_back(cell[k].left);
          continue;
        }
        const bool hit = spec.predicate == JoinPredicate::kWithin
                             ? refiner.contains(probe, stats)
                             : refiner.intersects(probe, stats);
        if (hit) hits.push_back({lfeat[cell[k].left].id, rfeat[right].id});
      }
      if (!points.empty()) {
        refiner.covers_points(points, covered, stats);
        for (std::size_t p = 0; p < points.size(); ++p) {
          if (covered[p] != 0) hits.push_back({lfeat[point_lefts[p]].id, rfeat[right].id});
        }
      }
      begin = end;
    }
  }
  const double refine_s = sw.seconds();
  r.refine_ns_per_candidate =
      candidate_count == 0 ? 0.0 : refine_s * 1e9 / static_cast<double>(candidate_count);

  // ---- core: duplicate elimination -----------------------------------------
  std::vector<JoinPair> distinct = hits;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  r.dedup_ratio =
      hits.empty() ? 0.0 : static_cast<double>(distinct.size()) / static_cast<double>(hits.size());
  r.pairs_match_reference = distinct.size() == ref.count &&
                            sjc::core::hash_pairs_unordered(distinct) == ref.hash;

  // ---- geom: PreparedCache acquisition from every hardware thread ----------
  // Cells are dealt round-robin to threads, each acquiring one refiner per
  // right-feature group in cell order (the local join's access order).
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  sjc::geom::PreparedCache cache;
  std::vector<double> thread_ns(threads, 0.0);
  std::vector<std::uint64_t> thread_acquires(threads, 0);
  {
    std::latch ready(threads);
    std::vector<std::jthread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        ready.arrive_and_wait();
        const double t0 = now_s();
        for (std::size_t c = t; c < cells; c += threads) {
          const auto& cell = candidates[c];
          for (std::size_t k = 0; k < cell.size(); ++k) {
            if (k > 0 && cell[k].right == cell[k - 1].right) continue;
            const auto& feature = rfeat[cell[k].right];
            (void)cache.acquire_refiner(feature.id, feature.geometry);
            ++thread_acquires[t];
          }
        }
        thread_ns[t] = (now_s() - t0) * 1e9;
      });
    }
  }
  double ns = 0.0;
  std::uint64_t acquires = 0;
  for (unsigned t = 0; t < threads; ++t) {
    ns += thread_ns[t];
    acquires += thread_acquires[t];
  }
  r.cache_acquire_ns = acquires == 0 ? 0.0 : ns / static_cast<double>(acquires);
  r.cache_hits = cache.hits();
  r.cache_misses = cache.misses();
  r.cache_evictions = cache.evictions();
  return r;
}

}  // namespace

ReplayResult replay_layers(const WorkloadSpec& spec, const Inputs& inputs,
                           const sjc::cluster::ClusterSpec& cluster, const Reference& ref,
                           int reps) {
  std::vector<ReplayResult> runs;
  for (int i = 0; i < std::max(1, reps); ++i) {
    runs.push_back(replay_once(spec, inputs, cluster, ref));
  }
  const auto med = [&runs](double ReplayResult::*field) {
    std::vector<double> values;
    for (const auto& run : runs) values.push_back(run.*field);
    return median(values);
  };
  ReplayResult r = runs.back();  // counts and ratios are identical across reps
  r.sample_scheme_cpu_s = med(&ReplayResult::sample_scheme_cpu_s);
  r.assign_cpu_s = med(&ReplayResult::assign_cpu_s);
  r.assign_ns_per_record = med(&ReplayResult::assign_ns_per_record);
  r.mbr_ns_per_candidate = med(&ReplayResult::mbr_ns_per_candidate);
  r.refine_ns_per_candidate = med(&ReplayResult::refine_ns_per_candidate);
  r.cache_acquire_ns = med(&ReplayResult::cache_acquire_ns);
  for (const auto& run : runs) r.pairs_match_reference &= run.pairs_match_reference;
  return r;
}

namespace {

template <typename RangeFn, typename KnnFn>
LookupTiming time_lookups(const std::vector<Lookup>& lookups, RangeFn&& range, KnnFn&& knn) {
  LookupTiming timing;
  std::vector<double> range_us;
  std::vector<double> knn_us;
  for (const auto& lookup : lookups) {
    const double t0 = now_s();
    if (lookup.knn) {
      const auto hits = knn(lookup);
      knn_us.push_back((now_s() - t0) * 1e6);
      timing.answers_match = timing.answers_match && knn_matches(lookup, hits);
    } else {
      const auto ids = range(lookup);
      range_us.push_back((now_s() - t0) * 1e6);
      timing.answers_match = timing.answers_match && range_matches(lookup, ids);
    }
  }
  timing.range_us = median(range_us);
  timing.knn_us = median(knn_us);
  return timing;
}

}  // namespace

LookupTiming time_entry_lookups(const sjc::serving::ResidentEntry& entry,
                                const std::vector<Lookup>& lookups) {
  return time_lookups(
      lookups, [&](const Lookup& l) { return entry.run_range(l.window, /*left_side=*/true); },
      [&](const Lookup& l) { return entry.run_knn(l.window, l.k, /*left_side=*/true); });
}

LookupTiming time_tree_lookups(const Inputs& inputs, const std::vector<Lookup>& lookups) {
  const auto tree = envelope_tree(inputs.left);
  return time_lookups(
      lookups,
      [&](const Lookup& l) {
        auto ids = tree.query_ids(l.window);
        std::sort(ids.begin(), ids.end());
        return ids;
      },
      [&](const Lookup& l) { return sjc::index::k_nearest_envelopes(tree, l.window, l.k); });
}

}  // namespace pb
