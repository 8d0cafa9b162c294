// MBR (filter-phase) join algorithms.
//
// Section II.C of the paper: within a partition pair, SpatialHadoop offers
// plane-sweep and synchronized R-tree traversal joins, while SpatialSpark
// uses an indexed nested-loop join; HadoopGIS also builds an R-tree per
// task. All three are provided here over plain (Envelope, id) entry lists
// so the systems and bench_localjoin can mix and match. Every algorithm
// emits exactly the set of pairs whose envelopes intersect; order differs.
//
// Each algorithm is a templated kernel, generic over the sink type, so the
// per-pair callback inlines into the innermost loop, optionally fed an
// MbrJoinScratch whose trees and sort buffers are reused across calls.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "index/rtree_dynamic.hpp"
#include "index/spatial_index.hpp"
#include "index/str_tree.hpp"
#include "util/status.hpp"

namespace sjc::index {

enum class LocalJoinAlgorithm {
  kPlaneSweep = 0,
  kSyncTraversal = 1,
  kIndexedNestedLoop = 2,         // bulk-loaded STR tree (SpatialSpark)
  kIndexedNestedLoopDynamic = 3,  // insert-built R-tree (HadoopGIS /
                                  // libspatialindex style)
  kNestedLoop = 4,                // baseline for tests/benches only
};

const char* local_join_algorithm_name(LocalJoinAlgorithm algo);

/// One side of a plane sweep in structure-of-arrays form, sorted by min_x.
/// load() sorts a u32 permutation (not 40-byte entries) and gathers the
/// coordinates into flat arrays the sweep scans branch-reduced.
struct SweepList {
  std::vector<double> min_x;
  std::vector<double> max_x;
  std::vector<double> min_y;
  std::vector<double> max_y;
  std::vector<std::uint32_t> ids;
  std::vector<std::pair<double, std::uint32_t>> order;  // (min_x, index) sort scratch

  std::size_t size() const { return ids.size(); }
  void load(const std::vector<IndexEntry>& entries);
};

/// Caller-owned reusable state for local_mbr_join: per-task trees and sweep
/// buffers survive across partition pairs, so a task wave rebuilds indexes
/// into warm storage instead of reallocating per call.
struct MbrJoinScratch {
  StrTree left_tree{std::vector<IndexEntry>{}};
  StrTree right_tree{std::vector<IndexEntry>{}};
  DynamicRTree right_dynamic;
  SweepList sweep_left;
  SweepList sweep_right;
  std::vector<std::uint32_t> sweep_hits;  // plane-sweep compaction buffer
};

// ---------------------------------------------------------------------------
// Templated kernels (sink inlined into the inner loops)
// ---------------------------------------------------------------------------

/// Sweep over two pre-sorted SoA lists: the classic two-cursor sweep along
/// x. For each pivot, the run of still-open x-intervals on the other side
/// is cut with an upper_bound on the sorted min_x array (no per-iteration
/// x test), then scanned with branchless compaction: every candidate index
/// is written into `hits` and the cursor advances by the y-overlap result,
/// so the scan has no data-dependent branches and the sink only fires in a
/// tight emit loop over survivors. `hits` is caller-owned scratch.
template <typename Sink>
void plane_sweep_join(const SweepList& ls, const SweepList& rs,
                      std::vector<std::uint32_t>& hits, Sink&& sink) {
  const std::size_t nl = ls.size();
  const std::size_t nr = rs.size();
  hits.resize(std::max(nl, nr));
  std::uint32_t* __restrict out = hits.data();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < nl && j < nr) {
    if (ls.min_x[i] <= rs.min_x[j]) {
      const double pivot_max_x = ls.max_x[i];
      const double pivot_min_y = ls.min_y[i];
      const double pivot_max_y = ls.max_y[i];
      const std::uint32_t pivot_id = ls.ids[i];
      const auto end = static_cast<std::size_t>(
          std::upper_bound(rs.min_x.begin() + static_cast<std::ptrdiff_t>(j),
                           rs.min_x.end(), pivot_max_x) -
          rs.min_x.begin());
      const double* __restrict rmin_y = rs.min_y.data();
      const double* __restrict rmax_y = rs.max_y.data();
      std::size_t cnt = 0;
      for (std::size_t k = j; k < end; ++k) {
        out[cnt] = static_cast<std::uint32_t>(k);
        cnt += static_cast<std::size_t>((pivot_min_y <= rmax_y[k]) &
                                        (pivot_max_y >= rmin_y[k]));
      }
      for (std::size_t h = 0; h < cnt; ++h) sink(pivot_id, rs.ids[out[h]]);
      ++i;
    } else {
      const double pivot_max_x = rs.max_x[j];
      const double pivot_min_y = rs.min_y[j];
      const double pivot_max_y = rs.max_y[j];
      const std::uint32_t pivot_id = rs.ids[j];
      const auto end = static_cast<std::size_t>(
          std::upper_bound(ls.min_x.begin() + static_cast<std::ptrdiff_t>(i),
                           ls.min_x.end(), pivot_max_x) -
          ls.min_x.begin());
      const double* __restrict lmin_y = ls.min_y.data();
      const double* __restrict lmax_y = ls.max_y.data();
      std::size_t cnt = 0;
      for (std::size_t k = i; k < end; ++k) {
        out[cnt] = static_cast<std::uint32_t>(k);
        cnt += static_cast<std::size_t>((pivot_min_y <= lmax_y[k]) &
                                        (pivot_max_y >= lmin_y[k]));
      }
      for (std::size_t h = 0; h < cnt; ++h) sink(ls.ids[out[h]], pivot_id);
      ++j;
    }
  }
}

template <typename Sink>
void plane_sweep_join(const SweepList& ls, const SweepList& rs, Sink&& sink) {
  std::vector<std::uint32_t> hits;
  plane_sweep_join(ls, rs, hits, sink);
}

/// Sort-both-sides plane sweep along x, staging both sides through the
/// scratch's SoA buffers (no IndexEntry copies, no per-call allocation once
/// the scratch is warm).
template <typename Sink>
void plane_sweep_join(const std::vector<IndexEntry>& left,
                      const std::vector<IndexEntry>& right, MbrJoinScratch& scratch,
                      Sink&& sink) {
  if (left.empty() || right.empty()) return;
  scratch.sweep_left.load(left);
  scratch.sweep_right.load(right);
  plane_sweep_join(scratch.sweep_left, scratch.sweep_right, scratch.sweep_hits, sink);
}

template <typename Sink>
void plane_sweep_join(const std::vector<IndexEntry>& left,
                      const std::vector<IndexEntry>& right, Sink&& sink) {
  if (left.empty() || right.empty()) return;
  SweepList ls;
  SweepList rs;
  ls.load(left);
  rs.load(right);
  plane_sweep_join(ls, rs, sink);
}

namespace detail {

template <typename Sink>
void sync_traversal_rec(const StrTree& lt, const StrTree& rt, const StrTree::Node& ln,
                        const StrTree::Node& rn, Sink& sink) {
  if (!ln.env.intersects(rn.env)) return;
  if (ln.leaf && rn.leaf) {
    for (std::uint32_t i = 0; i < ln.count; ++i) {
      const IndexEntry& le = lt.entry(ln.first + i);
      for (std::uint32_t j = 0; j < rn.count; ++j) {
        const IndexEntry& re = rt.entry(rn.first + j);
        if (le.env.intersects(re.env)) sink(le.id, re.id);
      }
    }
    return;
  }
  // Descend the taller / internal side (both when both are internal).
  if (!ln.leaf && (rn.leaf || ln.count >= rn.count)) {
    for (std::uint32_t i = 0; i < ln.count; ++i) {
      sync_traversal_rec(lt, rt, lt.node(ln.first + i), rn, sink);
    }
  } else {
    for (std::uint32_t j = 0; j < rn.count; ++j) {
      sync_traversal_rec(lt, rt, ln, rt.node(rn.first + j), sink);
    }
  }
}

}  // namespace detail

/// Synchronized descent of two STR trees.
template <typename Sink>
void sync_traversal_join(const StrTree& left, const StrTree& right, Sink&& sink) {
  if (left.empty() || right.empty()) return;
  detail::sync_traversal_rec(left, right, left.root(), right.root(), sink);
}

/// Probes `right_index` (built over the right side) with every left entry,
/// using the index's templated traversal so the probe callback inlines.
template <typename Index, typename Sink>
  requires requires(const Index& idx, const geom::Envelope& e) {
    idx.for_each_intersecting(e, [](std::uint32_t) {});
  }
void indexed_nested_loop_join(const std::vector<IndexEntry>& left,
                              const Index& right_index, Sink&& sink) {
  for (const auto& le : left) {
    right_index.for_each_intersecting(
        le.env, [&sink, &le](std::uint32_t rid) { sink(le.id, rid); });
  }
}

/// O(n*m) reference implementation.
template <typename Sink>
void nested_loop_join(const std::vector<IndexEntry>& left,
                      const std::vector<IndexEntry>& right, Sink&& sink) {
  for (const auto& le : left) {
    for (const auto& re : right) {
      if (le.env.intersects(re.env)) sink(le.id, re.id);
    }
  }
}

/// Dispatches on `algo`, (re)building whatever index the algorithm needs
/// into the caller-owned scratch.
template <typename Sink>
void local_mbr_join(LocalJoinAlgorithm algo, const std::vector<IndexEntry>& left,
                    const std::vector<IndexEntry>& right, MbrJoinScratch& scratch,
                    Sink&& sink) {
  switch (algo) {
    case LocalJoinAlgorithm::kPlaneSweep:
      plane_sweep_join(left, right, scratch, sink);
      return;
    case LocalJoinAlgorithm::kSyncTraversal:
      if (left.empty() || right.empty()) return;
      scratch.left_tree.rebuild(left);
      scratch.right_tree.rebuild(right);
      sync_traversal_join(scratch.left_tree, scratch.right_tree, sink);
      return;
    case LocalJoinAlgorithm::kIndexedNestedLoop:
      if (left.empty() || right.empty()) return;
      scratch.right_tree.rebuild(right);
      indexed_nested_loop_join(left, scratch.right_tree, sink);
      return;
    case LocalJoinAlgorithm::kIndexedNestedLoopDynamic:
      scratch.right_dynamic.clear();
      for (const auto& e : right) scratch.right_dynamic.insert(e.env, e.id);
      indexed_nested_loop_join(left, scratch.right_dynamic, sink);
      return;
    case LocalJoinAlgorithm::kNestedLoop:
      nested_loop_join(left, right, sink);
      return;
  }
  throw InvalidArgument("local_mbr_join: unknown algorithm");
}

template <typename Sink>
void local_mbr_join(LocalJoinAlgorithm algo, const std::vector<IndexEntry>& left,
                    const std::vector<IndexEntry>& right, Sink&& sink) {
  MbrJoinScratch scratch;
  local_mbr_join(algo, left, right, scratch, sink);
}

}  // namespace sjc::index
