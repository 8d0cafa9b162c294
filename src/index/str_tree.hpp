// Bulk-loaded R-tree using Sort-Tile-Recursive packing.
//
// STR is SpatialSpark's local-join index (per partition pair, and over the
// whole right side in its broadcast plan) and the resident catalog's lookup
// index: the entry set is known up front, so packing beats dynamic
// insertion in both build time and query quality. Nodes are stored in a
// flat array with contiguous children, so traversal is pointer-chase-free —
// important because local joins probe the tree millions of times.
//
// Queries go through the templated for_each_intersecting (callback inlined
// into the traversal, for the hot local-join kernels) or query_ids.
// rebuild() re-packs the tree in place, reusing entry/node storage, so a
// task processing many partition pairs pays zero allocations once warm.
//
// Alongside the AoS nodes/entries (kept for the best-first k-NN search in
// nearest.hpp, which walks the tree node by node), build() mirrors every
// envelope into flat structure-of-arrays coordinate vectors.
// for_each_intersecting scans those with branchless compaction — candidate
// indices are written unconditionally and the write cursor advances by the
// comparison result — which keeps the probe loops free of unpredictable
// branches and lets them vectorize.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "index/spatial_index.hpp"

namespace sjc::index {

class StrTree {
 public:
  /// Builds a packed tree over `entries`. `fanout` is the max children per
  /// node (default 16, a good trade-off for in-memory trees). An empty
  /// entry set gives an empty tree; rebuild() re-packs it later (the
  /// LocalJoinScratch reuse path).
  explicit StrTree(std::vector<IndexEntry> entries, std::uint32_t fanout = 16);

  /// Re-packs the tree over `entries` in place. Entry and node storage is
  /// reused, so repeated rebuilds allocate nothing once capacity is warm.
  void rebuild(const std::vector<IndexEntry>& entries);

  /// Ids of the entries whose envelope intersects `query`.
  std::vector<std::uint32_t> query_ids(const geom::Envelope& query) const {
    std::vector<std::uint32_t> out;
    for_each_intersecting(query, [&out](std::uint32_t id) { out.push_back(id); });
    return out;
  }
  std::size_t size() const { return entries_.size(); }
  /// Modeled memory footprint (block headers, broadcast charges).
  std::size_t size_bytes() const;
  /// size_bytes() of a tree over `entries` entries, without building it:
  /// the node count depends only on the entry count and the fanout.
  static std::size_t size_bytes_for(std::size_t entries, std::uint32_t fanout = 16);
  /// Envelope of all entries (empty envelope when size() == 0).
  const geom::Envelope& bounds() const { return bounds_; }

  /// Tree height (0 for an empty tree, 1 for a single leaf level).
  std::uint32_t height() const { return height_; }

  // --- Introspection for the best-first k-NN search (nearest.hpp) ----------

  struct Node {
    geom::Envelope env;
    std::uint32_t first = 0;  // first child node id, or first entry id (leaf)
    std::uint32_t count = 0;  // child/entry count
    bool leaf = false;
  };

  bool empty() const { return entries_.empty(); }
  const Node& root() const { return nodes_.back(); }
  const Node& node(std::uint32_t id) const { return nodes_[id]; }
  const IndexEntry& entry(std::uint32_t id) const { return entries_[id]; }

  /// Invokes `fn(id)` for every entry intersecting `query`, with the
  /// callback inlined into the traversal (no std::function dispatch).
  /// Nodes already on the stack have passed their envelope test; both the
  /// child scan and the leaf scan run branchless over the SoA coordinate
  /// arrays, compacting survivors before any callback fires.
  template <typename Fn>
  void for_each_intersecting(const geom::Envelope& query, Fn&& fn) const {
    if (entries_.empty() || !bounds_.intersects(query)) return;
    const double qminx = query.min_x();
    const double qmaxx = query.max_x();
    const double qminy = query.min_y();
    const double qmaxy = query.max_y();
    const double* __restrict eminx = entry_min_x_.data();
    const double* __restrict emaxx = entry_max_x_.data();
    const double* __restrict eminy = entry_min_y_.data();
    const double* __restrict emaxy = entry_max_y_.data();
    const double* __restrict nminx = node_min_x_.data();
    const double* __restrict nmaxx = node_max_x_.data();
    const double* __restrict nminy = node_min_y_.data();
    const double* __restrict nmaxy = node_max_y_.data();
    // Worst case is (fanout-1) * height + 1 frames: far below the cap at
    // fanout 16 even for 10^9 entries, and still within it at fanout 256
    // (any larger fanout makes the tree so shallow the bound shrinks again).
    constexpr std::size_t kStackCap = 1024;
    constexpr std::uint32_t kLeafChunk = 256;
    std::uint32_t stack[kStackCap];
    std::uint32_t hits[kLeafChunk];
    std::size_t top = 0;
    stack[top++] = static_cast<std::uint32_t>(nodes_.size() - 1);
    while (top > 0) {
      const Node& node = nodes_[stack[--top]];
      const std::uint32_t first = node.first;
      const std::uint32_t count = node.count;
      if (node.leaf) {
        // Chunked so `hits` stays a fixed stack buffer at any fanout.
        for (std::uint32_t base = first; base < first + count; base += kLeafChunk) {
          const std::uint32_t end = std::min(base + kLeafChunk, first + count);
          std::size_t cnt = 0;
          for (std::uint32_t e = base; e < end; ++e) {
            hits[cnt] = e;
            cnt += static_cast<std::size_t>((qminx <= emaxx[e]) & (qmaxx >= eminx[e]) &
                                            (qminy <= emaxy[e]) & (qmaxy >= eminy[e]));
          }
          for (std::size_t h = 0; h < cnt; ++h) fn(entry_ids_[hits[h]]);
        }
      } else if (top + count < kStackCap) {
        for (std::uint32_t c = first; c < first + count; ++c) {
          stack[top] = c;
          top += static_cast<std::size_t>((qminx <= nmaxx[c]) & (qmaxx >= nminx[c]) &
                                          (qminy <= nmaxy[c]) & (qmaxy >= nminy[c]));
        }
      } else {
        // Unreachable at sane fanouts; guarded push keeps extreme trees safe.
        for (std::uint32_t c = first; c < first + count && top < kStackCap; ++c) {
          if ((qminx <= nmaxx[c]) & (qmaxx >= nminx[c]) & (qminy <= nmaxy[c]) &
              (qmaxy >= nminy[c])) {
            stack[top++] = c;
          }
        }
      }
    }
  }

 private:
  void build();

  std::vector<IndexEntry> entries_;  // permuted into leaf order
  std::vector<Node> nodes_;          // leaves first, root last
  // SoA mirrors of the entry (leaf order) and node envelopes, scanned by
  // for_each_intersecting.
  std::vector<double> entry_min_x_, entry_max_x_, entry_min_y_, entry_max_y_;
  std::vector<std::uint32_t> entry_ids_;
  std::vector<double> node_min_x_, node_max_x_, node_min_y_, node_max_y_;
  geom::Envelope bounds_;
  std::uint32_t fanout_ = 16;
  std::uint32_t height_ = 0;
};

}  // namespace sjc::index
