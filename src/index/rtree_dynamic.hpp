// Dynamic R-tree with Guttman quadratic split.
//
// This is the libspatialindex analog: HadoopGIS builds a fresh R-tree from
// the broadcast sample MBRs inside every map task by inserting one entry at
// a time (it cannot bulk-load because entries stream in). Keeping both a
// dynamic and a packed (STR) tree lets bench_localjoin quantify what that
// design choice costs.
#pragma once

#include <cstdint>
#include <vector>

#include "index/spatial_index.hpp"

namespace sjc::index {

class DynamicRTree {
 public:
  /// `max_entries` per node (min is max/2, Guttman's recommendation).
  explicit DynamicRTree(std::uint32_t max_entries = 16);

  /// Inserts one entry (O(log n) descend + possible splits).
  void insert(const geom::Envelope& env, std::uint32_t id);

  /// Resets to an empty tree, keeping node storage for reuse (the
  /// LocalJoinScratch path: rebuild per partition pair without churning the
  /// allocator).
  void clear();

  /// Ids of the entries whose envelope intersects `query`.
  std::vector<std::uint32_t> query_ids(const geom::Envelope& query) const {
    std::vector<std::uint32_t> out;
    for_each_intersecting(query, [&out](std::uint32_t id) { out.push_back(id); });
    return out;
  }
  std::size_t size() const { return size_; }
  /// Approximate memory footprint.
  std::size_t size_bytes() const;
  /// Envelope of all entries (empty envelope when size() == 0).
  const geom::Envelope& bounds() const;

  std::uint32_t height() const { return height_; }

  /// Invokes `fn(id)` for every entry intersecting `query`, with the
  /// callback inlined into the traversal (no std::function dispatch).
  template <typename Fn>
  void for_each_intersecting(const geom::Envelope& query, Fn&& fn) const {
    if (size_ == 0) return;
    std::vector<std::uint32_t> stack{root_};
    while (!stack.empty()) {
      const Node& node = nodes_[stack.back()];
      stack.pop_back();
      for (const auto& slot : node.slots) {
        if (!slot.env.intersects(query)) continue;
        if (node.leaf) {
          fn(slot.child);
        } else {
          stack.push_back(slot.child);
        }
      }
    }
  }

 private:
  struct Slot {
    geom::Envelope env;
    std::uint32_t child = 0;  // node id, or entry id at leaf level
  };
  struct Node {
    std::vector<Slot> slots;
    bool leaf = true;
  };

  geom::Envelope node_env(const Node& node) const;
  /// Inserts into the subtree rooted at node_id; returns the id of a new
  /// sibling when the node overflowed and split, or UINT32_MAX.
  std::uint32_t insert_rec(std::uint32_t node_id, const geom::Envelope& env,
                           std::uint32_t id);
  /// Quadratic split of an overflowing node; returns the new sibling's id.
  std::uint32_t split(std::uint32_t node_id);

  std::vector<Node> nodes_;
  std::uint32_t root_ = 0;
  std::uint32_t max_entries_;
  std::uint32_t min_entries_;
  std::uint32_t height_ = 1;
  std::size_t size_ = 0;
  mutable geom::Envelope bounds_cache_;
};

}  // namespace sjc::index
