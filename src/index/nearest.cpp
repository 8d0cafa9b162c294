#include "index/nearest.hpp"

#include <queue>

namespace sjc::index {

namespace {

struct QueueItem {
  double distance;
  std::uint32_t node;   // node id, or entry id when is_entry
  bool is_entry;
  std::uint32_t tiebreak;  // entry id for deterministic ordering

  bool operator>(const QueueItem& other) const {
    if (distance != other.distance) return distance > other.distance;
    if (is_entry != other.is_entry) return is_entry && !other.is_entry;
    return tiebreak > other.tiebreak;
  }
};

using MinHeap = std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>>;

void push_children(const StrTree& tree, const StrTree::Node& node,
                   const geom::Envelope& query, MinHeap& heap) {
  for (std::uint32_t i = 0; i < node.count; ++i) {
    if (node.leaf) {
      const IndexEntry& e = tree.entry(node.first + i);
      heap.push({e.env.distance(query), node.first + i, true, e.id});
    } else {
      const StrTree::Node& child = tree.node(node.first + i);
      heap.push({child.env.distance(query), node.first + i, false, 0});
    }
  }
}

}  // namespace

std::vector<NearestHit> k_nearest_envelopes(const StrTree& tree,
                                            const geom::Envelope& query,
                                            std::size_t k) {
  std::vector<NearestHit> out;
  if (tree.empty() || k == 0) return out;
  MinHeap heap;
  push_children(tree, tree.root(), query, heap);
  while (!heap.empty() && out.size() < k) {
    const QueueItem item = heap.top();
    heap.pop();
    if (item.is_entry) {
      out.push_back({tree.entry(item.node).id, item.distance});
    } else {
      push_children(tree, tree.node(item.node), query, heap);
    }
  }
  return out;
}

}  // namespace sjc::index
