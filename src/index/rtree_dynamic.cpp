#include "index/rtree_dynamic.hpp"

#include <limits>

#include "util/status.hpp"

namespace sjc::index {

namespace {
constexpr std::uint32_t kNoSplit = std::numeric_limits<std::uint32_t>::max();
}

DynamicRTree::DynamicRTree(std::uint32_t max_entries)
    : max_entries_(max_entries), min_entries_(max_entries / 2) {
  require(max_entries >= 4, "DynamicRTree: max_entries must be >= 4");
  nodes_.push_back(Node{});  // empty leaf root
}

geom::Envelope DynamicRTree::node_env(const Node& node) const {
  geom::Envelope env;
  for (const auto& slot : node.slots) env.expand_to_include(slot.env);
  return env;
}

const geom::Envelope& DynamicRTree::bounds() const {
  bounds_cache_ = node_env(nodes_[root_]);
  return bounds_cache_;
}

void DynamicRTree::insert(const geom::Envelope& env, std::uint32_t id) {
  const std::uint32_t sibling = insert_rec(root_, env, id);
  if (sibling != kNoSplit) {
    Node new_root;
    new_root.leaf = false;
    new_root.slots.push_back({node_env(nodes_[root_]), root_});
    new_root.slots.push_back({node_env(nodes_[sibling]), sibling});
    nodes_.push_back(std::move(new_root));
    root_ = static_cast<std::uint32_t>(nodes_.size() - 1);
    ++height_;
  }
  ++size_;
}

std::uint32_t DynamicRTree::insert_rec(std::uint32_t node_id, const geom::Envelope& env,
                                       std::uint32_t id) {
  if (nodes_[node_id].leaf) {
    nodes_[node_id].slots.push_back({env, id});
  } else {
    // Guttman ChooseSubtree: least area enlargement, ties by least area.
    std::size_t best = 0;
    double best_enlargement = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    {
      const Node& node = nodes_[node_id];
      for (std::size_t i = 0; i < node.slots.size(); ++i) {
        const double area = node.slots[i].env.area();
        const double enlargement = node.slots[i].env.merged(env).area() - area;
        if (enlargement < best_enlargement ||
            (enlargement == best_enlargement && area < best_area)) {
          best = i;
          best_enlargement = enlargement;
          best_area = area;
        }
      }
    }
    const std::uint32_t child = nodes_[node_id].slots[best].child;
    nodes_[node_id].slots[best].env.expand_to_include(env);
    const std::uint32_t child_sibling = insert_rec(child, env, id);
    if (child_sibling != kNoSplit) {
      // nodes_ may have reallocated during the recursive call; refetch.
      Node& node = nodes_[node_id];
      node.slots[best].env = node_env(nodes_[child]);
      node.slots.push_back({node_env(nodes_[child_sibling]), child_sibling});
    }
  }
  if (nodes_[node_id].slots.size() > max_entries_) return split(node_id);
  return kNoSplit;
}

std::uint32_t DynamicRTree::split(std::uint32_t node_id) {
  // Guttman quadratic split: pick the two seeds wasting the most area when
  // combined, then assign remaining entries by strongest preference.
  std::vector<Slot> slots = std::move(nodes_[node_id].slots);
  const bool leaf = nodes_[node_id].leaf;

  std::size_t seed_a = 0;
  std::size_t seed_b = 1;
  double worst_waste = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    for (std::size_t j = i + 1; j < slots.size(); ++j) {
      const double waste = slots[i].env.merged(slots[j].env).area() -
                           slots[i].env.area() - slots[j].env.area();
      if (waste > worst_waste) {
        worst_waste = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  std::vector<Slot> group_a{slots[seed_a]};
  std::vector<Slot> group_b{slots[seed_b]};
  geom::Envelope env_a = slots[seed_a].env;
  geom::Envelope env_b = slots[seed_b].env;

  std::vector<Slot> rest;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (i != seed_a && i != seed_b) rest.push_back(slots[i]);
  }

  while (!rest.empty()) {
    // Force-assign when one group must take everything left to reach min.
    if (group_a.size() + rest.size() == min_entries_) {
      for (const auto& s : rest) {
        env_a.expand_to_include(s.env);
        group_a.push_back(s);
      }
      rest.clear();
      break;
    }
    if (group_b.size() + rest.size() == min_entries_) {
      for (const auto& s : rest) {
        env_b.expand_to_include(s.env);
        group_b.push_back(s);
      }
      rest.clear();
      break;
    }
    // PickNext: entry with the largest |d_a - d_b| preference.
    std::size_t pick = 0;
    double best_diff = -1.0;
    double pick_da = 0.0;
    double pick_db = 0.0;
    for (std::size_t i = 0; i < rest.size(); ++i) {
      const double da = env_a.merged(rest[i].env).area() - env_a.area();
      const double db = env_b.merged(rest[i].env).area() - env_b.area();
      const double diff = da > db ? da - db : db - da;
      if (diff > best_diff) {
        best_diff = diff;
        pick = i;
        pick_da = da;
        pick_db = db;
      }
    }
    const Slot chosen = rest[pick];
    rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(pick));
    const bool to_a =
        pick_da < pick_db ||
        (pick_da == pick_db && (env_a.area() < env_b.area() ||
                                (env_a.area() == env_b.area() &&
                                 group_a.size() <= group_b.size())));
    if (to_a) {
      env_a.expand_to_include(chosen.env);
      group_a.push_back(chosen);
    } else {
      env_b.expand_to_include(chosen.env);
      group_b.push_back(chosen);
    }
  }

  nodes_[node_id].slots = std::move(group_a);
  Node sibling;
  sibling.leaf = leaf;
  sibling.slots = std::move(group_b);
  nodes_.push_back(std::move(sibling));
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void DynamicRTree::clear() {
  nodes_.clear();
  nodes_.push_back(Node{});  // empty leaf root
  root_ = 0;
  height_ = 1;
  size_ = 0;
}

std::size_t DynamicRTree::size_bytes() const {
  std::size_t bytes = sizeof(*this) + nodes_.capacity() * sizeof(Node);
  for (const auto& node : nodes_) bytes += node.slots.capacity() * sizeof(Slot);
  return bytes;
}

}  // namespace sjc::index
