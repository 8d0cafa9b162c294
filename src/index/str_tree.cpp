#include "index/str_tree.hpp"

#include <algorithm>
#include <cmath>

#include "util/status.hpp"

namespace sjc::index {

StrTree::StrTree(std::vector<IndexEntry> entries, std::uint32_t fanout)
    : entries_(std::move(entries)), fanout_(fanout) {
  require(fanout >= 2, "StrTree: fanout must be >= 2");
  build();
}

void StrTree::rebuild(const std::vector<IndexEntry>& entries) {
  entries_.assign(entries.begin(), entries.end());
  build();
}

void StrTree::build() {
  const std::uint32_t fanout = fanout_;
  nodes_.clear();
  bounds_ = geom::Envelope();
  height_ = 0;
  for (const auto& e : entries_) bounds_.expand_to_include(e.env);
  if (entries_.empty()) {
    entry_min_x_.clear();
    entry_max_x_.clear();
    entry_min_y_.clear();
    entry_max_y_.clear();
    entry_ids_.clear();
    node_min_x_.clear();
    node_max_x_.clear();
    node_min_y_.clear();
    node_max_y_.clear();
    return;
  }

  // --- Leaf level: STR packing --------------------------------------------
  // Sort entries by x-center into ceil(sqrt(n/fanout)) vertical slices, then
  // by y-center within each slice, and cut runs of `fanout` into leaves.
  const std::size_t n = entries_.size();
  const auto leaf_count = (n + fanout - 1) / fanout;
  const auto slice_count = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(leaf_count))));
  const std::size_t slice_size =
      ((leaf_count + slice_count - 1) / slice_count) * fanout;

  std::sort(entries_.begin(), entries_.end(), [](const IndexEntry& a, const IndexEntry& b) {
    return a.env.center_x() < b.env.center_x();
  });
  for (std::size_t begin = 0; begin < n; begin += slice_size) {
    const std::size_t end = std::min(begin + slice_size, n);
    std::sort(entries_.begin() + static_cast<std::ptrdiff_t>(begin),
              entries_.begin() + static_cast<std::ptrdiff_t>(end),
              [](const IndexEntry& a, const IndexEntry& b) {
                return a.env.center_y() < b.env.center_y();
              });
  }

  for (std::size_t begin = 0; begin < n; begin += fanout) {
    const std::size_t end = std::min<std::size_t>(begin + fanout, n);
    Node leaf;
    leaf.leaf = true;
    leaf.first = static_cast<std::uint32_t>(begin);
    leaf.count = static_cast<std::uint32_t>(end - begin);
    for (std::size_t i = begin; i < end; ++i) leaf.env.expand_to_include(entries_[i].env);
    nodes_.push_back(leaf);
  }
  height_ = 1;

  // --- Inner levels: pack runs of `fanout` children ------------------------
  std::uint32_t level_begin = 0;
  auto level_count = static_cast<std::uint32_t>(nodes_.size());
  while (level_count > 1) {
    const std::uint32_t next_begin = level_begin + level_count;
    for (std::uint32_t begin = 0; begin < level_count; begin += fanout) {
      const std::uint32_t end = std::min(begin + fanout, level_count);
      Node inner;
      inner.leaf = false;
      inner.first = level_begin + begin;
      inner.count = end - begin;
      for (std::uint32_t i = begin; i < end; ++i) {
        inner.env.expand_to_include(nodes_[level_begin + i].env);
      }
      nodes_.push_back(inner);
    }
    level_begin = next_begin;
    level_count = static_cast<std::uint32_t>(nodes_.size()) - next_begin;
    ++height_;
  }

  // --- SoA mirrors for the branchless probe path ---------------------------
  entry_min_x_.resize(n);
  entry_max_x_.resize(n);
  entry_min_y_.resize(n);
  entry_max_y_.resize(n);
  entry_ids_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const IndexEntry& e = entries_[i];
    entry_min_x_[i] = e.env.min_x();
    entry_max_x_[i] = e.env.max_x();
    entry_min_y_[i] = e.env.min_y();
    entry_max_y_[i] = e.env.max_y();
    entry_ids_[i] = e.id;
  }
  const std::size_t m = nodes_.size();
  node_min_x_.resize(m);
  node_max_x_.resize(m);
  node_min_y_.resize(m);
  node_max_y_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const geom::Envelope& env = nodes_[i].env;
    node_min_x_[i] = env.min_x();
    node_max_x_[i] = env.max_x();
    node_min_y_[i] = env.min_y();
    node_max_y_[i] = env.max_y();
  }
}

std::size_t StrTree::size_bytes() const {
  // The tree object plus one pointer-sized word: the figure the modeled
  // block and broadcast sizes were calibrated with.
  return sizeof(*this) + sizeof(void*) + entries_.size() * sizeof(IndexEntry) +
         nodes_.size() * sizeof(Node) +
         entries_.size() * (4 * sizeof(double) + sizeof(std::uint32_t)) +
         nodes_.size() * 4 * sizeof(double);
}

}  // namespace sjc::index
