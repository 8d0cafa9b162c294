#include "index/mbr_join.hpp"

#include <algorithm>
#include <numeric>

namespace sjc::index {

const char* local_join_algorithm_name(LocalJoinAlgorithm algo) {
  switch (algo) {
    case LocalJoinAlgorithm::kPlaneSweep: return "plane-sweep";
    case LocalJoinAlgorithm::kSyncTraversal: return "sync-rtree-traversal";
    case LocalJoinAlgorithm::kIndexedNestedLoop: return "indexed-nested-loop";
    case LocalJoinAlgorithm::kIndexedNestedLoopDynamic:
      return "indexed-nested-loop-dynamic";
    case LocalJoinAlgorithm::kNestedLoop: return "nested-loop";
  }
  return "?";
}

void SweepList::load(const std::vector<IndexEntry>& entries) {
  const std::size_t n = entries.size();
  // Sort contiguous (min_x, index) pairs — compares touch one 16-byte
  // stream instead of chasing a permutation into 40-byte entries — then
  // gather the coordinates into the SoA arrays in sorted order.
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = {entries[i].env.min_x(), static_cast<std::uint32_t>(i)};
  }
  std::sort(order.begin(), order.end(),
            [](const std::pair<double, std::uint32_t>& a,
               const std::pair<double, std::uint32_t>& b) { return a.first < b.first; });
  min_x.resize(n);
  max_x.resize(n);
  min_y.resize(n);
  max_y.resize(n);
  ids.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const IndexEntry& e = entries[order[i].second];
    min_x[i] = order[i].first;
    max_x[i] = e.env.max_x();
    min_y[i] = e.env.min_y();
    max_y[i] = e.env.max_y();
    ids[i] = e.id;
  }
}

}  // namespace sjc::index
