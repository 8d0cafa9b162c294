#include "serving/resident_catalog.hpp"

#include <algorithm>
#include <utility>

namespace sjc::serving {

namespace {

std::unique_ptr<index::StrTree> build_envelope_tree(const workload::Dataset& data) {
  const auto envs = data.envelopes();
  std::vector<index::IndexEntry> entries;
  entries.reserve(envs.size());
  for (std::size_t i = 0; i < envs.size(); ++i) {
    entries.push_back({envs[i], static_cast<std::uint32_t>(i)});
  }
  return std::make_unique<index::StrTree>(std::move(entries));
}

}  // namespace

std::vector<std::uint32_t> ResidentEntry::run_range(const geom::Envelope& window,
                                                    bool left_side) const {
  const index::StrTree& tree = left_side ? *left_tree_ : *right_tree_;
  std::vector<std::uint32_t> ids = tree.query_ids(window);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<index::NearestHit> ResidentEntry::run_knn(const geom::Envelope& query,
                                                      std::size_t k,
                                                      bool left_side) const {
  const index::StrTree& tree = left_side ? *left_tree_ : *right_tree_;
  return index::k_nearest_envelopes(tree, query, k);
}

std::shared_ptr<const ResidentEntry> ResidentCatalog::install(
    const std::string& name, const workload::Dataset& left,
    const workload::Dataset& right, ResidentEntryConfig config) {
  // Build outside the catalog lock — one cold end-to-end run is expensive
  // and must not block lookups for other entries.
  auto entry = std::shared_ptr<ResidentEntry>(new ResidentEntry());
  entry->name_ = name;
  entry->config_ = std::move(config);
  const ResidentEntryConfig& c = entry->config_;
  switch (c.system) {
    case core::SystemKind::kHadoopGisSim:
      entry->join_ =
          systems::hadoop_gis_resident(left, right, c.build_query, c.exec, c.hadoop_gis);
      break;
    case core::SystemKind::kSpatialHadoopSim:
      entry->join_ = systems::spatial_hadoop_resident(left, right, c.build_query, c.exec,
                                                      c.spatial_hadoop);
      break;
    case core::SystemKind::kSpatialSparkSim:
      entry->join_ = systems::spatial_spark_resident(left, right, c.build_query, c.exec,
                                                     c.spatial_spark);
      break;
  }
  require(entry->join_.run != nullptr, "ResidentCatalog::install: unknown system kind");
  entry->left_tree_ = build_envelope_tree(left);
  entry->right_tree_ = build_envelope_tree(right);

  std::lock_guard<std::mutex> lock(mutex_);
  entries_[name] = entry;  // replace: old entry drains via its shared_ptr
  return entry;
}

std::shared_ptr<const ResidentEntry> ResidentCatalog::find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

bool ResidentCatalog::erase(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.erase(name) > 0;
}

std::size_t ResidentCatalog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::vector<std::string> ResidentCatalog::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace sjc::serving
