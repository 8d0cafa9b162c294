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

const core::RunReport& ResidentEntry::build_report() const {
  switch (config_.system) {
    case core::SystemKind::kHadoopGisSim:
      return gis_->build_report();
    case core::SystemKind::kSpatialHadoopSim:
      return spatial_hadoop_->build_report();
    case core::SystemKind::kSpatialSparkSim:
      return spatial_spark_->build_report();
  }
  throw InvalidArgument("ResidentEntry: unknown system kind");
}

core::RunReport ResidentEntry::run_join(const core::JoinQueryConfig& query) const {
  switch (config_.system) {
    case core::SystemKind::kHadoopGisSim:
      return systems::run_hadoop_gis_resident(*gis_, query, config_.exec,
                                              config_.hadoop_gis, &prepared_cache_);
    case core::SystemKind::kSpatialHadoopSim:
      return systems::run_spatial_hadoop_resident(*spatial_hadoop_, query, config_.exec,
                                                  config_.spatial_hadoop,
                                                  &prepared_cache_);
    case core::SystemKind::kSpatialSparkSim: {
      if (!config_.spatial_spark.policy.cost_based_plan) {
        return systems::run_spatial_spark_resident(*spatial_spark_, query,
                                                   config_.exec,
                                                   config_.spatial_spark,
                                                   &prepared_cache_);
      }
      // Per-query cost-based plan choice: the resident partitioned tail is
      // the fast path, but a heavily filtered / small-right query can be
      // cheaper as a broadcast probe. The broadcast plan has no resident
      // tail (it shuffles nothing worth capturing), so when the model picks
      // it the entry executes a cold broadcast run over its own retained
      // datasets; either way the decision and the realized cost land in the
      // report's plan.* counters for the service's per-tenant stats.
      return systems::run_spatial_spark_cost_based(
          left_, right_, config_.exec, config_.spatial_spark, /*resident=*/true,
          [&](bool broadcast) {
            if (!broadcast) {
              return systems::run_spatial_spark_resident(*spatial_spark_, query,
                                                         config_.exec,
                                                         config_.spatial_spark,
                                                         &prepared_cache_);
            }
            systems::SpatialSparkConfig broadcast_cfg = config_.spatial_spark;
            broadcast_cfg.broadcast_join = true;
            broadcast_cfg.policy.cost_based_plan = false;
            return systems::run_spatial_spark(left_, right_, query, config_.exec,
                                              broadcast_cfg);
          });
    }
  }
  throw InvalidArgument("ResidentEntry: unknown system kind");
}

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
  entry->left_ = left;
  entry->right_ = right;
  switch (entry->config_.system) {
    case core::SystemKind::kHadoopGisSim:
      entry->gis_.emplace(systems::hadoop_gis_build_resident(
          entry->left_, entry->right_, entry->config_.build_query,
          entry->config_.exec, entry->config_.hadoop_gis));
      break;
    case core::SystemKind::kSpatialHadoopSim:
      entry->spatial_hadoop_.emplace(systems::spatial_hadoop_build_resident(
          entry->left_, entry->right_, entry->config_.build_query,
          entry->config_.exec, entry->config_.spatial_hadoop));
      break;
    case core::SystemKind::kSpatialSparkSim:
      entry->spatial_spark_.emplace(systems::spatial_spark_build_resident(
          entry->left_, entry->right_, entry->config_.build_query,
          entry->config_.exec, entry->config_.spatial_spark));
      break;
  }
  entry->left_tree_ = build_envelope_tree(entry->left_);
  entry->right_tree_ = build_envelope_tree(entry->right_);

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
