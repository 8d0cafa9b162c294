#include "core/spatial_join.hpp"
#include <algorithm>

#include "util/rng.hpp"

namespace sjc::core {

const char* system_kind_name(SystemKind kind) {
  switch (kind) {
    case SystemKind::kHadoopGisSim: return "HadoopGIS-sim";
    case SystemKind::kSpatialHadoopSim: return "SpatialHadoop-sim";
    case SystemKind::kSpatialSparkSim: return "SpatialSpark-sim";
  }
  return "?";
}

const char* join_predicate_name(JoinPredicate predicate) {
  switch (predicate) {
    case JoinPredicate::kIntersects: return "intersects";
    case JoinPredicate::kWithin: return "within";
    case JoinPredicate::kWithinDistance: return "within-distance";
  }
  return "?";
}

std::uint32_t effective_target_partitions(const JoinQueryConfig& query,
                                          const cluster::ClusterSpec& cluster) {
  if (query.target_partitions != 0) return query.target_partitions;
  return std::max<std::uint32_t>(128, cluster.total_slots() * 2);
}

double effective_sample_rate(double configured_rate, std::size_t dataset_size,
                             std::uint32_t target_cells) {
  if (dataset_size == 0) return 1.0;
  const double floor_rate =
      std::min(1.0, 4.0 * static_cast<double>(target_cells) /
                        static_cast<double>(dataset_size));
  return std::max(configured_rate, floor_rate);
}

void annotate_recovery(RunReport& report) {
  std::uint64_t task_count = 0;
  for (const auto& p : report.metrics.phases()) task_count += p.task_count;
  report.attempts_used = report.metrics.total_task_attempts();
  report.recovered =
      report.status.ok() &&
      (report.attempts_used > task_count ||
       report.metrics.total_speculative_clones() > 0 ||
       report.metrics.total_recomputed_partitions() > 0 ||
       report.metrics.total_rereplicated_bytes() > 0);
}

std::uint64_t hash_pairs_unordered(const std::vector<JoinPair>& pairs) {
  // Commutative accumulation of a strong per-pair mix: equal sets hash
  // equal regardless of order; different multiplicities hash differently.
  std::uint64_t acc = 0;
  for (const auto& p : pairs) {
    acc += mix64(p.left_id * 0x9e3779b97f4a7c15ULL ^ mix64(p.right_id + 0x51ed2701));
  }
  return acc;
}

}  // namespace sjc::core
