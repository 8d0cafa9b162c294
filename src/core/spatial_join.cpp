#include "core/spatial_join.hpp"

#include <algorithm>
#include <initializer_list>

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

double envelope_expansion(JoinPredicate predicate, double within_distance) {
  return predicate == JoinPredicate::kWithinDistance ? within_distance / 2.0 : 0.0;
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

std::vector<std::string> check_invariants(const RunReport& report) {
  std::vector<std::string> out;
  const auto sum_equals = [&](std::initializer_list<const char*> parts, const char* total) {
    const auto value = [&](const char* name) { return report.counters.get(name); };
    std::uint64_t sum = 0;
    for (const char* part : parts) sum += value(part);
    if (sum == value(total)) return;
    std::string line;
    for (const char* part : parts) {
      line += (line.empty() ? "" : " + ") + std::string(part) + "=" + std::to_string(value(part));
    }
    out.push_back(line + " != " + total + "=" + std::to_string(value(total)));
  };
  sum_equals({"shuffle.records", "shuffle.filtered_records"}, "shuffle.assigned_records");
  sum_equals({"refine.exact_fastpath", "refine.exact_slowpath"}, "refine.exact_tests");
  sum_equals({"refine.exact_tests", "refine.early_accepts", "refine.early_rejects"},
             "refine.candidates");

  // The plan's shuffle-filter decision (core::FilterDecision): a yes/no, a
  // rescue is a build, and a declined filter drops nothing.
  const auto counters = report.counters.snapshot();
  if (const auto it = counters.find("plan.filter_chosen"); it != counters.end()) {
    const std::uint64_t chosen = it->second;
    if (chosen > 1) {
      out.push_back("plan.filter_chosen=" + std::to_string(chosen) + " is not 0 or 1");
    }
    const std::uint64_t rescued = report.counters.get("plan.filter_rescued");
    if (rescued > chosen) {
      out.push_back("plan.filter_rescued=" + std::to_string(rescued) +
                    " exceeds plan.filter_chosen=" + std::to_string(chosen));
    }
    if (chosen == 0 && report.counters.get("shuffle.filtered_records") != 0) {
      out.push_back("filter declined but shuffle.filtered_records=" +
                    std::to_string(report.counters.get("shuffle.filtered_records")));
    }
  }

  for (const auto& phase : report.metrics.phases()) {
    if (phase.task_attempts == 0) continue;
    const std::uint64_t accounted =
        phase.commits_published + phase.commits_rejected + phase.attempts_aborted;
    if (phase.task_attempts != accounted) {
      out.push_back("commit ledger unbalanced in phase '" + phase.name + "': " +
                    std::to_string(phase.task_attempts) + " attempts vs " +
                    std::to_string(accounted) + " accounted");
    }
    if (report.status.ok() && phase.task_count > 0 &&
        phase.commits_published != phase.task_count) {
      out.push_back("phase '" + phase.name + "' published " +
                    std::to_string(phase.commits_published) + " outputs for " +
                    std::to_string(phase.task_count) + " tasks");
    }
  }
  return out;
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
