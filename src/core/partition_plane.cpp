#include "core/partition_plane.hpp"

#include <algorithm>
#include <functional>

#include "util/status.hpp"
#include "workload/quarantine.hpp"
#include "workload/tsv.hpp"

namespace sjc::core {

PartitionPlane::PartitionPlane(const JoinQueryConfig& query,
                               const cluster::ClusterSpec& cluster,
                               const plan::ExecPolicy& policy)
    : partitioner_(query.partitioner),
      configured_sample_rate_(query.sample_rate),
      skew_(policy.skew),
      expand_(envelope_expansion(query.predicate, query.within_distance)),
      filter_on_(policy.shuffle_filter.value_or(true)),
      repartition_(policy.repartition.value_or(false)),
      target_cells_(effective_target_partitions(query, cluster)) {}

double PartitionPlane::sample_rate(std::size_t records) const {
  return effective_sample_rate(configured_sample_rate_, records, target_cells_);
}

partition::PartitionScheme PartitionPlane::make_scheme(
    const std::vector<geom::Envelope>& sample, const geom::Envelope& extent) const {
  return partition::make_partitions(partitioner_, sample, extent, target_cells_);
}

void PartitionPlane::require_build_expansion(double built, const std::string& who) const {
  require(built == expand_, who +
                                ": query envelope expansion differs from the build's "
                                "(rebuild with the query's predicate)");
}

std::size_t ShuffleTally::thread_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard = next.fetch_add(1, std::memory_order_relaxed);
  return shard;
}

ShuffleTally::~ShuffleTally() {
  std::uint64_t records = 0;
  std::uint64_t kept[2] = {0, 0};
  std::uint64_t duplicates = 0;
  std::uint64_t dropped = 0;
  std::uint64_t dropped_bytes = 0;
  for (const Shard& s : shards_) {
    records += s.records.load(std::memory_order_relaxed);
    kept[kLeft] += s.kept[kLeft].load(std::memory_order_relaxed);
    kept[kRight] += s.kept[kRight].load(std::memory_order_relaxed);
    duplicates += s.duplicates.load(std::memory_order_relaxed);
    dropped += s.dropped.load(std::memory_order_relaxed);
    dropped_bytes += s.dropped_bytes.load(std::memory_order_relaxed);
  }
  const std::uint64_t shuffled = kept[kLeft] + kept[kRight];
  if (writes_.assignments) {
    sink_.add("partition.assignments", shuffled);
    sink_.add("partition.records", records);
  }
  if (writes_.duplicates) sink_.add("partition.duplicated_records", duplicates);
  if (writes_.sides) {
    sink_.add("assign.left_assignments", kept[kLeft]);
    sink_.add("assign.right_assignments", kept[kRight]);
  }
  if (writes_.shuffle) {
    sink_.add("shuffle.assigned_records", shuffled + dropped);
    sink_.add("shuffle.records", shuffled);
    if (dropped > 0 || !writes_.filtered_only_if_any) {
      sink_.add("shuffle.filtered_records", dropped);
      sink_.add("shuffle.filtered_bytes", dropped_bytes);
    }
  }
}

LocalJoinStage::LocalJoinStage(const JoinQueryConfig& query,
                               index::LocalJoinAlgorithm system_algorithm,
                               geom::EngineKind engine, cluster::Counters* refine_counters,
                               geom::PreparedCache* shared_cache)
    : cache_(shared_cache != nullptr ? *shared_cache : run_cache_),
      hits0_(cache_.hits()),
      misses0_(cache_.misses()),
      spec_{.algorithm = query.local_algorithm.value_or(system_algorithm),
            .engine = &geom::GeometryEngine::get(engine),
            .predicate = query.predicate,
            .within_distance = query.within_distance,
            .prepared_cache = &cache_,
            .refine_counters = refine_counters} {}

void LocalJoinStage::record_cache_counters(cluster::Counters& counters) const {
  counters.add("join.prepared_cache_hits", cache_.hits() - hits0_);
  counters.add("join.prepared_cache_misses", cache_.misses() - misses0_);
}

void record_result(RunReport& report, std::vector<JoinPair> pairs,
                   const ExecutionConfig& exec) {
  report.status = Status::Ok();
  report.result_count = pairs.size();
  report.result_hash = hash_pairs_unordered(pairs);
  if (exec.collect_pairs) report.pairs = std::move(pairs);
}

dfs::DfsConfig dfs_config(const JoinQueryConfig& query, const ExecutionConfig& exec) {
  return dfs::DfsConfig{
      .block_size = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(64.0 * 1024 * 1024 / exec.data_scale)),
      .replication = 3,
      .datanode_count = exec.cluster.node_count,
      .seed = query.seed,
  };
}

std::vector<std::vector<std::string>> chunk_lines(std::vector<std::string> lines,
                                                  std::size_t n) {
  std::vector<std::vector<std::string>> out;
  const std::size_t total = lines.size();
  const std::size_t per = (total + n - 1) / std::max<std::size_t>(n, 1);
  std::size_t i = 0;
  while (i < total) {
    const std::size_t end = std::min(i + per, total);
    out.emplace_back(std::make_move_iterator(lines.begin() + static_cast<std::ptrdiff_t>(i)),
                     std::make_move_iterator(lines.begin() + static_cast<std::ptrdiff_t>(end)));
    i = end;
  }
  if (out.empty()) out.emplace_back();
  return out;
}

std::vector<std::string> input_lines(const workload::Dataset& data, const std::string& tag,
                                     const cluster::FaultPlan& faults,
                                     cluster::Counters* counters) {
  auto lines = workload::dataset_to_tsv(data, /*include_pad=*/true);
  if (faults.malformed_rows > 0) {
    workload::inject_malformed_rows(lines, faults.malformed_rows,
                                    faults.seed ^ std::hash<std::string>{}(tag));
    if (counters != nullptr) {
      counters->add("input.malformed_rows_injected", faults.malformed_rows);
    }
  }
  return lines;
}

}  // namespace sjc::core
