#include "core/partition_plane.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

#include "util/status.hpp"
#include "workload/quarantine.hpp"
#include "workload/tsv.hpp"

namespace sjc::core {

PartitionPlane::PartitionPlane(const JoinQueryConfig& query,
                               const cluster::ClusterSpec& cluster,
                               const plan::ExecPolicy& policy)
    : partitioner_(query.partitioner),
      configured_sample_rate_(query.sample_rate),
      expand_(envelope_expansion(query.predicate, query.within_distance)),
      filter_policy_(policy.shuffle_filter),
      repartition_(policy.repartition),
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

double SampleCopies::copies_per_record() const {
  if (records == 0) return 1.0;
  return static_cast<double>(assigned_copies) / static_cast<double>(records);
}

double SampleCopies::drop_fraction() const {
  if (assigned_copies == 0) return 0.0;
  return 1.0 - static_cast<double>(kept_copies) / static_cast<double>(assigned_copies);
}

namespace {

/// Predicted assigned and dropped copies of both whole inputs.
std::pair<double, double> predicted_copies(const plan::FilterInputs& in) {
  const double left = static_cast<double>(in.left_records) * in.copies_per_record;
  const double right = static_cast<double>(in.right_records) * in.right_copies_per_record;
  return {left + right, left * in.drop_fraction + right * in.right_drop_fraction};
}

/// Expands, assigns and probes every envelope of `sample` against `other`;
/// a null `other` keeps every copy.
SampleCopies probe_sample(const partition::PartitionScheme& scheme,
                          const std::vector<geom::Envelope>& sample,
                          const geom::OccupancyFilter* other, double expand) {
  SampleCopies out;
  out.records = sample.size();
  out.assigned.assign(scheme.cell_count(), 0);
  out.kept.assign(scheme.cell_count(), 0);
  std::vector<std::uint32_t> pids;
  for (const auto& env : sample) {
    const geom::Envelope expanded = env.expanded_by(expand);
    scheme.assign_into(expanded, pids);
    out.assigned_copies += pids.size();
    for (const auto pid : pids) {
      ++out.assigned[pid];
      if (other == nullptr || other->may_match(pid, expanded)) {
        ++out.kept[pid];
        ++out.kept_copies;
      }
    }
  }
  return out;
}

}  // namespace

std::uint64_t FilterDecision::drop_ppm() const {
  const auto [assigned, dropped] = predicted_copies(inputs);
  if (assigned <= 0.0) return 0;
  return static_cast<std::uint64_t>(dropped / assigned * 1e6);
}

double FilterDecision::selectivity() const {
  const auto [assigned, dropped] = predicted_copies(inputs);
  if (assigned <= 0.0) return 1.0;
  return 1.0 - dropped / assigned;
}

void FilterDecision::apply_gate(bool fits_unfiltered, bool fits_filtered) {
  if (!planned || build || fits_unfiltered || !fits_filtered) return;
  build = true;
  rescued = true;
}

void FilterDecision::record(cluster::Counters& counters) const {
  if (!planned) return;
  counters.add("plan.filter_chosen", build ? 1 : 0);
  counters.add("plan.filter_rescued", rescued ? 1 : 0);
  counters.add("plan.filter_probed_records", probed_records());
  counters.add("plan.filter_predicted_drop_ppm", drop_ppm());
  counters.add("plan.filter_predicted_saving", plan::cost_ms(prediction.saving_seconds));
  counters.add("plan.filter_predicted_cost", plan::cost_ms(prediction.cost_seconds));
}

FilterDecision PartitionPlane::probe_filter(const partition::PartitionScheme& scheme,
                                            const geom::OccupancyFilter& right_occupancy,
                                            const std::vector<geom::Envelope>& left_sample,
                                            const std::vector<geom::Envelope>* right_sample,
                                            plan::FilterInputs build) const {
  FilterDecision decision;
  decision.planned = true;
  decision.left = probe_sample(scheme, left_sample, &right_occupancy, expand_);
  build.copies_per_record = decision.left.copies_per_record();
  build.drop_fraction = decision.left.drop_fraction();
  if (right_sample != nullptr) {
    std::optional<geom::OccupancyFilter> left_occupancy;
    if (left_sample.size() >= build.left_records) {
      left_occupancy.emplace(scheme.cells());
      std::vector<std::uint32_t> pids;
      for (const auto& env : left_sample) {
        const geom::Envelope expanded = env.expanded_by(expand_);
        scheme.assign_into(expanded, pids);
        for (const auto pid : pids) left_occupancy->mark(pid, expanded);
      }
    }
    decision.right = probe_sample(scheme, *right_sample,
                                  left_occupancy ? &*left_occupancy : nullptr, expand_);
    build.right_copies_per_record = decision.right.copies_per_record();
    build.right_drop_fraction = decision.right.drop_fraction();
  }
  build.filter_bytes = right_occupancy.size_bytes();
  decision.inputs = build;
  decision.prediction = plan::predict_filter(build);
  decision.build = decision.prediction.build();
  return decision;
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
                               geom::EngineKind engine, cluster::Counters& counters,
                               geom::PreparedCache* shared_cache)
    : counters_(counters),
      spec_{.algorithm = system_algorithm,
            .engine = engine,
            .predicate = query.predicate,
            .within_distance = query.within_distance,
            .prepared_cache = shared_cache != nullptr ? shared_cache : &run_cache_.emplace()} {}

void LocalJoinStage::record_cache_counters() const {
  const RefineTally tally = scratch_pool_.tally();
  counters_.add("join.prepared_cache_hits", tally.cache_hits);
  counters_.add("join.prepared_cache_misses", tally.cache_misses);
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
