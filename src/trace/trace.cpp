#include "trace/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <unordered_map>

namespace sjc::trace {

const char* span_outcome_name(SpanOutcome outcome) {
  switch (outcome) {
    case SpanOutcome::kOk:
      return "ok";
    case SpanOutcome::kFailed:
      return "failed";
    case SpanOutcome::kSpeculativeLoser:
      return "speculative-loser";
    case SpanOutcome::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

struct TraceCollector::Shard {
  std::vector<TaskSpan> spans;
};

namespace {

std::uint64_t next_collector_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Thread-local cache of "my shard inside collector with id X". Keyed by the
/// collector's process-unique id, not its address, so a new collector
/// allocated where a destroyed one lived cannot inherit stale shard
/// pointers.
struct ShardCache {
  std::unordered_map<std::uint64_t, void*> by_collector;  // -> Shard*
};

ShardCache& local_cache() {
  thread_local ShardCache cache;
  return cache;
}

}  // namespace

TraceCollector::TraceCollector(std::uint32_t node_count, std::uint32_t slots_per_node)
    : id_(next_collector_id()),
      node_count_(node_count == 0 ? 1 : node_count),
      slots_per_node_(slots_per_node == 0 ? 1 : slots_per_node) {}

TraceCollector::~TraceCollector() = default;

TraceCollector::Shard& TraceCollector::local_shard() {
  ShardCache& cache = local_cache();
  const auto it = cache.by_collector.find(id_);
  if (it != cache.by_collector.end()) return *static_cast<Shard*>(it->second);
  std::lock_guard<std::mutex> lock(registry_mutex_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* shard = shards_.back().get();
  cache.by_collector.emplace(id_, shard);
  return *shard;
}

void TraceCollector::record(TaskSpan span) {
  // Owner-only append: each shard is written by exactly one thread, so after
  // the registration handshake there is no contention on the hot path.
  local_shard().spans.push_back(std::move(span));
}

TaskTimeline TraceCollector::merged() const {
  TaskTimeline timeline;
  timeline.node_count = node_count_;
  timeline.slots_per_node = slots_per_node_;
  std::size_t total = 0;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const auto& shard : shards_) total += shard->spans.size();
    timeline.spans.reserve(total);
    for (const auto& shard : shards_) {
      timeline.spans.insert(timeline.spans.end(), shard->spans.begin(),
                            shard->spans.end());
    }
  }
  // Deterministic order: a pure function of span content, independent of
  // which thread happened to record which span.
  std::stable_sort(timeline.spans.begin(), timeline.spans.end(),
                   [](const TaskSpan& a, const TaskSpan& b) {
                     if (a.sim_start != b.sim_start) return a.sim_start < b.sim_start;
                     if (a.phase != b.phase) return a.phase < b.phase;
                     if (a.task != b.task) return a.task < b.task;
                     if (a.attempt != b.attempt) return a.attempt < b.attempt;
                     return a.slot < b.slot;
                   });
  return timeline;
}

std::vector<PhaseSkew> skew_summary(const TaskTimeline& timeline) {
  std::vector<PhaseSkew> rows;
  std::unordered_map<std::string, std::size_t> index;
  std::vector<std::vector<double>> durations;
  for (const auto& span : timeline.spans) {
    auto [it, inserted] = index.emplace(span.phase, rows.size());
    if (inserted) {
      rows.push_back(PhaseSkew{});
      rows.back().phase = span.phase;
      durations.emplace_back();
    }
    PhaseSkew& row = rows[it->second];
    if (span.outcome == SpanOutcome::kQuarantined) {
      // Zero-duration blacklist markers are not attempts: count them but
      // keep them out of the duration percentiles.
      ++row.quarantined;
      continue;
    }
    ++row.attempts;
    if (span.outcome == SpanOutcome::kFailed) ++row.failed;
    if (span.outcome == SpanOutcome::kSpeculativeLoser) ++row.spec_losers;
    durations[it->second].push_back(std::max(0.0, span.sim_end - span.sim_start));
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    auto& d = durations[r];
    if (d.empty()) continue;
    std::sort(d.begin(), d.end());
    const std::size_t n = d.size();
    // Nearest-rank percentiles over the sorted attempt durations.
    const auto rank = [n](double p) {
      const std::size_t k =
          static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
      return k == 0 ? 0 : k - 1;
    };
    rows[r].min_s = d.front();
    rows[r].p50_s = d[rank(0.50)];
    rows[r].p95_s = d[rank(0.95)];
    rows[r].max_s = d.back();
    for (const double v : d) {
      if (v > 1.5 * rows[r].p50_s) ++rows[r].stragglers;
    }
  }
  return rows;
}

double phase_skew_ratio(const std::vector<PhaseSkew>& rows, std::string_view phase) {
  // RDD stage names carry the full lineage prefix
  // ("A.text.parse.assign.groupByKey.join.local-join"), so accept a
  // suffix-qualified match too; when several stages share the suffix, the
  // one with the most task attempts is the join stage being asked about.
  const PhaseSkew* best = nullptr;
  for (const auto& row : rows) {
    const bool exact = row.phase == phase;
    const bool suffix = row.phase.size() > phase.size() + 1 &&
                        row.phase[row.phase.size() - phase.size() - 1] == '.' &&
                        row.phase.compare(row.phase.size() - phase.size(),
                                          phase.size(), phase) == 0;
    if (exact) { best = &row; break; }
    if (suffix && (!best || row.attempts > best->attempts)) best = &row;
  }
  if (!best) return 0.0;
  return best->p50_s > 0.0 ? best->max_s / best->p50_s : 0.0;
}

std::vector<TenantSkew> tenant_summary(const TaskTimeline& timeline,
                                       const std::string& prefix) {
  std::vector<TenantSkew> rows;
  std::unordered_map<std::string, std::size_t> index;
  std::vector<std::vector<double>> durations;
  for (const auto& span : timeline.spans) {
    if (span.phase.size() <= prefix.size() ||
        span.phase.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string tenant = span.phase.substr(prefix.size());
    auto [it, inserted] = index.emplace(tenant, rows.size());
    if (inserted) {
      rows.push_back(TenantSkew{});
      rows.back().tenant = tenant;
      durations.emplace_back();
    }
    TenantSkew& row = rows[it->second];
    ++row.queries;
    if (span.outcome == SpanOutcome::kFailed) ++row.failed;
    const double d = std::max(0.0, span.sim_end - span.sim_start);
    row.total_s += d;
    durations[it->second].push_back(d);
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    auto& d = durations[r];
    if (d.empty()) continue;
    std::sort(d.begin(), d.end());
    const std::size_t n = d.size();
    const auto rank = [n](double p) {
      const std::size_t k =
          static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
      return k == 0 ? 0 : k - 1;
    };
    rows[r].min_s = d.front();
    rows[r].p50_s = d[rank(0.50)];
    rows[r].p99_s = d[rank(0.99)];
    rows[r].max_s = d.back();
  }
  return rows;
}

}  // namespace sjc::trace
