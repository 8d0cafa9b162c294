#include "trace/trace.hpp"

#include <algorithm>
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

void sort_spans(TaskTimeline& timeline) {
  std::stable_sort(timeline.spans.begin(), timeline.spans.end(),
                   [](const TaskSpan& a, const TaskSpan& b) {
                     if (a.sim_start != b.sim_start) return a.sim_start < b.sim_start;
                     if (a.phase != b.phase) return a.phase < b.phase;
                     if (a.task != b.task) return a.task < b.task;
                     if (a.attempt != b.attempt) return a.attempt < b.attempt;
                     return a.slot < b.slot;
                   });
}

namespace {

double duration(const TaskSpan& span) { return std::max(0.0, span.sim_end - span.sim_start); }

/// The spans sharing one summary key, and the ascending durations of those
/// the summary times.
struct SpanGroup {
  std::string key;
  std::vector<const TaskSpan*> spans;
  std::vector<double> durations;

  /// Nearest-rank percentile of the timed durations (which must not be
  /// empty).
  double percentile(double p) const {
    const auto k = static_cast<std::size_t>(std::ceil(p * static_cast<double>(durations.size())));
    return durations[k == 0 ? 0 : k - 1];
  }
};

/// Groups the spans `key` names, in first-appearance order of the names; a
/// span `key` maps to an empty name joins no group. `timed` picks the spans
/// whose durations enter their group's percentiles.
template <typename Key, typename Timed>
std::vector<SpanGroup> group_spans(const TaskTimeline& timeline, Key key, Timed timed) {
  std::vector<SpanGroup> groups;
  std::unordered_map<std::string, std::size_t> index;
  for (const auto& span : timeline.spans) {
    std::string name = key(span);
    if (name.empty()) continue;
    const auto [it, inserted] = index.emplace(name, groups.size());
    if (inserted) groups.push_back(SpanGroup{std::move(name), {}, {}});
    SpanGroup& group = groups[it->second];
    group.spans.push_back(&span);
    if (timed(span)) group.durations.push_back(duration(span));
  }
  for (auto& group : groups) std::sort(group.durations.begin(), group.durations.end());
  return groups;
}

}  // namespace

std::vector<PhaseSkew> skew_summary(const TaskTimeline& timeline) {
  // Zero-duration blacklist markers are not attempts: count them but keep
  // them out of the duration percentiles.
  const auto groups = group_spans(
      timeline, [](const TaskSpan& span) { return span.phase; },
      [](const TaskSpan& span) { return span.outcome != SpanOutcome::kQuarantined; });
  std::vector<PhaseSkew> rows;
  rows.reserve(groups.size());
  for (const auto& group : groups) {
    PhaseSkew& row = rows.emplace_back();
    row.phase = group.key;
    for (const TaskSpan* span : group.spans) {
      row.quarantined += span->outcome == SpanOutcome::kQuarantined;
      row.failed += span->outcome == SpanOutcome::kFailed;
      row.spec_losers += span->outcome == SpanOutcome::kSpeculativeLoser;
    }
    const auto& d = group.durations;
    row.attempts = d.size();
    if (d.empty()) continue;
    row.min_s = d.front();
    row.p50_s = group.percentile(0.50);
    row.p95_s = group.percentile(0.95);
    row.max_s = d.back();
    for (const double v : d) {
      if (v > 1.5 * row.p50_s) ++row.stragglers;
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
  const auto groups = group_spans(
      timeline,
      [&](const TaskSpan& span) {
        return span.phase.compare(0, prefix.size(), prefix) == 0
                   ? span.phase.substr(prefix.size())
                   : std::string();
      },
      [](const TaskSpan&) { return true; });
  std::vector<TenantSkew> rows;
  rows.reserve(groups.size());
  for (const auto& group : groups) {
    TenantSkew& row = rows.emplace_back();
    row.tenant = group.key;
    row.queries = group.spans.size();
    for (const TaskSpan* span : group.spans) {
      row.failed += span->outcome == SpanOutcome::kFailed;
      row.total_s += duration(*span);
    }
    row.min_s = group.durations.front();
    row.p50_s = group.percentile(0.50);
    row.p99_s = group.percentile(0.99);
    row.max_s = group.durations.back();
  }
  return rows;
}

}  // namespace sjc::trace
