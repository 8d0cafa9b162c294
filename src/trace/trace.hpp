// Per-task simulated-timeline tracing.
//
// RunMetrics answers "how long did each phase take"; the paper's skew
// discussion (HadoopGIS straggler tasks, SpatialHadoop reduce imbalance)
// is about the *shape of the tasks inside a phase*, which aggregates cannot
// show. This module records one TaskSpan per scheduled attempt — map/reduce
// tasks, RDD stage tasks, master-side serial steps, DFS re-replication,
// lineage recomputes, retries and speculative clones — on the simulated
// timeline the scheduler already computes, and merges them into the run's
// TaskTimeline.
//
// Tracing is accounting-neutral by construction: the scheduler runs the
// same arithmetic whether or not a span sink is attached, so a traced run's
// RunReport is bit-identical to an untraced one (enforced by
// tests/test_data_plane.cpp under virtual time).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sjc::trace {

enum class SpanOutcome : std::uint8_t {
  kOk = 0,                // the attempt finished and its output was used
  kFailed = 1,            // crashed / pipe overflow; work wasted
  kSpeculativeLoser = 2,  // lost a speculative race; killed, work wasted
  kQuarantined = 3,       // zero-duration marker: a node was blacklisted here
};

const char* span_outcome_name(SpanOutcome outcome);

/// One scheduled attempt of one task on the simulated timeline. Times are
/// paper-unit seconds since the start of the run; `slot` is the global slot
/// index (node = slot / slots_per_node).
struct TaskSpan {
  std::string phase;            // the PhaseReport name this attempt belongs to
  std::uint64_t task = 0;       // task index within the phase (submission order)
  std::uint32_t attempt = 1;    // 1-based attempt number
  bool speculative = false;     // attempt launched as a speculative clone
  std::uint32_t slot = 0;       // global cluster slot the attempt occupied
  double sim_start = 0.0;       // paper seconds since run start
  double sim_end = 0.0;
  double cpu_seconds = 0.0;     // measured CPU charged to the task (post-efficiency)
  std::uint64_t bytes_in = 0;       // disk/DFS read volume (scaled magnitude)
  std::uint64_t bytes_out = 0;      // disk/DFS write volume (scaled magnitude)
  std::uint64_t bytes_shuffled = 0; // network volume (scaled magnitude)
  SpanOutcome outcome = SpanOutcome::kOk;
};

/// The merged per-run timeline: every attempt of every phase, sorted by
/// (sim_start, phase, task, attempt), plus the slot geometry needed to map
/// global slot ids back onto simulated nodes.
struct TaskTimeline {
  std::uint32_t node_count = 1;
  std::uint32_t slots_per_node = 1;
  std::vector<TaskSpan> spans;

  std::uint32_t total_slots() const { return node_count * slots_per_node; }
  bool empty() const { return spans.empty(); }
};

/// Collects TaskSpans during a run. Appends go to a per-thread shard —
/// lock-free after a thread's first record() (a mutex guards only shard
/// registration) — so pool workers can emit spans without serializing on a
/// shared sink. merged() must only be called once the run's parallel work
/// has quiesced (the drivers call it after the last phase is recorded).
class TraceCollector {
 public:
  TraceCollector(std::uint32_t node_count, std::uint32_t slots_per_node);
  ~TraceCollector();

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Appends one span to the calling thread's shard.
  void record(TaskSpan span);

  /// Merges every shard into a deterministically ordered timeline: span
  /// order is a pure function of span content, never of which thread
  /// recorded what.
  TaskTimeline merged() const;

 private:
  struct Shard;
  Shard& local_shard();

  const std::uint64_t id_;  // process-unique; guards thread-local shard caches
  std::uint32_t node_count_;
  std::uint32_t slots_per_node_;
  mutable std::mutex registry_mutex_;  // shard registration only
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Per-phase task-duration skew: the compact summary printed next to the
/// report tables. Durations are per-attempt sim seconds; `stragglers`
/// counts attempts longer than 1.5x the phase median (the same multiple
/// Hadoop's speculation heuristic keys on).
struct PhaseSkew {
  std::string phase;
  std::size_t attempts = 0;
  double min_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double max_s = 0.0;
  std::size_t stragglers = 0;
  std::size_t failed = 0;       // attempts with outcome kFailed
  std::size_t spec_losers = 0;  // attempts with outcome kSpeculativeLoser
  std::size_t quarantined = 0;  // node-quarantine markers (outcome kQuarantined)
};

/// Per-phase skew rows in first-appearance order of the phases.
std::vector<PhaseSkew> skew_summary(const TaskTimeline& timeline);

/// Observed task-time skew ratio (max / p50) of one phase of `rows` — how
/// the benches and tests verify that repartitioning flattened the tail.
/// Returns 0 when the phase is absent or its median is 0.
double phase_skew_ratio(const std::vector<PhaseSkew>& rows, std::string_view phase);

/// Per-tenant serving skew: the footer printed under multi-tenant serving
/// runs. The serving layer records one span per query with phase
/// "<prefix><tenant>" (serving::kTenantPhasePrefix); this groups those
/// spans by tenant and summarizes each tenant's query latencies. Spans
/// whose phase does not start with `prefix` are ignored, so a timeline can
/// mix per-task MR spans with serving spans.
struct TenantSkew {
  std::string tenant;
  std::size_t queries = 0;  // spans (completed queries), failures included
  std::size_t failed = 0;   // spans with outcome kFailed (rejected/error)
  double total_s = 0.0;     // summed service time (busy seconds)
  double min_s = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double max_s = 0.0;
};

/// Tenant rows in first-appearance order. `prefix` defaults to the serving
/// layer's span naming convention.
std::vector<TenantSkew> tenant_summary(const TaskTimeline& timeline,
                                       const std::string& prefix = "tenant/");

}  // namespace sjc::trace
