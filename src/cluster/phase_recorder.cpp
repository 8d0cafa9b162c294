#include "cluster/phase_recorder.hpp"

#include <utility>

#include "util/status.hpp"

namespace sjc::cluster {

PhaseRecorder::PhaseRecorder(const ClusterSpec& cluster, double data_scale,
                             RunMetrics* metrics, Counters* counters,
                             const FaultPlan& faults)
    : cluster(cluster),
      data_scale(data_scale),
      metrics(metrics),
      counters(counters),
      faults_(faults) {
  require(metrics != nullptr, "PhaseRecorder: metrics sink required");
}

ScheduleOutcome PhaseRecorder::schedule(const std::string& name,
                                        const std::vector<SimTask>& tasks,
                                        const FaultInjector& faults,
                                        double serial_seconds,
                                        const std::vector<double>* severity) {
  std::vector<double> durations;
  durations.reserve(tasks.size());
  for (const auto& t : tasks) durations.push_back(t.duration(cluster, data_scale));
  std::vector<ScheduledAttempt> attempts;
  ScheduleOutcome outcome = list_schedule_makespan(
      durations, cluster.total_slots(), faults, FaultInjector::phase_id(name), severity,
      trace != nullptr ? &attempts : nullptr, cluster.node.cores);
  if (trace == nullptr) return outcome;
  // Shift phase-relative attempt times onto the run clock: the phase starts
  // where the sequential clock stood, after its serial seconds.
  const double offset = metrics->total_seconds() + serial_seconds;
  for (const auto& a : attempts) {
    trace::TaskSpan span;
    span.phase = name;
    span.task = a.task;
    span.attempt = a.attempt;
    span.speculative = a.speculative;
    span.slot = a.slot;
    span.sim_start = offset + a.start;
    span.sim_end = offset + a.end;
    span.cpu_seconds = tasks[a.task].cpu_seconds;
    span.bytes_in = tasks[a.task].disk_read;
    span.bytes_out = tasks[a.task].disk_write;
    span.bytes_shuffled = tasks[a.task].network;
    span.outcome = a.outcome;
    trace->spans.push_back(std::move(span));
  }
  // Zero-duration markers at the moment each node was blacklisted.
  for (const auto& q : outcome.quarantines) {
    trace::TaskSpan span;
    span.phase = name;
    span.task = q.node;
    span.attempt = q.failures;
    span.slot = q.node * cluster.node.cores;
    span.sim_start = offset + q.time_s;
    span.sim_end = offset + q.time_s;
    span.outcome = trace::SpanOutcome::kQuarantined;
    trace->spans.push_back(std::move(span));
  }
  return outcome;
}

bool PhaseRecorder::overran(const ScheduleOutcome& outcome, double serial_seconds) const {
  const double timeout = faults_.plan().phase_timeout_s;
  return timeout > 0.0 && outcome.success && outcome.makespan + serial_seconds > timeout;
}

ScheduleOutcome PhaseRecorder::record(const std::string& name,
                                      const std::vector<SimTask>& tasks,
                                      std::uint64_t bytes_read, std::uint64_t bytes_written,
                                      std::uint64_t bytes_shuffled, double serial_seconds,
                                      const std::vector<double>* severity,
                                      std::uint64_t max_task_pipe_bytes) {
  const ScheduleOutcome outcome = schedule(name, tasks, faults_, serial_seconds, severity);
  PhaseReport phase;
  phase.name = name;
  // A successful phase that overran its deadline is killed at exactly the
  // timeout: charge the timeout, not the makespan.
  phase.sim_seconds = overran(outcome, serial_seconds) ? faults_.plan().phase_timeout_s
                                                       : outcome.makespan + serial_seconds;
  phase.bytes_read = bytes_read;
  phase.bytes_written = bytes_written;
  phase.bytes_shuffled = bytes_shuffled;
  phase.task_count = tasks.size();
  phase.max_task_pipe_bytes = max_task_pipe_bytes;
  phase.task_attempts = outcome.attempts;
  phase.speculative_clones = outcome.speculative_clones;
  phase.wasted_seconds = outcome.wasted_seconds;
  phase.commits_published = outcome.commits_published;
  phase.commits_rejected = outcome.commits_rejected;
  phase.attempts_aborted = outcome.attempts_aborted;
  phase.nodes_quarantined = outcome.quarantines.size();
  metrics->add_phase(std::move(phase));
  if (counters != nullptr) {
    if (outcome.commits_published > 0) {
      counters->add("commit.published", outcome.commits_published);
    }
    if (outcome.commits_rejected > 0) {
      counters->add("commit.rejected", outcome.commits_rejected);
    }
    if (outcome.attempts_aborted > 0) {
      counters->add("commit.aborted", outcome.attempts_aborted);
    }
    if (!outcome.quarantines.empty()) {
      counters->add("quarantine.nodes", outcome.quarantines.size());
    }
  }
  return outcome;
}

void PhaseRecorder::enforce_limits(const char* noun, const std::string& name,
                                   const ScheduleOutcome& outcome, std::size_t task_count,
                                   double serial_seconds) {
  const FaultPlan& plan = faults_.plan();
  if (overran(outcome, serial_seconds)) {
    if (counters != nullptr) counters->add("budget.phase_timeouts", 1);
    throw DeadlineExceeded(std::string(noun) + " '" + name +
                           "' overran its deadline: makespan " +
                           std::to_string(outcome.makespan + serial_seconds) +
                           "s > timeout " + std::to_string(plan.phase_timeout_s) + "s");
  }
  const std::uint64_t retries = outcome.attempts - task_count - outcome.speculative_clones;
  if (retries > 0) {
    retries_used_ += retries;
    if (counters != nullptr) counters->add("budget.retries_used", retries);
  }
  if (plan.job_retry_budget > 0 && retries_used_ > plan.job_retry_budget) {
    throw RetryBudgetExhausted("job retry budget exhausted: " +
                               std::to_string(retries_used_) + " retries used, budget " +
                               std::to_string(plan.job_retry_budget) + " (last " + noun +
                               " '" + name + "')");
  }
}

void PhaseRecorder::record_serial(const std::string& name, const SimTask& task,
                                  std::uint64_t bytes_read, std::uint64_t bytes_written,
                                  std::uint64_t rereplicated_bytes) {
  PhaseReport phase;
  phase.name = name;
  phase.sim_seconds = task.duration(cluster, data_scale);
  phase.bytes_read = bytes_read;
  phase.bytes_written = bytes_written;
  phase.task_count = 1;
  phase.task_attempts = 1;
  phase.commits_published = 1;
  phase.rereplicated_bytes = rereplicated_bytes;
  if (trace != nullptr) {
    trace::TaskSpan span;
    span.phase = name;
    span.sim_start = metrics->total_seconds();
    span.sim_end = span.sim_start + phase.sim_seconds;
    span.cpu_seconds = task.cpu_seconds;
    span.bytes_in = bytes_read;
    span.bytes_out = bytes_written;
    trace->spans.push_back(std::move(span));
  }
  metrics->add_phase(std::move(phase));
}

void PhaseRecorder::record_repair(std::uint32_t node, const SimTask& copy,
                                  std::uint64_t rereplicated_bytes) {
  record_serial("dfs/re-replicate[node" + std::to_string(node) + "]", copy,
                copy.disk_read, copy.disk_write, rereplicated_bytes);
}

void PhaseRecorder::record_recompute(const std::string& name, std::size_t partitions,
                                     double seconds, double serial_seconds) {
  static const FaultInjector fault_free{FaultPlan{}};
  SimTask task;
  task.fixed_overhead = seconds;
  const ScheduleOutcome outcome =
      schedule(name, std::vector<SimTask>(partitions, task), fault_free, serial_seconds,
               nullptr);
  PhaseReport phase;
  phase.name = name;
  phase.sim_seconds = outcome.makespan + serial_seconds;
  phase.task_count = partitions;
  phase.task_attempts = partitions;
  phase.commits_published = partitions;
  phase.recomputed_partitions = partitions;
  metrics->add_phase(std::move(phase));
}

std::vector<DatanodeLossEvent> PhaseRecorder::take_due_losses() {
  std::vector<DatanodeLossEvent> due =
      faults_.losses_due(metrics->total_seconds(), losses_taken_);
  losses_taken_ += due.size();
  return due;
}

}  // namespace sjc::cluster
