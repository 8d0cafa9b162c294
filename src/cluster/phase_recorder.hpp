// Phase booking shared by both engines.
//
// The paper's systems run one pipeline on two substrates. The engines differ
// in how they cost a phase's tasks (MapReduce spills to disk between jobs and
// pipes text through streaming, Spark pipelines stages in memory) and in how
// they recover (Hadoop retries and speculates tasks, Spark recomputes lost
// partitions from lineage). Booking a phase once its tasks are costed is the
// same on both, and PhaseRecorder does it once: the failure-aware FIFO
// schedule over the cluster's slots, one trace span per attempt, the
// PhaseReport, the commit-ledger and quarantine counters, and the plan's
// deadline and retry-budget checks, plus one-task serial phases (master
// steps, DFS repairs) and fault-free lineage recomputes.
//
// What stays with each engine is what really differs: the failure a dead
// phase throws, whether datanode losses that came due apply before
// (MapReduce) or after (Spark) the limit checks, and Spark's lineage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "cluster/counters.hpp"
#include "cluster/fault_injector.hpp"
#include "cluster/metrics.hpp"
#include "cluster/scheduler.hpp"
#include "cluster/sim_task.hpp"
#include "trace/trace.hpp"

namespace sjc::cluster {

class PhaseRecorder {
 public:
  /// Validates `faults` (FaultInjector's constructor throws InvalidArgument
  /// on a bad plan). `metrics` is required; `counters` and `trace` may be
  /// null.
  PhaseRecorder(const ClusterSpec& cluster, double data_scale, RunMetrics* metrics,
                Counters* counters = nullptr, const FaultPlan& faults = {});

  /// The cluster phases are scheduled onto. Spark shrinks it by one node per
  /// lost executor.
  ClusterSpec cluster;
  /// Paper records per generated record: converts measured quantities to
  /// paper magnitude.
  double data_scale;
  RunMetrics* metrics;
  /// Optional named-counter sink (commit ledger, quarantine, budget).
  Counters* counters;
  /// Optional per-task span sink. Tracing never changes what a phase charges.
  trace::TraceCollector* trace = nullptr;

  const FaultInjector& faults() const { return faults_; }

  /// Schedules `tasks` under the run's fault plan (retries, backoff,
  /// speculation, stragglers, quarantine) and books the phase: its spans,
  /// its PhaseReport and the commit.* and quarantine.nodes counters.
  /// `serial_seconds` (job startup, stage overhead) precede the task waves.
  /// `severity` (optional, parallel to `tasks`) carries deterministic
  /// per-task failure causes, see scheduler.hpp. A successful phase whose
  /// makespan plus `serial_seconds` overruns the plan's phase_timeout_s is
  /// charged exactly the timeout; enforce_limits then kills it. A failed
  /// phase (`success == false`) is booked with its wasted work, and the
  /// engine throws its own failure.
  ScheduleOutcome record(const std::string& name, const std::vector<SimTask>& tasks,
                         std::uint64_t bytes_read, std::uint64_t bytes_written,
                         std::uint64_t bytes_shuffled, double serial_seconds,
                         const std::vector<double>* severity = nullptr,
                         std::uint64_t max_task_pipe_bytes = 0);

  /// The plan's lifecycle limits for a successful phase booked by record():
  /// an overrun deadline counts budget.phase_timeouts and throws
  /// DeadlineExceeded; otherwise the phase's retries are added to the job's
  /// tally (budget.retries_used), and a tally beyond job_retry_budget
  /// throws RetryBudgetExhausted. `noun` names the phase in the message
  /// ("phase" on MapReduce, "stage" on Spark).
  void enforce_limits(const char* noun, const std::string& name,
                      const ScheduleOutcome& outcome, std::size_t task_count,
                      double serial_seconds);

  /// Books a one-task phase on one slot (a master step, a DFS repair),
  /// outside the fault plan and the commit counters.
  void record_serial(const std::string& name, const SimTask& task,
                     std::uint64_t bytes_read, std::uint64_t bytes_written,
                     std::uint64_t rereplicated_bytes = 0);

  /// Books the DFS re-replication after datanode `node` died, named after
  /// that node; `copy` carries the copy traffic.
  void record_repair(std::uint32_t node, const SimTask& copy,
                     std::uint64_t rereplicated_bytes);

  /// Books `partitions` lineage recomputes of `seconds` each, scheduled
  /// fault-free after `serial_seconds` and outside the commit counters.
  void record_recompute(const std::string& name, std::size_t partitions, double seconds,
                        double serial_seconds);

  /// Datanode losses the run clock has passed since the last call, in plan
  /// order. The engine applies them.
  std::vector<DatanodeLossEvent> take_due_losses();

 private:
  ScheduleOutcome schedule(const std::string& name, const std::vector<SimTask>& tasks,
                           const FaultInjector& faults, double serial_seconds,
                           const std::vector<double>* severity);
  bool overran(const ScheduleOutcome& outcome, double serial_seconds) const;

  FaultInjector faults_;
  /// Retries spent so far across the job: attempts beyond each task's
  /// first, speculative clones excluded.
  std::uint64_t retries_used_ = 0;
  /// Datanode-loss events of the plan handed out so far.
  std::size_t losses_taken_ = 0;
};

}  // namespace sjc::cluster
