// Shared execution context for simulated MapReduce jobs.
//
// MrContext is the run's phase recorder (cluster/phase_recorder.hpp: the
// cluster, data scale, metrics, counters, fault plan and trace sink every
// phase is booked through) plus the DFS the jobs read and write. What is
// MapReduce's own here: a dead phase's failure is thrown by the job that ran
// it (TaskFailed, or BrokenPipe for streaming), and datanode losses that
// came due apply right after each phase, before its limit checks. MrConfig
// carries the Hadoop framework constants the paper's analysis repeatedly
// invokes: per-job startup overhead (why many small MR jobs hurt HadoopGIS,
// and why Hadoop "infrastructure overheads for small datasets" show in
// Table 3) and per-task scheduling/JVM overhead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/phase_recorder.hpp"
#include "dfs/sim_dfs.hpp"

namespace sjc::mapreduce {

struct MrConfig {
  /// Seconds (paper units) to submit+launch one MR job (JobTracker/YARN
  /// round-trips, container allocation).
  double job_startup_s = 12.0;
  /// Seconds (paper units) per task for scheduling + JVM spin-up.
  double task_overhead_s = 1.5;
  /// Number of reduce tasks; 0 = one per cluster slot.
  std::uint32_t reduce_tasks = 0;
  /// Ratio of this simulator's native C++ throughput to the modeled
  /// system's software stack (JVM geometry libraries, boxing, streaming
  /// glue). Measured CPU seconds are divided by this before scaling.
  double cpu_efficiency = 0.2;
  /// Per-reduce-task fetch setup latency for each map output segment, on
  /// multi-node clusters only (paper units): a reducer opens one connection
  /// per mapper, which is why the paper finds distributed shuffles during
  /// indexing "very expensive" on EC2 while nearly free on the workstation.
  double shuffle_fetch_latency_s = 0.8;
};

struct MrContext : cluster::PhaseRecorder {
  /// `faults` is the run's fault plan (validated here); the default plan is
  /// the fault-free seed model.
  MrContext(const cluster::ClusterSpec& cluster, double data_scale, dfs::SimDfs* dfs,
            cluster::RunMetrics* metrics, cluster::Counters* counters = nullptr,
            const cluster::FaultPlan& faults = {});

  dfs::SimDfs* dfs;
};

/// Charges a serial master-node step (e.g. HadoopGIS's local partition
/// generation, SpatialHadoop's getSplits MBR join): one task on one slot,
/// with DFS read/write of the given byte volumes. `cpu_seconds` is raw
/// measured time, divided by the master's CPU efficiency (0.2, the default
/// MrConfig::cpu_efficiency).
void charge_master_step(MrContext& ctx, const std::string& name, double cpu_seconds,
                        std::uint64_t read_bytes, std::uint64_t write_bytes);

/// Books a MapReduce phase from its simulated tasks through the context's
/// recorder (schedule under the fault plan, spans, PhaseReport, commit
/// counters; see PhaseRecorder::record), then applies the datanode losses
/// that came due, each as a dfs/re-replicate phase, and then, for a
/// successful phase, the lifecycle limits: an overrun deadline throws
/// DeadlineExceeded, retries beyond the job's budget throw
/// RetryBudgetExhausted. The phase is on the books before any throw, so a
/// killed job's metrics show where its clock stopped.
///
/// `task_severity` (optional, parallel to `tasks`) carries deterministic
/// per-task failure causes — for streaming, pipe_volume / pipe_capacity. On
/// `success == false` the caller decides which SimFailure to throw.
cluster::ScheduleOutcome record_phase(MrContext& ctx, const std::string& name,
                                      const std::vector<cluster::SimTask>& tasks,
                                      std::uint64_t bytes_read,
                                      std::uint64_t bytes_written,
                                      std::uint64_t bytes_shuffled,
                                      double extra_seconds,
                                      const std::vector<double>* task_severity =
                                          nullptr,
                                      std::uint64_t max_task_pipe_bytes = 0);

}  // namespace sjc::mapreduce
