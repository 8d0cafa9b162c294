// Shared execution context for simulated MapReduce jobs.
//
// MrContext is the run's phase recorder (cluster/phase_recorder.hpp: the
// cluster, data scale, metrics, counters, fault plan and trace sink every
// phase is booked through) plus the DFS the jobs read and write. What is
// MapReduce's own here: JobPhase books a job's phase and throws the failure
// that killed it (TaskFailed, or BrokenPipe for a streaming task's pipe),
// and datanode losses that came due apply right after each phase, before
// its limit checks. The Hadoop framework constants below are the ones the
// paper's analysis repeatedly invokes: per-job startup overhead (why many
// small MR jobs hurt HadoopGIS, and why Hadoop "infrastructure overheads for
// small datasets" show in Table 3) and per-task scheduling/JVM overhead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/phase_recorder.hpp"
#include "dfs/sim_dfs.hpp"

namespace sjc::mapreduce {

/// Seconds (paper units) to submit+launch one MR job (JobTracker/YARN
/// round-trips, container allocation).
inline constexpr double kJobStartupSeconds = 12.0;
/// Seconds (paper units) per task for scheduling + JVM spin-up.
inline constexpr double kTaskOverheadSeconds = 1.5;
/// Per-reduce-task fetch setup latency for each map output segment, on
/// multi-node clusters only (paper units): a reducer opens one connection
/// per mapper, which is why the paper finds distributed shuffles during
/// indexing "very expensive" on EC2 while nearly free on the workstation.
inline constexpr double kShuffleFetchLatencySeconds = 0.8;
/// Bytes/sec (paper units) a streaming task's stdin+stdout pipes sustain.
inline constexpr double kPipeBandwidth = 180.0 * 1024 * 1024;

/// What a driver sets per job.
struct MrConfig {
  /// Number of reduce tasks; 0 = one per cluster slot.
  std::uint32_t reduce_tasks = 0;
  /// Ratio of this simulator's native C++ throughput to the modeled
  /// system's software stack (JVM geometry libraries, boxing, streaming
  /// glue). Measured CPU seconds are divided by this before scaling.
  double cpu_efficiency = 0.2;
  /// Max bytes (paper units) through one streaming task's pipes before it
  /// breaks; 0 disables the check. HadoopGIS derives it from per-slot
  /// memory. Native jobs pipe nothing.
  std::uint64_t pipe_capacity_bytes = 0;
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

/// One phase of a job (map, reduce or map-only): its tasks are costed while
/// they run, each filling only its own slot, then the phase is booked once.
/// `pipes` marks a streaming job's phase, whose tasks pipe every byte they
/// read and write.
class JobPhase {
 public:
  JobPhase(std::string name, std::size_t tasks, const MrConfig& config, bool pipes);

  /// Charges task `i`'s CPU, its measured `cpu_seconds` over the job's
  /// cpu_efficiency plus, through pipes, its `in_bytes + out_bytes` at
  /// kPipeBandwidth, and its kTaskOverheadSeconds. The caller adds the
  /// task's I/O to the returned task.
  cluster::SimTask& charge(std::size_t i, double cpu_seconds, std::uint64_t in_bytes,
                           std::uint64_t out_bytes);

  /// Books the phase through the context's recorder (schedule under the
  /// fault plan, spans, PhaseReport, commit counters; see
  /// PhaseRecorder::record) with its tasks' disk reads and writes, the reads
  /// as shuffled bytes when `shuffle` (a reduce phase), and `serial_seconds`
  /// before the task waves. Through pipes each task's failure severity is
  /// its pipe volume at paper magnitude over the job's pipe capacity, and
  /// the largest volume is the phase's max_task_pipe_bytes. Then it applies
  /// the datanode losses that came due, each as a dfs/re-replicate phase,
  /// and then, for a successful phase, the lifecycle limits: an overrun
  /// deadline throws DeadlineExceeded, retries beyond the job's budget throw
  /// RetryBudgetExhausted. A failed phase throws BrokenPipe when its first
  /// failed task's pipe overflow is beyond the last attempt's headroom, and
  /// TaskFailed otherwise. The phase is on the books before any throw, so a
  /// killed job's metrics show where its clock stopped.
  void book(MrContext& ctx, double serial_seconds, bool shuffle) const;

 private:
  std::string name_;
  MrConfig config_;
  bool pipes_;
  std::vector<cluster::SimTask> tasks_;
  std::vector<std::uint64_t> pipe_bytes_;  // scaled bytes, parallel to tasks_
};

}  // namespace sjc::mapreduce
