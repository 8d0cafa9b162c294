// SparkRuntime: the non-templated core of the RDD engine.
//
// Models the execution characteristics that separate Spark from Hadoop in
// the paper's analysis:
//  * narrow transformations pipeline in memory — a stage charges measured
//    CPU plus a sub-second scheduling overhead, never DFS I/O;
//  * shuffles move bytes over the network (plus a small local spill-file
//    write), not through replicated DFS files;
//  * HDFS is touched exactly once, when input is first read;
//  * everything lives in executor memory, policed by MemoryManager;
//  * executor loss (a scheduled datanode-loss event) drops the partitions
//    cached on that node — Spark recomputes them from lineage, so the run
//    survives but pays the recompute CPU/shuffle again (charged as a
//    "<stage>.recompute" phase) and keeps going on the surviving executors.
//
// Stages are booked through the runtime's cluster::PhaseRecorder, the same
// one MapReduce phases go through. What is Spark's own: a stage whose task
// exhausts its attempts throws TaskFailed right away, and datanode losses
// that came due apply only after a stage passed its limit checks, followed
// by the lineage recompute.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/phase_recorder.hpp"
#include "dfs/sim_dfs.hpp"
#include "rdd/memory_manager.hpp"
#include "trace/trace.hpp"

namespace sjc::rdd {

struct SparkConfig {
  /// Per-stage scheduling overhead (paper seconds); Spark stages launch in
  /// ~100s of ms, vs ~10s for a Hadoop job.
  double stage_overhead_s = 0.5;
  /// Per-task launch overhead (paper seconds).
  double task_overhead_s = 0.05;
  /// Fraction of node memory usable by executors.
  double memory_fraction = 1.0;
  /// Per-node memory lost to OS, daemons and driver/executor overhead
  /// before the fraction applies (paper-unit bytes). This is why small-node
  /// clusters (EC2) lose proportionally more usable memory than the
  /// workstation — the lever behind the paper's EC2-8/EC2-6 OOM failures.
  std::uint64_t memory_reserve_per_node = 2816ULL * 1024 * 1024;  // 2.75 GB
  /// Extra inflation applied on top of the sizers' object-level accounting
  /// (sizers already include per-record JVM overhead; keep at 1.0 unless
  /// exploring sensitivity).
  double jvm_inflation = 1.0;
  /// Fraction of shuffled bytes written to local spill files (hash-shuffle
  /// map outputs; OS page cache absorbs the rest).
  double shuffle_spill_fraction = 0.3;
  /// Ratio of this simulator's native C++ throughput to Spark's JVM/Scala
  /// stack; measured task CPU is divided by this.
  double cpu_efficiency = 0.2;
  /// Fault plan for this run (trivial by default: no injected faults, no
  /// retries). Datanode-loss events double as executor losses: the DFS
  /// re-replicates the node's blocks and Spark recomputes its cached
  /// partitions from lineage.
  cluster::FaultPlan faults;
};

class SparkRuntime {
 public:
  SparkRuntime(const cluster::ClusterSpec& cluster, double data_scale,
               dfs::SimDfs* dfs, cluster::RunMetrics* metrics,
               SparkConfig config = {});

  /// The cluster stages run on: one node fewer per lost executor.
  const cluster::ClusterSpec& cluster() const { return recorder_.cluster; }
  const SparkConfig& config() const { return config_; }
  double data_scale() const { return recorder_.data_scale; }
  MemoryManager& memory() { return memory_; }
  dfs::SimDfs* dfs() { return dfs_; }

  std::uint32_t default_parallelism() const { return cluster().total_slots(); }

  /// Records a narrow (pipelined, in-memory) stage from per-task CPU times.
  void record_narrow_stage(const std::string& name, const std::vector<double>& task_cpu);

  /// Records a shuffle stage: per-task CPU plus total bytes crossing the
  /// shuffle.
  void record_shuffle_stage(const std::string& name, const std::vector<double>& task_cpu,
                            std::uint64_t shuffle_bytes);

  /// Records the one-time HDFS scan of an input dataset.
  void record_input_read(const std::string& name, std::uint64_t bytes,
                         std::size_t tasks);

  /// Records a driver-side broadcast of `bytes` to every node.
  void record_broadcast(const std::string& name, std::uint64_t bytes);

  /// Records collecting `bytes` back to the driver.
  void record_collect(const std::string& name, std::uint64_t bytes);

  /// Attaches a per-task span sink: every stage task attempt, lineage
  /// recompute and DFS repair lands on the run's trace timeline. Tracing
  /// never changes what the stages charge.
  void set_trace(trace::TraceCollector* trace) { recorder_.trace = trace; }

  /// Attaches a named-counter sink for commit/quarantine/budget accounting.
  void set_counters(cluster::Counters* counters) { recorder_.counters = counters; }

 private:
  void record(const std::string& name, const std::vector<cluster::SimTask>& tasks,
              std::uint64_t bytes_read, std::uint64_t bytes_written,
              std::uint64_t bytes_shuffled);

  /// Applies datanode-loss events the simulated clock has passed: the DFS
  /// loses the node (re-replication charged), the executor's cached
  /// partitions are recomputed from lineage, and the cluster shrinks by one
  /// node for subsequent stages.
  void apply_due_losses(const std::string& after_stage);

  dfs::SimDfs* dfs_;
  SparkConfig config_;
  MemoryManager memory_;
  cluster::PhaseRecorder recorder_;
  /// Average per-task simulated seconds accumulated over the lineage so
  /// far: what recomputing one lost partition from scratch costs.
  double lineage_per_task_seconds_ = 0.0;
  /// Task count of the most recent stage (partitions cached per node).
  std::size_t last_stage_tasks_ = 0;
};

}  // namespace sjc::rdd
