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
// one MapReduce phases go through, on the driver thread once a stage's tasks
// have joined; with tracing on, the recorder appends each attempt's span to
// the report's timeline. What is Spark's own: a stage whose task
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

class SparkRuntime {
 public:
  /// `faults` is the run's fault plan (validated here; trivial by default).
  /// Datanode-loss events double as executor losses: the DFS re-replicates
  /// the node's blocks and Spark recomputes its cached partitions from
  /// lineage.
  SparkRuntime(const cluster::ClusterSpec& cluster, double data_scale,
               dfs::SimDfs* dfs, cluster::RunMetrics* metrics,
               const cluster::FaultPlan& faults = {});

  /// The cluster stages run on: one node fewer per lost executor.
  const cluster::ClusterSpec& cluster() const { return recorder_.cluster; }
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

  /// Attaches a per-task span sink (core::trace_sink): every stage task
  /// attempt, lineage recompute and DFS repair is appended to the run's
  /// trace timeline. Tracing never changes what the stages charge.
  void set_trace(trace::TaskTimeline* trace) { recorder_.trace = trace; }

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
  MemoryManager memory_;
  cluster::PhaseRecorder recorder_;
  /// Average per-task simulated seconds accumulated over the lineage so
  /// far: what recomputing one lost partition from scratch costs.
  double lineage_per_task_seconds_ = 0.0;
  /// Task count of the most recent stage (partitions cached per node).
  std::size_t last_stage_tasks_ = 0;
};

}  // namespace sjc::rdd
