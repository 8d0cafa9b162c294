#include "rdd/spark_runtime.hpp"

#include <algorithm>

#include "util/status.hpp"

namespace sjc::rdd {

namespace {

/// Per-stage scheduling overhead (paper seconds); Spark stages launch in
/// ~100s of ms, vs ~10s for a Hadoop job.
constexpr double kStageOverheadSeconds = 0.5;
/// Per-task launch overhead (paper seconds).
constexpr double kTaskOverheadSeconds = 0.05;
/// Per-node memory lost to OS, daemons and driver/executor overhead before
/// executors get the rest (paper-unit bytes). This is why small-node
/// clusters (EC2) lose proportionally more usable memory than the
/// workstation — the lever behind the paper's EC2-8/EC2-6 OOM failures.
/// Calibrated with plan::kRecordOverheadBytes; see DESIGN.md §5.
constexpr std::uint64_t kMemoryReservePerNode = 2816ULL * 1024 * 1024;  // 2.75 GB
/// Fraction of shuffled bytes written to local spill files (hash-shuffle
/// map outputs; OS page cache absorbs the rest).
constexpr double kShuffleSpillFraction = 0.3;
/// Ratio of this simulator's native C++ throughput to Spark's JVM/Scala
/// stack; measured task CPU is divided by this.
constexpr double kCpuEfficiency = 0.2;

}  // namespace

SparkRuntime::SparkRuntime(const cluster::ClusterSpec& cluster, double data_scale,
                           dfs::SimDfs* dfs, cluster::RunMetrics* metrics,
                           const cluster::FaultPlan& faults)
    : dfs_(dfs),
      memory_(
          [&] {
            const double per_node = static_cast<double>(cluster.node.memory_bytes) -
                                    static_cast<double>(kMemoryReservePerNode);
            return static_cast<std::uint64_t>(std::max(per_node, 0.0) *
                                              cluster.node_count);
          }(),
          data_scale),
      recorder_(cluster, data_scale, metrics, nullptr, faults) {}

void SparkRuntime::record(const std::string& name,
                          const std::vector<cluster::SimTask>& tasks,
                          std::uint64_t bytes_read, std::uint64_t bytes_written,
                          std::uint64_t bytes_shuffled) {
  const cluster::ScheduleOutcome outcome =
      recorder_.record(name, tasks, bytes_read, bytes_written, bytes_shuffled,
                       kStageOverheadSeconds);
  if (!outcome.success) {
    throw TaskFailed(name + ": task " +
                     std::to_string(outcome.first_failed_task) +
                     " crashed and exhausted its attempts");
  }
  recorder_.enforce_limits("stage", name, outcome, tasks.size(), kStageOverheadSeconds);
  // Grow the lineage: recomputing one partition later costs the average
  // per-task time of every stage it passed through.
  if (!tasks.empty()) {
    double sum = 0.0;
    for (const auto& t : tasks) sum += t.duration(cluster(), data_scale());
    lineage_per_task_seconds_ += sum / static_cast<double>(tasks.size());
    last_stage_tasks_ = tasks.size();
  }
  apply_due_losses(name);
}

void SparkRuntime::apply_due_losses(const std::string& after_stage) {
  for (const auto& event : recorder_.take_due_losses()) {
    cluster::ClusterSpec& cluster = recorder_.cluster;
    if (cluster.node_count <= 1) continue;  // the driver's node never dies
    const std::uint32_t node = event.node % cluster.node_count;

    // The node hosted a datanode too: surviving replicas are re-copied.
    if (dfs_ != nullptr) {
      const dfs::ReplicationRepair repair = dfs_->fail_datanode(node);
      if (repair.bytes_rereplicated > 0 || repair.blocks_lost > 0) {
        cluster::SimTask copy;
        copy.disk_read = repair.cost.disk_read;
        copy.disk_write = repair.cost.disk_write;
        copy.network = repair.cost.network;
        recorder_.record_repair(node, copy, repair.bytes_rereplicated);
      }
    }

    // The executor's cached partitions are gone; recompute them from
    // lineage on the surviving executors.
    cluster.node_count -= 1;
    const std::size_t lost_partitions =
        last_stage_tasks_ == 0
            ? 0
            : (last_stage_tasks_ + cluster.node_count) /
                  (cluster.node_count + 1);  // ceil over the pre-loss nodes
    if (lost_partitions == 0 || lineage_per_task_seconds_ <= 0.0) continue;
    recorder_.record_recompute(after_stage + ".recompute[node" + std::to_string(node) + "]",
                               lost_partitions, lineage_per_task_seconds_,
                               kStageOverheadSeconds);
  }
}

void SparkRuntime::record_narrow_stage(const std::string& name,
                                       const std::vector<double>& task_cpu) {
  std::vector<cluster::SimTask> tasks;
  tasks.reserve(task_cpu.size());
  for (const double cpu : task_cpu) {
    cluster::SimTask t;
    t.cpu_seconds = cpu / kCpuEfficiency;
    t.fixed_overhead = kTaskOverheadSeconds;
    tasks.push_back(t);
  }
  record(name, tasks, 0, 0, 0);
}

void SparkRuntime::record_shuffle_stage(const std::string& name,
                                        const std::vector<double>& task_cpu,
                                        std::uint64_t shuffle_bytes) {
  std::vector<cluster::SimTask> tasks;
  tasks.reserve(task_cpu.size());
  const std::size_t n = task_cpu.empty() ? 1 : task_cpu.size();
  const auto per_task_shuffle = shuffle_bytes / n;
  for (const double cpu : task_cpu) {
    cluster::SimTask t;
    t.cpu_seconds = cpu / kCpuEfficiency;
    t.network = static_cast<std::uint64_t>(static_cast<double>(per_task_shuffle) *
                                           cluster().remote_fraction());
    t.disk_write = static_cast<std::uint64_t>(static_cast<double>(per_task_shuffle) *
                                              kShuffleSpillFraction);
    t.disk_read = t.disk_write;  // spill files are read back during the fetch
    t.fixed_overhead = kTaskOverheadSeconds;
    tasks.push_back(t);
  }
  record(name, tasks, 0, 0, shuffle_bytes);
}

void SparkRuntime::record_input_read(const std::string& name, std::uint64_t bytes,
                                     std::size_t tasks) {
  const std::size_t n = std::max<std::size_t>(tasks, 1);
  std::vector<cluster::SimTask> sim_tasks;
  sim_tasks.reserve(n);
  const std::uint64_t per_task = bytes / n;
  for (std::size_t i = 0; i < n; ++i) {
    cluster::SimTask t;
    if (dfs_ != nullptr) {
      const auto rc = dfs_->read_cost(per_task);
      t.disk_read = rc.disk_read;
      t.network = rc.network;
    } else {
      t.disk_read = per_task;
    }
    t.fixed_overhead = kTaskOverheadSeconds;
    sim_tasks.push_back(t);
  }
  record(name, sim_tasks, bytes, 0, 0);
}

void SparkRuntime::record_broadcast(const std::string& name, std::uint64_t bytes) {
  // Torrent broadcast: every node pulls one copy concurrently at full NIC
  // bandwidth (unlike task I/O, which shares the NIC across busy slots), so
  // the transfer time is one copy's worth of wire time. Computed directly
  // into fixed_overhead (already paper-magnitude).
  cluster::SimTask t;
  if (cluster().node_count > 1) {
    t.fixed_overhead = static_cast<double>(bytes) * data_scale() /
                       cluster().node.network_bw;
  }
  record(name, {t}, 0, 0, 0);
}

void SparkRuntime::record_collect(const std::string& name, std::uint64_t bytes) {
  // Driver gather: remote partitions stream in over the driver's NIC.
  cluster::SimTask t;
  t.fixed_overhead = static_cast<double>(bytes) * data_scale() *
                     cluster().remote_fraction() / cluster().node.network_bw;
  record(name, {t}, bytes, 0, 0);
}

}  // namespace sjc::rdd
