#include "mapreduce/mr_context.hpp"

namespace sjc::mapreduce {

namespace {

/// Ratio of native C++ throughput to the master's JVM stack for serial
/// master steps, whatever the job's own MrConfig::cpu_efficiency.
constexpr double kMasterCpuEfficiency = 0.2;

/// Applies datanode-loss events the simulated clock has passed: kills the
/// node in the DFS and charges the namenode's re-replication copies as a
/// one-task repair phase named after the node that died.
void apply_due_datanode_losses(MrContext& ctx) {
  if (ctx.dfs == nullptr) return;
  for (const auto& event : ctx.take_due_losses()) {
    // The last live datanode never dies mid-run (it hosts the master too).
    if (ctx.dfs->live_datanode_count() <= 1) continue;
    const std::uint32_t node = event.node % ctx.dfs->config().datanode_count;
    const dfs::ReplicationRepair repair = ctx.dfs->fail_datanode(node);
    if (repair.bytes_rereplicated == 0 && repair.blocks_lost == 0) continue;
    cluster::SimTask copy;
    copy.disk_read = repair.cost.disk_read;
    copy.disk_write = repair.cost.disk_write;
    copy.network = repair.cost.network;
    ctx.record_repair(node, copy, repair.bytes_rereplicated);
  }
}

}  // namespace

MrContext::MrContext(const cluster::ClusterSpec& cluster, double data_scale,
                     dfs::SimDfs* dfs, cluster::RunMetrics* metrics,
                     cluster::Counters* counters, const cluster::FaultPlan& faults)
    : PhaseRecorder(cluster, data_scale, metrics, counters, faults), dfs(dfs) {}

void charge_master_step(MrContext& ctx, const std::string& name, double cpu_seconds,
                        std::uint64_t read_bytes, std::uint64_t write_bytes) {
  cluster::SimTask task;
  task.cpu_seconds = cpu_seconds / kMasterCpuEfficiency;
  if (ctx.dfs != nullptr) {
    const auto rc = ctx.dfs->read_cost(read_bytes);
    const auto wc = ctx.dfs->write_cost(write_bytes);
    task.disk_read = rc.disk_read;
    task.disk_write = wc.disk_write;
    task.network = rc.network + wc.network;
  } else {
    task.disk_read = read_bytes;
    task.disk_write = write_bytes;
  }
  ctx.record_serial(name, task, read_bytes, write_bytes);
  apply_due_datanode_losses(ctx);
}

cluster::ScheduleOutcome record_phase(MrContext& ctx, const std::string& name,
                                      const std::vector<cluster::SimTask>& tasks,
                                      std::uint64_t bytes_read,
                                      std::uint64_t bytes_written,
                                      std::uint64_t bytes_shuffled,
                                      double extra_seconds,
                                      const std::vector<double>* task_severity,
                                      std::uint64_t max_task_pipe_bytes) {
  const cluster::ScheduleOutcome outcome =
      ctx.record(name, tasks, bytes_read, bytes_written, bytes_shuffled, extra_seconds,
                 task_severity, max_task_pipe_bytes);
  apply_due_datanode_losses(ctx);
  // A failed phase is exempt: the caller throws its own, more specific
  // failure.
  if (outcome.success) {
    ctx.enforce_limits("phase", name, outcome, tasks.size(), extra_seconds);
  }
  return outcome;
}

}  // namespace sjc::mapreduce
