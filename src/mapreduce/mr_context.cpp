#include "mapreduce/mr_context.hpp"

#include <algorithm>
#include <utility>

#include "util/status.hpp"

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

JobPhase::JobPhase(std::string name, std::size_t tasks, const MrConfig& config, bool pipes)
    : name_(std::move(name)),
      config_(config),
      pipes_(pipes),
      tasks_(tasks),
      pipe_bytes_(pipes ? tasks : 0, 0) {}

cluster::SimTask& JobPhase::charge(std::size_t i, double cpu_seconds,
                                   std::uint64_t in_bytes, std::uint64_t out_bytes) {
  cluster::SimTask& task = tasks_[i];
  task.cpu_seconds = cpu_seconds / config_.cpu_efficiency;
  if (pipes_) {
    pipe_bytes_[i] = in_bytes + out_bytes;
    task.cpu_seconds += static_cast<double>(pipe_bytes_[i]) / kPipeBandwidth;
  }
  task.fixed_overhead = kTaskOverheadSeconds;
  return task;
}

void JobPhase::book(MrContext& ctx, double serial_seconds, bool shuffle) const {
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  for (const auto& task : tasks_) {
    bytes_read += task.disk_read;
    bytes_written += task.disk_write;
  }
  // Pipe-overflow severity of each task: paper-magnitude pipe volume over
  // the capacity. <= 1 never fails; > 1 fails an attempt unless the
  // attempt's retry headroom covers the ratio (scheduler.hpp). 0 when the
  // capacity check is disabled.
  std::vector<double> severity;
  std::uint64_t max_pipe = 0;
  for (const std::uint64_t bytes : pipe_bytes_) {
    severity.push_back(config_.pipe_capacity_bytes == 0
                           ? 0.0
                           : static_cast<double>(bytes) * ctx.data_scale /
                                 static_cast<double>(config_.pipe_capacity_bytes));
    max_pipe = std::max(max_pipe, bytes);
  }
  const cluster::ScheduleOutcome outcome = ctx.record(
      name_, tasks_, bytes_read, bytes_written, shuffle ? bytes_read : 0, serial_seconds,
      pipes_ ? &severity : nullptr,
      static_cast<std::uint64_t>(static_cast<double>(max_pipe) * ctx.data_scale));
  apply_due_datanode_losses(ctx);
  if (outcome.success) {
    ctx.enforce_limits("phase", name_, outcome, tasks_.size(), serial_seconds);
    return;
  }
  const std::size_t task = outcome.first_failed_task;
  if (!pipes_) {
    throw TaskFailed(name_ + ": task " + std::to_string(task) +
                     " crashed and exhausted its attempts");
  }
  // Pipe overflows beyond the last attempt's headroom die as BrokenPipe
  // (the HadoopGIS signature of Tables 2-3), injected crashes as TaskFailed.
  const cluster::FaultInjector& faults = ctx.faults();
  const std::uint32_t attempts = faults.plan().max_attempts;
  if (task < severity.size() && severity[task] > 1.0 &&
      severity[task] > faults.capacity_factor(attempts)) {
    const auto paper_bytes = static_cast<std::uint64_t>(
        static_cast<double>(pipe_bytes_[task]) * ctx.data_scale);
    throw BrokenPipe("streaming task pipe overflow in " + name_ + ": " +
                     std::to_string(paper_bytes) + " bytes > capacity " +
                     std::to_string(config_.pipe_capacity_bytes) + " after " +
                     std::to_string(attempts) + " attempt(s)");
  }
  throw TaskFailed("streaming task " + std::to_string(task) + " in " + name_ +
                   " crashed and exhausted " + std::to_string(attempts) + " attempt(s)");
}

}  // namespace sjc::mapreduce
