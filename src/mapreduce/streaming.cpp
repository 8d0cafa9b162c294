#include "mapreduce/streaming.hpp"

#include <algorithm>

#include "mapreduce/shuffle_arena.hpp"
#include "util/status.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace sjc::mapreduce {

namespace {

/// Pipe-overflow severity of one task: paper-magnitude pipe volume over the
/// configured capacity. <= 1 never fails; > 1 fails an attempt unless the
/// attempt's retry headroom covers the ratio (scheduler.hpp). 0 when the
/// capacity check is disabled.
double pipe_severity(const StreamingConfig& config, double data_scale,
                     std::uint64_t pipe_bytes) {
  if (config.pipe_capacity_bytes == 0) return 0.0;
  const auto paper_bytes = static_cast<double>(pipe_bytes) * data_scale;
  return paper_bytes / static_cast<double>(config.pipe_capacity_bytes);
}

/// Converts a failed phase outcome into the job-killing SimFailure: pipe
/// overflows beyond the last attempt's headroom die as BrokenPipe (the
/// HadoopGIS signature of Tables 2-3), injected crashes as TaskFailed.
[[noreturn]] void throw_phase_failure(const MrContext& ctx,
                                      const cluster::ScheduleOutcome& outcome,
                                      const StreamingConfig& config,
                                      const std::vector<double>& severity,
                                      const std::vector<std::uint64_t>& pipe_bytes,
                                      const std::string& where) {
  const cluster::FaultInjector& faults = ctx.faults();
  const std::uint32_t attempts = faults.plan().max_attempts;
  const std::size_t task = outcome.first_failed_task;
  if (task < severity.size() && severity[task] > 1.0 &&
      severity[task] > faults.capacity_factor(attempts)) {
    const auto paper_bytes = static_cast<std::uint64_t>(
        static_cast<double>(pipe_bytes[task]) * ctx.data_scale);
    throw BrokenPipe("streaming task pipe overflow in " + where + ": " +
                     std::to_string(paper_bytes) + " bytes > capacity " +
                     std::to_string(config.pipe_capacity_bytes) + " after " +
                     std::to_string(attempts) + " attempt(s)");
  }
  throw TaskFailed("streaming task " + std::to_string(task) + " in " + where +
                   " crashed and exhausted " + std::to_string(attempts) +
                   " attempt(s)");
}

double pipe_seconds(const StreamingConfig& config, std::uint64_t bytes) {
  // Paper-unit seconds are computed by the caller's duration(); here we
  // pre-divide by bandwidth so the cost rides in fixed_overhead after being
  // scaled. To keep scaling consistent we instead fold pipe bytes into
  // cpu_seconds at scaled magnitude: seconds(scaled) = bytes / bandwidth.
  return static_cast<double>(bytes) / config.pipe_bandwidth;
}

}  // namespace

std::string_view streaming_key(const std::string& line) {
  const auto tab = line.find('\t');
  return tab == std::string::npos ? std::string_view(line)
                                  : std::string_view(line.data(), tab);
}

std::vector<std::string> run_streaming(MrContext& ctx, const StreamingSpec& spec,
                                       const std::vector<std::vector<std::string>>& splits) {
  require(ctx.dfs != nullptr, "run_streaming: incomplete context");
  require((static_cast<bool>(spec.map) || static_cast<bool>(spec.make_mapper)) &&
              static_cast<bool>(spec.reduce),
          "run_streaming: map(per or factory) and reduce must be set");

  const std::uint32_t reduce_tasks = spec.config.mr.reduce_tasks != 0
                                         ? spec.config.mr.reduce_tasks
                                         : ctx.cluster.total_slots();

  // ---- Map phase (mapper subprocess per split) -----------------------------
  struct MapResult {
    // Chunked arena keyed by reduce bucket: emitted lines land in fixed-
    // capacity chunks instead of growing one vector per (task, bucket).
    // Pipe bytes and shuffle bytes are computed from the lines themselves,
    // so the container swap is invisible to the cost model.
    ShuffleArena<std::string> buckets;
    cluster::SimTask task;
    std::uint64_t pipe_bytes = 0;
  };
  std::vector<MapResult> map_results(splits.size());
  // User code runs exactly once per task; pipe overflows do not throw here.
  // Each task's overflow severity feeds the failure-aware scheduler, which
  // decides — per the fault plan's retry budget — whether the phase
  // recovers or the job dies (and charges the failed attempts either way).
  ThreadPool::shared().parallel_for(splits.size(), [&](std::size_t s) {
    MapResult& result = map_results[s];
    result.buckets.reset(reduce_tasks);
    CpuStopwatch cpu;
    const StreamingMapFn mapper = spec.make_mapper ? spec.make_mapper(s) : spec.map;
    std::uint64_t in_bytes = 0;
    std::uint64_t out_bytes = 0;
    // Reused per-record emit buffer: thread_local so a pool thread keeps the
    // vector's capacity across records AND tasks (strings are moved out per
    // record, so only the capacity persists). The modeled byte accounting
    // below reads the line/output text itself and is unchanged by the reuse.
    static thread_local std::vector<std::string> emitted;
    for (const auto& line : splits[s]) {
      in_bytes += line.size() + 1;
      emitted.clear();
      mapper(line, emitted);
      for (auto& out : emitted) {
        out_bytes += out.size() + 1;
        const std::size_t bucket =
            std::hash<std::string_view>{}(streaming_key(out)) % reduce_tasks;
        result.buckets.push(bucket, std::move(out));
      }
    }
    const std::uint64_t pipe_bytes = in_bytes + out_bytes;
    result.pipe_bytes = pipe_bytes;
    result.task.cpu_seconds = cpu.seconds() / spec.config.mr.cpu_efficiency +
                              pipe_seconds(spec.config, pipe_bytes);
    const auto rc = ctx.dfs->read_cost(in_bytes);
    result.task.disk_read = rc.disk_read;
    result.task.network = rc.network;
    result.task.disk_write = out_bytes;
    result.task.fixed_overhead = spec.config.mr.task_overhead_s;
  });

  std::uint64_t map_in = 0;
  std::uint64_t map_out = 0;
  {
    std::vector<cluster::SimTask> tasks;
    std::vector<double> severity;
    std::vector<std::uint64_t> pipe_volumes;
    tasks.reserve(map_results.size());
    severity.reserve(map_results.size());
    pipe_volumes.reserve(map_results.size());
    std::uint64_t max_pipe = 0;
    for (const auto& r : map_results) {
      tasks.push_back(r.task);
      severity.push_back(pipe_severity(spec.config, ctx.data_scale, r.pipe_bytes));
      pipe_volumes.push_back(r.pipe_bytes);
      map_in += r.task.disk_read;
      map_out += r.task.disk_write;
      max_pipe = std::max(max_pipe, r.pipe_bytes);
    }
    const auto outcome = record_phase(
        ctx, spec.name + "/map", tasks, map_in, map_out, 0,
        spec.config.mr.job_startup_s, &severity,
        static_cast<std::uint64_t>(static_cast<double>(max_pipe) * ctx.data_scale));
    if (!outcome.success) {
      throw_phase_failure(ctx, outcome, spec.config, severity, pipe_volumes,
                          spec.name + "/map");
    }
  }

  // ---- Shuffle + reduce (reducer subprocess per bucket) --------------------
  std::vector<std::vector<std::string>> outputs(reduce_tasks);
  std::vector<cluster::SimTask> reduce_costs(reduce_tasks);
  std::vector<std::uint64_t> reduce_pipe_bytes(reduce_tasks, 0);
  const double remote_fraction = ctx.cluster.remote_fraction();

  ThreadPool::shared().parallel_for(reduce_tasks, [&](std::size_t r) {
    CpuStopwatch cpu;
    std::vector<std::string> lines;
    std::uint64_t shuffle_bytes = 0;
    for (auto& mr : map_results) {
      mr.buckets.consume(r, [&](std::string& line) {
        shuffle_bytes += line.size() + 1;
        lines.push_back(std::move(line));
      });
    }
    // Hadoop streaming feeds the reducer lines sorted by key; plain
    // byte-wise sort of whole lines matches `sort` and groups equal keys.
    std::sort(lines.begin(), lines.end());
    const std::size_t before = outputs[r].size();
    spec.reduce(lines, outputs[r]);
    std::uint64_t out_bytes = 0;
    for (std::size_t i = before; i < outputs[r].size(); ++i) {
      out_bytes += outputs[r][i].size() + 1;
    }
    const std::uint64_t pipe_bytes = shuffle_bytes + out_bytes;
    reduce_pipe_bytes[r] = pipe_bytes;
    cluster::SimTask& task = reduce_costs[r];
    task.cpu_seconds = cpu.seconds() / spec.config.mr.cpu_efficiency +
                       pipe_seconds(spec.config, pipe_bytes);
    task.fixed_overhead = spec.config.mr.task_overhead_s;
    if (ctx.cluster.node_count > 1) {
      task.fixed_overhead +=
          spec.config.mr.shuffle_fetch_latency_s * static_cast<double>(map_results.size());
    }
    task.disk_read = shuffle_bytes;
    task.network = static_cast<std::uint64_t>(static_cast<double>(shuffle_bytes) *
                                              remote_fraction);
    const auto wc = ctx.dfs->write_cost(out_bytes);
    task.disk_write = wc.disk_write;
    task.network += wc.network;
  });

  std::uint64_t total_shuffle = 0;
  std::uint64_t total_out = 0;
  for (const auto& t : reduce_costs) {
    total_shuffle += t.disk_read;
    total_out += t.disk_write;
  }
  std::vector<double> reduce_severity;
  reduce_severity.reserve(reduce_pipe_bytes.size());
  for (const std::uint64_t bytes : reduce_pipe_bytes) {
    reduce_severity.push_back(pipe_severity(spec.config, ctx.data_scale, bytes));
  }
  const std::uint64_t max_reduce_pipe = *std::max_element(
      reduce_pipe_bytes.begin(), reduce_pipe_bytes.end());
  const auto outcome = record_phase(
      ctx, spec.name + "/reduce", reduce_costs, total_shuffle, total_out,
      total_shuffle, 0.0, &reduce_severity,
      static_cast<std::uint64_t>(static_cast<double>(max_reduce_pipe) *
                                 ctx.data_scale));
  if (!outcome.success) {
    throw_phase_failure(ctx, outcome, spec.config, reduce_severity,
                        reduce_pipe_bytes, spec.name + "/reduce");
  }

  std::vector<std::string> all;
  for (auto& out : outputs) {
    for (auto& line : out) all.push_back(std::move(line));
  }
  return all;
}

std::vector<std::string> run_streaming_map_only(
    MrContext& ctx, const StreamingSpec& spec,
    const std::vector<std::vector<std::string>>& splits) {
  require(ctx.dfs != nullptr, "run_streaming_map_only: incomplete context");
  require(static_cast<bool>(spec.map) || static_cast<bool>(spec.make_mapper),
          "run_streaming_map_only: map must be set");

  std::vector<std::vector<std::string>> outputs(splits.size());
  std::vector<cluster::SimTask> tasks(splits.size());
  std::vector<std::uint64_t> task_pipe_bytes(splits.size(), 0);

  ThreadPool::shared().parallel_for(splits.size(), [&](std::size_t s) {
    CpuStopwatch cpu;
    const StreamingMapFn mapper = spec.make_mapper ? spec.make_mapper(s) : spec.map;
    std::uint64_t in_bytes = 0;
    std::uint64_t out_bytes = 0;
    // Same reused thread_local emit buffer as run_streaming's map loop;
    // modeled byte accounting is computed from the text and unchanged.
    static thread_local std::vector<std::string> emitted;
    for (const auto& line : splits[s]) {
      in_bytes += line.size() + 1;
      emitted.clear();
      mapper(line, emitted);
      for (auto& out : emitted) {
        out_bytes += out.size() + 1;
        outputs[s].push_back(std::move(out));
      }
    }
    const std::uint64_t pipe_bytes = in_bytes + out_bytes;
    task_pipe_bytes[s] = pipe_bytes;
    cluster::SimTask& task = tasks[s];
    task.cpu_seconds = cpu.seconds() / spec.config.mr.cpu_efficiency +
                       pipe_seconds(spec.config, pipe_bytes);
    const auto rc = ctx.dfs->read_cost(in_bytes);
    const auto wc = ctx.dfs->write_cost(out_bytes);
    task.disk_read = rc.disk_read;
    task.disk_write = wc.disk_write;
    task.network = rc.network + wc.network;
    task.fixed_overhead = spec.config.mr.task_overhead_s;
  });

  std::uint64_t total_in = 0;
  std::uint64_t total_out = 0;
  for (const auto& t : tasks) {
    total_in += t.disk_read;
    total_out += t.disk_write;
  }
  std::vector<double> severity;
  severity.reserve(task_pipe_bytes.size());
  for (const std::uint64_t bytes : task_pipe_bytes) {
    severity.push_back(pipe_severity(spec.config, ctx.data_scale, bytes));
  }
  const std::uint64_t max_pipe = *std::max_element(task_pipe_bytes.begin(),
                                                   task_pipe_bytes.end());
  const auto outcome = record_phase(
      ctx, spec.name + "/map", tasks, total_in, total_out, 0,
      spec.config.mr.job_startup_s, &severity,
      static_cast<std::uint64_t>(static_cast<double>(max_pipe) * ctx.data_scale));
  if (!outcome.success) {
    throw_phase_failure(ctx, outcome, spec.config, severity, task_pipe_bytes,
                        spec.name + "/map");
  }

  std::vector<std::string> all;
  for (auto& out : outputs) {
    for (auto& line : out) all.push_back(std::move(line));
  }
  return all;
}

}  // namespace sjc::mapreduce
