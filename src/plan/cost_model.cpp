#include "plan/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sjc::plan {
namespace {

// Per-record CPU constants, in host seconds per record/operation. They
// track the magnitude of the work the engines actually execute per record
// (grid lookup, STR sort/pack, tree descent); the bench sweep
// (BENCH_plan.json) validates the crossover they produce against the
// realized simulated wall clock.
constexpr double kAssignCostPerRecord = 90e-9;
constexpr double kBuildCostPerRecord = 700e-9;  // x log2(n), serial STR pack
constexpr double kProbeCostPerRecord = 260e-9;  // x log2(build side)
/// The partitioned plan's serial master prologue: the partition-file walk
/// over every record of both inputs on the driver (the dominant fixed cost
/// of the partitioned plan on small inputs). Recalibrated from 13e-6, which
/// also held the filter build, against the bench sweep's partitioned runs
/// with the filter declined (36-295 s at 1e-3).
constexpr double kPartitionWalkCostPerRecord = 1.2e-6;
/// Marking one record into the occupancy filter: its expanded envelope
/// assigned and marked into each of its cells (SpatialSpark's one-task
/// `filter.build` stage marks both inputs; measured 0.73-0.76 us per record
/// at 1e-3 on the bench sweep, 756-72,730 right records). The partitioned
/// plan is charged it only when the run builds the filter.
constexpr double kFilterMarkCostPerRecord = 0.75e-6;
/// Probing the filter once per assigned copy, inside the parallel assign
/// tasks: filtered minus plain assignment of every left record of the
/// Table-2 experiments measured 19-45 ns per copy on a 4-core x86 host
/// (scales 2e-4 and 1e-3), charged like the mark through the engines' 0.2
/// CPU efficiency.
constexpr double kFilterProbeCostPerCopy = 150e-9;
/// Boundary-duplication copies per record when no measured factor is given.
constexpr double kDefaultReplication = 1.15;
/// Fraction of a node's memory the broadcast table may occupy before the
/// plan is infeasible. The engines reserve ~2.75 GB per node for OS,
/// daemons and driver overhead before the executor heap; the remainder
/// (~80% of a 15 GB EC2 node) holds the broadcast table plus that node's
/// share of the probe side (the paper's broadcast OOM gate).
constexpr double kBroadcastMemoryFraction = 0.8;

double log2_of(std::uint64_t n) { return std::log2(static_cast<double>(n) + 2.0); }

double safe_div(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::uint64_t cost_ms(double seconds) {
  if (!std::isfinite(seconds)) return 86'400'000;  // 1 day: infeasible sentinel
  return static_cast<std::uint64_t>(
      std::min(std::max(seconds, 0.0) * 1e3, 86'400'000.0 - 1.0));
}

std::string_view plan_kind_name(PlanKind kind) {
  switch (kind) {
    case PlanKind::kPartitionedJoin: return "partitioned";
    case PlanKind::kBroadcastJoin: return "broadcast";
  }
  return "unknown";
}

PlanDecision JoinCostModel::choose(const PlanInputs& in) const {
  PlanDecision decision;
  if (in.left_records == 0 || in.right_records == 0 ||
      in.cluster.total_slots() == 0) {
    // Nothing to model — run the plan that cannot OOM.
    decision.fallback = true;
    decision.broadcast_feasible = false;
    return decision;
  }

  const cluster::NodeSpec& node = in.cluster.node;
  const double nodes = static_cast<double>(std::max<std::uint32_t>(1, in.cluster.node_count));
  const double slots = static_cast<double>(in.cluster.total_slots());
  const double cpu = std::max(node.cpu_speed, 0.1);
  const double overhead = static_cast<double>(in.record_overhead_bytes);
  const double left_mem =
      static_cast<double>(in.left_bytes) + static_cast<double>(in.left_records) * overhead;
  const double right_mem =
      static_cast<double>(in.right_bytes) + static_cast<double>(in.right_records) * overhead;
  const double left_n = static_cast<double>(in.left_records);
  const double right_n = static_cast<double>(in.right_records);

  // Shared terms: initial scan of both inputs and the probe CPU, which both
  // plans pay in full. Reads are sequential stages against one node's disk
  // (the input splits stream through a single wave), matching how the
  // engines charge them.
  const double read_seconds = safe_div(
      static_cast<double>(in.left_bytes + in.right_bytes), node.disk_read_bw);
  const double probe_seconds =
      kProbeCostPerRecord * left_n * log2_of(in.right_records) / (slots * cpu);

  // Broadcast plan: the driver builds the index over the full right side
  // serially, then torrent-broadcasts the packed table — every node pulls
  // one copy concurrently at full NIC bandwidth, so the transfer costs one
  // copy's wire time; no shuffle of the left side at all.
  const double build_serial_seconds =
      kBuildCostPerRecord * right_n * log2_of(in.right_records) / cpu;
  const double transfer_seconds = safe_div(right_mem, node.network_bw);
  decision.broadcast_seconds =
      read_seconds + build_serial_seconds + transfer_seconds + probe_seconds;

  // Feasibility is judged at paper magnitude, like the engines' own OOM
  // gates: generated bytes scale up by data_scale before meeting the heap.
  const double scale = in.data_scale > 0.0 ? in.data_scale : 1.0;
  const double heap_budget =
      static_cast<double>(node.memory_bytes) * kBroadcastMemoryFraction;
  decision.broadcast_feasible =
      node.memory_bytes > 0 &&
      (right_mem + left_mem / nodes) * scale <= heap_budget;
  if (!decision.broadcast_feasible) {
    decision.broadcast_seconds = std::numeric_limits<double>::infinity();
  }

  // Partitioned plan: a serial master prologue (sample, partition-file walk
  // over every record of both inputs, and the occupancy-filter build when
  // the run builds the filter), then assign both sides against the scheme
  // (with boundary duplication), shuffle the surviving copies across the
  // aggregate network, build the per-cell indexes in parallel, and probe.
  const double rep = std::max(1.0, in.replication_factor.value_or(kDefaultReplication));
  const double sel = std::clamp(in.filter_selectivity.value_or(1.0), 0.0, 1.0);
  const double filter_build_seconds =
      in.filter_selectivity ? kFilterMarkCostPerRecord * (left_n + right_n) / cpu : 0.0;
  const double master_prep_seconds =
      kPartitionWalkCostPerRecord * (left_n + right_n) / cpu + filter_build_seconds;
  const double assign_seconds =
      kAssignCostPerRecord * (left_n + right_n) * rep / (slots * cpu);
  const double shuffle_seconds =
      safe_div(rep * sel * (left_mem + right_mem), node.network_bw * nodes);
  const double build_parallel_seconds =
      kBuildCostPerRecord * right_n * rep * sel * log2_of(in.right_records) /
      (slots * cpu);
  decision.partitioned_seconds = read_seconds + master_prep_seconds +
                                 assign_seconds + shuffle_seconds +
                                 build_parallel_seconds + probe_seconds;

  decision.broadcast_seconds *= scale;
  decision.partitioned_seconds *= scale;

  decision.chosen = decision.broadcast_feasible &&
                            decision.broadcast_seconds < decision.partitioned_seconds
                        ? PlanKind::kBroadcastJoin
                        : PlanKind::kPartitionedJoin;
  decision.predicted_seconds = decision.chosen == PlanKind::kBroadcastJoin
                                   ? decision.broadcast_seconds
                                   : decision.partitioned_seconds;
  return decision;
}

FilterPrediction predict_filter(const FilterInputs& in) {
  FilterPrediction out;
  const cluster::NodeSpec& node = in.cluster.node;
  const double nodes = static_cast<double>(std::max<std::uint32_t>(1, in.cluster.node_count));
  const double slots = static_cast<double>(std::max<std::uint32_t>(1, in.cluster.total_slots()));
  const double cpu = std::max(node.cpu_speed, 0.1);
  const double scale = in.data_scale > 0.0 ? in.data_scale : 1.0;
  const double copies = static_cast<double>(in.left_records) * in.copies_per_record;
  const double right_copies =
      static_cast<double>(in.right_records) * in.right_copies_per_record;
  const double copy_bytes = safe_div(static_cast<double>(in.left_bytes),
                                     static_cast<double>(in.left_records));
  const double right_copy_bytes = safe_div(static_cast<double>(in.right_bytes),
                                           static_cast<double>(in.right_records));

  // A shuffled copy is spilled by its map task, fetched across the network
  // (the remote share) and read back by its reducer, on every node at once;
  // a copy kept in a DFS block is also written to each replica (all but one
  // across the network) and read back by the local join, as SimDfs charges.
  const double dropped_bytes =
      std::clamp(in.drop_fraction, 0.0, 1.0) * copies * copy_bytes +
      std::clamp(in.right_drop_fraction, 0.0, 1.0) * right_copies * right_copy_bytes;
  const double write_bw = node.disk_write_bw * nodes;
  const double read_bw = node.disk_read_bw * nodes;
  const double net_bw = node.network_bw * nodes;
  double per_byte = safe_div(1.0, write_bw) + safe_div(in.cluster.remote_fraction(), net_bw) +
                    safe_div(1.0, read_bw);
  if (in.block_replicas > 0) {
    const double replicas = std::min<double>(in.block_replicas, nodes);
    per_byte += safe_div(replicas, write_bw) + safe_div(replicas - 1.0, net_bw) +
                safe_div(1.0, read_bw) + safe_div(1.0 - std::min(1.0, replicas / nodes), net_bw);
  }
  out.saving_seconds = dropped_bytes * per_byte;

  // Marks in one task, or spread over every slot; the build's own DFS I/O
  // on one slot, as a serial task is charged (its reads' remote share and
  // its writes' extra replicas cross the network); a torrent broadcast's
  // wire time; and one probe per assigned copy inside the parallel assign
  // tasks.
  const double filter_bytes = static_cast<double>(in.filter_bytes);
  const double slot_net = in.cluster.per_slot_network_bw();
  const double file_replicas = std::clamp<double>(in.dfs_replicas, 1.0, nodes);
  const double serial_io =
      static_cast<double>(in.serial_read_bytes) *
          (safe_div(1.0, in.cluster.per_slot_disk_read_bw()) +
           safe_div(1.0 - std::min(1.0, static_cast<double>(in.dfs_replicas) / nodes),
                    slot_net)) +
      filter_bytes * in.serial_filters *
          (safe_div(file_replicas, in.cluster.per_slot_disk_write_bw()) +
           safe_div(file_replicas - 1.0, slot_net));
  out.cost_seconds =
      kFilterMarkCostPerRecord *
          (static_cast<double>(in.serial_marks) + static_cast<double>(in.parallel_marks) / slots) /
          cpu +
      serial_io +
      (in.cluster.node_count > 1
           ? safe_div(filter_bytes * in.broadcast_filters, node.network_bw)
           : 0.0) +
      kFilterProbeCostPerCopy * (copies + right_copies) / (slots * cpu);

  out.saving_seconds *= scale;
  out.cost_seconds *= scale;
  return out;
}

PlanDecision choose_plan(const PlanInputs& inputs) {
  return JoinCostModel{}.choose(inputs);
}

void record_plan_counters(const PlanDecision& decision,
                          cluster::Counters& counters) {
  counters.add("plan.chosen", static_cast<std::uint64_t>(decision.chosen));
  counters.add("plan.predicted_cost", cost_ms(decision.predicted_seconds));
  counters.add("plan.predicted_broadcast", cost_ms(decision.broadcast_seconds));
  counters.add("plan.predicted_partitioned",
               cost_ms(decision.partitioned_seconds));
  if (decision.fallback) counters.add("plan.fallback", 1);
}

void record_plan_actual(double seconds, cluster::Counters& counters) {
  counters.add("plan.actual_cost", cost_ms(seconds));
}

}  // namespace sjc::plan
