// Cost-based choice between the broadcast-based and the
// partition-based distributed join (SpatialSpark's two physical plans).
//
// The paper's Table 2/3 discussion shows the crossover empirically: the
// broadcast join wins while one side's in-memory footprint fits every
// executor (no shuffle, no duplicated boundary records), and loses — or
// OOMs outright — once it does not. The model predicts both costs from the
// quantities the drivers already measure (dataset records/bytes,
// occupancy-filter selectivity, ClusterSpec bandwidths) and picks the
// cheaper feasible plan; the decision and both predictions land in the
// plan.* counters so mispredictions stay visible next to the realized cost.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "cluster/cluster_spec.hpp"
#include "cluster/counters.hpp"

namespace sjc::plan {

enum class PlanKind : std::uint32_t {
  kPartitionedJoin = 1,
  kBroadcastJoin = 2,
};

std::string_view plan_kind_name(PlanKind kind);

/// Per-record JVM object overhead (boxed Scala objects, collection nodes,
/// the RDD row header) that SpatialSpark adds to every element's accounted
/// size, and that the cost model charges per record. Calibrated together
/// with the executor memory reserve so the OOM matrix of Table 2 reproduces;
/// see DESIGN.md §5.
inline constexpr std::uint64_t kRecordOverheadBytes = 150;

/// What the model is allowed to know at planning time. Record/byte totals
/// come from the Dataset; the filter selectivity from the run's own filter
/// decision.
struct PlanInputs {
  std::uint64_t left_records = 0;
  std::uint64_t right_records = 0;  // broadcast side candidate
  std::uint64_t left_bytes = 0;
  std::uint64_t right_bytes = 0;
  /// Fraction of shuffled records surviving the map-side occupancy filter,
  /// set exactly when the run builds the filter (the plan's sampled
  /// estimate, core::FilterDecision::selectivity). Unset: no filter is
  /// built, so its build is not charged and every copy is shuffled.
  std::optional<double> filter_selectivity;
  cluster::ClusterSpec cluster;
  /// Experiment scale factor; modeled seconds multiply by this so they are
  /// magnitude-comparable with the traced wall clock, and the broadcast
  /// memory-feasibility gate scales generated bytes up by it before meeting
  /// the node heap — the same paper-magnitude convention the engines' own
  /// OOM gates use (DESIGN.md §1).
  double data_scale = 1.0;
};

struct PlanDecision {
  PlanKind chosen = PlanKind::kPartitionedJoin;
  double broadcast_seconds = 0.0;    // +inf when infeasible
  double partitioned_seconds = 0.0;
  double predicted_seconds = 0.0;    // cost of the chosen plan
  bool broadcast_feasible = true;
  /// True when the inputs were too degenerate to model (zero records) and
  /// the model defaulted to the partitioned join rather than predicting.
  bool fallback = false;
};

/// Predicts both plans' costs and picks the cheaper feasible one.
PlanDecision choose_plan(const PlanInputs& inputs);

/// What the map-side shuffle filter would cost and save in one partitioned
/// run, from plan-time quantities only (counts, bytes, the cluster), so the
/// prediction is a pure function of the inputs and the seed. The build's
/// shape differs per system, so the driver describes it: where the marking
/// runs, what one slot reads and writes for it, and what is broadcast.
struct FilterInputs {
  /// Left records, and the modeled bytes of one shuffled copy of each.
  std::uint64_t left_records = 0;
  std::uint64_t left_bytes = 0;
  /// Sampled copies each left record is assigned, and the share of those
  /// copies the filter drops.
  double copies_per_record = 1.0;
  double drop_fraction = 0.0;
  /// The same for the right side where the filter also drops right copies
  /// (HadoopGIS's and SpatialSpark's joint schemes); 0 records where it
  /// drops only left copies (SpatialHadoop).
  std::uint64_t right_records = 0;
  std::uint64_t right_bytes = 0;
  double right_copies_per_record = 1.0;
  double right_drop_fraction = 0.0;
  /// Records marked by one task (a driver stage or a master step), and
  /// records marked spread over every slot (inside tasks that already run).
  std::uint64_t serial_marks = 0;
  std::uint64_t parallel_marks = 0;
  /// DFS bytes one slot reads to build the filter.
  std::uint64_t serial_read_bytes = 0;
  /// One filter's modeled size; how many filters one slot writes to the
  /// DFS (HadoopGIS's two bitmaps, SpatialHadoop's merged filter), each
  /// stored in `dfs_replicas` replicas; and how many are broadcast.
  std::uint64_t filter_bytes = 0;
  std::uint32_t serial_filters = 0;
  std::uint32_t dfs_replicas = 3;
  std::uint32_t broadcast_filters = 0;
  /// DFS replicas of the block each kept copy is written into and the
  /// local join reads back (SpatialHadoop's partition blocks); 0 when
  /// copies go straight from the shuffle to the join.
  std::uint32_t block_replicas = 0;
  cluster::ClusterSpec cluster;
  double data_scale = 1.0;
};

struct FilterPrediction {
  /// Modeled seconds the dropped copies of both sides would have cost:
  /// written to the map-side spill, moved across the network, read by the
  /// reducer, and (with block_replicas) written to a replicated block and
  /// read back.
  double saving_seconds = 0.0;
  /// Modeled seconds of the build (marking, its serial I/O, the broadcast)
  /// plus probing every assigned copy in the assign tasks.
  double cost_seconds = 0.0;
  /// Build only where the copies it drops save more than it costs.
  bool build() const { return saving_seconds > cost_seconds; }
};

FilterPrediction predict_filter(const FilterInputs& inputs);

/// Modeled seconds at paper magnitude as a whole number of milliseconds,
/// the unit of every plan.* cost counter (1 day for an infinite cost).
std::uint64_t cost_ms(double seconds);

/// Emits plan.chosen / plan.predicted_cost / plan.predicted_broadcast /
/// plan.predicted_partitioned / plan.fallback (costs in milliseconds).
void record_plan_counters(const PlanDecision& decision,
                          cluster::Counters& counters);

/// Emits plan.actual_cost (milliseconds) — the realized simulated wall
/// clock of whichever plan ran, for predicted-vs-actual comparison.
void record_plan_actual(double seconds, cluster::Counters& counters);

}  // namespace sjc::plan
