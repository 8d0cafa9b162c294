// The comparison the paper leaves as future work (Section II.B): broadcast-
// based vs partition-based spatial join in SpatialSpark. Broadcast ships
// the whole right side (plus its index) to every node and joins with no
// shuffle; partition-based shuffles both sides by sampled partition ids.
// The crossover is the right side's size: broadcast wins while the right
// side is small, then loses to memory pressure and broadcast volume.
//
// On top of the sweep this bench validates the two adaptive-layer pieces
// (src/plan/) against realized behaviour and writes BENCH_plan.json:
//
//  * Cost model — at every sweep point a run with join_plan unset lets the
//    driver's cost model pick the plan once the shared stages ran, and
//    logs its pick and both predicted costs in its plan.* counters; two
//    runs forced onto each plan give the realized winner (broadcast OOM
//    counts as a partition win, exactly what the infeasibility gate must
//    predict), which grades the pick. --min-plan-accuracy=<frac> turns the
//    accuracy into a CI gate. The three runs of a point run under virtual
//    time (measured CPU charged as 0), so near-ties grade the same on
//    every run and host; the sweep's seconds are virtual-time seconds.
//
//  * Skew repartitioning — the Gaussian-hotspot taxi x nycb join on a
//    fixed grid, traced, with hotspot refinement off vs on: the local-join
//    max/median task-time ratio must drop while survivor pairs stay
//    bit-identical. --min-tail-reduction=<frac> gates the relative drop.
//    These runs keep measured CPU: the tail ratio is host task time.
//
// The JSON is written before the gates are evaluated, so CI archives the
// sweep even on a failing run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "plan/cost_model.hpp"
#include "systems/spatialspark/spatial_spark.hpp"
#include "trace/trace.hpp"
#include "util/bench_io.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

namespace {

struct SweepPoint {
  double fraction = 0.0;
  std::uint64_t right_records = 0;
  double part_seconds = std::nan("");
  double bcast_seconds = std::nan("");
  bool part_ok = false;
  bool bcast_ok = false;
  std::uint64_t bcast_peak_bytes = 0;
  std::string actual = "-";  // "broadcast" / "partitioned" / "-"
  std::string predicted;     // plan_kind_name of the model's choice
  std::string filter;        // the partitioned run's shuffle-filter decision
  double predicted_broadcast_s = 0.0;
  double predicted_partitioned_s = 0.0;
  bool predicted_feasible = true;
  bool graded = false;  // actual winner determinable
  bool correct = false;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sjc;
  double min_plan_accuracy = 0.0;  // 0 disables the gate
  double min_tail_reduction = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--min-plan-accuracy=", 20) == 0) {
      min_plan_accuracy = std::atof(argv[i] + 20);
    } else if (std::strncmp(argv[i], "--min-tail-reduction=", 21) == 0) {
      min_tail_reduction = std::atof(argv[i] + 21);
    }
  }

  const double scale = core::bench_scale();
  workload::WorkloadConfig wc;
  wc.scale = scale;

  const auto taxi = workload::generate(workload::DatasetId::kTaxi1m, wc);
  const auto edges_full = workload::generate(workload::DatasetId::kEdges, wc);

  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithinDistance;
  query.within_distance = 100.0;  // taxi pickup to nearby street segments

  core::ExecutionConfig exec;
  exec.cluster = cluster::ClusterSpec::ec2(10);
  exec.data_scale = 1.0 / scale;

  std::printf(
      "== Broadcast-based vs partition-based join (SpatialSpark analog) ==\n"
      "taxi1m x street-edge subsets of growing size, EC2-10, within 100 m.\n"
      "(The paper's future-work comparison, Section II.B.)\n\n");

  TablePrinter table({"right-side records", "partition-join s", "filter",
                      "broadcast-join s", "broadcast peak mem", "winner", "predicted"});

  std::vector<SweepPoint> sweep;
  for (const double fraction : {0.01, 0.05, 0.2, 0.5, 1.0}) {
    const VirtualTimeGuard virtual_time;
    const auto edges = fraction < 1.0
                           ? workload::sample_fraction(edges_full, "edges-sub",
                                                       fraction, 99)
                           : edges_full;
    SweepPoint point;
    point.fraction = fraction;
    point.right_records = edges.size();

    // The driver's own pick: its cost model sees only planning-time inputs
    // (the dataset sizes and the partitioned plan's shuffle-filter
    // decision, made from a sample before any copy is shuffled). Costs are
    // whole milliseconds; an infeasible broadcast reads as cost_ms's
    // sentinel for an infinite cost.
    systems::SpatialSparkConfig planned_cfg;
    planned_cfg.join_plan = std::nullopt;
    const auto planned = systems::run_spatial_spark(taxi, edges, query, exec, planned_cfg);
    const std::uint64_t broadcast_ms = planned.counters.get("plan.predicted_broadcast");
    point.predicted = std::string(plan::plan_kind_name(
        static_cast<plan::PlanKind>(planned.counters.get("plan.chosen"))));
    point.predicted_feasible = broadcast_ms != plan::cost_ms(INFINITY);
    point.predicted_broadcast_s = static_cast<double>(broadcast_ms) / 1e3;
    point.predicted_partitioned_s =
        static_cast<double>(planned.counters.get("plan.predicted_partitioned")) / 1e3;

    const auto part = systems::run_spatial_spark(taxi, edges, query, exec);
    point.filter = part.counters.get("plan.filter_chosen") == 1 ? "built" : "declined";
    systems::SpatialSparkConfig bcast_cfg;
    bcast_cfg.join_plan = plan::PlanKind::kBroadcastJoin;
    const auto bcast = systems::run_spatial_spark(taxi, edges, query, exec, bcast_cfg);

    point.part_ok = part.status.ok();
    point.bcast_ok = bcast.status.ok();
    if (part.status.ok()) point.part_seconds = part.total_seconds;
    if (bcast.status.ok()) point.bcast_seconds = bcast.total_seconds;
    point.bcast_peak_bytes = bcast.peak_memory_bytes;

    if (part.status.ok() && bcast.status.ok()) {
      point.actual =
          bcast.total_seconds < part.total_seconds ? "broadcast" : "partitioned";
    } else if (part.status.ok()) {
      // Broadcast died (the paper's Spark OOM): the partitioned join is the
      // realized winner and the model must have predicted it via the
      // feasibility gate.
      point.actual = "partitioned";
    }
    point.graded = point.actual != "-";
    point.correct = point.graded && point.actual == point.predicted;

    const std::string part_s =
        part.status.ok() ? format_seconds(part.total_seconds) : "-";
    const std::string bcast_s =
        bcast.status.ok() ? format_seconds(bcast.total_seconds) : "OOM";
    table.add_row({format_seconds(static_cast<double>(edges.size())), part_s, point.filter,
                   bcast_s,
                   format_bytes(bcast.peak_memory_bytes), point.actual,
                   point.predicted + (point.correct ? "" : " (miss)")});
    if (part.status.ok() && bcast.status.ok() && part.result_hash != bcast.result_hash) {
      std::printf("WARNING: result mismatch at fraction %g!\n", fraction);
    }
    sweep.push_back(point);
  }
  table.print();

  std::size_t graded = 0;
  std::size_t correct = 0;
  for (const auto& point : sweep) {
    graded += point.graded ? 1 : 0;
    correct += point.correct ? 1 : 0;
  }
  const double plan_accuracy =
      graded > 0 ? static_cast<double>(correct) / static_cast<double>(graded)
                 : std::nan("");
  std::printf("\ncost model: %zu/%zu sweep points predicted correctly (%.0f%%)\n",
              correct, graded, 100.0 * plan_accuracy);

  // ---- Skew repartitioning: tail-task study --------------------------------
  // The hotspot workload from the paper's skew discussion: point taxi data
  // with a Gaussian urban core joined on a fixed grid, which (unlike STR)
  // does not balance sample counts and so concentrates load. Traced runs,
  // refinement off vs on; the local-join wide stage carries the tail.
  std::printf(
      "\n== Skew-aware repartitioning: local-join tail tasks (taxi x nycb, "
      "fixed grid) ==\n\n");
  const auto nycb = workload::generate(workload::DatasetId::kNycb, wc);
  core::JoinQueryConfig skew_query;
  skew_query.predicate = core::JoinPredicate::kWithin;
  skew_query.partitioner = partition::PartitionerKind::kFixedGrid;
  core::ExecutionConfig skew_exec = exec;
  skew_exec.trace = true;

  systems::SpatialSparkConfig off_cfg;
  off_cfg.policy.repartition = false;
  const auto off_run =
      systems::run_spatial_spark(taxi, nycb, skew_query, skew_exec, off_cfg);

  systems::SpatialSparkConfig on_cfg;
  on_cfg.policy.repartition = true;
  const auto on_run =
      systems::run_spatial_spark(taxi, nycb, skew_query, skew_exec, on_cfg);

  const double ratio_off =
      trace::phase_skew_ratio(trace::skew_summary(off_run.trace), "local-join");
  const double ratio_on =
      trace::phase_skew_ratio(trace::skew_summary(on_run.trace), "local-join");
  const double tail_reduction =
      ratio_off > 0.0 ? (ratio_off - ratio_on) / ratio_off : std::nan("");
  const bool pairs_identical = off_run.status.ok() && on_run.status.ok() &&
                               off_run.result_count == on_run.result_count &&
                               off_run.result_hash == on_run.result_hash;

  TablePrinter skew_table({"variant", "local-join max/p50", "splits",
                           "migrated records", "pairs"});
  skew_table.add_row({"static scheme", format_seconds(ratio_off), "-", "-",
                      std::to_string(off_run.result_count)});
  skew_table.add_row(
      {"skew-refined", format_seconds(ratio_on),
       std::to_string(on_run.counters.get("repartition.splits")),
       std::to_string(on_run.counters.get("repartition.migrated_records")),
       std::to_string(on_run.result_count)});
  skew_table.print();
  std::printf("tail ratio %.2f -> %.2f (%.0f%% reduction), pairs %s\n",
              ratio_off, ratio_on,
              std::isnan(tail_reduction) ? 0.0 : 100.0 * tail_reduction,
              pairs_identical ? "bit-identical" : "MISMATCH");

  // ---- BENCH_plan.json ------------------------------------------------------
  JsonWriter json;
  json.begin_object();
  json.field("scale", scale);
  json.field("cluster", exec.cluster.name);
  json.begin_array("sweep");
  for (const auto& point : sweep) {
    json.begin_element();
    json.field("right_fraction", point.fraction);
    json.field("right_records", point.right_records);
    if (point.part_ok) json.field("partitioned_seconds", point.part_seconds);
    json.field("partitioned_filter", point.filter);
    if (point.bcast_ok) json.field("broadcast_seconds", point.bcast_seconds);
    json.field("broadcast_ok", point.bcast_ok);
    json.field("broadcast_peak_bytes", point.bcast_peak_bytes);
    json.field("actual_winner", point.actual);
    json.field("predicted_winner", point.predicted);
    json.field("predicted_broadcast_seconds",
               point.predicted_feasible ? point.predicted_broadcast_s : -1.0);
    json.field("predicted_partitioned_seconds", point.predicted_partitioned_s);
    json.field("predicted_broadcast_feasible", point.predicted_feasible);
    json.field("graded", point.graded);
    json.field("correct", point.correct);
    json.end_object();
  }
  json.end_array();
  if (!std::isnan(plan_accuracy)) json.field("plan_accuracy", plan_accuracy);
  json.begin_array("repartition");
  json.begin_element();
  json.field("workload", "taxi1m-x-nycb/fixed-grid");
  json.field("tail_ratio_off", ratio_off);
  json.field("tail_ratio_on", ratio_on);
  if (!std::isnan(tail_reduction)) json.field("tail_reduction", tail_reduction);
  json.field("splits", on_run.counters.get("repartition.splits"));
  json.field("cells", on_run.counters.get("repartition.cells"));
  json.field("migrated_records", on_run.counters.get("repartition.migrated_records"));
  json.field("migrated_bytes", on_run.counters.get("repartition.migrated_bytes"));
  json.field("pairs_identical", pairs_identical);
  json.end_object();
  json.end_array();
  json.field("peak_rss_bytes", peak_rss_bytes());
  json.end_object();
  const std::string path = write_bench_json("plan", json.str());
  std::printf("wrote %s\n", path.c_str());

  if (!pairs_identical) {
    std::fprintf(stderr,
                 "skew repartitioning changed survivor pairs or broke a run — "
                 "failing the bench\n");
    return 1;
  }
  if (min_plan_accuracy > 0.0 &&
      (std::isnan(plan_accuracy) || plan_accuracy < min_plan_accuracy)) {
    std::fprintf(stderr,
                 "plan accuracy %.3f below the --min-plan-accuracy=%.3f gate — "
                 "failing the bench\n",
                 std::isnan(plan_accuracy) ? 0.0 : plan_accuracy,
                 min_plan_accuracy);
    return 1;
  }
  if (min_tail_reduction > 0.0 &&
      (std::isnan(tail_reduction) || tail_reduction < min_tail_reduction)) {
    std::fprintf(stderr,
                 "tail-ratio reduction %.3f below the --min-tail-reduction=%.3f "
                 "gate — failing the bench\n",
                 std::isnan(tail_reduction) ? 0.0 : tail_reduction,
                 min_tail_reduction);
    return 1;
  }
  return 0;
}
