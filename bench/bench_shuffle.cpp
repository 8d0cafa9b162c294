// Map-side shuffle filter (sFilter analog) forced off vs forced on, all three
// systems on both Table-2 experiments (EC2-10): modeled shuffle bytes,
// filtered-record counters and the duplicated-records reduction under
// virtual time (measured CPU pinned to 0, so modeled quantities are pure
// cost-model outputs), plus best-of-N wall-clock. Next to them each row
// shows what the plan chooses when the policy leaves the filter unset, with
// its predicted prune (plan.filter_* counters). Survivor pair sets must stay bit-identical whenever
// both runs complete, and a run that succeeds unfiltered must also succeed
// filtered; either violation exits non-zero.
// --min-shuffle-reduction=<frac> turns the best observed byte reduction into
// a CI gate.
//
// Emits BENCH_shuffle.json (filter columns) for regression tracking.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "systems/hadoopgis/hadoop_gis.hpp"
#include "systems/spatialhadoop/spatial_hadoop.hpp"
#include "systems/spatialspark/spatial_spark.hpp"
#include "util/bench_io.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

namespace {

using namespace sjc;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string fmt3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

// `filter` forces the shuffle filter; unset lets the plan decide.
core::RunReport run_gis_filter(const workload::Dataset& left,
                               const workload::Dataset& right,
                               const core::JoinQueryConfig& query,
                               const core::ExecutionConfig& exec, std::optional<bool> filter) {
  systems::HadoopGisConfig config;
  config.policy.shuffle_filter = filter;
  return systems::run_hadoop_gis(left, right, query, exec, config);
}

core::RunReport run_hadoop_filter(const workload::Dataset& left,
                                  const workload::Dataset& right,
                                  const core::JoinQueryConfig& query,
                                  const core::ExecutionConfig& exec,
                                  std::optional<bool> filter) {
  systems::SpatialHadoopConfig config;
  config.policy.shuffle_filter = filter;
  return systems::run_spatial_hadoop(left, right, query, exec, config);
}

core::RunReport run_spark_filter(const workload::Dataset& left,
                                 const workload::Dataset& right,
                                 const core::JoinQueryConfig& query,
                                 const core::ExecutionConfig& exec,
                                 std::optional<bool> filter) {
  systems::SpatialSparkConfig config;
  config.policy.shuffle_filter = filter;
  return systems::run_spatial_spark(left, right, query, exec, config);
}

using RunFn = core::RunReport (*)(const workload::Dataset&, const workload::Dataset&,
                                  const core::JoinQueryConfig&,
                                  const core::ExecutionConfig&, std::optional<bool>);

struct SystemDef {
  const char* name;
  RunFn run;
};

constexpr SystemDef kFilterSystems[] = {
    {"hadoopgis-sim", &run_gis_filter},
    {"spatialhadoop-sim", &run_hadoop_filter},
    {"spatialspark-sim", &run_spark_filter},
};

std::uint64_t total_shuffle_bytes(const core::RunReport& report) {
  std::uint64_t total = 0;
  for (const auto& p : report.metrics.phases()) total += p.bytes_shuffled;
  return total;
}

struct FilterRow {
  std::string experiment;
  std::string system;
  bool off_ok = false;
  bool on_ok = false;
  std::uint64_t off_shuffle_bytes = 0;
  std::uint64_t on_shuffle_bytes = 0;
  std::uint64_t off_dups = 0;
  std::uint64_t on_dups = 0;
  std::uint64_t assigned = 0;
  std::uint64_t filtered = 0;
  std::uint64_t filtered_bytes = 0;
  /// The plan's choice with the policy unset ("-" when the run failed
  /// before deciding) and its predicted drop, in ppm of the assigned copies
  /// of the sides the filter drops.
  std::string plan = "-";
  std::uint64_t plan_drop_ppm = 0;
  double off_wall = std::nan("");
  double on_wall = std::nan("");

  /// Measured reduction: modeled shuffle bytes that stopped crossing the
  /// network. Needs a succeeding unfiltered run to compare against.
  double byte_reduction() const {
    if (!off_ok || !on_ok || off_shuffle_bytes == 0) return std::nan("");
    return 1.0 - static_cast<double>(on_shuffle_bytes) /
                     static_cast<double>(off_shuffle_bytes);
  }
  /// The on-run's own estimate (filtered bytes over would-be total): the
  /// only number available when the filter *rescues* an unfiltered OOM/pipe
  /// failure — there is no off-run byte total to compare against then.
  double estimated_reduction() const {
    const std::uint64_t would_be = on_shuffle_bytes + filtered_bytes;
    if (!on_ok || would_be == 0) return std::nan("");
    return static_cast<double>(filtered_bytes) / static_cast<double>(would_be);
  }
  /// What the CI gate sees: the measured reduction when comparable, the
  /// estimate on a rescue.
  double gated_reduction() const {
    const double measured = byte_reduction();
    return std::isnan(measured) ? estimated_reduction() : measured;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sjc;
  int reps = 3;
  double min_shuffle_reduction = 0.0;  // 0 disables the gate
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--reps=", 7) == 0) reps = std::atoi(argv[i] + 7);
    if (std::strncmp(argv[i], "--min-shuffle-reduction=", 24) == 0) {
      min_shuffle_reduction = std::atof(argv[i] + 24);
    }
  }
  if (reps < 1) reps = 1;

  const double scale = core::bench_scale();
  workload::WorkloadConfig wc;
  wc.scale = scale;
  core::ExecutionConfig exec;
  exec.cluster = cluster::ClusterSpec::ec2(10);
  exec.data_scale = 1.0 / scale;

  std::printf(
      "== Map-side shuffle filter (sFilter analog): off vs on (scale %g, %d "
      "reps) ==\n",
      scale, reps);
  std::vector<FilterRow> filter_rows;
  bool filter_pairs_ok = true;
  for (const auto& def : core::full_experiments()) {
    const auto fleft = workload::generate(def.left, wc);
    const auto fright = workload::generate(def.right, wc);
    core::JoinQueryConfig fquery;
    fquery.predicate = def.predicate;
    for (const auto& sys : kFilterSystems) {
      FilterRow row;
      row.experiment = def.id;
      row.system = sys.name;
      const std::string tag = std::string(sys.name) + "/" + def.id;
      // Modeled quantities under virtual time (pure cost-model outputs).
      core::RunReport off, on, planned;
      {
        const VirtualTimeGuard vt;
        off = sys.run(fleft, fright, fquery, exec, false);
        on = sys.run(fleft, fright, fquery, exec, true);
        planned = sys.run(fleft, fright, fquery, exec, std::nullopt);
      }
      const auto plan_counters = planned.counters.snapshot();
      if (plan_counters.count("plan.filter_chosen") != 0) {
        row.plan = plan_counters.at("plan.filter_chosen") == 1 ? "on" : "off";
        row.plan_drop_ppm = plan_counters.at("plan.filter_predicted_drop_ppm");
      }
      row.off_ok = off.status.ok();
      row.on_ok = on.status.ok();
      if (row.off_ok && !row.on_ok) {
        std::fprintf(stderr, "FILTER REGRESSION: %s fails with the filter on: %s\n",
                     tag.c_str(), on.status.to_string().c_str());
        filter_pairs_ok = false;
      }
      if (row.off_ok && row.on_ok &&
          (off.result_count != on.result_count ||
           off.result_hash != on.result_hash)) {
        std::fprintf(stderr,
                     "FILTER MISMATCH: %s survivor pair sets differ "
                     "(off %zu pairs hash %llu, on %zu pairs hash %llu)\n",
                     tag.c_str(), off.result_count,
                     static_cast<unsigned long long>(off.result_hash),
                     on.result_count,
                     static_cast<unsigned long long>(on.result_hash));
        filter_pairs_ok = false;
      }
      row.off_shuffle_bytes = total_shuffle_bytes(off);
      row.on_shuffle_bytes = total_shuffle_bytes(on);
      row.off_dups = off.counters.get("partition.duplicated_records");
      row.on_dups = on.counters.get("partition.duplicated_records");
      row.assigned = on.counters.get("shuffle.assigned_records");
      row.filtered = on.counters.get("shuffle.filtered_records");
      row.filtered_bytes = on.counters.get("shuffle.filtered_bytes");
      // Wall clock, best of N, interleaved.
      for (int r = 0; r < reps; ++r) {
        if (row.off_ok) {
          const double start = wall_now();
          sys.run(fleft, fright, fquery, exec, false);
          const double elapsed = wall_now() - start;
          if (std::isnan(row.off_wall) || elapsed < row.off_wall) {
            row.off_wall = elapsed;
          }
        }
        if (row.on_ok) {
          const double start = wall_now();
          sys.run(fleft, fright, fquery, exec, true);
          const double elapsed = wall_now() - start;
          if (std::isnan(row.on_wall) || elapsed < row.on_wall) {
            row.on_wall = elapsed;
          }
        }
      }
      filter_rows.push_back(std::move(row));
    }
  }

  TablePrinter ftable({"experiment", "system", "off shuffle", "on shuffle",
                       "reduction", "filtered recs", "dups off->on", "plan",
                       "predicted prune", "off s", "on s"});
  double best_reduction = std::nan("");
  for (const auto& row : filter_rows) {
    const double gated = row.gated_reduction();
    if (!std::isnan(gated) &&
        (std::isnan(best_reduction) || gated > best_reduction)) {
      best_reduction = gated;
    }
    std::string reduction = "-";
    if (!std::isnan(row.byte_reduction())) {
      reduction = fmt3(100.0 * row.byte_reduction()) + "%";
    } else if (!std::isnan(row.estimated_reduction())) {
      // Unfiltered run died (OOM/pipe); the filter rescued it.
      reduction = "~" + fmt3(100.0 * row.estimated_reduction()) + "% (rescue)";
    }
    ftable.add_row(
        {row.experiment, row.system,
         row.off_ok ? format_bytes(row.off_shuffle_bytes) : "failed",
         row.on_ok ? format_bytes(row.on_shuffle_bytes) : "failed", reduction,
         std::to_string(row.filtered) + "/" + std::to_string(row.assigned),
         std::to_string(row.off_dups) + " -> " + std::to_string(row.on_dups), row.plan,
         row.plan == "-" ? "-" : fmt3(row.plan_drop_ppm / 1e4) + "%",
         std::isnan(row.off_wall) ? "-" : fmt3(row.off_wall),
         std::isnan(row.on_wall) ? "-" : fmt3(row.on_wall)});
  }
  ftable.print();
  std::printf(
      "(\"rescue\" rows: the unfiltered run overflows a memory/pipe gate, so\n"
      " the reduction is the on-run's own filtered/(filtered+shuffled) byte\n"
      " estimate. Survivor pair sets are verified bit-identical whenever both\n"
      " runs complete. \"plan\": the filter the plan builds with the policy\n"
      " unset, and the share of assigned copies it predicted the filter drops.)\n");
  // Failures are reported after the JSON is written, so a regression still
  // uploads its BENCH_shuffle.json artifact from CI.
  const bool gate_failed =
      min_shuffle_reduction > 0.0 &&
      (std::isnan(best_reduction) || best_reduction < min_shuffle_reduction);

  JsonWriter json;
  json.begin_object();
  json.field("bench", "shuffle");
  json.field("scale", scale);
  json.field("reps", static_cast<std::uint64_t>(reps));
  json.begin_array("filter");
  for (const auto& row : filter_rows) {
    json.begin_element();
    json.field("experiment", row.experiment);
    json.field("system", row.system);
    json.field("off_success", row.off_ok);
    json.field("on_success", row.on_ok);
    json.field("off_shuffle_bytes", row.off_shuffle_bytes);
    json.field("on_shuffle_bytes", row.on_shuffle_bytes);
    json.field("shuffle_assigned_records", row.assigned);
    json.field("shuffle_filtered_records", row.filtered);
    json.field("shuffle_filtered_bytes", row.filtered_bytes);
    json.field("duplicated_records_off", row.off_dups);
    json.field("duplicated_records_on", row.on_dups);
    json.field("plan_filter", row.plan);
    if (row.plan != "-") json.field("plan_predicted_drop_ppm", row.plan_drop_ppm);
    if (!std::isnan(row.byte_reduction())) {
      json.field("shuffle_byte_reduction", row.byte_reduction());
    }
    if (!std::isnan(row.estimated_reduction())) {
      json.field("estimated_shuffle_byte_reduction", row.estimated_reduction());
    }
    if (!std::isnan(row.off_wall)) json.field("off_wall_seconds", row.off_wall);
    if (!std::isnan(row.on_wall)) json.field("on_wall_seconds", row.on_wall);
    json.end_object();
  }
  json.end_array();
  if (!std::isnan(best_reduction)) {
    json.field("max_shuffle_byte_reduction", best_reduction);
  }
  json.field("peak_rss_bytes", peak_rss_bytes());
  json.end_object();
  const std::string path = write_bench_json("shuffle", json.str());
  std::printf("wrote %s\n", path.c_str());
  if (!filter_pairs_ok) {
    std::fprintf(stderr,
                 "shuffle filter changed survivor pairs or broke a succeeding "
                 "run — failing the bench\n");
    return 1;
  }
  if (gate_failed) {
    std::fprintf(stderr,
                 "best shuffle-byte reduction %.3f below the --min-shuffle-"
                 "reduction=%.3f gate — failing the bench\n",
                 std::isnan(best_reduction) ? 0.0 : best_reduction,
                 min_shuffle_reduction);
    return 1;
  }
  return 0;
}
