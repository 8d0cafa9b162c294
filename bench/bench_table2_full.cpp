// Reproduces Table 2: end-to-end runtimes (seconds) of the two full-dataset
// experiments on the three systems across the four cluster configurations.
// "-" marks a failed run (broken pipe for HadoopGIS, OOM for SpatialSpark),
// matching the paper's dashes.
//
// Simulated seconds are paper-magnitude (measured CPU on scaled data +
// modeled I/O, scaled back up); compare shapes and factors, not absolute
// values. Set SJC_SCALE to change the workload scale (default 1e-3).
//
// Besides the human-readable table, the bench writes BENCH_table2.json with
// per-run simulated seconds AND the real wall-clock each run took, so
// kernel-level regressions show up in regression tracking even when the
// simulated model hides them.
// Pass --trace=PREFIX to also record per-task timelines: each run writes a
// Chrome trace-event file PREFIX_<experiment>_<system>_<cluster>.trace.json
// (open in Perfetto or chrome://tracing) and prints its per-phase skew
// summary. Tracing never changes the reported numbers (see DESIGN.md §5e).
//
// Pass --check-shapes to gate the paper's shape claims (EXPERIMENTS.md):
// the 24 cells run under virtual time (measured CPU pinned to 0, so one run
// is exact) and the bench exits 1 unless the failure matrix is exact
// (HadoopGIS fails every cell, SpatialSpark exactly EC2-8 and EC2-6,
// SpatialHadoop none), SpatialHadoop orders EC2-10 < EC2-8 < EC2-6 < WS,
// SpatialSpark beats SpatialHadoop on EC2-10 and on WS, and SpatialSpark's
// WS run is slower than its EC2-10 run, on both experiments. Each violation
// is printed with both cells' seconds.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <tuple>

#include "core/experiments.hpp"
#include "core/spatial_join.hpp"
#include "trace/chrome_trace.hpp"
#include "util/bench_io.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

namespace {

std::string slug(std::string text) {
  for (auto& ch : text) {
    const bool keep = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                      (ch >= '0' && ch <= '9') || ch == '-' || ch == '_';
    if (!keep) ch = '-';
  }
  return text;
}

// Paper Table 2 values for reference columns.
const char* paper_value(const std::string& exp, sjc::core::SystemKind system,
                        const std::string& cluster) {
  using sjc::core::SystemKind;
  if (exp == "taxi-nycb") {
    if (system == SystemKind::kSpatialHadoopSim) {
      if (cluster == "WS") return "3,327";
      if (cluster == "EC2-10") return "2,361";
      if (cluster == "EC2-8") return "2,472";
      if (cluster == "EC2-6") return "3,349";
    }
    if (system == SystemKind::kSpatialSparkSim) {
      if (cluster == "WS") return "3,098";
      if (cluster == "EC2-10") return "813";
    }
  } else {
    if (system == SystemKind::kSpatialHadoopSim) {
      if (cluster == "WS") return "14,135";
      if (cluster == "EC2-10") return "5,695";
      if (cluster == "EC2-8") return "8,043";
      if (cluster == "EC2-6") return "9,678";
    }
    if (system == SystemKind::kSpatialSparkSim) {
      if (cluster == "WS") return "4,481";
      if (cluster == "EC2-10") return "1,119";
    }
  }
  return "-";
}

/// One cell's outcome: its sim seconds, or nothing when the run failed.
using Cells = std::map<std::tuple<std::string, sjc::core::SystemKind, std::string>,
                       std::optional<double>>;

/// The paper's Table-2 shapes over `cells`; one line per violation.
std::vector<std::string> shape_violations(const Cells& cells) {
  using sjc::core::SystemKind;
  std::vector<std::string> out;
  const auto name = [](const std::string& exp, SystemKind system, const std::string& c) {
    return exp + " " + sjc::core::system_kind_name(system) + " " + c;
  };
  const auto seconds = [](const std::optional<double>& v) {
    return v ? sjc::format_seconds(*v) + " s" : std::string("failed");
  };
  const auto at = [&](const std::string& exp, SystemKind system, const std::string& c) {
    return cells.at({exp, system, c});
  };
  // Cell (exp, a, ca) must succeed and be faster than cell (exp, b, cb).
  const auto faster = [&](const std::string& exp, SystemKind a, const std::string& ca,
                          SystemKind b, const std::string& cb) {
    const auto va = at(exp, a, ca);
    const auto vb = at(exp, b, cb);
    if (va && vb && *va < *vb) return;
    out.push_back(name(exp, a, ca) + " (" + seconds(va) + ") is not faster than " +
                  name(exp, b, cb) + " (" + seconds(vb) + ")");
  };
  std::vector<std::string> experiments;
  for (const auto& [key, value] : cells) {
    const std::string& exp = std::get<0>(key);
    if (experiments.empty() || experiments.back() != exp) experiments.push_back(exp);
    const SystemKind system = std::get<1>(key);
    const std::string& cluster = std::get<2>(key);
    const bool expect_ok =
        system == SystemKind::kSpatialHadoopSim ||
        (system == SystemKind::kSpatialSparkSim && cluster != "EC2-8" && cluster != "EC2-6");
    if (value.has_value() != expect_ok) {
      out.push_back("failure matrix: " + name(exp, system, cluster) +
                    (expect_ok ? " failed" : " succeeded (" + seconds(value) + ")"));
    }
  }
  const SystemKind hadoop = SystemKind::kSpatialHadoopSim;
  const SystemKind spark = SystemKind::kSpatialSparkSim;
  for (const auto& exp : experiments) {
    faster(exp, hadoop, "EC2-10", hadoop, "EC2-8");
    faster(exp, hadoop, "EC2-8", hadoop, "EC2-6");
    faster(exp, hadoop, "EC2-6", hadoop, "WS");
    faster(exp, spark, "EC2-10", hadoop, "EC2-10");
    faster(exp, spark, "WS", hadoop, "WS");
    faster(exp, spark, "EC2-10", spark, "WS");
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sjc;
  std::string trace_prefix;
  bool check_shapes = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_prefix = argv[i] + 8;
    if (std::strcmp(argv[i], "--check-shapes") == 0) check_shapes = true;
  }
  std::optional<VirtualTimeGuard> virtual_time;
  if (check_shapes) virtual_time.emplace();
  Cells cells;
  const double scale = core::bench_scale();
  workload::WorkloadConfig wc;
  wc.scale = scale;

  std::printf("== Table 2: end-to-end runtimes, full datasets (sim seconds; scale %g%s) ==\n",
              scale, check_shapes ? "; virtual time" : "");
  std::printf("   cells show: measured | paper\n\n");

  const auto clusters = core::paper_cluster_configs();
  std::vector<std::string> header = {"experiment", "system"};
  for (const auto& c : clusters) header.push_back(c.name);
  TablePrinter table(header);

  JsonWriter json;
  json.begin_object();
  json.field("bench", "table2");
  json.field("scale", scale);
  json.begin_array("runs");

  for (const auto& def : core::full_experiments()) {
    const auto left = workload::generate(def.left, wc);
    const auto right = workload::generate(def.right, wc);
    for (const auto system :
         {core::SystemKind::kHadoopGisSim, core::SystemKind::kSpatialHadoopSim,
          core::SystemKind::kSpatialSparkSim}) {
      std::vector<std::string> row = {def.id, core::system_kind_name(system)};
      for (const auto& c : clusters) {
        core::JoinQueryConfig query;
        query.predicate = def.predicate;
        core::ExecutionConfig exec;
        exec.cluster = c;
        exec.data_scale = 1.0 / scale;
        exec.trace = !trace_prefix.empty();
        const auto wall_start = std::chrono::steady_clock::now();
        const auto report = core::run_spatial_join(system, left, right, query, exec);
        const double wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
                .count();
        if (exec.trace && !report.trace.empty()) {
          const std::string path = trace_prefix + "_" + slug(def.id) + "_" +
                                   slug(core::system_kind_name(system)) + "_" +
                                   slug(c.name) + ".trace.json";
          trace::write_chrome_trace_file(path, report.trace);
          std::printf("trace written to %s\n%s", path.c_str(),
                      trace::format_skew_table(report.trace, report.counters.snapshot()).c_str());
        }
        cells[{def.id, system, c.name}] =
            report.status.ok() ? std::optional<double>(report.total_seconds) : std::nullopt;
        const std::string measured =
            report.status.ok() ? format_seconds(report.total_seconds) : "-";
        row.push_back(measured + " | " + paper_value(def.id, system, c.name));
        json.begin_element();
        json.field("experiment", def.id);
        json.field("system", core::system_kind_name(system));
        json.field("cluster", c.name);
        json.field("success", report.status.ok());
        if (report.status.ok()) json.field("sim_seconds", report.total_seconds);
        json.field("real_wall_seconds", wall_seconds);
        json.field("prepared_cache_hits",
                   report.counters.get("join.prepared_cache_hits"));
        json.field("prepared_cache_misses",
                   report.counters.get("join.prepared_cache_misses"));
        json.end_object();
      }
      table.add_row(std::move(row));
    }
    table.add_separator();
  }
  table.print();
  json.end_array();
  json.field("peak_rss_bytes", peak_rss_bytes());
  json.end_object();
  const std::string json_path = write_bench_json("table2", json.str());
  std::printf("json written to %s\n", json_path.c_str());
  if (!check_shapes) return 0;
  const auto violations = shape_violations(cells);
  std::printf("\nshape checks: %zu violation(s)\n", violations.size());
  for (const auto& v : violations) std::printf("  %s\n", v.c_str());
  return violations.empty() ? 0 : 1;
}
