// Reproduces Table 2: end-to-end runtimes (seconds) of the two full-dataset
// experiments on the three systems across the four cluster configurations.
// "-" marks a failed run (broken pipe for HadoopGIS, OOM for SpatialSpark),
// matching the paper's dashes.
//
// Simulated seconds are paper-magnitude (measured CPU on scaled data +
// modeled I/O, scaled back up); compare shapes and factors, not absolute
// values. Set SJC_SCALE to change the workload scale (default 1e-3).
//
// Besides the human-readable table (and the optional SJC_CSV_DIR CSV), the
// bench writes BENCH_table2.json with per-run simulated seconds AND the
// real wall-clock each run took, so kernel-level regressions show up in
// regression tracking even when the simulated model hides them.
// Pass --trace=PREFIX to also record per-task timelines: each run writes a
// Chrome trace-event file PREFIX_<experiment>_<system>_<cluster>.trace.json
// (open in Perfetto or chrome://tracing) and prints its per-phase skew
// summary. Tracing never changes the reported numbers (see DESIGN.md §5e).
#include <chrono>
#include <cstdio>
#include <cstring>

#include "core/experiments.hpp"
#include "core/spatial_join.hpp"
#include "trace/chrome_trace.hpp"
#include "util/bench_io.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  using namespace sjc;
  std::string trace_prefix;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_prefix = argv[i] + 8;
  }
  const double scale = core::bench_scale();
  workload::WorkloadConfig wc;
  wc.scale = scale;

  std::printf("== Table 2: end-to-end runtimes, full datasets (sim seconds; scale %g) ==\n",
              scale);
  std::printf("   cells show: measured | paper\n\n");

  const auto clusters = core::paper_cluster_configs();
  std::vector<std::string> header = {"experiment", "system"};
  for (const auto& c : clusters) header.push_back(c.name);
  TablePrinter table(header);
  CsvWriter csv({"experiment", "system", "cluster", "sim_seconds", "success"});

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
        const std::string measured =
            report.status.ok() ? format_seconds(report.total_seconds) : "-";
        row.push_back(measured + " | " + paper_value(def.id, system, c.name));
        csv.add_row({def.id, core::system_kind_name(system), c.name,
                     report.status.ok() ? format_double(report.total_seconds) : "",
                     report.status.ok() ? "1" : "0"});
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
  const std::string csv_path = maybe_write_csv("table2_full", csv);
  if (!csv_path.empty()) std::printf("\ncsv written to %s\n", csv_path.c_str());
  const std::string json_path = write_bench_json("table2", json.str());
  std::printf("json written to %s\n", json_path.c_str());
  return 0;
}
