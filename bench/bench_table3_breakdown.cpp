// Reproduces Table 3: breakdown runtimes of the sample-dataset experiments
// under the WS and EC2-10 configurations. Columns follow the paper:
//   IA  — indexing the left dataset      IB — indexing the right dataset
//   DJ  — distributed join               TOT — IA + IB + DJ
// SpatialSpark reports TOT only (the paper could not attribute its stages
// either); HadoopGIS rows are "-" where it failed.
// The bench also writes BENCH_table3.json: one run per row with its
// success flag and the seconds it reports (a failed run's times and
// SpatialSpark's IA/IB/DJ are left out).
// Pass --trace=PREFIX to also record per-task timelines: each run writes a
// Chrome trace-event file PREFIX_<experiment>_<system>_<cluster>.trace.json
// (open in Perfetto or chrome://tracing) and prints its per-phase skew
// summary. Tracing never changes the reported numbers (see DESIGN.md §5e).
#include <cmath>
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

struct PaperRow {
  const char* ia;
  const char* ib;
  const char* dj;
  const char* tot;
};

PaperRow paper_row(const std::string& exp, sjc::core::SystemKind system,
                   const std::string& cluster) {
  using sjc::core::SystemKind;
  const bool ws = cluster == "WS";
  if (exp == "taxi1m-nycb") {
    switch (system) {
      case SystemKind::kHadoopGisSim:
        return ws ? PaperRow{"206", "54", "3,273", "3,533"} : PaperRow{"-", "-", "-", "-"};
      case SystemKind::kSpatialHadoopSim:
        return ws ? PaperRow{"227", "52", "230", "482"}
                  : PaperRow{"647", "187", "183", "1,017"};
      case SystemKind::kSpatialSparkSim:
        return ws ? PaperRow{"", "", "", "216"} : PaperRow{"", "", "", "67"};
    }
  } else {
    switch (system) {
      case SystemKind::kHadoopGisSim:
        return ws ? PaperRow{"1,550", "488", "1,249", "3,287"}
                  : PaperRow{"-", "-", "-", "-"};
      case SystemKind::kSpatialHadoopSim:
        return ws ? PaperRow{"1,013", "307", "220", "1,540"}
                  : PaperRow{"756", "596", "106", "1,458"};
      case SystemKind::kSpatialSparkSim:
        return ws ? PaperRow{"", "", "", "765"} : PaperRow{"", "", "", "48"};
    }
  }
  return {"?", "?", "?", "?"};
}

std::string fmt(double seconds, bool success) {
  if (!success) return "-";
  if (std::isnan(seconds)) return "";
  return sjc::format_seconds(seconds);
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

  std::printf(
      "== Table 3: breakdown runtimes, sample datasets (sim seconds; scale %g) ==\n"
      "   cells show: measured | paper\n\n",
      scale);

  const std::vector<cluster::ClusterSpec> clusters = {cluster::ClusterSpec::workstation(),
                                                      cluster::ClusterSpec::ec2(10)};
  TablePrinter table({"experiment", "config", "system", "IA", "IB", "DJ", "TOT"});
  JsonWriter json;
  json.begin_object();
  json.field("bench", "table3");
  json.field("scale", scale);
  json.begin_array("runs");

  for (const auto& def : core::sample_experiments()) {
    const auto left = workload::generate(def.left, wc);
    const auto right = workload::generate(def.right, wc);
    for (const auto& c : clusters) {
      for (const auto system :
           {core::SystemKind::kHadoopGisSim, core::SystemKind::kSpatialHadoopSim,
            core::SystemKind::kSpatialSparkSim}) {
        core::JoinQueryConfig query;
        query.predicate = def.predicate;
        core::ExecutionConfig exec;
        exec.cluster = c;
        exec.data_scale = 1.0 / scale;
        exec.trace = !trace_prefix.empty();
        const auto report = core::run_spatial_join(system, left, right, query, exec);
        if (exec.trace && !report.trace.empty()) {
          const std::string path = trace_prefix + "_" + slug(def.id) + "_" +
                                   slug(core::system_kind_name(system)) + "_" +
                                   slug(c.name) + ".trace.json";
          trace::write_chrome_trace_file(path, report.trace);
          std::printf("trace written to %s\n%s", path.c_str(),
                      trace::format_skew_table(report.trace, report.counters.snapshot()).c_str());
        }
        const PaperRow paper = paper_row(def.id, system, c.name);
        const bool ok = report.status.ok();
        table.add_row({def.id, c.name, core::system_kind_name(system),
                       fmt(report.index_a_seconds, ok) + " | " + paper.ia,
                       fmt(report.index_b_seconds, ok) + " | " + paper.ib,
                       fmt(report.join_seconds, ok) + " | " + paper.dj,
                       fmt(report.total_seconds, ok) + " | " + paper.tot});
        json.begin_element();
        json.field("experiment", def.id);
        json.field("cluster", c.name);
        json.field("system", core::system_kind_name(system));
        json.field("success", ok);
        const auto seconds = [&](const char* key, double v) {
          if (ok && !std::isnan(v)) json.field(key, v);
        };
        seconds("ia", report.index_a_seconds);
        seconds("ib", report.index_b_seconds);
        seconds("dj", report.join_seconds);
        seconds("tot", report.total_seconds);
        json.end_object();
      }
    }
    table.add_separator();
  }
  table.print();
  json.end_array();
  json.end_object();
  const std::string json_path = write_bench_json("table3", json.str());
  std::printf("json written to %s\n", json_path.c_str());
  return 0;
}
