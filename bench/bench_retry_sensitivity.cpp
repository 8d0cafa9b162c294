// Retry sensitivity: how much retry budget buys back which failures?
// HadoopGIS pipe overflows recover on retry only while the overflow fits
// the per-attempt headroom (attempt k tolerates 1 + 0.5*(k-1) times the
// capacity). This bench fixes the workload, calibrates the pipe capacity so
// the worst task overflows by a chosen severity, and sweeps Hadoop's
// max_attempts from 1 (the seed model: first failure fatal) to 4 (the real
// mapred.max.attempts default) — charting where recovery runs out of road
// and what the retries cost in simulated time.
// A second sweep charts node blacklisting: with a fraction of the cluster's
// nodes flaky (correlated per-node crash probability), how much runtime and
// wasted work does quarantining those nodes buy back, per blacklist
// threshold?
#include <cstdio>

#include "core/experiments.hpp"
#include "systems/hadoopgis/hadoop_gis.hpp"
#include "systems/spatialhadoop/spatial_hadoop.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

int main() {
  using namespace sjc;
  const double scale = core::bench_scale(5e-4);
  workload::WorkloadConfig wc;
  wc.scale = scale;

  const auto taxi = workload::generate(workload::DatasetId::kTaxi1m, wc);
  const auto nycb = workload::generate(workload::DatasetId::kNycb, wc);

  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithin;
  core::ExecutionConfig exec;
  exec.cluster = cluster::ClusterSpec::workstation();
  exec.data_scale = 1.0 / scale;

  // Probe with the gate disabled to learn the peak per-task pipe volume,
  // then calibrate capacity = peak / severity for each sweep row.
  systems::HadoopGisConfig probe;
  probe.pipe_capacity_fraction = 0.0;
  const auto clean = systems::run_hadoop_gis(taxi, nycb, query, exec, probe);
  if (!clean.status.ok()) {
    std::printf("probe run failed: %s\n", clean.status.to_string().c_str());
    return 1;
  }
  const double peak = static_cast<double>(clean.metrics.max_task_pipe_bytes());
  const auto& node = exec.cluster.node;

  std::printf(
      "== Retry sensitivity: pipe-overflow severity vs max_attempts ==\n"
      "taxi1m-nycb on the WS (scale %g); fault-free run %s.\n"
      "capacity set to (worst task pipe volume) / severity; attempt k\n"
      "tolerates 1 + 0.5*(k-1) times capacity.\n\n",
      scale, format_seconds(clean.total_seconds).c_str());

  const std::vector<double> severities = {1.2, 1.4, 1.6, 2.0, 2.6, 3.0};
  const std::vector<std::uint32_t> budgets = {1, 2, 3, 4};
  std::vector<std::string> header = {"overflow"};
  for (const auto m : budgets) {
    header.push_back("attempts=" + std::to_string(m));
  }
  TablePrinter table(header);

  for (const double severity : severities) {
    char label[24];
    std::snprintf(label, sizeof(label), "%.1fx", severity);
    std::vector<std::string> row = {label};
    for (const auto m : budgets) {
      systems::HadoopGisConfig config;
      config.pipe_capacity_fraction = (peak / severity) * node.cores /
                                      static_cast<double>(node.memory_bytes);
      config.faults.max_attempts = m;
      const auto report = systems::run_hadoop_gis(taxi, nycb, query, exec, config);
      if (!report.status.ok()) {
        row.push_back("PIPE");
      } else {
        const std::uint64_t retries = report.attempts_used - clean.attempts_used;
        row.push_back(format_seconds(report.total_seconds) + " (+" +
                      std::to_string(retries) + ")");
      }
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\ncells show end-to-end sim seconds (+extra attempts) or PIPE when the\n"
      "retry budget is exhausted. severity <= 1 + 0.5*(attempts-1) recovers;\n"
      "the full-dataset overflows of Tables 2-3 (severity >= 2.9 on the WS)\n"
      "stay fatal even at Hadoop's default budget of 4.\n");

  // ---- Node blacklisting on/off: flaky-node crash rate vs threshold ------
  core::ExecutionConfig ec2 = exec;
  ec2.cluster = cluster::ClusterSpec::ec2(6);  // blacklisting needs > 1 node

  std::printf(
      "\n== Node blacklisting: flaky-node crash rate vs blacklist threshold ==\n"
      "taxi1m-nycb on EC2-6 (SpatialHadoop analog); 1/3 of nodes flaky,\n"
      "max_attempts=8. threshold=off leaves retries circling the flaky\n"
      "nodes; a threshold quarantines them and shifts work to healthy\n"
      "slots.\n\n");

  const std::vector<double> crash_rates = {0.2, 0.4, 0.6, 0.8};
  const std::vector<std::uint32_t> thresholds = {0, 1, 2, 4};
  std::vector<std::string> bl_header = {"flaky crash p"};
  for (const auto t : thresholds) {
    bl_header.push_back(t == 0 ? "off" : "thr=" + std::to_string(t));
  }
  TablePrinter bl_table(bl_header);

  for (const double p : crash_rates) {
    char label[16];
    std::snprintf(label, sizeof(label), "%.1f", p);
    std::vector<std::string> row = {label};
    for (const auto t : thresholds) {
      systems::SpatialHadoopConfig config;
      config.faults.seed = 4242;
      config.faults.bad_node_probability = 1.0 / 3.0;
      config.faults.bad_node_crash_probability = p;
      config.faults.max_attempts = 8;
      config.faults.node_blacklist_threshold = t;
      const auto report =
          systems::run_spatial_hadoop(taxi, nycb, query, ec2, config);
      if (!report.status.ok()) {
        row.push_back(report.status.to_string());
      } else {
        row.push_back(format_seconds(report.total_seconds) + " (" +
                      std::to_string(report.metrics.total_nodes_quarantined()) +
                      "q, " + format_seconds(report.metrics.total_wasted_seconds()) +
                      "w)");
      }
    }
    bl_table.add_row(std::move(row));
  }
  bl_table.print();
  std::printf(
      "\ncells show sim seconds (nodes quarantined, seconds wasted), or the\n"
      "structured failure Status. Quarantine pays off once flaky nodes crash\n"
      "often enough that retries keep landing on them.\n");
  return 0;
}
