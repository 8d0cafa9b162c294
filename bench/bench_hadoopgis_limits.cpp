// Where exactly does HadoopGIS break? The paper reports only the binary
// outcome (sample datasets: WS ok / EC2 broken pipe; full datasets: broken
// everywhere). This bench sweeps the input volume between those points and
// reports, per cluster, the largest fraction of the full taxi dataset that
// still completes — locating the robustness cliff the failure model
// produces.
#include <cstdio>

#include "core/experiments.hpp"
#include "systems/hadoopgis/hadoop_gis.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

int main() {
  using namespace sjc;
  const double scale = core::bench_scale(5e-4);
  workload::WorkloadConfig wc;
  wc.scale = scale;

  const auto taxi = workload::generate(workload::DatasetId::kTaxi, wc);
  const auto nycb = workload::generate(workload::DatasetId::kNycb, wc);

  std::printf(
      "== HadoopGIS robustness cliff: input volume vs broken pipes ==\n"
      "fractions of the full taxi dataset joined with nycb (scale %g).\n"
      "paper anchors: taxi1m (~8%% of taxi) completes on WS, fails on EC2;\n"
      "full taxi fails everywhere.\n\n",
      scale);

  const std::vector<double> fractions = {0.02, 0.05, 0.08, 0.15, 0.3, 0.6, 1.0};
  std::vector<std::string> header = {"cluster"};
  for (const double f : fractions) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%g", f);
    header.push_back(buf);
  }
  TablePrinter table(header);

  for (const auto& cl : {cluster::ClusterSpec::workstation(), cluster::ClusterSpec::ec2(10)}) {
    std::vector<std::string> row = {cl.name};
    for (const double f : fractions) {
      const auto subset =
          f < 1.0 ? workload::sample_fraction(taxi, "taxi-sub", f, 4242) : taxi;
      core::JoinQueryConfig query;
      query.predicate = core::JoinPredicate::kWithin;
      core::ExecutionConfig exec;
      exec.cluster = cl;
      exec.data_scale = 1.0 / scale;
      const auto report = systems::run_hadoop_gis(subset, nycb, query, exec);
      row.push_back(report.status.ok() ? format_seconds(report.total_seconds) : "PIPE");
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::printf(
      "\ncells show end-to-end sim seconds where the run completed; the cliff\n"
      "between the last runtime and the first PIPE is the per-task pipe\n"
      "capacity (0.24 x per-slot memory; x0.17 on multi-node clusters).\n");
  return 0;
}
