// Capacity-planning example: which cluster should you rent for a workload?
//
// Sweeps EC2 cluster sizes (and the workstation) for a chosen system and
// workload, showing where runs fail (broken pipe / OOM) and where adding
// nodes stops paying — the operational question behind the paper's Table 2:
// SpatialSpark needs the memory of EC2-10, SpatialHadoop runs anywhere but
// slower, HadoopGIS cannot complete the full workload at all.
//
//   ./cluster_sizing [scale]
#include <cstdio>
#include <cstdlib>

#include "core/spatial_join.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace sjc;

  workload::WorkloadConfig wc;
  wc.scale = argc > 1 ? std::atof(argv[1]) : 5e-4;

  const workload::Dataset taxi = workload::generate(workload::DatasetId::kTaxi, wc);
  const workload::Dataset nycb = workload::generate(workload::DatasetId::kNycb, wc);
  std::printf("capacity planning for the FULL taxi x nycb join (%zu x %zu records)\n\n",
              taxi.size(), nycb.size());

  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithin;

  std::vector<cluster::ClusterSpec> options = {cluster::ClusterSpec::workstation()};
  for (const std::uint32_t n : {6u, 8u, 10u, 12u, 16u}) {
    options.push_back(cluster::ClusterSpec::ec2(n));
  }

  TablePrinter table({"cluster", "slots", "memory", "SpatialHadoop", "SpatialSpark",
                      "HadoopGIS"});
  for (const auto& cl : options) {
    core::ExecutionConfig exec;
    exec.cluster = cl;
    exec.data_scale = 1.0 / wc.scale;
    std::vector<std::string> row = {cl.name, std::to_string(cl.total_slots()),
                                    format_bytes(cl.aggregate_memory())};
    for (const auto system :
         {core::SystemKind::kSpatialHadoopSim, core::SystemKind::kSpatialSparkSim,
          core::SystemKind::kHadoopGisSim}) {
      const auto report = core::run_spatial_join(system, taxi, nycb, query, exec);
      if (report.status.ok()) {
        row.push_back(format_seconds(report.total_seconds) + " s");
      } else if (report.status.code() == StatusCode::kOutOfMemory) {
        row.push_back("OOM");
      } else {
        row.push_back("broken pipe");
      }
    }
    table.add_row(std::move(row));
  }
  table.print();

  std::printf(
      "\nreading the table: pick the cheapest row whose cell is a runtime, then\n"
      "weigh robustness (SpatialHadoop always completes) against speed\n"
      "(SpatialSpark, once its memory floor is met).\n");
  return 0;
}
