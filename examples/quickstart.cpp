// Quickstart: run one distributed spatial join on each simulated system and
// print the end-to-end breakdown.
//
//   ./quickstart [scale]
//
// Joins synthetic NYC taxi pickups against census blocks (point-in-polygon)
// on a simulated workstation "cluster", exactly the paper's taxi-nycb
// experiment at a reduced scale.
#include <cstdio>
#include <cstdlib>

#include "core/spatial_join.hpp"
#include "util/strings.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace sjc;

  workload::WorkloadConfig wc;
  wc.scale = argc > 1 ? std::atof(argv[1]) : 1e-4;

  std::printf("generating synthetic datasets (scale %.2g of the paper's sizes)...\n",
              wc.scale);
  const workload::Dataset taxi = workload::generate(workload::DatasetId::kTaxi1m, wc);
  const workload::Dataset nycb = workload::generate(workload::DatasetId::kNycb, wc);
  std::printf("  %-8s %9zu records, %s\n", taxi.name().c_str(), taxi.size(),
              format_bytes(taxi.text_bytes()).c_str());
  std::printf("  %-8s %9zu records, %s\n", nycb.name().c_str(), nycb.size(),
              format_bytes(nycb.text_bytes()).c_str());

  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithin;  // point-in-polygon
  query.sample_rate = 0.05;

  core::ExecutionConfig exec;
  exec.cluster = cluster::ClusterSpec::workstation();
  exec.data_scale = 1.0 / wc.scale;

  for (const auto system :
       {core::SystemKind::kHadoopGisSim, core::SystemKind::kSpatialHadoopSim,
        core::SystemKind::kSpatialSparkSim}) {
    const auto report = core::run_spatial_join(system, taxi, nycb, query, exec);
    if (report.status.ok()) {
      std::printf("%-18s OK   %9zu pairs   total %8s sim-seconds\n",
                  core::system_kind_name(system), report.result_count,
                  format_seconds(report.total_seconds).c_str());
    } else {
      std::printf("%-18s FAIL (%s)\n", core::system_kind_name(system),
                  report.status.to_string().c_str());
    }
  }
  return 0;
}
