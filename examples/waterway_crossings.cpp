// Domain example: find all street segments that cross a waterway — bridge
// and culvert candidates. This is the paper's second experiment
// (edges x linearwater polyline intersection), run on all three systems to
// show the comparative API, with a per-waterway crossing census at the end.
//
//   ./waterway_crossings [scale]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "core/spatial_join.hpp"
#include "util/strings.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace sjc;

  workload::WorkloadConfig wc;
  wc.scale = argc > 1 ? std::atof(argv[1]) : 5e-4;

  const workload::Dataset edges = workload::generate(workload::DatasetId::kEdges01, wc);
  const workload::Dataset water =
      workload::generate(workload::DatasetId::kLinearwater01, wc);
  std::printf("intersecting %zu street segments with %zu waterways...\n\n",
              edges.size(), water.size());

  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kIntersects;

  core::ExecutionConfig exec;
  exec.cluster = cluster::ClusterSpec::workstation();
  exec.data_scale = 1.0 / wc.scale;
  exec.collect_pairs = true;

  core::RunReport best;
  std::printf("%-18s %-8s %-10s %s\n", "system", "status", "crossings", "sim-seconds");
  for (const auto system :
       {core::SystemKind::kHadoopGisSim, core::SystemKind::kSpatialHadoopSim,
        core::SystemKind::kSpatialSparkSim}) {
    const auto report = core::run_spatial_join(system, edges, water, query, exec);
    std::printf("%-18s %-8s %-10zu %s\n", core::system_kind_name(system),
                report.status.ok() ? "ok" : "FAIL", report.result_count,
                report.status.ok() ? format_seconds(report.total_seconds).c_str() : "-");
    if (report.status.ok()) best = std::move(report);
  }

  if (best.pairs.empty()) {
    std::printf("\nno system produced results\n");
    return 1;
  }

  std::map<std::uint64_t, std::size_t> crossings_per_waterway;
  for (const auto& pair : best.pairs) crossings_per_waterway[pair.right_id]++;
  std::size_t max_crossings = 0;
  std::uint64_t busiest = 0;
  for (const auto& [waterway, count] : crossings_per_waterway) {
    if (count > max_crossings) {
      max_crossings = count;
      busiest = waterway;
    }
  }
  std::printf(
      "\n%zu of %zu waterways are crossed by at least one street;\n"
      "waterway %llu carries the most crossings (%zu bridge candidates).\n",
      crossings_per_waterway.size(), water.size(),
      static_cast<unsigned long long>(busiest), max_crossings);
  return 0;
}
