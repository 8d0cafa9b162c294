// Domain example: the paper's opening workload — "matching taxi pickup/
// drop-off locations with road segments through point-to-nearest-polyline
// distance computation".
//
// Uses the exact nearest-neighbor join (best-first R-tree pruning + exact
// geometry distances) and compares it against the within-distance join the
// distributed systems evaluate, showing how the threshold choice trades
// completeness for volume.
//
//   ./nearest_road [scale]
#include <cstdio>
#include <cstdlib>

#include "core/nn_join.hpp"
#include "core/spatial_join.hpp"
#include "util/stopwatch.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace sjc;

  workload::WorkloadConfig wc;
  wc.scale = argc > 1 ? std::atof(argv[1]) : 5e-4;

  const workload::Dataset taxi = workload::generate(workload::DatasetId::kTaxi1m, wc);
  const workload::Dataset roads = workload::generate(workload::DatasetId::kEdges01, wc);
  std::printf("matching %zu pickups to the nearest of %zu road segments...\n",
              taxi.size(), roads.size());

  Stopwatch watch;
  const auto matches = core::nearest_neighbor_join(taxi.features(), roads.features());
  std::printf("exact NN join finished in %.3f s (real)\n\n", watch.seconds());

  // Distance distribution: how far is the nearest road?
  double total = 0.0;
  double max_d = 0.0;
  std::size_t within_100 = 0;
  std::size_t within_250 = 0;
  for (const auto& m : matches) {
    total += m.distance;
    max_d = std::max(max_d, m.distance);
    if (m.distance <= 100.0) ++within_100;
    if (m.distance <= 250.0) ++within_250;
  }
  std::printf("nearest-road distance: mean %.1f m, max %.1f m\n",
              total / static_cast<double>(matches.size()), max_d);
  std::printf("pickups within 100 m of a road: %5.1f%%\n",
              100.0 * static_cast<double>(within_100) /
                  static_cast<double>(matches.size()));
  std::printf("pickups within 250 m of a road: %5.1f%%\n\n",
              100.0 * static_cast<double>(within_250) /
                  static_cast<double>(matches.size()));

  // The distributed within-distance join at 100 m finds multi-matches; the
  // NN join finds exactly one per pickup.
  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithinDistance;
  query.within_distance = 100.0;
  core::ExecutionConfig exec;
  exec.cluster = cluster::ClusterSpec::ec2(10);
  exec.data_scale = 1.0 / wc.scale;
  const auto report = core::run_spatial_join(core::SystemKind::kSpatialSparkSim, taxi,
                                             roads, query, exec);
  if (report.status.ok()) {
    std::printf(
        "distributed within-100m join (SpatialSpark analog): %zu pairs —\n"
        "%.2f candidate roads per pickup vs exactly 1 from the NN join.\n",
        report.result_count,
        static_cast<double>(report.result_count) / static_cast<double>(taxi.size()));
  }
  return 0;
}
