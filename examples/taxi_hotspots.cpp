// Domain example: which census blocks receive the most taxi pickups?
//
// Runs the paper's point-in-polygon join (taxi x nycb) through the public
// API on the SpatialSpark analog, then aggregates matched pairs into a
// per-block ranking — the kind of downstream analysis the paper's
// introduction motivates (matching GPS records to urban zones).
//
//   ./taxi_hotspots [scale]
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

  const workload::Dataset taxi = workload::generate(workload::DatasetId::kTaxi1m, wc);
  const workload::Dataset nycb = workload::generate(workload::DatasetId::kNycb, wc);
  std::printf("joining %zu pickups with %zu census blocks...\n", taxi.size(),
              nycb.size());

  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithin;

  core::ExecutionConfig exec;
  exec.cluster = cluster::ClusterSpec::ec2(10);
  exec.data_scale = 1.0 / wc.scale;
  exec.collect_pairs = true;  // we want the pairs, not just the count

  const auto report = core::run_spatial_join(core::SystemKind::kSpatialSparkSim, taxi,
                                             nycb, query, exec);
  if (!report.status.ok()) {
    std::printf("join failed: %s\n", report.status.to_string().c_str());
    return 1;
  }
  std::printf("matched %zu pickups in %s simulated seconds (EC2-10)\n\n",
              report.result_count, format_seconds(report.total_seconds).c_str());

  // Aggregate pickups per block and rank.
  std::map<std::uint64_t, std::size_t> per_block;
  for (const auto& pair : report.pairs) per_block[pair.right_id]++;
  std::vector<std::pair<std::size_t, std::uint64_t>> ranking;
  for (const auto& [block, count] : per_block) ranking.emplace_back(count, block);
  std::sort(ranking.rbegin(), ranking.rend());

  std::printf("top pickup hotspots:\n");
  std::printf("  %-10s %-12s %s\n", "block id", "pickups", "share");
  const std::size_t top = std::min<std::size_t>(10, ranking.size());
  for (std::size_t i = 0; i < top; ++i) {
    std::printf("  %-10llu %-12zu %5.1f%%\n",
                static_cast<unsigned long long>(ranking[i].second), ranking[i].first,
                100.0 * static_cast<double>(ranking[i].first) /
                    static_cast<double>(report.result_count));
  }
  const double matched_share =
      static_cast<double>(report.result_count) / static_cast<double>(taxi.size());
  std::printf("\n%.1f%% of pickups matched a block (blocks tile the city).\n",
              100.0 * matched_share);
  return 0;
}
