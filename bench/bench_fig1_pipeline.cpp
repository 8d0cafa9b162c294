// Reproduces Fig. 1: the generalized three-stage framework, rendered as each
// system's actual executed phase list (stage DAG) with per-phase simulated
// time and I/O volumes. This makes the paper's architectural comparison —
// how often each design touches the DFS, where it shuffles, where the
// master serializes — directly observable.
#include <cstdio>

#include "core/experiments.hpp"
#include "core/spatial_join.hpp"
#include "util/strings.hpp"
#include "workload/generators.hpp"

int main() {
  using namespace sjc;
  const double scale = core::bench_scale(2e-4);
  workload::WorkloadConfig wc;
  wc.scale = scale;

  const auto taxi = workload::generate(workload::DatasetId::kTaxi1m, wc);
  const auto nycb = workload::generate(workload::DatasetId::kNycb, wc);

  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithin;
  core::ExecutionConfig exec;
  exec.cluster = cluster::ClusterSpec::workstation();
  exec.data_scale = 1.0 / scale;

  std::printf(
      "== Fig. 1: executed pipeline per system (taxi1m x nycb, WS, scale %g) ==\n"
      "Each line is one executed phase: <stage>/<step>  sim-seconds  volumes.\n"
      "Note how HadoopGIS runs 6 preprocessing jobs per dataset and re-reads\n"
      "everything in the join; SpatialHadoop packs preprocessing into 2 jobs\n"
      "and joins map-only; SpatialSpark touches the DFS exactly once per input\n"
      "and stays in memory afterwards.\n\n",
      scale);

  for (const auto system :
       {core::SystemKind::kHadoopGisSim, core::SystemKind::kSpatialHadoopSim,
        core::SystemKind::kSpatialSparkSim}) {
    const auto report = core::run_spatial_join(system, taxi, nycb, query, exec);
    std::printf("---- %s (%s) ----\n", core::system_kind_name(system),
                report.status.ok() ? "success" : report.status.to_string().c_str());
    std::fputs(report.metrics.to_string().c_str(), stdout);

    // DFS interaction summary: the crux of Fig. 1's comparison.
    std::printf("DFS/disk bytes read: %s   written: %s   shuffled: %s\n\n",
                format_bytes(report.metrics.total_bytes_read()).c_str(),
                format_bytes(report.metrics.total_bytes_written()).c_str(),
                format_bytes(report.metrics.total_bytes_shuffled()).c_str());
  }
  return 0;
}
