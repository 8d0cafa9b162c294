// Index-reuse ablation (§II.B): "SpatialHadoop can run faster when
// re-partitioning can be skipped." SpatialHadoop persists its partition
// blocks, so a second join over the same inputs starts at getSplits;
// HadoopGIS's preprocessing partition ids are invisible to its streaming
// join, so every join pays the full pipeline again (the design flaw the
// paper calls "wasteful"). This bench runs one cold join and three warm
// joins per system.
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

  std::printf(
      "== Index reuse: cold join vs repeated joins on the same inputs ==\n"
      "taxi1m x nycb, WS, scale %g; 'warm' = indexes already on the DFS.\n\n",
      scale);

  TablePrinter table({"system", "cold join s", "warm join s", "4-join total s",
                      "reuse speedup"});

  // SpatialHadoop: persistent indexes.
  {
    const auto cold = systems::run_spatial_hadoop(taxi, nycb, query, exec);
    const auto ia = systems::spatial_hadoop_build_index(taxi, query, exec);
    const auto ib = systems::spatial_hadoop_build_index(nycb, query, exec);
    const auto warm = systems::run_spatial_hadoop_indexed(ia, ib, query, exec);
    const double four_joins = cold.total_seconds + 3.0 * warm.total_seconds;
    char speedup[16];
    std::snprintf(speedup, sizeof(speedup), "%.1fx",
                  4.0 * cold.total_seconds / four_joins);
    table.add_row({"SpatialHadoop-sim", format_seconds(cold.total_seconds),
                   format_seconds(warm.total_seconds), format_seconds(four_joins),
                   speedup});
  }

  // HadoopGIS: no reusable index — every join repeats everything.
  {
    const auto cold = systems::run_hadoop_gis(taxi, nycb, query, exec);
    const std::string cold_s =
        cold.status.ok() ? format_seconds(cold.total_seconds) : "-";
    const std::string total_s =
        cold.status.ok() ? format_seconds(4.0 * cold.total_seconds) : "-";
    table.add_row({"HadoopGIS-sim", cold_s, cold_s + " (no reuse)", total_s, "1.0x"});
  }

  table.print();
  std::printf(
      "\nSpatialSpark sits in between: its on-demand partitioning has no index\n"
      "to persist, but also no re-partitioning jobs to repeat — each join pays\n"
      "the same in-memory pipeline (Table 2/3 totals).\n");
  return 0;
}
