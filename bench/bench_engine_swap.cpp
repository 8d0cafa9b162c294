// System-level geometry-engine ablation: the paper conjectures that GEOS
// (vs JTS) "might be another major factor" in HadoopGIS's slow distributed
// joins (Section III.C). Here we can actually run the counterfactuals:
// HadoopGIS with the fast (JTS-analog) engine, and SpatialHadoop with the
// slow (GEOS-analog) engine, isolating the geometry-library share of the
// gap from the streaming-framework share.
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

  core::ExecutionConfig exec;
  exec.cluster = cluster::ClusterSpec::workstation();
  exec.data_scale = 1.0 / scale;

  std::printf(
      "== Geometry-engine swap ablation (WS, sample datasets, scale %g) ==\n"
      "DJ = distributed-join seconds only (indexing is engine-independent).\n\n",
      scale);

  TablePrinter table({"experiment", "system", "engine", "DJ s", "TOT s"});

  for (const auto& def : core::sample_experiments()) {
    const auto left = workload::generate(def.left, wc);
    const auto right = workload::generate(def.right, wc);
    core::JoinQueryConfig query;
    query.predicate = def.predicate;

    for (const auto engine : {geom::EngineKind::kSimple, geom::EngineKind::kPrepared}) {
      systems::HadoopGisConfig hg_cfg;
      hg_cfg.engine = engine;
      const auto hg = systems::run_hadoop_gis(left, right, query, exec, hg_cfg);
      table.add_row({def.id, "HadoopGIS-sim", geom::engine_kind_name(engine),
                     hg.status.ok() ? format_seconds(hg.join_seconds) : "-",
                     hg.status.ok() ? format_seconds(hg.total_seconds) : "-"});

      systems::SpatialHadoopConfig sh_cfg;
      sh_cfg.engine = engine;
      const auto sh = systems::run_spatial_hadoop(left, right, query, exec, sh_cfg);
      table.add_row({def.id, "SpatialHadoop-sim", geom::engine_kind_name(engine),
                     format_seconds(sh.join_seconds), format_seconds(sh.total_seconds)});
    }
    table.add_separator();
  }
  table.print();
  std::printf(
      "\nreading: within each system, simple-vs-prepared isolates the geometry\n"
      "library's share of the DJ gap; HadoopGIS(prepared) vs\n"
      "SpatialHadoop(prepared) isolates the streaming framework's share.\n");
  return 0;
}
