// Virtual-time parity dump: every modeled quantity of a fixed run set,
// printed exactly, so two builds of the simulator can be compared with diff.
//
// Under VirtualTimeGuard measured CPU is pinned to 0, so each report below
// is a pure cost-model output: status, result count and hash, the four time
// columns, peak memory, every phase (sim seconds as hexfloat, byte columns,
// task and attempt counts) and every counter. A refactor that claims "same
// modeled numbers" must leave this output byte-identical; a run of the same
// build twice must too (the determinism check).
//
// Run set:
//  * Table 2: both full experiments x 3 systems x WS, EC2-10, EC2-8, EC2-6;
//  * Table 3: both sample experiments x 3 systems x WS, EC2-10;
//  * the bench_broadcast_vs_partition sweep (taxi1m x edge subsets, within
//    100, EC2-10), partitioned and broadcast plans;
//  * policy variants on both sample experiments (EC2-10): filter off,
//    repartition on, SpatialSpark's cost-based plan, malformed_rows = 3 and
//    the other geometry engine;
//  * SpatialHadoop's pre-indexed join and one resident entry per system,
//    installed through serving::ResidentCatalog (HadoopGIS's on WS, where
//    its build run survives);
//  * SpatialHadoop under crashes (probability 0.2 and 0.01, max_attempts = 1)
//    for fault seeds 1-8.
//
// Every report is also checked with core::check_invariants; violations go to
// stderr and make the exit status non-zero, leaving stdout unchanged.
//
// Usage: SJC_SCALE=1e-3 ./bench_parity_dump > parity.txt
#include <cstdio>
#include <string>

#include "core/experiments.hpp"
#include "serving/resident_catalog.hpp"
#include "systems/hadoopgis/hadoop_gis.hpp"
#include "systems/spatialhadoop/spatial_hadoop.hpp"
#include "systems/spatialspark/spatial_spark.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace sjc;

std::size_t g_violations = 0;

void dump(const std::string& label, const core::RunReport& r) {
  for (const auto& violation : core::check_invariants(r)) {
    std::fprintf(stderr, "invariant violated in %s: %s\n", label.c_str(), violation.c_str());
    ++g_violations;
  }
  std::printf("== %s\n", label.c_str());
  std::printf("status %s | %s\n", status_code_name(r.status.code()),
              r.status.message().c_str());
  std::printf("result %zu %llu\n", r.result_count,
              static_cast<unsigned long long>(r.result_hash));
  std::printf("time ia=%a ib=%a dj=%a tot=%a\n", r.index_a_seconds, r.index_b_seconds,
              r.join_seconds, r.total_seconds);
  std::printf("peak_memory %llu attempts %llu recovered %d\n",
              static_cast<unsigned long long>(r.peak_memory_bytes),
              static_cast<unsigned long long>(r.attempts_used), r.recovered ? 1 : 0);
  for (const auto& p : r.metrics.phases()) {
    std::printf("phase %s sim=%a read=%llu written=%llu shuffled=%llu tasks=%zu "
                "attempts=%llu pipe=%llu wasted=%a\n",
                p.name.c_str(), p.sim_seconds,
                static_cast<unsigned long long>(p.bytes_read),
                static_cast<unsigned long long>(p.bytes_written),
                static_cast<unsigned long long>(p.bytes_shuffled), p.task_count,
                static_cast<unsigned long long>(p.task_attempts),
                static_cast<unsigned long long>(p.max_task_pipe_bytes), p.wasted_seconds);
  }
  for (const auto& [name, value] : r.counters.snapshot()) {
    std::printf("counter %s %llu\n", name.c_str(), static_cast<unsigned long long>(value));
  }
}

std::string cluster_label(const cluster::ClusterSpec& c) {
  return c.node_count == 1 ? "WS" : "EC2-" + std::to_string(c.node_count);
}

struct Experiment {
  std::string id;
  workload::Dataset left;
  workload::Dataset right;
  core::JoinQueryConfig query;
};

Experiment load_experiment(const core::ExperimentDef& def,
                           const workload::WorkloadConfig& wc) {
  Experiment p{def.id, workload::generate(def.left, wc), workload::generate(def.right, wc), {}};
  p.query.predicate = def.predicate;
  return p;
}

/// Installs one resident entry through the serving catalog, then dumps its
/// build report and one join answered from it; a build that fails (install
/// throws) is printed as such.
void dump_resident(const std::string& label, core::SystemKind system, const Experiment& p,
                   const core::ExecutionConfig& exec) {
  serving::ResidentEntryConfig config;
  config.system = system;
  config.build_query = p.query;
  config.exec = exec;
  try {
    serving::ResidentCatalog catalog;
    const auto entry = catalog.install(label, p.left, p.right, config);
    dump("resident-build " + label, entry->build_report());
    dump("resident " + label, entry->run_join(p.query));
  } catch (const SjcError& e) {
    std::printf("== resident %s\nbuild failed: %s\n", label.c_str(), e.what());
  }
}

}  // namespace

int main() {
  const VirtualTimeGuard virtual_time;
  const double scale = core::bench_scale();
  workload::WorkloadConfig wc;
  wc.scale = scale;
  core::ExecutionConfig exec;
  exec.data_scale = 1.0 / scale;
  const core::SystemKind systems[] = {core::SystemKind::kHadoopGisSim,
                                      core::SystemKind::kSpatialHadoopSim,
                                      core::SystemKind::kSpatialSparkSim};

  for (const auto& def : core::full_experiments()) {
    const Experiment p = load_experiment(def, wc);
    for (const auto& c : core::paper_cluster_configs()) {
      exec.cluster = c;
      for (const auto system : systems) {
        dump("table2 " + p.id + " " + cluster_label(c) + " " +
                 core::system_kind_name(system),
             core::run_spatial_join(system, p.left, p.right, p.query, exec));
      }
    }
  }

  const cluster::ClusterSpec ec2_10 = cluster::ClusterSpec::ec2(10);
  for (const auto& def : core::sample_experiments()) {
    const Experiment p = load_experiment(def, wc);
    for (const auto& c : {cluster::ClusterSpec::workstation(), ec2_10}) {
      exec.cluster = c;
      for (const auto system : systems) {
        dump("table3 " + p.id + " " + cluster_label(c) + " " +
                 core::system_kind_name(system),
             core::run_spatial_join(system, p.left, p.right, p.query, exec));
      }
    }

    exec.cluster = ec2_10;
    const std::string at = " " + p.id + " EC2-10";
    for (const bool filter : {false, true}) {
      for (const bool repartition : {false, true}) {
        if (filter && !repartition) continue;  // the default, dumped above
        const std::string v = std::string(" filter=") + (filter ? "1" : "0") +
                              " repartition=" + (repartition ? "1" : "0");
        systems::HadoopGisConfig gis;
        gis.policy.shuffle_filter = filter;
        gis.policy.repartition = repartition;
        dump("policy HadoopGIS" + at + v,
             systems::run_hadoop_gis(p.left, p.right, p.query, exec, gis));
        systems::SpatialHadoopConfig sh;
        sh.policy.shuffle_filter = filter;
        sh.policy.repartition = repartition;
        dump("policy SpatialHadoop" + at + v,
             systems::run_spatial_hadoop(p.left, p.right, p.query, exec, sh));
        systems::SpatialSparkConfig ss;
        ss.policy.shuffle_filter = filter;
        ss.policy.repartition = repartition;
        dump("policy SpatialSpark" + at + v,
             systems::run_spatial_spark(p.left, p.right, p.query, exec, ss));
      }
    }
    {
      systems::SpatialSparkConfig ss;
      ss.policy.cost_based_plan = true;
      dump("cost-based SpatialSpark" + at,
           systems::run_spatial_spark(p.left, p.right, p.query, exec, ss));
    }
    {
      systems::HadoopGisConfig gis;
      gis.faults.malformed_rows = 3;
      dump("malformed HadoopGIS" + at,
           systems::run_hadoop_gis(p.left, p.right, p.query, exec, gis));
      systems::SpatialSparkConfig ss;
      ss.spark.faults.malformed_rows = 3;
      dump("malformed SpatialSpark" + at,
           systems::run_spatial_spark(p.left, p.right, p.query, exec, ss));
    }
    {
      systems::HadoopGisConfig gis;
      gis.engine = geom::EngineKind::kPrepared;
      dump("engine HadoopGIS" + at,
           systems::run_hadoop_gis(p.left, p.right, p.query, exec, gis));
      systems::SpatialHadoopConfig sh;
      sh.engine = geom::EngineKind::kSimple;
      dump("engine SpatialHadoop" + at,
           systems::run_spatial_hadoop(p.left, p.right, p.query, exec, sh));
      systems::SpatialSparkConfig ss;
      ss.engine = geom::EngineKind::kSimple;
      dump("engine SpatialSpark" + at,
           systems::run_spatial_spark(p.left, p.right, p.query, exec, ss));
    }
    {
      const auto ia = systems::spatial_hadoop_build_index(p.left, p.query, exec);
      const auto ib = systems::spatial_hadoop_build_index(p.right, p.query, exec);
      std::printf("index %s build=%a/%a partitions=%zu/%zu\n", p.id.c_str(),
                  ia.build_seconds(), ib.build_seconds(), ia.partition_count(),
                  ib.partition_count());
      dump("indexed SpatialHadoop" + at,
           systems::run_spatial_hadoop_indexed(ia, ib, p.query, exec));
    }
    // HadoopGIS dies of a broken pipe on every EC2 cluster, so its resident
    // state is built on the workstation.
    core::ExecutionConfig ws = exec;
    ws.cluster = cluster::ClusterSpec::workstation();
    dump_resident("HadoopGIS " + p.id + " WS", core::SystemKind::kHadoopGisSim, p, ws);
    dump_resident("SpatialHadoop" + at, core::SystemKind::kSpatialHadoopSim, p, exec);
    dump_resident("SpatialSpark" + at, core::SystemKind::kSpatialSparkSim, p, exec);
    // 0.2 kills the first job; 0.01 lets some runs die in later phases.
    for (const double crash : {0.2, 0.01}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        systems::SpatialHadoopConfig sh;
        sh.faults.seed = seed;
        sh.faults.task_crash_probability = crash;
        sh.faults.max_attempts = 1;
        dump("crash SpatialHadoop" + at + " p=" + std::to_string(crash) +
                 " seed=" + std::to_string(seed),
             systems::run_spatial_hadoop(p.left, p.right, p.query, exec, sh));
      }
    }
  }

  {
    const workload::Dataset taxi = workload::generate(workload::DatasetId::kTaxi1m, wc);
    const workload::Dataset edges_full =
        workload::generate(workload::DatasetId::kEdges, wc);
    core::JoinQueryConfig query;
    query.predicate = core::JoinPredicate::kWithinDistance;
    query.within_distance = 100.0;
    exec.cluster = ec2_10;
    for (const double fraction : {0.01, 0.05, 0.2, 0.5, 1.0}) {
      const workload::Dataset edges =
          fraction < 1.0 ? workload::sample_fraction(edges_full, "edges-sub", fraction, 99)
                         : edges_full;
      const std::string at = " taxi1m-edges f=" + std::to_string(fraction) + " EC2-10";
      dump("sweep partitioned" + at, systems::run_spatial_spark(taxi, edges, query, exec));
      systems::SpatialSparkConfig bcast;
      bcast.broadcast_join = true;
      dump("sweep broadcast" + at,
           systems::run_spatial_spark(taxi, edges, query, exec, bcast));
    }
  }
  return g_violations == 0 ? 0 : 1;
}
