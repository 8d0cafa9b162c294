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
//  * policy variants on both sample experiments (EC2-10): the shuffle
//    filter forced off and forced on, each with and without repartitioning
//    (the defaults above leave the filter to the plan), SpatialSpark's
//    cost-based plan, malformed_rows = 3 and the other geometry engine;
//  * one resident entry per system, installed through
//    serving::ResidentCatalog (HadoopGIS's on WS, where its build run
//    survives);
//  * SpatialHadoop under crashes (probability 0.2 and 0.01, max_attempts = 1)
//    for fault seeds 1-8;
//  * 40 systems::random_fault_plan draws per sample experiment, each run on
//    all three systems at EC2-10;
//  * a fault-free plan and four fixed fault plans (a 40 s deadline; a 2 s
//    deadline with a datanode loss due at 0.5 s; datanode losses plus
//    crashes under a retry budget of 2; stragglers with speculation plus two
//    losses), each run traced on all three systems at EC2-10 and on WS.
//    Random draws almost never hit a deadline, hence the fixed plans. A
//    traced report also prints every span of its timeline.
//
// Every report is also checked with core::check_invariants; violations go to
// stderr and make the exit status non-zero, leaving stdout unchanged. The
// fault runs must also reach every recovery path of every system: a deadline
// kill, a retry-budget kill, a dfs/re-replicate phase, quarantine.nodes,
// commit.rejected and, for SpatialSpark, a lineage recompute phase. The
// per-system tally goes to stderr; a missing path makes the exit status
// non-zero too.
//
// Usage: SJC_SCALE=1e-3 ./bench_parity_dump > parity.txt
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.hpp"
#include "serving/resident_catalog.hpp"
#include "systems/chaos.hpp"
#include "systems/hadoopgis/hadoop_gis.hpp"
#include "systems/spatialhadoop/spatial_hadoop.hpp"
#include "systems/spatialspark/spatial_spark.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

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
  for (const auto& s : r.trace.spans) {
    std::printf("span %s task=%llu attempt=%u spec=%d slot=%u start=%a end=%a cpu=%a "
                "in=%llu out=%llu shuffled=%llu %s\n",
                s.phase.c_str(), static_cast<unsigned long long>(s.task), s.attempt,
                s.speculative ? 1 : 0, s.slot, s.sim_start, s.sim_end, s.cpu_seconds,
                static_cast<unsigned long long>(s.bytes_in),
                static_cast<unsigned long long>(s.bytes_out),
                static_cast<unsigned long long>(s.bytes_shuffled),
                trace::span_outcome_name(s.outcome));
  }
}

/// Recovery paths one system's fault runs reached: reports killed by a
/// deadline or the retry budget, DFS repair and lineage recompute phases,
/// and reports that quarantined a node or rejected a commit.
struct Coverage {
  std::size_t deadline_kills = 0;
  std::size_t budget_kills = 0;
  std::size_t repairs = 0;
  std::size_t quarantines = 0;
  std::size_t rejected_commits = 0;
  std::size_t recomputes = 0;
};

std::map<std::string, Coverage> g_coverage;

/// Dumps one fault run and adds it to its system's coverage tally.
void dump_fault_run(const std::string& label, core::SystemKind system,
                    const core::RunReport& r) {
  dump(label, r);
  Coverage& c = g_coverage[core::system_kind_name(system)];
  c.deadline_kills += r.status.code() == StatusCode::kDeadlineExceeded ? 1 : 0;
  c.budget_kills += r.status.code() == StatusCode::kRetryBudgetExhausted ? 1 : 0;
  for (const auto& p : r.metrics.phases()) {
    c.repairs += starts_with(p.name, "dfs/re-replicate[") ? 1 : 0;
    c.recomputes += p.name.find(".recompute[") != std::string::npos ? 1 : 0;
  }
  c.quarantines += r.counters.get("quarantine.nodes") > 0 ? 1 : 0;
  c.rejected_commits += r.counters.get("commit.rejected") > 0 ? 1 : 0;
}

/// Prints each system's tally to stderr; returns how many paths some system
/// missed.
std::size_t report_coverage() {
  std::size_t missing = 0;
  for (const auto& [system, c] : g_coverage) {
    std::fprintf(stderr,
                 "coverage %s: deadline_kills=%zu budget_kills=%zu repairs=%zu "
                 "quarantines=%zu rejected_commits=%zu recomputes=%zu\n",
                 system.c_str(), c.deadline_kills, c.budget_kills, c.repairs,
                 c.quarantines, c.rejected_commits, c.recomputes);
    std::vector<std::pair<const char*, std::size_t>> paths = {
        {"deadline kill", c.deadline_kills},  {"retry-budget kill", c.budget_kills},
        {"dfs/re-replicate phase", c.repairs}, {"quarantine.nodes", c.quarantines},
        {"commit.rejected", c.rejected_commits}};
    if (system == core::system_kind_name(core::SystemKind::kSpatialSparkSim)) {
      paths.emplace_back("lineage recompute phase", c.recomputes);
    }
    for (const auto& [path, count] : paths) {
      if (count > 0) continue;
      std::fprintf(stderr, "coverage missing in %s: %s\n", system.c_str(), path);
      ++missing;
    }
  }
  return missing;
}

/// The fixed plans of the traced fault section, fault-free plan first.
/// Datanode-loss targets are EC2-10 nodes; on WS the engines skip the
/// single node's loss.
std::vector<std::pair<std::string, cluster::FaultPlan>> fixed_fault_plans() {
  std::vector<std::pair<std::string, cluster::FaultPlan>> plans;
  plans.emplace_back("none", cluster::FaultPlan{});
  {
    cluster::FaultPlan p;
    p.phase_timeout_s = 40.0;
    plans.emplace_back("deadline=40s", p);
  }
  {
    cluster::FaultPlan p;
    p.phase_timeout_s = 2.0;
    p.datanode_losses = {{0.5, 2}};
    plans.emplace_back("deadline=2s loss@0.5s", p);
  }
  {
    cluster::FaultPlan p;
    p.seed = 11;
    p.task_crash_probability = 0.05;
    p.max_attempts = 4;
    p.job_retry_budget = 2;
    p.datanode_losses = {{5.0, 3}, {60.0, 7}};
    plans.emplace_back("losses+crashes budget=2", p);
  }
  {
    cluster::FaultPlan p;
    p.seed = 13;
    p.straggler_probability = 0.2;
    p.straggler_slowdown = 3.0;
    p.speculative_execution = true;
    p.datanode_losses = {{20.0, 4}, {120.0, 6}};
    plans.emplace_back("stragglers+speculation+2 losses", p);
  }
  return plans;
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
  Rng plan_rng(0xfa017);
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
    for (int draw = 1; draw <= 40; ++draw) {
      const cluster::FaultPlan plan = systems::random_fault_plan(plan_rng, ec2_10.node_count);
      std::printf("plan %s draw=%d %s\n", p.id.c_str(), draw,
                  cluster::describe(plan).c_str());
      for (const auto system : systems) {
        dump_fault_run("random" + at + " draw=" + std::to_string(draw) + " " +
                           core::system_kind_name(system),
                       system,
                       systems::run_under_plan(system, p.left, p.right, p.query, exec, plan));
      }
    }
    for (const auto& [name, plan] : fixed_fault_plans()) {
      for (const auto& c : {ec2_10, cluster::ClusterSpec::workstation()}) {
        core::ExecutionConfig traced = exec;
        traced.cluster = c;
        traced.trace = true;
        for (const auto system : systems) {
          dump_fault_run("fault " + name + " " + p.id + " " + cluster_label(c) + " " +
                             core::system_kind_name(system),
                         system,
                         systems::run_under_plan(system, p.left, p.right, p.query, traced,
                                                 plan));
        }
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
  const std::size_t missing = report_coverage();
  return g_violations == 0 && missing == 0 ? 0 : 1;
}
