// Chaos sweep driver: hammers both Table-2 experiments on all three systems
// with seeded random fault plans (crashes, stragglers, flaky nodes, junk
// input rows, datanode losses, tight budgets and deadlines) and reports the
// outcome distribution plus the lifecycle accounting — survivors must match
// the fault-free results bit-for-bit, failures must be structured, and the
// commit/quarantine/budget invariants of systems/chaos.hpp must balance.
//
// Usage: bench_chaos [--plans=N] [--seed=S]
//   --plans   plans per (experiment, system) combo (default 20)
//   --seed    sweep seed (default 20260808)
// Invariant violations are appended to chaos_failures.txt (override with
// SJC_CHAOS_ARTIFACT) as cluster::describe(plan) reproducer lines, and the
// driver exits non-zero.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cluster/fault_injector.hpp"
#include "core/experiments.hpp"
#include "core/spatial_join.hpp"
#include "systems/chaos.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace sjc;
  std::uint64_t plans_per_combo = 20;
  std::uint64_t sweep_seed = 20260808;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--plans=", 8) == 0) {
      plans_per_combo = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      sweep_seed = std::strtoull(argv[i] + 7, nullptr, 10);
    }
  }

  const double scale = core::bench_scale(2e-4);
  workload::WorkloadConfig wc;
  wc.scale = scale;
  core::ExecutionConfig exec;
  // Multi-node cluster: node blacklisting and datanode loss need > 1 node.
  exec.cluster = cluster::ClusterSpec::ec2(10);
  exec.data_scale = 1.0 / scale;

  std::printf("== Chaos sweep: %llu random fault plans per combo (seed %llu, scale %g) ==\n\n",
              static_cast<unsigned long long>(plans_per_combo),
              static_cast<unsigned long long>(sweep_seed), scale);

  const char* artifact_env = std::getenv("SJC_CHAOS_ARTIFACT");
  const std::string artifact =
      (artifact_env != nullptr && *artifact_env != '\0') ? artifact_env
                                                         : "chaos_failures.txt";

  Rng rng(sweep_seed);
  TablePrinter table({"experiment", "system", "runs", "ok", "failed", "recovered",
                      "retries", "rejects", "nodes-q", "rows-q", "violations"});
  std::map<std::string, std::uint64_t> failure_codes;
  std::uint64_t total_violations = 0;

  for (const auto& def : core::full_experiments()) {
    const auto left = workload::generate(def.left, wc);
    const auto right = workload::generate(def.right, wc);
    core::JoinQueryConfig query;
    query.predicate = def.predicate;
    const auto truth = systems::run_under_plan(core::SystemKind::kSpatialHadoopSim,
                                               left, right, query, exec,
                                               cluster::FaultPlan{});
    if (!truth.status.ok()) {
      std::printf("ground truth failed for %s: %s\n", def.id.c_str(),
                  truth.status.to_string().c_str());
      return 1;
    }

    for (const auto system :
         {core::SystemKind::kHadoopGisSim, core::SystemKind::kSpatialHadoopSim,
          core::SystemKind::kSpatialSparkSim}) {
      std::uint64_t ok = 0, failed = 0, recovered = 0, violations = 0;
      std::uint64_t retries = 0, rejects = 0, nodes_q = 0, rows_q = 0;
      for (std::uint64_t k = 0; k < plans_per_combo; ++k) {
        const auto plan = systems::random_fault_plan(rng, exec.cluster.node_count);
        const auto report =
            systems::run_under_plan(system, left, right, query, exec, plan);
        report.status.ok() ? ++ok : ++failed;
        if (report.recovered) ++recovered;
        if (!report.status.ok()) ++failure_codes[status_code_name(report.status.code())];
        retries += report.counters.get("budget.retries_used");
        rejects += report.metrics.total_commits_rejected();
        nodes_q += report.metrics.total_nodes_quarantined();
        rows_q += report.counters.get("input.quarantined_rows");

        const auto bad = systems::chaos_violations(report, truth, plan);
        if (!bad.empty()) {
          violations += bad.size();
          std::FILE* f = std::fopen(artifact.c_str(), "a");
          if (f != nullptr) {
            std::fprintf(f, "%s / %s / plan %llu\n  %s\n", def.id.c_str(),
                         core::system_kind_name(system),
                         static_cast<unsigned long long>(k),
                         cluster::describe(plan).c_str());
            for (const auto& v : bad) std::fprintf(f, "  violation: %s\n", v.c_str());
            std::fclose(f);
          }
          for (const auto& v : bad) {
            std::printf("VIOLATION %s/%s: %s\n  %s\n", def.id.c_str(),
                        core::system_kind_name(system), v.c_str(),
                        cluster::describe(plan).c_str());
          }
        }
      }
      total_violations += violations;
      table.add_row({def.id, core::system_kind_name(system),
                     std::to_string(plans_per_combo), std::to_string(ok),
                     std::to_string(failed), std::to_string(recovered),
                     std::to_string(retries), std::to_string(rejects),
                     std::to_string(nodes_q), std::to_string(rows_q),
                     std::to_string(violations)});
    }
    table.add_separator();
  }
  table.print();

  std::printf("\nfailure distribution (structured Status codes):\n");
  for (const auto& [code, count] : failure_codes) {
    std::printf("  %-24s %llu\n", code.c_str(),
                static_cast<unsigned long long>(count));
  }
  if (total_violations > 0) {
    std::printf("\n%llu invariant violation(s); reproducer plans appended to %s\n",
                static_cast<unsigned long long>(total_violations), artifact.c_str());
    return 1;
  }
  std::printf("\nall runs upheld the lifecycle contract (bit-identical survivors,\n"
              "structured failures, balanced commit/quarantine/budget accounting).\n");
  return 0;
}
