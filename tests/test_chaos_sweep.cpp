// Randomized chaos sweep over the job lifecycle: hundreds of seeded random
// fault plans against both Table-2 experiments on all three systems.
//
// Contract (systems/chaos.hpp): every run either survives with a pair set
// bit-identical to the fault-free ground truth or fails with a structured
// Status; either way the commit ledger, retry budget, node-quarantine and
// input-quarantine accounting must balance.
//
// Knobs:
//   SJC_CHAOS_PLANS    plans per (experiment, system) combo (default 34,
//                      -> 204 runs across 2 experiments x 3 systems).
//   SJC_CHAOS_SEED     sweep seed (default 20260808).
//   SJC_CHAOS_REPARTITION_PLANS
//                      plans per combo for the adaptive-repartitioning leg
//                      (default 8).
//   SJC_CHAOS_ARTIFACT path for the failing-plan dump (default
//                      chaos_failures.txt in the working directory); every
//                      violation appends cluster::describe(plan), so a CI
//                      failure reproduces from the artifact alone.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/fault_injector.hpp"
#include "core/experiments.hpp"
#include "core/spatial_join.hpp"
#include "plan/exec_policy.hpp"
#include "systems/chaos.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace sjc {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

struct ChaosExperiment {
  std::string id;
  workload::Dataset left;
  workload::Dataset right;
  core::JoinQueryConfig query;
  core::RunReport truth;  // fault-free ground truth (SpatialHadoop analog)
};

struct ChaosBench {
  core::ExecutionConfig exec;
  std::vector<ChaosExperiment> experiments;

  static const ChaosBench& instance() {
    static const ChaosBench bench = [] {
      ChaosBench b;
      // EC2-10 rather than the single-node workstation: node blacklisting
      // and datanode loss only bite on a multi-node cluster, and the paper's
      // SpatialSpark analog survives there (it OOMs on EC2-8/EC2-6).
      b.exec.cluster = cluster::ClusterSpec::ec2(10);
      workload::WorkloadConfig wc;
      wc.scale = 2e-4;
      b.exec.data_scale = 1.0 / wc.scale;
      for (const auto& def : core::full_experiments()) {
        ChaosExperiment e;
        e.id = def.id;
        e.left = workload::generate(def.left, wc);
        e.right = workload::generate(def.right, wc);
        e.query.predicate = def.predicate;
        e.truth = systems::run_under_plan(core::SystemKind::kSpatialHadoopSim,
                                          e.left, e.right, e.query, b.exec,
                                          cluster::FaultPlan{});
        b.experiments.push_back(std::move(e));
      }
      return b;
    }();
    return bench;
  }
};

void dump_failure(const std::string& context, const cluster::FaultPlan& plan,
                  const std::vector<std::string>& violations) {
  const char* env = std::getenv("SJC_CHAOS_ARTIFACT");
  const std::string path =
      (env != nullptr && *env != '\0') ? env : "chaos_failures.txt";
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return;
  std::fprintf(f, "%s\n  %s\n", context.c_str(), cluster::describe(plan).c_str());
  for (const auto& v : violations) std::fprintf(f, "  violation: %s\n", v.c_str());
  std::fclose(f);
}

TEST(ChaosSweep, RandomizedFaultPlansUpholdLifecycleContract) {
  const auto& b = ChaosBench::instance();
  const std::uint64_t plans_per_combo = env_u64("SJC_CHAOS_PLANS", 34);
  Rng rng(env_u64("SJC_CHAOS_SEED", 20260808));

  for (const auto& e : b.experiments) {
    ASSERT_TRUE(e.truth.status.ok()) << e.truth.status.to_string();
  }

  std::uint64_t runs = 0;
  std::uint64_t survived = 0;
  std::uint64_t failed_clean = 0;
  for (const auto& e : b.experiments) {
    for (const auto system :
         {core::SystemKind::kHadoopGisSim, core::SystemKind::kSpatialHadoopSim,
          core::SystemKind::kSpatialSparkSim}) {
      for (std::uint64_t k = 0; k < plans_per_combo; ++k) {
        const cluster::FaultPlan plan =
            systems::random_fault_plan(rng, b.exec.cluster.node_count);
        const std::string context = e.id + " / " +
                                    core::system_kind_name(system) + " / plan " +
                                    std::to_string(k);
        core::RunReport report;
        try {
          report = systems::run_under_plan(system, e.left, e.right, e.query,
                                           b.exec, plan);
        } catch (const std::exception& ex) {
          dump_failure(context, plan, {std::string("escaped exception: ") + ex.what()});
          FAIL() << context << ": escaped exception: " << ex.what() << "\n  "
                 << cluster::describe(plan);
        }
        const auto violations = systems::chaos_violations(report, e.truth, plan);
        if (!violations.empty()) {
          dump_failure(context, plan, violations);
          for (const auto& v : violations) {
            ADD_FAILURE() << context << ": " << v << "\n  "
                          << cluster::describe(plan);
          }
        }
        ++runs;
        report.status.ok() ? ++survived : ++failed_clean;
      }
    }
  }
  // The sweep is only meaningful if both terminal states actually occur.
  EXPECT_EQ(runs, 2 * 3 * plans_per_combo);
  EXPECT_GT(survived, 0u);
  EXPECT_GT(failed_clean, 0u);
  std::printf("chaos sweep: %llu runs, %llu survived, %llu failed cleanly\n",
              static_cast<unsigned long long>(runs),
              static_cast<unsigned long long>(survived),
              static_cast<unsigned long long>(failed_clean));
}

// Repartition leg: the same lifecycle contract, with skew-aware adaptive
// repartitioning switched on under every fault plan. Split soundness makes
// the fault-free *static-scheme* truth remain the ground truth — a
// surviving adaptive run must still be bit-identical to it — and the
// commit-ledger/retry/quarantine invariants must hold while shuffle
// buckets are being re-routed mid-job. Runs per combo come from
// SJC_CHAOS_REPARTITION_PLANS (default 8; the leg rides along in the
// sanitized CI chaos job via the shared binary).
TEST(ChaosSweep, RepartitionedRunsUpholdLifecycleContract) {
  const auto& b = ChaosBench::instance();
  const std::uint64_t plans_per_combo =
      env_u64("SJC_CHAOS_REPARTITION_PLANS", 8);
  Rng rng(env_u64("SJC_CHAOS_SEED", 20260808) ^ 0x5e57ULL);

  plan::ExecPolicy policy;
  policy.repartition = true;

  std::uint64_t repartitioned_survivors = 0;
  for (const auto& e : b.experiments) {
    for (const auto system :
         {core::SystemKind::kHadoopGisSim, core::SystemKind::kSpatialHadoopSim,
          core::SystemKind::kSpatialSparkSim}) {
      for (std::uint64_t k = 0; k < plans_per_combo; ++k) {
        const cluster::FaultPlan plan =
            systems::random_fault_plan(rng, b.exec.cluster.node_count);
        const std::string context = e.id + " / " +
                                    core::system_kind_name(system) +
                                    " / repartition plan " + std::to_string(k);
        core::RunReport report;
        try {
          report = systems::run_under_plan(system, e.left, e.right, e.query,
                                           b.exec, plan, policy);
        } catch (const std::exception& ex) {
          dump_failure(context, plan, {std::string("escaped exception: ") + ex.what()});
          FAIL() << context << ": escaped exception: " << ex.what() << "\n  "
                 << cluster::describe(plan);
        }
        const auto violations = systems::chaos_violations(report, e.truth, plan);
        if (!violations.empty()) {
          dump_failure(context, plan, violations);
          for (const auto& v : violations) {
            ADD_FAILURE() << context << ": " << v << "\n  "
                          << cluster::describe(plan);
          }
        }
        if (report.status.ok() && report.counters.get("repartition.rounds") > 0) {
          ++repartitioned_survivors;
        }
      }
    }
  }
  // The leg is only meaningful if some survivor actually refined its scheme.
  EXPECT_GT(repartitioned_survivors, 0u);
}

// A fault-free plan through the chaos path reproduces the default dispatch
// path exactly — the harness itself does not perturb outcomes. Note that
// "outcome" includes the paper's seed failures: HadoopGIS legitimately dies
// with a broken pipe on the full-dataset experiments (Table 2's dashes),
// and then it must die identically and with a structured Status here.
TEST(ChaosSweep, TrivialPlanMatchesDirectRunOnAllSystems) {
  const auto& b = ChaosBench::instance();
  for (const auto& e : b.experiments) {
    for (const auto system :
         {core::SystemKind::kHadoopGisSim, core::SystemKind::kSpatialHadoopSim,
          core::SystemKind::kSpatialSparkSim}) {
      const auto direct =
          core::run_spatial_join(system, e.left, e.right, e.query, b.exec);
      const auto report = systems::run_under_plan(system, e.left, e.right,
                                                  e.query, b.exec,
                                                  cluster::FaultPlan{});
      EXPECT_EQ(direct.status.code(), report.status.code()) << e.id;
      if (report.status.ok()) {
        EXPECT_EQ(e.truth.result_hash, report.result_hash) << e.id;
        EXPECT_EQ(e.truth.result_count, report.result_count) << e.id;
      } else {
        EXPECT_EQ(direct.status.message(), report.status.message()) << e.id;
      }
    }
  }
}

}  // namespace
}  // namespace sjc
