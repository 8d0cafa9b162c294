#include "systems/chaos.hpp"

#include <string>

#include "systems/hadoopgis/hadoop_gis.hpp"
#include "systems/spatialhadoop/spatial_hadoop.hpp"
#include "systems/spatialspark/spatial_spark.hpp"
#include "util/status.hpp"

namespace sjc::systems {

cluster::FaultPlan random_fault_plan(Rng& rng, std::uint32_t node_count) {
  cluster::FaultPlan plan;
  plan.seed = rng.next_u64();

  // Injected faults. Each family is off roughly half the time so plans mix
  // single-fault and multi-fault scenarios.
  if (rng.bernoulli(0.5)) plan.task_crash_probability = rng.uniform(0.0, 0.3);
  if (rng.bernoulli(0.5)) {
    plan.straggler_probability = rng.uniform(0.0, 0.5);
    plan.straggler_slowdown = rng.uniform(1.0, 4.0);
  }
  if (rng.bernoulli(0.4)) {
    plan.bad_node_probability = rng.uniform(0.0, 0.5);
    plan.bad_node_crash_probability = rng.uniform(0.0, 0.6);
  }
  if (rng.bernoulli(0.5)) plan.malformed_rows = 1 + rng.next_below(8);
  if (rng.bernoulli(0.2) && node_count > 0) {
    plan.datanode_losses.push_back(
        {rng.uniform(0.5, 30.0),
         static_cast<std::uint32_t>(rng.next_below(node_count))});
  }

  // Recovery semantics. max_attempts skews high so crashy plans usually
  // survive; budgets and timeouts are occasionally tight on purpose — the
  // clean-failure path is part of the sweep's coverage.
  plan.max_attempts = static_cast<std::uint32_t>(2 + rng.next_below(7));
  plan.retry_backoff_s = rng.uniform(0.0, 4.0);
  plan.max_backoff_s = rng.uniform(1.0, 30.0);
  plan.backoff_jitter = rng.bernoulli(0.5) ? rng.uniform(0.0, 1.0) : 0.0;
  if (rng.bernoulli(0.5)) {
    plan.node_blacklist_threshold = static_cast<std::uint32_t>(1 + rng.next_below(4));
  }
  if (rng.bernoulli(0.3)) plan.job_retry_budget = 1 + rng.next_below(64);
  if (rng.bernoulli(0.15)) plan.phase_timeout_s = rng.uniform(1.0, 5000.0);
  if (rng.bernoulli(0.3)) {
    plan.speculative_execution = true;
    plan.speculation_threshold = rng.uniform(1.2, 3.0);
  }
  return plan;
}

core::RunReport run_under_plan(core::SystemKind system,
                               const workload::Dataset& left,
                               const workload::Dataset& right,
                               const core::JoinQueryConfig& query,
                               const core::ExecutionConfig& exec,
                               const cluster::FaultPlan& plan,
                               const plan::ExecPolicy& policy) {
  switch (system) {
    case core::SystemKind::kHadoopGisSim: {
      HadoopGisConfig config;
      config.faults = plan;
      config.policy = policy;
      return run_hadoop_gis(left, right, query, exec, config);
    }
    case core::SystemKind::kSpatialHadoopSim: {
      SpatialHadoopConfig config;
      config.faults = plan;
      config.policy = policy;
      return run_spatial_hadoop(left, right, query, exec, config);
    }
    case core::SystemKind::kSpatialSparkSim: {
      SpatialSparkConfig config;
      config.spark.faults = plan;
      config.policy = policy;
      return run_spatial_spark(left, right, query, exec, config);
    }
  }
  throw InvalidArgument("run_under_plan: unknown system kind");
}

std::vector<std::string> chaos_violations(const core::RunReport& report,
                                          const core::RunReport& truth,
                                          const cluster::FaultPlan& plan) {
  std::vector<std::string> out;
  const auto fail = [&out](std::string what) { out.push_back(std::move(what)); };

  // 1. A failed run's terminal state is structured: it says what killed it.
  if (!report.status.ok() && report.status.message().empty()) {
    fail("failed run carries no status message");
  }

  // 2. Survivors are bit-identical to the fault-free ground truth.
  if (report.status.ok()) {
    if (report.result_hash != truth.result_hash) {
      fail("surviving run's pair-set hash differs from fault-free truth");
    }
    if (report.result_count != truth.result_count) {
      fail("surviving run found " + std::to_string(report.result_count) +
           " pairs, truth has " + std::to_string(truth.result_count));
    }
  }

  // 3. The commit ledger balances phase by phase: every attempt published,
  //    was rejected, or aborted. (Master-side serial phases have
  //    task_attempts == commits_published == 1 and balance trivially.)
  for (const auto& phase : report.metrics.phases()) {
    if (phase.task_attempts == 0) continue;
    const std::uint64_t accounted =
        phase.commits_published + phase.commits_rejected + phase.attempts_aborted;
    if (phase.task_attempts != accounted) {
      fail("commit ledger unbalanced in phase '" + phase.name + "': " +
           std::to_string(phase.task_attempts) + " attempts vs " +
           std::to_string(accounted) + " accounted");
    }
    // A completed phase publishes exactly one output per task.
    if (report.status.ok() && phase.task_count > 0 &&
        phase.commits_published != phase.task_count) {
      fail("phase '" + phase.name + "' published " +
           std::to_string(phase.commits_published) + " outputs for " +
           std::to_string(phase.task_count) + " tasks");
    }
  }

  // 4. Rejected commits only ever come from losing speculative clones.
  if (report.metrics.total_commits_rejected() >
      report.metrics.total_speculative_clones()) {
    fail("more rejected commits than speculative clones");
  }
  if (!plan.speculative_execution && report.metrics.total_commits_rejected() > 0) {
    fail("rejected commits without speculative execution");
  }

  // 5. A surviving run respected its retry budget.
  if (report.status.ok() && plan.job_retry_budget > 0 &&
      report.counters.get("budget.retries_used") > plan.job_retry_budget) {
    fail("surviving run spent " +
         std::to_string(report.counters.get("budget.retries_used")) +
         " retries against a budget of " + std::to_string(plan.job_retry_budget));
  }

  // 6. Injected junk rows were quarantined, never silently dropped or
  //    fatal. (Systems without a raw-text ingest path inject nothing, so
  //    the injected counter gates the check.)
  const std::uint64_t injected = report.counters.get("input.malformed_rows_injected");
  if (report.status.ok() && injected > 0 &&
      report.counters.get("input.quarantined_rows") < injected) {
    fail("only " + std::to_string(report.counters.get("input.quarantined_rows")) +
         " of " + std::to_string(injected) + " injected junk rows were quarantined");
  }

  // 7. Node quarantine never fires unless the plan enables blacklisting.
  if (plan.node_blacklist_threshold == 0 &&
      report.metrics.total_nodes_quarantined() > 0) {
    fail("nodes quarantined with blacklisting disabled");
  }
  return out;
}

}  // namespace sjc::systems
