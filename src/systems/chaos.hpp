// Chaos-sweep harness: randomized-but-valid fault plans, a uniform way to
// run any of the three systems under a plan, and the accounting invariants
// every chaos run must satisfy.
//
// The sweep's contract (tests/test_chaos_sweep.cpp):
//   1. A run either succeeds with a pair set bit-identical to the
//      fault-free ground truth, or fails with a structured Status — it
//      never crashes, corrupts results, or dies with an unclassified
//      exception.
//   2. The commit ledger balances: every attempt either published,
//      was rejected (speculative race loser), or aborted.
//   3. Retry budgets, quarantine counters and input-quarantine counters
//      are internally consistent with the plan.
// bench_parity_dump draws its random fault plans here too.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/fault_injector.hpp"
#include "core/spatial_join.hpp"
#include "plan/exec_policy.hpp"
#include "util/rng.hpp"
#include "workload/dataset.hpp"

namespace sjc::systems {

/// Draws a random fault plan that always passes FaultInjector validation.
/// Every lifecycle knob (crashes, stragglers, bad nodes, malformed rows,
/// backoff cap/jitter, blacklisting, retry budget, phase timeout,
/// speculation, datanode loss) is exercised with independent probability,
/// so a few hundred draws cover the cross product. Plans are not
/// guaranteed survivable — tight budgets and timeouts are part of the
/// point — but a failed run must fail *cleanly* (structured Status).
/// `node_count` bounds datanode-loss targets to real nodes.
cluster::FaultPlan random_fault_plan(Rng& rng, std::uint32_t node_count);

/// Runs `system` on (left, right, query, exec) with `plan` installed in the
/// system's fault slot and `policy` as the adaptive-execution knobs
/// (defaults keep every knob at its plane default). Never throws for
/// plan-induced failures: those come back as report.status.
core::RunReport run_under_plan(core::SystemKind system,
                               const workload::Dataset& left,
                               const workload::Dataset& right,
                               const core::JoinQueryConfig& query,
                               const core::ExecutionConfig& exec,
                               const cluster::FaultPlan& plan,
                               const plan::ExecPolicy& policy = {});

/// Checks every chaos invariant of `report` against the fault-free ground
/// truth `truth` and the plan that produced it. Returns human-readable
/// violations; empty means the run upheld the contract.
std::vector<std::string> chaos_violations(const core::RunReport& report,
                                          const core::RunReport& truth,
                                          const cluster::FaultPlan& plan);

}  // namespace sjc::systems
