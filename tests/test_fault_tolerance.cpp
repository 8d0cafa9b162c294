// Fault injection and recovery: injector determinism, failure-aware
// scheduling (retries, backoff, speculation), SimDfs datanode loss and
// re-replication, and end-to-end recovery on the simulated systems.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cluster/fault_injector.hpp"
#include "cluster/scheduler.hpp"
#include "core/spatial_join.hpp"
#include "dfs/sim_dfs.hpp"
#include "mapreduce/mr_context.hpp"
#include "systems/hadoopgis/hadoop_gis.hpp"
#include "systems/spatialhadoop/spatial_hadoop.hpp"
#include "systems/spatialspark/spatial_spark.hpp"
#include "util/status.hpp"
#include "util/stopwatch.hpp"
#include "workload/generators.hpp"

namespace sjc {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector: validation, determinism, recovery arithmetic
// ---------------------------------------------------------------------------

TEST(FaultInjector, DefaultPlanIsTrivialAndInert) {
  cluster::FaultPlan plan;
  EXPECT_TRUE(plan.trivial());
  const cluster::FaultInjector faults(plan);
  for (std::size_t task = 0; task < 8; ++task) {
    EXPECT_FALSE(faults.crashes(1, task, 1));
    EXPECT_DOUBLE_EQ(1.0, faults.slowdown(1, task));
  }
  EXPECT_DOUBLE_EQ(1.0, faults.capacity_factor(1));
}

TEST(FaultInjector, RejectsMalformedPlans) {
  {
    cluster::FaultPlan plan;
    plan.task_crash_probability = 1.0;  // certain crash: no attempt can succeed
    EXPECT_THROW(cluster::FaultInjector{plan}, InvalidArgument);
  }
  {
    cluster::FaultPlan plan;
    plan.straggler_slowdown = 0.5;
    EXPECT_THROW(cluster::FaultInjector{plan}, InvalidArgument);
  }
  {
    cluster::FaultPlan plan;
    plan.max_attempts = 0;
    EXPECT_THROW(cluster::FaultInjector{plan}, InvalidArgument);
  }
}

TEST(FaultInjector, SameSeedSameDecisions) {
  cluster::FaultPlan plan;
  plan.seed = 1234;
  plan.task_crash_probability = 0.5;
  plan.straggler_probability = 0.5;
  plan.straggler_slowdown = 3.0;
  const cluster::FaultInjector a(plan);
  const cluster::FaultInjector b(plan);
  plan.seed = 1235;
  const cluster::FaultInjector c(plan);

  bool seed_changes_something = false;
  for (std::uint64_t phase = 0; phase < 4; ++phase) {
    for (std::size_t task = 0; task < 16; ++task) {
      EXPECT_EQ(a.slowdown(phase, task), b.slowdown(phase, task));
      for (std::uint32_t attempt = 1; attempt <= 3; ++attempt) {
        EXPECT_EQ(a.crashes(phase, task, attempt), b.crashes(phase, task, attempt));
        EXPECT_EQ(a.crash_fraction(phase, task, attempt),
                  b.crash_fraction(phase, task, attempt));
        if (a.crashes(phase, task, attempt) != c.crashes(phase, task, attempt)) {
          seed_changes_something = true;
        }
      }
    }
  }
  EXPECT_TRUE(seed_changes_something);
}

TEST(FaultInjector, BackoffAndHeadroomArithmetic) {
  cluster::FaultPlan plan;
  plan.retry_backoff_s = 2.0;
  plan.pipe_retry_headroom = 0.5;
  const cluster::FaultInjector faults(plan);
  EXPECT_DOUBLE_EQ(2.0, faults.backoff_s(1));
  EXPECT_DOUBLE_EQ(4.0, faults.backoff_s(2));
  EXPECT_DOUBLE_EQ(8.0, faults.backoff_s(3));
  EXPECT_DOUBLE_EQ(1.0, faults.capacity_factor(1));
  EXPECT_DOUBLE_EQ(1.5, faults.capacity_factor(2));
  EXPECT_DOUBLE_EQ(2.5, faults.capacity_factor(4));
}

TEST(FaultInjector, DatanodeLossesAreSortedAndWindowed) {
  cluster::FaultPlan plan;
  plan.datanode_losses = {{10.0, 2}, {5.0, 1}};
  const cluster::FaultInjector faults(plan);
  ASSERT_EQ(2u, faults.plan().datanode_losses.size());
  EXPECT_DOUBLE_EQ(5.0, faults.plan().datanode_losses[0].time_s);

  const auto early = faults.losses_due(7.0, 0);
  ASSERT_EQ(1u, early.size());
  EXPECT_EQ(1u, early[0].node);
  const auto late = faults.losses_due(20.0, 1);
  ASSERT_EQ(1u, late.size());
  EXPECT_EQ(2u, late[0].node);
  EXPECT_TRUE(faults.losses_due(20.0, 2).empty());
}

// ---------------------------------------------------------------------------
// Failure-aware scheduling
// ---------------------------------------------------------------------------

TEST(FaultySchedule, TrivialPlanMatchesPlainSchedule) {
  const std::vector<double> durations = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  const cluster::FaultInjector faults{cluster::FaultPlan{}};
  const auto outcome = cluster::list_schedule_makespan(durations, 3, faults, 17);
  // Exactly the plain FIFO makespan: a trivial plan must not perturb the
  // seed timings. Slots run {3, 5, 9}, {1, 1, 5} and {4, 2, 6}.
  EXPECT_EQ(12.0, outcome.makespan);
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(durations.size(), outcome.attempts);
  EXPECT_EQ(1u, outcome.max_attempts_used);
  EXPECT_EQ(0u, outcome.speculative_clones);
  EXPECT_DOUBLE_EQ(0.0, outcome.wasted_seconds);
}

TEST(FaultySchedule, RetryRecoversPipeOverflow) {
  const std::vector<double> durations = {10.0, 10.0, 10.0, 10.0};
  const std::vector<double> severity = {1.3, 0.0, 0.0, 0.0};

  cluster::FaultPlan fatal;  // max_attempts = 1: first overflow kills the phase
  const auto dead = cluster::list_schedule_makespan(
      durations, 4, cluster::FaultInjector{fatal}, 17, &severity);
  EXPECT_FALSE(dead.success);
  EXPECT_EQ(0u, dead.first_failed_task);

  cluster::FaultPlan plan;
  plan.max_attempts = 4;
  plan.pipe_retry_headroom = 0.5;  // attempt 2 tolerates 1.5x > 1.3
  const auto recovered = cluster::list_schedule_makespan(
      durations, 4, cluster::FaultInjector{plan}, 17, &severity);
  EXPECT_TRUE(recovered.success);
  EXPECT_EQ(durations.size() + 1, recovered.attempts);
  EXPECT_EQ(2u, recovered.max_attempts_used);
  EXPECT_GT(recovered.wasted_seconds, 0.0);

  const auto clean = cluster::list_schedule_makespan(
      durations, 4, cluster::FaultInjector{plan}, 17, nullptr);
  EXPECT_GT(recovered.makespan, clean.makespan);
}

TEST(FaultySchedule, OverflowBeyondHeadroomStaysFatal) {
  const std::vector<double> durations = {10.0};
  const std::vector<double> severity = {5.0};  // cap factor at attempt 4 is 2.5
  cluster::FaultPlan plan;
  plan.max_attempts = 4;
  const auto outcome = cluster::list_schedule_makespan(
      durations, 2, cluster::FaultInjector{plan}, 17, &severity);
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(0u, outcome.first_failed_task);
  EXPECT_EQ(4u, outcome.max_attempts_used);
  EXPECT_EQ(4u, outcome.attempts);
}

TEST(FaultySchedule, InjectedCrashesRetryDeterministically) {
  std::vector<double> durations(12, 2.0);
  cluster::FaultPlan plan;
  plan.seed = 77;
  plan.task_crash_probability = 0.4;
  plan.max_attempts = 8;

  const auto a = cluster::list_schedule_makespan(durations, 4,
                                                 cluster::FaultInjector{plan}, 23);
  const auto b = cluster::list_schedule_makespan(durations, 4,
                                                 cluster::FaultInjector{plan}, 23);
  EXPECT_TRUE(a.success);
  EXPECT_GT(a.attempts, durations.size());  // some crash happened at p=0.4
  EXPECT_GT(a.wasted_seconds, 0.0);
  // Same seed, same plan: bit-identical outcome.
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.wasted_seconds, b.wasted_seconds);

  const auto clean = cluster::list_schedule_makespan(
      durations, 4, cluster::FaultInjector{cluster::FaultPlan{}}, 23);
  EXPECT_GT(a.makespan, clean.makespan);

  plan.seed = 78;
  const auto c = cluster::list_schedule_makespan(durations, 4,
                                                 cluster::FaultInjector{plan}, 23);
  EXPECT_TRUE(a.attempts != c.attempts || a.makespan != c.makespan);
}

TEST(FaultySchedule, SpeculationCutsStragglerTail) {
  const std::vector<double> durations = {1.0, 1.0, 1.0, 1.0};
  cluster::FaultPlan plan;
  plan.straggler_probability = 1.0;
  plan.straggler_slowdown = 4.0;

  const auto slow = cluster::list_schedule_makespan(durations, 8,
                                                    cluster::FaultInjector{plan}, 5);
  EXPECT_TRUE(slow.success);
  EXPECT_DOUBLE_EQ(4.0, slow.makespan);

  plan.speculative_execution = true;
  plan.speculation_threshold = 1.5;
  const auto spec = cluster::list_schedule_makespan(durations, 8,
                                                    cluster::FaultInjector{plan}, 5);
  EXPECT_TRUE(spec.success);
  // Clone launches at 1.5x the healthy median and runs at full speed:
  // finishes at 2.5 while the straggling original would take 4.0.
  EXPECT_DOUBLE_EQ(2.5, spec.makespan);
  EXPECT_EQ(durations.size(), spec.speculative_clones);
  EXPECT_GT(spec.wasted_seconds, 0.0);
  EXPECT_LT(spec.makespan, slow.makespan);
}

TEST(FaultySchedule, RetriedAttemptNeverSpeculates) {
  // A task that already crashed is handled by the retry chain; only a clean
  // first-attempt straggler may spawn a speculative clone. Find a seed whose
  // attempt 1 crashes and attempt 2 succeeds, with everything else arranged
  // so that speculation WOULD trigger on a clean run (certain straggler far
  // beyond the threshold).
  const std::vector<double> durations = {1.0};
  cluster::FaultPlan plan;
  plan.task_crash_probability = 0.5;
  plan.max_attempts = 4;
  plan.straggler_probability = 1.0;
  plan.straggler_slowdown = 8.0;
  plan.speculative_execution = true;
  plan.speculation_threshold = 1.5;

  constexpr std::uint64_t kPhase = 7;
  std::uint64_t crashing_seed = 0;
  std::uint64_t clean_seed = 0;
  for (std::uint64_t s = 1; s < 4096 && (crashing_seed == 0 || clean_seed == 0);
       ++s) {
    plan.seed = s;
    const cluster::FaultInjector probe(plan);
    if (crashing_seed == 0 && probe.crashes(kPhase, 0, 1) &&
        !probe.crashes(kPhase, 0, 2)) {
      crashing_seed = s;
    }
    if (clean_seed == 0 && !probe.crashes(kPhase, 0, 1)) clean_seed = s;
  }
  ASSERT_NE(0u, crashing_seed);
  ASSERT_NE(0u, clean_seed);

  // Control: without the crash the straggler does speculate.
  plan.seed = clean_seed;
  const auto speculated = cluster::list_schedule_makespan(
      durations, 4, cluster::FaultInjector{plan}, kPhase);
  EXPECT_TRUE(speculated.success);
  EXPECT_EQ(1u, speculated.speculative_clones);

  // The retried task never does, no matter how badly it straggles.
  plan.seed = crashing_seed;
  std::vector<cluster::ScheduledAttempt> attempts;
  const auto retried = cluster::list_schedule_makespan(
      durations, 4, cluster::FaultInjector{plan}, kPhase, nullptr, &attempts);
  EXPECT_TRUE(retried.success);
  EXPECT_EQ(0u, retried.speculative_clones);
  EXPECT_EQ(2u, retried.attempts);  // crash + successful retry, no clone
  EXPECT_EQ(2u, retried.max_attempts_used);
  ASSERT_EQ(2u, attempts.size());
  EXPECT_EQ(trace::SpanOutcome::kFailed, attempts[0].outcome);
  EXPECT_EQ(trace::SpanOutcome::kOk, attempts[1].outcome);
  EXPECT_EQ(2u, attempts[1].attempt);
  EXPECT_FALSE(attempts[1].speculative);
}

TEST(FaultySchedule, LosingCloneChargesConsistentWaste) {
  // Slowdown 1.6 with threshold 1.5: the clone launches at t=1.5 but the
  // straggling primary still finishes first at t=1.6. The clone is killed,
  // its 0.1s of work wasted-but-charged, and the accounting must agree with
  // the emitted spans.
  const std::vector<double> durations = {1.0, 1.0, 1.0, 1.0};
  cluster::FaultPlan plan;
  plan.straggler_probability = 1.0;
  plan.straggler_slowdown = 1.6;
  plan.speculative_execution = true;
  plan.speculation_threshold = 1.5;

  std::vector<cluster::ScheduledAttempt> attempts;
  const auto outcome = cluster::list_schedule_makespan(
      durations, 8, cluster::FaultInjector{plan}, 5, nullptr, &attempts);
  EXPECT_TRUE(outcome.success);
  EXPECT_DOUBLE_EQ(1.6, outcome.makespan);  // primary wins, clone never helps
  EXPECT_EQ(durations.size(), outcome.speculative_clones);
  EXPECT_EQ(2 * durations.size(), outcome.attempts);
  EXPECT_DOUBLE_EQ(4.0 * (1.6 - 1.5), outcome.wasted_seconds);

  // Span view of the same story: per task, a winning primary over [0, 1.6]
  // and a killed clone over [1.5, 1.6].
  ASSERT_EQ(2 * durations.size(), attempts.size());
  std::size_t winners = 0;
  std::size_t losers = 0;
  double span_waste = 0.0;
  for (const auto& a : attempts) {
    if (a.outcome == trace::SpanOutcome::kOk) {
      ++winners;
      EXPECT_FALSE(a.speculative);
      EXPECT_EQ(1u, a.attempt);
      EXPECT_DOUBLE_EQ(0.0, a.start);
      EXPECT_DOUBLE_EQ(1.6, a.end);
    } else {
      ASSERT_EQ(trace::SpanOutcome::kSpeculativeLoser, a.outcome);
      ++losers;
      EXPECT_TRUE(a.speculative);
      EXPECT_EQ(2u, a.attempt);
      EXPECT_DOUBLE_EQ(1.5, a.start);
      EXPECT_DOUBLE_EQ(1.6, a.end);
      span_waste += a.end - a.start;
    }
  }
  EXPECT_EQ(durations.size(), winners);
  EXPECT_EQ(durations.size(), losers);
  EXPECT_DOUBLE_EQ(outcome.wasted_seconds, span_waste);
}

// ---------------------------------------------------------------------------
// SimDfs: datanode loss, re-replication, block unavailability
// ---------------------------------------------------------------------------

dfs::DfsConfig failover_dfs() {
  dfs::DfsConfig config;
  config.block_size = 100;
  config.replication = 2;
  config.datanode_count = 4;
  config.seed = 1;
  return config;
}

TEST(SimDfsFailure, RereplicationSurvivesSingleLoss) {
  dfs::SimDfs fs(failover_dfs());
  fs.put("f", std::string("payload"), 350);  // 4 blocks
  ASSERT_EQ(4u, fs.block_count("f"));

  const auto repair = fs.fail_datanode(0);
  EXPECT_FALSE(fs.node_alive(0));
  EXPECT_EQ(3u, fs.live_datanode_count());
  EXPECT_EQ(0u, repair.blocks_lost);
  EXPECT_GT(repair.under_replicated, 0u);
  EXPECT_GT(repair.bytes_rereplicated, 0u);
  // Each re-replicated block is read from a survivor, shipped, written.
  EXPECT_EQ(repair.bytes_rereplicated, repair.cost.disk_read);
  EXPECT_EQ(repair.bytes_rereplicated, repair.cost.disk_write);
  EXPECT_EQ(repair.bytes_rereplicated, repair.cost.network);

  // The file reads fine and every block is back at full replication on
  // live nodes only.
  EXPECT_FALSE(fs.lost("f"));
  EXPECT_EQ("payload", fs.get<std::string>("f"));
  for (const auto& block : fs.meta("f").blocks) {
    EXPECT_EQ(2u, block.replica_nodes.size());
    for (const auto node : block.replica_nodes) EXPECT_TRUE(fs.node_alive(node));
  }
}

TEST(SimDfsFailure, RefailingADeadNodeIsANoOp) {
  dfs::SimDfs fs(failover_dfs());
  fs.put("f", std::string("payload"), 350);
  fs.fail_datanode(0);
  const auto repeat = fs.fail_datanode(0);
  EXPECT_EQ(0u, repeat.blocks_lost);
  EXPECT_EQ(0u, repeat.under_replicated);
  EXPECT_EQ(0u, repeat.bytes_rereplicated);
}

TEST(SimDfsFailure, LosingEveryReplicaThrowsBlockUnavailable) {
  dfs::SimDfs fs(failover_dfs());
  fs.put("f", std::string("payload"), 350);
  fs.fail_datanode(0);
  fs.fail_datanode(1);
  fs.fail_datanode(2);
  // Down to one node every block has exactly one replica; killing it loses
  // the data for good.
  EXPECT_EQ("payload", fs.get<std::string>("f"));
  const auto repair = fs.fail_datanode(3);
  EXPECT_GT(repair.blocks_lost, 0u);
  EXPECT_TRUE(fs.lost("f"));
  EXPECT_TRUE(fs.exists("f"));
  EXPECT_THROW(fs.get<std::string>("f"), BlockUnavailable);
}

TEST(SimDfsFailure, MrContextAppliesScheduledLossAsRepairPhase) {
  // A loss event's node is taken modulo the datanode count (4 here), and the
  // repair phase names the node that actually died.
  for (const std::uint32_t planned : {1u, 5u}) {
    SCOPED_TRACE(planned);
    auto spec = cluster::ClusterSpec::ec2(4);
    dfs::SimDfs fs(failover_dfs());
    cluster::RunMetrics metrics;
    cluster::FaultPlan plan;
    plan.datanode_losses = {{0.0, planned}};
    mapreduce::MrContext ctx(spec, 1000.0, &fs, &metrics, nullptr, plan);

    fs.put("f", std::string("payload"), 350);
    mapreduce::charge_master_step(ctx, "step", 0.001, 100, 100);

    EXPECT_FALSE(fs.node_alive(1));
    EXPECT_GT(metrics.total_rereplicated_bytes(), 0u);
    bool repair_phase = false;
    for (const auto& phase : metrics.phases()) {
      if (phase.name == "dfs/re-replicate[node1]") repair_phase = true;
    }
    EXPECT_TRUE(repair_phase);
    EXPECT_EQ("payload", fs.get<std::string>("f"));
  }
}

// ---------------------------------------------------------------------------
// End-to-end recovery on the simulated systems
// ---------------------------------------------------------------------------

struct FaultBench {
  workload::Dataset points;
  workload::Dataset polys;
  core::JoinQueryConfig query;
  core::ExecutionConfig exec;

  static const FaultBench& instance() {
    static const FaultBench bench = [] {
      FaultBench b;
      workload::WorkloadConfig wc;
      wc.scale = 2e-4;
      b.points = workload::generate(workload::DatasetId::kTaxi1m, wc);
      b.polys = workload::generate(workload::DatasetId::kNycb, wc);
      b.query.predicate = core::JoinPredicate::kWithin;
      b.exec.cluster = cluster::ClusterSpec::workstation();
      b.exec.data_scale = 1.0 / wc.scale;
      return b;
    }();
    return bench;
  }
};

// The ISSUE's acceptance scenario: a streaming join whose largest task pipe
// overflows capacity by 1.3x dies with BrokenPipe under the seed model
// (max_attempts = 1) but completes under Hadoop's default retry budget,
// with the retries visible in the report and charged to the clock.
TEST(SystemRecovery, HadoopGisRetriesRecoverPipeOverflow) {
  const auto& b = FaultBench::instance();

  // Probe run with the gate disabled to learn the peak per-task pipe volume.
  systems::HadoopGisConfig probe;
  probe.pipe_capacity_fraction = 0.0;
  const auto clean = systems::run_hadoop_gis(b.points, b.polys, b.query, b.exec, probe);
  ASSERT_TRUE(clean.status.ok()) << clean.status.to_string();
  const std::uint64_t peak = clean.metrics.max_task_pipe_bytes();
  ASSERT_GT(peak, 0u);

  // Calibrate capacity so the worst task overflows by ~1.3x — fatal on the
  // first attempt, within the 1.5x headroom of attempt two.
  const auto& node = b.exec.cluster.node;
  systems::HadoopGisConfig faulty;
  faulty.pipe_capacity_fraction = (static_cast<double>(peak) / 1.3) * node.cores /
                                  static_cast<double>(node.memory_bytes);

  faulty.faults.max_attempts = 1;
  const auto dead = systems::run_hadoop_gis(b.points, b.polys, b.query, b.exec, faulty);
  EXPECT_EQ(StatusCode::kBrokenPipe, dead.status.code()) << dead.status.to_string();

  faulty.faults.max_attempts = 4;
  const auto retried = systems::run_hadoop_gis(b.points, b.polys, b.query, b.exec, faulty);
  ASSERT_TRUE(retried.status.ok()) << retried.status.to_string();
  EXPECT_TRUE(retried.recovered);
  EXPECT_GT(retried.attempts_used, clean.attempts_used);
  EXPECT_GT(retried.metrics.total_wasted_seconds(), 0.0);
  // Recovery changes timing, never results.
  EXPECT_EQ(clean.result_hash, retried.result_hash);
  EXPECT_EQ(clean.result_count, retried.result_count);
}

TEST(SystemRecovery, SpatialHadoopSurvivesInjectedCrashesDeterministically) {
  const auto& b = FaultBench::instance();

  const auto clean =
      systems::run_spatial_hadoop(b.points, b.polys, b.query, b.exec);
  ASSERT_TRUE(clean.status.ok()) << clean.status.to_string();
  EXPECT_FALSE(clean.recovered);

  systems::SpatialHadoopConfig faulty;
  faulty.faults.seed = 99;
  faulty.faults.task_crash_probability = 0.2;
  faulty.faults.max_attempts = 8;
  const auto a = systems::run_spatial_hadoop(b.points, b.polys, b.query, b.exec, faulty);
  ASSERT_TRUE(a.status.ok()) << a.status.to_string();
  EXPECT_TRUE(a.recovered);
  EXPECT_GT(a.attempts_used, clean.attempts_used);
  EXPECT_EQ(clean.result_hash, a.result_hash);

  // Same seed, same attempt counts — CPU noise moves timings, never the
  // fault decisions.
  const auto rerun =
      systems::run_spatial_hadoop(b.points, b.polys, b.query, b.exec, faulty);
  ASSERT_TRUE(rerun.status.ok()) << rerun.status.to_string();
  EXPECT_EQ(a.attempts_used, rerun.attempts_used);
  ASSERT_EQ(a.metrics.phases().size(), rerun.metrics.phases().size());
  for (std::size_t i = 0; i < a.metrics.phases().size(); ++i) {
    EXPECT_EQ(a.metrics.phases()[i].task_attempts,
              rerun.metrics.phases()[i].task_attempts);
  }
}

TEST(SystemRecovery, SpatialHadoopCrashWithoutRetryBudgetIsFatal) {
  const auto& b = FaultBench::instance();
  systems::SpatialHadoopConfig faulty;
  faulty.faults.seed = 99;
  faulty.faults.task_crash_probability = 0.2;
  faulty.faults.max_attempts = 1;
  const auto report =
      systems::run_spatial_hadoop(b.points, b.polys, b.query, b.exec, faulty);
  EXPECT_EQ(StatusCode::kTaskFailed, report.status.code())
      << report.status.to_string();
}

// A failed run keeps the counters of every job whose tasks ran. Kill
// SpatialHadoop inside A/partition/map with a phase timeout only that phase
// exceeds (under virtual time, so phase times are pure cost-model output):
// both partition jobs' map tasks ran, so their shuffle tally must be in the
// report, balanced.
TEST(SystemRecovery, FailedRunKeepsPartitionCountersOfTasksThatRan) {
  const auto& b = FaultBench::instance();
  const VirtualTimeGuard virtual_time;
  const auto clean = systems::run_spatial_hadoop(b.points, b.polys, b.query, b.exec);
  ASSERT_TRUE(clean.status.ok()) << clean.status.to_string();
  double earlier = 0.0;
  double target = 0.0;
  for (const auto& phase : clean.metrics.phases()) {
    if (phase.name == "A/partition/map") {
      target = phase.sim_seconds;
      break;
    }
    earlier = std::max(earlier, phase.sim_seconds);
  }
  ASSERT_GT(target, earlier) << "no timeout kills only A/partition/map";

  systems::SpatialHadoopConfig faulty;
  faulty.faults.phase_timeout_s = (earlier + target) / 2.0;
  const auto killed =
      systems::run_spatial_hadoop(b.points, b.polys, b.query, b.exec, faulty);
  ASSERT_EQ(StatusCode::kDeadlineExceeded, killed.status.code())
      << killed.status.to_string();
  EXPECT_EQ(killed.metrics.phases().back().name, "A/partition/map");
  EXPECT_EQ(killed.counters.get("partition.records"), b.points.size() + b.polys.size());
  EXPECT_GT(killed.counters.get("shuffle.assigned_records"), 0u);
  EXPECT_EQ(killed.counters.get("shuffle.assigned_records"),
            killed.counters.get("shuffle.records") +
                killed.counters.get("shuffle.filtered_records"));
}

// HadoopGIS on edges x linearwater dies of a broken pipe in A's step-6
// reduce; the step-6 map tasks ran, so the boundary duplicates they counted
// stay in the failed report.
TEST(SystemRecovery, HadoopGisPipeFailureKeepsAssignDuplicates) {
  workload::WorkloadConfig wc;
  wc.scale = 2e-4;
  const auto edges = workload::generate(workload::DatasetId::kEdges, wc);
  const auto water = workload::generate(workload::DatasetId::kLinearwater, wc);
  core::ExecutionConfig exec;
  exec.cluster = cluster::ClusterSpec::workstation();
  exec.data_scale = 1.0 / wc.scale;
  const auto report = systems::run_hadoop_gis(edges, water, core::JoinQueryConfig{}, exec);
  ASSERT_EQ(StatusCode::kBrokenPipe, report.status.code()) << report.status.to_string();
  ASSERT_NE(report.status.message().find("A/6-assign/reduce"), std::string::npos)
      << report.status.to_string();
  EXPECT_GT(report.counters.get("partition.duplicated_records"), 0u);
}

// ---------------------------------------------------------------------------
// Job-lifecycle hardening: backoff cap/jitter, output-commit ledger, node
// quarantine, phase timeouts, retry budgets, structured status
// ---------------------------------------------------------------------------

TEST(FaultInjector, BackoffIsCappedAndJitterBounded) {
  cluster::FaultPlan plan;
  plan.retry_backoff_s = 2.0;
  plan.max_backoff_s = 10.0;
  const cluster::FaultInjector capped(plan);
  EXPECT_DOUBLE_EQ(2.0, capped.backoff_s(1));
  EXPECT_DOUBLE_EQ(4.0, capped.backoff_s(2));
  EXPECT_DOUBLE_EQ(8.0, capped.backoff_s(3));
  EXPECT_DOUBLE_EQ(10.0, capped.backoff_s(4));   // 16 hits the cap
  EXPECT_DOUBLE_EQ(10.0, capped.backoff_s(12));  // deep chains stay bounded

  // Jitter 0 (the default): the per-(phase, task) overload is exactly the
  // capped base, so existing runs are bit-identical.
  for (std::uint32_t k = 1; k <= 6; ++k) {
    EXPECT_DOUBLE_EQ(capped.backoff_s(k), capped.backoff_s(3, 7, k));
  }

  plan.backoff_jitter = 0.5;
  const cluster::FaultInjector jittered(plan);
  const cluster::FaultInjector rerun(plan);
  bool jitter_changes_something = false;
  for (std::uint64_t phase = 0; phase < 4; ++phase) {
    for (std::size_t task = 0; task < 16; ++task) {
      for (std::uint32_t k = 1; k <= 4; ++k) {
        const double base = jittered.backoff_s(k);
        const double b = jittered.backoff_s(phase, task, k);
        EXPECT_GE(b, 0.5 * base);
        EXPECT_LE(b, 1.5 * base);
        EXPECT_DOUBLE_EQ(b, rerun.backoff_s(phase, task, k));
        if (b != base) jitter_changes_something = true;
      }
    }
  }
  EXPECT_TRUE(jitter_changes_something);
}

TEST(FaultInjector, DescribeNamesEveryKnob) {
  cluster::FaultPlan plan;
  plan.seed = 42;
  plan.datanode_losses = {{3.0, 1}};
  const std::string text = cluster::describe(plan);
  for (const char* key :
       {"seed=42", "crash_p=", "straggler_p=", "bad_node_p=", "malformed_rows=",
        "max_attempts=", "max_backoff_s=", "jitter=", "blacklist_threshold=",
        "retry_budget=", "phase_timeout_s=", "speculative=", "losses=["}) {
    EXPECT_NE(std::string::npos, text.find(key)) << key << " missing: " << text;
  }
}

TEST(FaultySchedule, CommitLedgerBalancesUnderCrashes) {
  std::vector<double> durations(24, 2.0);
  cluster::FaultPlan plan;
  plan.seed = 77;
  plan.task_crash_probability = 0.4;
  plan.max_attempts = 8;
  const auto outcome = cluster::list_schedule_makespan(durations, 4,
                                                       cluster::FaultInjector{plan}, 23);
  ASSERT_TRUE(outcome.success);
  // Every attempt reached exactly one terminal state, and exactly one
  // attempt per task published.
  EXPECT_EQ(durations.size(), outcome.commits_published);
  EXPECT_EQ(0u, outcome.commits_rejected);
  EXPECT_GT(outcome.attempts_aborted, 0u);
  EXPECT_EQ(outcome.attempts,
            outcome.commits_published + outcome.commits_rejected +
                outcome.attempts_aborted);

  // A dead phase still balances: the winner never published.
  plan.max_attempts = 1;
  const auto dead = cluster::list_schedule_makespan(durations, 4,
                                                    cluster::FaultInjector{plan}, 23);
  ASSERT_FALSE(dead.success);
  EXPECT_EQ(dead.attempts,
            dead.commits_published + dead.commits_rejected + dead.attempts_aborted);
  EXPECT_LT(dead.commits_published, durations.size());
}

TEST(FaultySchedule, LosingCloneCommitIsRejectedNotPublished) {
  // Same race as LosingCloneChargesConsistentWaste: the straggling primary
  // (1.6x) beats the clone launched at 1.5x. The loser finishing *after*
  // the winner must observe a rejected commit — never a double publish —
  // and its span carries the speculative-loser outcome.
  const std::vector<double> durations = {1.0, 1.0, 1.0, 1.0};
  cluster::FaultPlan plan;
  plan.straggler_probability = 1.0;
  plan.straggler_slowdown = 1.6;
  plan.speculative_execution = true;
  plan.speculation_threshold = 1.5;

  std::vector<cluster::ScheduledAttempt> attempts;
  const auto outcome = cluster::list_schedule_makespan(
      durations, 8, cluster::FaultInjector{plan}, 5, nullptr, &attempts);
  ASSERT_TRUE(outcome.success);
  EXPECT_EQ(durations.size(), outcome.speculative_clones);
  EXPECT_EQ(durations.size(), outcome.commits_published);  // one per task
  EXPECT_EQ(durations.size(), outcome.commits_rejected);   // every clone lost
  EXPECT_EQ(0u, outcome.attempts_aborted);
  EXPECT_EQ(outcome.attempts,
            outcome.commits_published + outcome.commits_rejected);
  // The rejected work is exactly the charged waste, visible span by span.
  std::size_t losers = 0;
  double loser_seconds = 0.0;
  for (const auto& a : attempts) {
    if (a.outcome == trace::SpanOutcome::kSpeculativeLoser) {
      ++losers;
      loser_seconds += a.end - a.start;
    }
  }
  EXPECT_EQ(outcome.commits_rejected, losers);
  EXPECT_DOUBLE_EQ(outcome.wasted_seconds, loser_seconds);

  // And when the clone wins (slowdown 4 >> launch point 1.5), the ledger
  // flips: still one publish per task, the losing *primary* rejected.
  plan.straggler_slowdown = 4.0;
  const auto clone_wins = cluster::list_schedule_makespan(
      durations, 8, cluster::FaultInjector{plan}, 5);
  ASSERT_TRUE(clone_wins.success);
  EXPECT_EQ(durations.size(), clone_wins.commits_published);
  EXPECT_EQ(durations.size(), clone_wins.commits_rejected);
}

TEST(FaultySchedule, QuarantineShiftsWorkOffFlakyNodes) {
  // 2 nodes x 2 slots; find a seed where node 0 is flaky and node 1 is not.
  cluster::FaultPlan plan;
  plan.bad_node_probability = 0.5;
  plan.bad_node_crash_probability = 0.9;
  plan.max_attempts = 10;
  plan.node_blacklist_threshold = 2;
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 4096 && seed == 0; ++s) {
    plan.seed = s;
    const cluster::FaultInjector probe(plan);
    if (probe.bad_node(0) && !probe.bad_node(1)) seed = s;
  }
  ASSERT_NE(0u, seed);
  plan.seed = seed;

  std::vector<double> durations(16, 1.0);
  const auto outcome = cluster::list_schedule_makespan(
      durations, 4, cluster::FaultInjector{plan}, 11, nullptr, nullptr,
      /*slots_per_node=*/2);
  ASSERT_TRUE(outcome.success);
  ASSERT_FALSE(outcome.quarantines.empty());
  for (const auto& q : outcome.quarantines) {
    EXPECT_EQ(0u, q.node);  // only the flaky node gets blacklisted
    EXPECT_GE(q.failures, plan.node_blacklist_threshold);
  }
  EXPECT_EQ(outcome.attempts,
            outcome.commits_published + outcome.commits_rejected +
                outcome.attempts_aborted);

  // Same plan without node grouping: quarantine stays off.
  const auto ungrouped = cluster::list_schedule_makespan(
      durations, 4, cluster::FaultInjector{plan}, 11);
  EXPECT_TRUE(ungrouped.quarantines.empty());

  // Single-node cluster: the last healthy node is never quarantined, no
  // matter how flaky.
  const auto single = cluster::list_schedule_makespan(
      durations, 4, cluster::FaultInjector{plan}, 11, nullptr, nullptr,
      /*slots_per_node=*/4);
  EXPECT_TRUE(single.quarantines.empty());
}

TEST(SystemRecovery, PhaseTimeoutKillsJobWithStructuredStatus) {
  const auto& b = FaultBench::instance();
  systems::SpatialHadoopConfig faulty;
  faulty.faults.phase_timeout_s = 1e-6;  // no phase can fit
  const auto report =
      systems::run_spatial_hadoop(b.points, b.polys, b.query, b.exec, faulty);
  EXPECT_EQ(StatusCode::kDeadlineExceeded, report.status.code())
      << report.status.to_string();
  EXPECT_GT(report.counters.get("budget.phase_timeouts"), 0u);
  // The killed phase charged exactly the timeout, not its full makespan.
  ASSERT_FALSE(report.metrics.phases().empty());
  EXPECT_DOUBLE_EQ(faulty.faults.phase_timeout_s,
                   report.metrics.phases().back().sim_seconds);
}

// The engines order a datanode loss that came due and a deadline kill
// differently. A MapReduce phase applies due losses before its limit checks,
// so a killed job's report still ends with the repair phase. A Spark stage
// checks its limits first, so the report ends at the killed stage.
TEST(SystemRecovery, DueLossAndDeadlineKillOrderPerEngine) {
  const auto& b = FaultBench::instance();
  core::ExecutionConfig exec = b.exec;
  exec.cluster = cluster::ClusterSpec::ec2(10);
  cluster::FaultPlan plan;
  plan.phase_timeout_s = 2.0;
  plan.datanode_losses = {{0.5, 7}};  // node 7 holds a replica of the input

  systems::SpatialHadoopConfig hadoop_config;
  hadoop_config.faults = plan;
  const auto hadoop =
      systems::run_spatial_hadoop(b.points, b.polys, b.query, exec, hadoop_config);
  EXPECT_EQ(StatusCode::kDeadlineExceeded, hadoop.status.code())
      << hadoop.status.to_string();
  const auto& hadoop_phases = hadoop.metrics.phases();
  ASSERT_EQ(2u, hadoop_phases.size());
  EXPECT_EQ(plan.phase_timeout_s, hadoop_phases[0].sim_seconds);
  EXPECT_EQ("dfs/re-replicate[node7]", hadoop_phases[1].name);

  systems::SpatialSparkConfig spark_config;
  spark_config.spark.faults = plan;
  const auto spark =
      systems::run_spatial_spark(b.points, b.polys, b.query, exec, spark_config);
  EXPECT_EQ(StatusCode::kDeadlineExceeded, spark.status.code())
      << spark.status.to_string();
  const auto& spark_phases = spark.metrics.phases();
  ASSERT_EQ(1u, spark_phases.size());
  EXPECT_EQ("A.read", spark_phases[0].name);
  EXPECT_EQ(plan.phase_timeout_s, spark_phases[0].sim_seconds);
}

TEST(SystemRecovery, RetryBudgetExhaustionIsStructured) {
  const auto& b = FaultBench::instance();
  systems::SpatialHadoopConfig faulty;
  faulty.faults.seed = 99;
  faulty.faults.task_crash_probability = 0.2;
  faulty.faults.max_attempts = 8;

  // Unlimited budget: the crashes are survivable (proved above); count the
  // retries the run actually needed.
  const auto unlimited =
      systems::run_spatial_hadoop(b.points, b.polys, b.query, b.exec, faulty);
  ASSERT_TRUE(unlimited.status.ok()) << unlimited.status.to_string();
  const std::uint64_t needed = unlimited.counters.get("budget.retries_used");
  ASSERT_GT(needed, 1u);

  // A budget one short of that kills the job with the structured status.
  faulty.faults.job_retry_budget = needed - 1;
  const auto exhausted =
      systems::run_spatial_hadoop(b.points, b.polys, b.query, b.exec, faulty);
  EXPECT_FALSE(exhausted.status.ok());
  EXPECT_EQ(StatusCode::kRetryBudgetExhausted, exhausted.status.code())
      << exhausted.status.to_string();

  // An exactly-sufficient budget survives and reproduces the results.
  faulty.faults.job_retry_budget = needed;
  const auto tight =
      systems::run_spatial_hadoop(b.points, b.polys, b.query, b.exec, faulty);
  ASSERT_TRUE(tight.status.ok()) << tight.status.to_string();
  EXPECT_EQ(unlimited.result_hash, tight.result_hash);
}

TEST(SystemRecovery, MalformedRowsAreQuarantinedNotFatal) {
  const auto& b = FaultBench::instance();
  const auto clean = systems::run_hadoop_gis(b.points, b.polys, b.query, b.exec);
  ASSERT_TRUE(clean.status.ok()) << clean.status.to_string();

  systems::HadoopGisConfig faulty;
  faulty.faults.malformed_rows = 3;
  const auto gis =
      systems::run_hadoop_gis(b.points, b.polys, b.query, b.exec, faulty);
  ASSERT_TRUE(gis.status.ok()) << gis.status.to_string();
  EXPECT_GT(gis.counters.get("input.malformed_rows_injected"), 0u);
  EXPECT_GE(gis.counters.get("input.quarantined_rows"),
            gis.counters.get("input.malformed_rows_injected"));
  // Junk rows shift split boundaries, never results.
  EXPECT_EQ(clean.result_hash, gis.result_hash);
  EXPECT_EQ(clean.result_count, gis.result_count);

  systems::SpatialSparkConfig spark_faulty;
  spark_faulty.spark.faults.malformed_rows = 3;
  const auto spark = systems::run_spatial_spark(b.points, b.polys, b.query,
                                                b.exec, spark_faulty);
  ASSERT_TRUE(spark.status.ok()) << spark.status.to_string();
  EXPECT_EQ(spark.counters.get("input.malformed_rows_injected"),
            spark.counters.get("input.quarantined_rows"));
  EXPECT_EQ(clean.result_hash, spark.result_hash);
}

TEST(StatusTaxonomy, MapsExceptionsToCodes) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ("OK", Status::Ok().to_string());
  EXPECT_EQ(StatusCode::kDeadlineExceeded,
            status_from_exception(DeadlineExceeded("late")).code());
  EXPECT_EQ(StatusCode::kRetryBudgetExhausted,
            status_from_exception(RetryBudgetExhausted("spent")).code());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            status_from_exception(InvalidArgument("bad")).code());
  const Status s = status_from_exception(DeadlineExceeded("late"));
  EXPECT_EQ("DEADLINE_EXCEEDED: late", s.to_string());
  EXPECT_FALSE(s.ok());
}

TEST(SystemRecovery, SparkExecutorLossTriggersLineageRecompute) {
  const auto& b = FaultBench::instance();
  core::ExecutionConfig exec = b.exec;
  exec.cluster = cluster::ClusterSpec::ec2(6);

  const auto clean = systems::run_spatial_spark(b.points, b.polys, b.query, exec);
  ASSERT_TRUE(clean.status.ok()) << clean.status.to_string();

  systems::SpatialSparkConfig faulty;
  faulty.spark.faults.datanode_losses = {{1.0, 2}};
  const auto lost = systems::run_spatial_spark(b.points, b.polys, b.query, exec, faulty);
  ASSERT_TRUE(lost.status.ok()) << lost.status.to_string();
  EXPECT_TRUE(lost.recovered);
  EXPECT_GT(lost.metrics.total_recomputed_partitions(), 0u);
  EXPECT_EQ(clean.result_hash, lost.result_hash);

  bool recompute_phase = false;
  for (const auto& phase : lost.metrics.phases()) {
    if (phase.name.find(".recompute[") != std::string::npos) recompute_phase = true;
  }
  EXPECT_TRUE(recompute_phase);
}

}  // namespace
}  // namespace sjc
