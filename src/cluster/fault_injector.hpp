// Deterministic fault injection for the simulated cluster.
//
// A FaultPlan describes *what goes wrong* during a run: per-attempt task
// crash probability, straggler slowdowns, and datanode losses scheduled at
// simulated times. The FaultInjector answers every engine query about the
// plan through stateless hashing of (seed, phase, task, attempt), so the
// same plan produces bit-identical decisions regardless of thread count or
// task execution order — runs stay exactly reproducible from the seed.
//
// Recovery knobs live here too, because they are what the paper's failure
// matrix is really about: Hadoop retries a failed task `max_attempts` times
// (default mapred.map.max.attempts = 4 in real Hadoop; 1 here so the seed
// failure matrix of Tables 2-3 is preserved unless a caller opts in) with
// exponential backoff, and speculatively re-executes stragglers. All retry
// and speculation costs are charged to the simulated clock by the
// failure-aware scheduler overload (scheduler.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sjc::cluster {

/// One scheduled datanode loss: at simulated time `time_s` (paper-unit
/// seconds since job start) datanode `node` drops out of the cluster.
struct DatanodeLossEvent {
  double time_s = 0.0;
  std::uint32_t node = 0;
};

struct FaultPlan {
  std::uint64_t seed = 0;

  // ---- injected faults -----------------------------------------------------
  /// Probability that any single task attempt crashes (lost container, bad
  /// disk, preemption). Evaluated independently per (phase, task, attempt).
  double task_crash_probability = 0.0;
  /// Probability that a task is a straggler for the whole phase.
  double straggler_probability = 0.0;
  /// Duration multiplier applied to straggler tasks (>= 1).
  double straggler_slowdown = 1.0;
  /// Datanode losses at scheduled simulated times.
  std::vector<DatanodeLossEvent> datanode_losses;

  /// Bad-node model: a `bad_node_probability` fraction of nodes (chosen by
  /// a stateless hash of the seed and node id) are flaky for the whole run,
  /// and every attempt placed on a flaky node crashes with an *additional*
  /// `bad_node_crash_probability` — the correlated failure mode that node
  /// blacklisting exists to contain.
  double bad_node_probability = 0.0;
  double bad_node_crash_probability = 0.0;
  /// Malformed input rows injected into each raw text input (junk lines a
  /// hardened parse path must divert to the row quarantine instead of dying
  /// on). Survivable by construction: junk rows are *extra*, so diverting
  /// them leaves the join result bit-identical to the fault-free run.
  std::uint64_t malformed_rows = 0;

  // ---- recovery semantics --------------------------------------------------
  /// Task attempts before the job is declared dead (Hadoop's
  /// mapred.*.max.attempts). 1 = first failure is fatal (the seed model).
  std::uint32_t max_attempts = 1;
  /// Base of the exponential retry backoff charged to the simulated clock:
  /// attempt k's failure costs min(backoff * 2^(k-1), max_backoff_s) seconds
  /// before relaunch.
  double retry_backoff_s = 2.0;
  /// Cap on a single backoff interval: without it the doubling above grows
  /// unboundedly with deep retry chains (2^(k-1) reaches minutes by k=7).
  double max_backoff_s = 60.0;
  /// Deterministic backoff jitter fraction in [0, 1]: attempt k's backoff is
  /// scaled by a factor in [1-j, 1+j] drawn from a stateless hash of
  /// (seed, phase, task, attempt) — decorrelated relaunches without losing
  /// bit-identical virtual-time replay. 0 = no jitter (the seed model).
  double backoff_jitter = 0.0;
  /// Node blacklisting (Hadoop's per-job tracker blacklist): once a node
  /// accumulates this many failed attempts within one phase it is
  /// quarantined for the remainder of the phase — its slots stop taking
  /// work, in-flight retry chains relocate to healthy slots. 0 = disabled.
  /// The last healthy node is never quarantined.
  std::uint32_t node_blacklist_threshold = 0;
  /// Job-level retry budget: total failed-attempt retries allowed across
  /// all phases before the job is killed (RetryBudgetExhausted), even if no
  /// single task exhausts max_attempts. 0 = unlimited.
  std::uint64_t job_retry_budget = 0;
  /// Per-phase wall-clock timeout in simulated seconds: a phase whose
  /// makespan (including serial startup) exceeds this is killed at the
  /// deadline (DeadlineExceeded) and charges exactly the timeout. 0 = none.
  double phase_timeout_s = 0.0;
  /// Speculative execution: clone the slowest running task once its
  /// projected duration exceeds `speculation_threshold` x the phase median;
  /// the first finisher wins and the loser's work is wasted (but charged).
  bool speculative_execution = false;
  double speculation_threshold = 1.5;
  /// Streaming-pipe retry headroom: a retried attempt runs in a less
  /// contended container, so its effective pipe capacity grows by this
  /// fraction per retry (attempt k tolerates capacity * (1 + h*(k-1))).
  /// Models the transient share of HadoopGIS pipe overflows; overflows
  /// larger than the final attempt's headroom remain fatal, which is how
  /// the full-dataset runs still die exactly as in Tables 2-3.
  double pipe_retry_headroom = 0.5;
};

/// Stateless oracle over a FaultPlan. All queries hash (seed, phase, task,
/// attempt), so they are thread-safe and order-independent.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// Stable id for a phase name (fed back into the per-task queries).
  static std::uint64_t phase_id(const std::string& name);

  /// Does attempt `attempt` (1-based) of `task` in `phase` crash?
  bool crashes(std::uint64_t phase, std::size_t task, std::uint32_t attempt) const;

  /// Node-aware crash query: the plan's base crash probability plus the
  /// extra bad-node crash probability when `node` is flaky. Reduces exactly
  /// to crashes() when the bad-node knobs are zero.
  bool crashes_on(std::uint64_t phase, std::size_t task, std::uint32_t attempt,
                  std::uint32_t node) const;

  /// Is `node` one of the run's flaky nodes? Stateless hash of (seed, node):
  /// the same node is flaky in every phase, which is what makes per-phase
  /// blacklisting pay off.
  bool bad_node(std::uint32_t node) const;

  /// Fraction of the attempt's duration consumed before the crash, in
  /// (0, 1). Only meaningful when crashes() is true.
  double crash_fraction(std::uint64_t phase, std::size_t task,
                        std::uint32_t attempt) const;

  /// Straggler slowdown for `task` in `phase`: 1.0 for healthy tasks,
  /// plan().straggler_slowdown for stragglers.
  double slowdown(std::uint64_t phase, std::size_t task) const;

  /// Simulated seconds of backoff charged after failed attempt `attempt`
  /// (1-based): min(retry_backoff_s * 2^(attempt-1), max_backoff_s).
  double backoff_s(std::uint32_t attempt) const;

  /// Jittered backoff for a specific (phase, task, attempt): the capped
  /// exponential scaled by a deterministic factor in
  /// [1 - backoff_jitter, 1 + backoff_jitter]. Equals backoff_s(attempt)
  /// when the plan's jitter is 0.
  double backoff_s(std::uint64_t phase, std::size_t task, std::uint32_t attempt) const;

  /// Effective capacity multiplier for attempt `attempt` of a
  /// capacity-gated task (streaming pipes): 1 + pipe_retry_headroom*(k-1).
  double capacity_factor(std::uint32_t attempt) const;

  /// Datanode losses scheduled at or before simulated time `now_s`,
  /// beginning at event index `from` (callers track how many they applied).
  std::vector<DatanodeLossEvent> losses_due(double now_s, std::size_t from) const;

 private:
  double unit(std::uint64_t phase, std::size_t task, std::uint32_t attempt,
              std::uint64_t salt) const;

  FaultPlan plan_;
};

/// One-line human-readable dump of every plan knob — the chaos sweep prints
/// this for failing seeds so any regression reproduces from the log alone.
std::string describe(const FaultPlan& plan);

}  // namespace sjc::cluster
