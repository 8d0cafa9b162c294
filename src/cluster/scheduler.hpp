// Wave scheduling of simulated tasks onto cluster slots.
//
// Hadoop and Spark both dispatch a phase's tasks FIFO onto free slots; the
// phase finishes when the last task drains. list_schedule_makespan is the
// one entry point: tasks are assigned, in submission order, to the
// earliest-available slot, and under a trivial FaultPlan that is all it
// does, so a fault-free phase gets the plain FIFO makespan.
//
// A non-trivial plan additionally replays Hadoop's recovery machinery on top
// of the same FIFO dispatch: failed attempts are retried (with exponential
// backoff) on the same slot up to the plan's max_attempts, stragglers run
// slowed down and may be speculatively cloned onto a second slot (first
// finisher wins, the loser's duplicate work is wasted but charged), and a
// task that exhausts its attempts kills the phase — all deterministic
// functions of the FaultPlan seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/fault_injector.hpp"
#include "trace/trace.hpp"

namespace sjc::cluster {

/// One attempt the scheduler placed on a slot: the raw material for the
/// trace timeline. Times are phase-relative seconds (the phase recorder
/// shifts them onto the run clock). Slot choice among equally-free slots is
/// deterministic (lowest slot id wins ties), and emission is a pure
/// observation — it never feeds back into makespan arithmetic.
struct ScheduledAttempt {
  std::size_t task = 0;
  std::uint32_t attempt = 1;     // 1-based; a speculative clone continues the chain
  bool speculative = false;
  std::uint32_t slot = 0;
  double start = 0.0;
  double end = 0.0;
  trace::SpanOutcome outcome = trace::SpanOutcome::kOk;
};

/// One node quarantined (blacklisted) during a phase.
struct QuarantineEvent {
  std::uint32_t node = 0;
  /// Phase-relative simulated time of the failure that tripped the threshold.
  double time_s = 0.0;
  /// Failed attempts the node had accumulated when it was quarantined.
  std::uint32_t failures = 0;
};

/// Outcome of scheduling one phase under a FaultPlan.
struct ScheduleOutcome {
  double makespan = 0.0;
  /// Total task attempts launched (== task count when nothing failed).
  std::uint64_t attempts = 0;
  /// Largest attempt number any single task needed to succeed (or the
  /// attempt count it died at).
  std::uint32_t max_attempts_used = 0;
  /// Speculative duplicates launched.
  std::uint64_t speculative_clones = 0;
  /// Seconds of work thrown away: failed attempts, retry backoff, and the
  /// losing side of every speculative race.
  double wasted_seconds = 0.0;
  /// False when some task exhausted max_attempts; the phase (and job) dies.
  bool success = true;
  /// First task (by submission index) that exhausted its attempts.
  std::size_t first_failed_task = static_cast<std::size_t>(-1);

  // ---- output-commit ledger ----------------------------------------------
  // Every attempt reaches exactly one terminal commit state, so for any
  // phase: attempts == commits_published + commits_rejected + attempts_aborted,
  // and on success commits_published == task count. The scheduler enforces
  // the single-committer rule internally: a second publish for the same task
  // throws (the checked invariant of the commit protocol).
  /// Winning attempts whose output was published (exactly one per task).
  std::uint64_t commits_published = 0;
  /// Speculative race losers whose commit the ledger rejected.
  std::uint64_t commits_rejected = 0;
  /// Crashed / intrinsically-failed attempts that aborted without committing.
  std::uint64_t attempts_aborted = 0;

  /// Nodes blacklisted during this phase, in quarantine order.
  std::vector<QuarantineEvent> quarantines;
};

/// Failure/speculation-aware FIFO list schedule of `durations` onto `slots`
/// identical slots. An empty task list has makespan 0. Throws
/// InvalidArgument when `slots == 0`.
///
/// `intrinsic_severity` (optional, parallel to `durations`) models
/// deterministic per-task failure causes such as streaming-pipe overflow:
/// entry r means attempt k of that task fails intrinsically unless
/// faults.capacity_factor(k) >= r (r <= 1 never fails; a failed attempt
/// consumes duration * min(1, capacity_factor/r) before dying — the pipe
/// breaks partway through the stream). Injected crashes from the plan are
/// layered on top.
///
/// When `attempts_out` is non-null, every launched attempt — failed
/// attempts, retries, speculative clones and their race losers — is
/// appended as a ScheduledAttempt.
///
/// `slots_per_node` groups slots into nodes for the bad-node crash model and
/// node blacklisting: slot s lives on node s / slots_per_node. 0 treats the
/// whole cluster as one node (quarantine disabled — the seed behaviour).
/// When the plan's node_blacklist_threshold is set, a node accumulating that
/// many failed attempts within the phase is quarantined: its slots stop
/// taking work and in-flight retry chains relocate to a healthy slot. The
/// last healthy node is never quarantined.
ScheduleOutcome list_schedule_makespan(const std::vector<double>& durations,
                                       std::uint32_t slots,
                                       const FaultInjector& faults,
                                       std::uint64_t phase,
                                       const std::vector<double>* intrinsic_severity =
                                           nullptr,
                                       std::vector<ScheduledAttempt>* attempts_out =
                                           nullptr,
                                       std::uint32_t slots_per_node = 0);

}  // namespace sjc::cluster
