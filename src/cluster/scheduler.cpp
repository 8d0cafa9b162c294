#include "cluster/scheduler.hpp"

#include <algorithm>
#include <queue>
#include <utility>

#include "util/status.hpp"

namespace sjc::cluster {

namespace {

/// Min-heap of (free-at time, slot id): among equally-free slots the lowest
/// slot id wins, so slot placement — and with it the trace timeline — is a
/// deterministic function of the task list alone. The slot id never feeds
/// into any duration arithmetic.
using SlotHeap =
    std::priority_queue<std::pair<double, std::uint32_t>,
                        std::vector<std::pair<double, std::uint32_t>>,
                        std::greater<>>;

SlotHeap make_slot_heap(std::uint32_t slots) {
  SlotHeap heap;
  for (std::uint32_t s = 0; s < slots; ++s) heap.emplace(0.0, s);
  return heap;
}

}  // namespace

ScheduleOutcome list_schedule_makespan(const std::vector<double>& durations,
                                       std::uint32_t slots,
                                       const FaultInjector& faults,
                                       std::uint64_t phase,
                                       const std::vector<double>* intrinsic_severity,
                                       std::vector<ScheduledAttempt>* attempts_out,
                                       std::uint32_t slots_per_node) {
  require(slots > 0, "list_schedule_makespan: need at least one slot");
  require(intrinsic_severity == nullptr ||
              intrinsic_severity->size() == durations.size(),
          "list_schedule_makespan: severity vector must match task count");
  ScheduleOutcome out;
  if (durations.empty()) return out;

  const FaultPlan& plan = faults.plan();

  // ---- Node topology and quarantine state ---------------------------------
  const bool node_aware = slots_per_node > 0;
  const std::uint32_t num_nodes =
      node_aware ? (slots + slots_per_node - 1) / slots_per_node : 1;
  const auto node_of = [&](std::uint32_t slot) -> std::uint32_t {
    return node_aware ? slot / slots_per_node : 0;
  };
  const bool blacklisting =
      node_aware && plan.node_blacklist_threshold > 0 && num_nodes > 1;
  std::vector<std::uint32_t> node_failures(num_nodes, 0);
  std::vector<unsigned char> node_quarantined(num_nodes, 0);
  std::uint32_t live_nodes = num_nodes;

  // ---- Output-commit ledger -----------------------------------------------
  // Only the first committer per task publishes; any later commit for the
  // same task is rejected. A second *publish* would mean two attempts both
  // believed they won — the protocol's checked invariant.
  std::vector<unsigned char> published(durations.size(), 0);
  const auto publish = [&](std::size_t task) {
    if (published[task] != 0) {
      throw SjcError("commit protocol violation: task " + std::to_string(task) +
                     " output published twice");
    }
    published[task] = 1;
    ++out.commits_published;
  };
  const auto reject_commit = [&](std::size_t task) {
    if (published[task] == 0) {
      throw SjcError("commit protocol violation: task " + std::to_string(task) +
                     " commit rejected but no winner published");
    }
    ++out.commits_rejected;
  };

  // Median base duration, the speculation trigger reference (Hadoop
  // speculates on tasks far beyond the pack's progress rate).
  double median = 0.0;
  {
    std::vector<double> sorted = durations;
    const std::size_t mid = sorted.size() / 2;
    std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(mid),
                     sorted.end());
    median = sorted[mid];
  }

  SlotHeap heap = make_slot_heap(slots);

  // Lazy deletion: quarantined nodes' slots are dropped when they surface at
  // the top of the heap, never eagerly removed. With blacklisting off this
  // is a no-op and the heap behaves exactly as before.
  const auto prune = [&]() {
    while (blacklisting && !heap.empty() &&
           node_quarantined[node_of(heap.top().second)] != 0) {
      heap.pop();
    }
  };

  // Charge one failed attempt against `node`; returns true when this failure
  // tripped the blacklist threshold and quarantined the node. The last
  // healthy node is never quarantined — someone has to finish the phase.
  const auto charge_node_failure = [&](std::uint32_t node, double when) {
    if (!blacklisting) return false;
    ++node_failures[node];
    if (node_quarantined[node] == 0 &&
        node_failures[node] >= plan.node_blacklist_threshold && live_nodes > 1) {
      node_quarantined[node] = 1;
      --live_nodes;
      out.quarantines.push_back({node, when, node_failures[node]});
      return true;
    }
    return false;
  };

  const auto emit = [&](std::size_t task, std::uint32_t attempt, bool speculative,
                        std::uint32_t slot, double start, double end,
                        trace::SpanOutcome outcome) {
    if (attempts_out != nullptr) {
      attempts_out->push_back({task, attempt, speculative, slot, start, end, outcome});
    }
  };

  for (std::size_t i = 0; i < durations.size(); ++i) {
    const double base = durations[i];
    const double slow = faults.slowdown(phase, i);
    const double severity =
        intrinsic_severity != nullptr ? (*intrinsic_severity)[i] : 0.0;

    prune();
    auto [start, slot] = heap.top();
    heap.pop();
    std::uint32_t node = node_of(slot);

    // ---- Attempt chain: retries run back-to-back on the same slot, unless
    // the slot's node is quarantined mid-chain, in which case the chain
    // relocates to the earliest healthy slot. ------------------------------
    double chain = 0.0;
    bool succeeded = false;
    double final_attempt_start = start;  // where the winning attempt began
    std::uint32_t attempt = 1;
    for (; attempt <= plan.max_attempts; ++attempt) {
      const double attempt_duration = base * slow;
      ++out.attempts;
      out.max_attempts_used = std::max(out.max_attempts_used, attempt);
      if (severity > 1.0 && severity > faults.capacity_factor(attempt)) {
        // Intrinsic failure (pipe overflow): the attempt dies once the
        // capacity is exhausted, i.e. after capacity/severity of its work.
        const double consumed =
            attempt_duration * std::min(1.0, faults.capacity_factor(attempt) / severity);
        emit(i, attempt, false, slot, start + chain, start + chain + consumed,
             trace::SpanOutcome::kFailed);
        chain += consumed;
        out.wasted_seconds += consumed;
        ++out.attempts_aborted;
      } else if (faults.crashes_on(phase, i, attempt, node)) {
        const double consumed =
            attempt_duration * faults.crash_fraction(phase, i, attempt);
        emit(i, attempt, false, slot, start + chain, start + chain + consumed,
             trace::SpanOutcome::kFailed);
        chain += consumed;
        out.wasted_seconds += consumed;
        ++out.attempts_aborted;
      } else {
        final_attempt_start = start + chain;
        chain += attempt_duration;
        succeeded = true;
        break;
      }
      const double fail_end = start + chain;
      const bool newly_quarantined = charge_node_failure(node, fail_end);
      if (attempt < plan.max_attempts) {
        if (newly_quarantined) {
          // The node just got blacklisted out from under this retry chain:
          // relaunch on the earliest healthy slot, no sooner than the
          // failure was detected. The abandoned slot is not returned to
          // the heap — its node takes no further work this phase.
          prune();
          require(!heap.empty(), "scheduler: no healthy slots remain");
          const auto [healthy_free, healthy_slot] = heap.top();
          heap.pop();
          start = std::max(healthy_free, fail_end);
          chain = 0.0;
          slot = healthy_slot;
          node = node_of(slot);
        }
        const double backoff = faults.backoff_s(phase, i, attempt);
        chain += backoff;
        out.wasted_seconds += backoff;
      }
    }

    if (!succeeded) {
      out.success = false;
      if (out.first_failed_task == static_cast<std::size_t>(-1)) {
        out.first_failed_task = i;
      }
      const double end = start + chain;
      out.makespan = std::max(out.makespan, end);
      heap.emplace(end, slot);
      continue;
    }

    // ---- Speculative execution -------------------------------------------
    // Hadoop clones a straggler once it runs past a multiple of the pack's
    // median; the clone starts on another slot at full speed, the first
    // finisher wins and the loser is killed (its work wasted but charged).
    // Only clean first-attempt stragglers speculate: a task that already
    // crashed is handled by the retry path above. Both the winner and the
    // race loser reach the commit gate: the winner publishes first, the
    // loser's commit is rejected by the ledger — never double-published.
    const bool straggler = slow > 1.0 && attempt == 1;
    if (plan.speculative_execution && straggler &&
        base * slow > plan.speculation_threshold * median) {
      prune();
      if (!heap.empty()) {
        const double launch_offset = plan.speculation_threshold * median;
        const auto [clone_slot_free, clone_slot] = heap.top();
        heap.pop();
        const double clone_start = std::max(clone_slot_free, start + launch_offset);
        const double clone_end = clone_start + base;
        const double primary_end = start + chain;
        const double winner_end = std::min(primary_end, clone_end);
        ++out.speculative_clones;
        ++out.attempts;
        if (clone_end < primary_end) {
          out.wasted_seconds += winner_end - start;  // primary killed
          publish(i);        // clone wins the race and publishes
          reject_commit(i);  // primary finishes later; its commit bounces
          emit(i, attempt, false, slot, final_attempt_start, winner_end,
               trace::SpanOutcome::kSpeculativeLoser);
          emit(i, attempt + 1, true, clone_slot, clone_start, clone_end,
               trace::SpanOutcome::kOk);
        } else {
          out.wasted_seconds += std::max(0.0, winner_end - clone_start);  // clone killed
          publish(i);        // primary wins and publishes
          reject_commit(i);  // the clone's late commit is rejected
          emit(i, attempt, false, slot, final_attempt_start, primary_end,
               trace::SpanOutcome::kOk);
          emit(i, attempt + 1, true, clone_slot, clone_start,
               std::max(clone_start, winner_end), trace::SpanOutcome::kSpeculativeLoser);
        }
        out.makespan = std::max(out.makespan, winner_end);
        heap.emplace(winner_end, slot);
        heap.emplace(winner_end, clone_slot);
        continue;
      }
    }

    const double end = start + chain;
    publish(i);
    emit(i, attempt, false, slot, final_attempt_start, end, trace::SpanOutcome::kOk);
    out.makespan = std::max(out.makespan, end);
    heap.emplace(end, slot);
  }
  return out;
}

}  // namespace sjc::cluster
