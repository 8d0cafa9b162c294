// Run metrics: per-phase simulated time and I/O volumes.
//
// Every engine phase (an MR job's map/shuffle/reduce, an RDD stage, a
// master-side serial step) appends a PhaseReport. The systems aggregate
// phases into the IA / IB / DJ breakdown columns of the paper's Table 3 and
// the end-to-end totals of Table 2.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sjc::cluster {

struct PhaseReport {
  std::string name;
  double sim_seconds = 0.0;
  std::uint64_t bytes_read = 0;      // scaled magnitude (local/DFS reads)
  std::uint64_t bytes_written = 0;   // scaled magnitude
  std::uint64_t bytes_shuffled = 0;  // scaled magnitude
  std::size_t task_count = 0;
  /// Streaming phases only: largest per-task pipe volume at paper
  /// magnitude (drives the broken-pipe analysis).
  std::uint64_t max_task_pipe_bytes = 0;

  // ---- recovery accounting (fault-injected runs; zero otherwise) ----------
  /// Task attempts launched, including retries and speculative clones
  /// (== task_count on a clean phase; 0 for master-side serial phases).
  std::uint64_t task_attempts = 0;
  /// Speculative duplicates launched for stragglers.
  std::uint64_t speculative_clones = 0;
  /// Seconds of discarded work: failed attempts, retry backoff, and the
  /// losing side of speculative races.
  double wasted_seconds = 0.0;
  /// RDD partitions recomputed from lineage after executor loss.
  std::uint64_t recomputed_partitions = 0;
  /// Bytes copied by the DFS to restore replication after datanode loss
  /// (paper magnitude).
  std::uint64_t rereplicated_bytes = 0;

  // ---- output-commit ledger (see scheduler.hpp ScheduleOutcome) -----------
  /// Winning attempts whose output was published (one per finished task;
  /// master-side serial steps count as one published commit).
  std::uint64_t commits_published = 0;
  /// Speculative race losers whose commit the ledger rejected.
  std::uint64_t commits_rejected = 0;
  /// Failed attempts that aborted without committing.
  std::uint64_t attempts_aborted = 0;
  /// Nodes blacklisted during this phase.
  std::uint64_t nodes_quarantined = 0;
};

class RunMetrics {
 public:
  void add_phase(PhaseReport phase) { phases_.push_back(std::move(phase)); }

  const std::vector<PhaseReport>& phases() const { return phases_; }

  /// Largest per-task pipe volume across all streaming phases.
  std::uint64_t max_task_pipe_bytes() const {
    std::uint64_t best = 0;
    for (const auto& p : phases_) {
      if (p.max_task_pipe_bytes > best) best = p.max_task_pipe_bytes;
    }
    return best;
  }

  /// One field summed over every phase in phase order, e.g.
  /// total(&PhaseReport::bytes_read).
  template <typename T>
  T total(T PhaseReport::*field) const {
    T sum{};
    for (const auto& p : phases_) sum += p.*field;
    return sum;
  }

  double total_seconds() const { return total(&PhaseReport::sim_seconds); }

  /// Sums sim_seconds of phases whose name starts with `prefix` (phases are
  /// named "<stage>/<detail>", e.g. "indexA/map").
  double seconds_with_prefix(const std::string& prefix) const;

  /// Multi-line human-readable summary.
  std::string to_string() const;

 private:
  std::vector<PhaseReport> phases_;
};

}  // namespace sjc::cluster
