// Layer replays for the traced run: the benchmark times direct calls into
// the partition, index, geom and serving modules on the workload's own
// inputs, so each layer gets a figure without instrumentation in src/.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "serving/resident_catalog.hpp"

namespace pb {

struct ReplayResult {
  double sample_scheme_cpu_s = 0.0;     // sample both sides + make_partitions
  double assign_cpu_s = 0.0;            // assign_into over both sides
  double assign_ns_per_record = 0.0;
  double dup_ratio = 0.0;               // assignments / records
  double mbr_ns_per_candidate = 0.0;    // local_mbr_join, each system's algorithm
  double candidates_per_result = 0.0;   // MBR candidates / reference pairs
  double refine_ns_per_candidate = 0.0; // BatchRefiner over every candidate
  double dedup_ratio = 0.0;             // distinct pairs / pairs before dedup
  double cache_acquire_ns = 0.0;        // PreparedCache::acquire_refiner, nproc threads
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  bool pairs_match_reference = false;   // distinct refined pairs == reference
};

/// Replays partition -> MBR filter -> refine -> dedup over a joint STR
/// scheme sized for `cluster`, `reps` times; times are medians.
ReplayResult replay_layers(const WorkloadSpec& spec, const Inputs& inputs,
                           const sjc::cluster::ClusterSpec& cluster, const Reference& ref,
                           int reps);

/// Median microseconds of direct ResidentEntry::run_range / run_knn calls,
/// each answer checked against the brute-force one.
struct LookupTiming {
  double range_us = 0.0;
  double knn_us = 0.0;
  bool answers_match = true;  // every answer equals the brute-force one
};
LookupTiming time_entry_lookups(const sjc::serving::ResidentEntry& entry,
                                const std::vector<Lookup>& lookups);

/// Same lookups against a freshly built STR tree (the cold workloads' path).
LookupTiming time_tree_lookups(const Inputs& inputs, const std::vector<Lookup>& lookups);

}  // namespace pb
