// The timed client loops: cold Table-2 cells through core::run_spatial_join,
// and resident joins plus range / k-NN lookups through serving::QueryService.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "serving/resident_catalog.hpp"

namespace pb {

struct LookupSample {
  bool knn = false;
  double latency_us = 0.0;  // admission -> completion, service-side
  double queue_ms = 0.0;    // service-side
  double service_ms = 0.0;
  bool correct = false;
};

/// The lookups of one kind: how many completed, and a uniform sample of at
/// most kLookupSampleCap of them (reservoir sampling), so that memory stays
/// flat however many lookups a run completes.
struct LookupSamples {
  static constexpr std::size_t kLookupSampleCap = 20000;
  std::uint64_t seen = 0;
  std::vector<LookupSample> kept;
};

/// getrusage(RUSAGE_SELF) over one timed loop.
struct UsageDelta {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t voluntary_ctx = 0;
  std::uint64_t involuntary_ctx = 0;
};

struct CacheDelta {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

/// One timed loop, accumulated over the run's datasets.
struct LoopResult {
  bool traced = false;
  int passes = 0;  // cold passes or resident rounds so far
  double elapsed_s = 0.0;
  std::uint64_t ops = 0;    // operations completed (expected failures included)
  std::uint64_t wrong = 0;  // operations with a wrong outcome
  std::vector<std::string> joins;  // serialized join records (see join_record)
  UsageDelta usage;
  std::vector<double> peak_rss_bytes;  // per pass (cold) or round (resident)
  // Resident workload only.
  LookupSamples lookups[2];  // [0] range, [1] k-NN
  std::map<std::string, CacheDelta> cache;  // per catalog entry
  std::uint64_t rejected = 0;               // admission rejections
  std::vector<double> join_queue_ms;
  std::vector<double> join_service_ms;
};

/// Resident entries are installed on this cluster (the paper's EC2-10).
sjc::cluster::ClusterSpec resident_cluster();

/// Runs one pass over all systems x paper clusters on one dataset,
/// appending to `out`; returns the pass's seconds.
double run_cold_pass(const WorkloadSpec& spec, const Inputs& inputs, std::size_t dataset,
                     const Reference& ref, LoopResult& out);

/// Installs the SpatialHadoop and SpatialSpark entries (replacing earlier
/// ones of the same name).
void install_resident(sjc::serving::ResidentCatalog& catalog, const WorkloadSpec& spec,
                      const Inputs& inputs, bool traced);

/// One untimed join per entry, so the timed loop starts from a steady cache.
void warm_resident(const sjc::serving::ResidentCatalog& catalog, const WorkloadSpec& spec);

/// Runs rounds of resident joins and a fixed block of range / k-NN lookups,
/// all from one client, until `seconds` of rounds have elapsed on one
/// dataset, appending to `out`.
void run_resident(const WorkloadSpec& spec, std::size_t dataset,
                  const sjc::serving::ResidentCatalog& catalog, const Reference& ref,
                  const std::vector<Lookup>& lookups, double seconds, LoopResult& out);

}  // namespace pb
