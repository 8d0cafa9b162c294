// Public facade of the library: distributed spatial join queries against
// simulated Cloud systems.
//
// Usage:
//   auto report = sjc::core::run_spatial_join(
//       sjc::core::SystemKind::kSpatialSparkSim, left, right, query, exec);
//   if (report.status.ok()) { ... report.join_seconds ... }
//
// The three SystemKind values correspond to the paper's three systems; each
// executes the full three-stage pipeline (preprocess / global join / local
// join, Fig. 1) on its own substrate and returns the paper's measurement
// breakdown (IA / IB / DJ / TOT) plus full per-phase metrics.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "cluster/counters.hpp"
#include "cluster/metrics.hpp"
#include "trace/trace.hpp"
#include "util/status.hpp"
#include "geom/engine.hpp"
#include "partition/partitioner.hpp"
#include "workload/dataset.hpp"

namespace sjc::geom {
class PreparedCache;
}

namespace sjc::core {

enum class SystemKind {
  kHadoopGisSim = 0,     // Hadoop Streaming + slow (GEOS-analog) geometry
  kSpatialHadoopSim = 1, // native Hadoop + fast (JTS-analog) geometry
  kSpatialSparkSim = 2,  // RDD engine + fast (JTS-analog) geometry
};

const char* system_kind_name(SystemKind kind);

enum class JoinPredicate {
  /// Exact-geometry intersection (the paper's polyline x polyline join).
  kIntersects = 0,
  /// Right covers left — point-in-polygon when the left side is points (the
  /// paper's taxi x census-block join).
  kWithin = 1,
  /// distance(left, right) <= d (the paper's motivating
  /// point-to-nearest-road example, included as an extension).
  kWithinDistance = 2,
};

const char* join_predicate_name(JoinPredicate predicate);

struct JoinPair {
  std::uint64_t left_id = 0;
  std::uint64_t right_id = 0;

  friend bool operator==(const JoinPair&, const JoinPair&) = default;
  friend bool operator<(const JoinPair& a, const JoinPair& b) {
    return a.left_id != b.left_id ? a.left_id < b.left_id : a.right_id < b.right_id;
  }
};

/// Order-independent digest of a pair set; equal pair sets hash equal, so
/// the three systems can be cross-validated without materializing pairs.
std::uint64_t hash_pairs_unordered(const std::vector<JoinPair>& pairs);

struct JoinQueryConfig {
  JoinPredicate predicate = JoinPredicate::kIntersects;
  double within_distance = 0.0;  // used by kWithinDistance

  /// Target partition cells; 0 = 2 cells per cluster slot.
  std::uint32_t target_partitions = 0;
  /// Sample rate used to derive partition boundaries.
  double sample_rate = 0.01;
  /// Partitioning strategy for sampled boundaries.
  partition::PartitionerKind partitioner = partition::PartitionerKind::kStr;
  std::uint64_t seed = 7;
};

struct ExecutionConfig {
  cluster::ClusterSpec cluster = cluster::ClusterSpec::workstation();
  /// paper records / generated records (1/workload scale); all simulated
  /// times and capacities are expressed at paper magnitude through this.
  double data_scale = 1000.0;
  /// Keep the joined (left_id, right_id) pairs in the report (tests); when
  /// false only count and hash are kept (benches). Either way the run
  /// charges the same modeled work.
  bool collect_pairs = false;
  /// Collect a per-task trace timeline (RunReport::trace): one TaskSpan per
  /// scheduled attempt, exportable as Chrome trace.json. Tracing is
  /// accounting-neutral — under virtual time a traced run's report is
  /// bit-identical to an untraced one.
  bool trace = false;
};

struct RunReport {
  /// Outcome of the run: Ok on success, else the Status mapped from the
  /// SimFailure/SjcError that killed it (status_from_exception). Harnesses
  /// branch on status.code(); status.message() carries the failure text
  /// (e.g. "broken pipe ...", "out of memory ...") and bench binaries print
  /// status.to_string() as the one-line diagnosis. A default-constructed
  /// report has not run yet: the drivers set the status on every path.
  sjc::Status status{StatusCode::kInternal, "not run"};

  /// Total task attempts launched across all phases (retries and
  /// speculative clones included); equals the task count on a clean run.
  std::uint64_t attempts_used = 0;
  /// True when the run succeeded but only through recovery work: task
  /// retries, speculative clones, lineage recomputes or DFS re-replication.
  bool recovered = false;

  /// The paper's Table 3 breakdown (seconds at paper magnitude). For the
  /// SpatialSpark analog only `total_seconds` is meaningful, matching the
  /// paper's note that Spark stages cannot be attributed cleanly.
  double index_a_seconds = std::nan("");
  double index_b_seconds = std::nan("");
  double join_seconds = std::nan("");
  double total_seconds = std::nan("");

  std::size_t result_count = 0;
  std::uint64_t result_hash = 0;
  std::vector<JoinPair> pairs;  // filled when ExecutionConfig::collect_pairs

  /// Peak executor working set at paper magnitude (SpatialSpark analog
  /// only; 0 otherwise). Drives the OOM analysis in EXPERIMENTS.md.
  std::uint64_t peak_memory_bytes = 0;

  cluster::RunMetrics metrics;  // full per-phase detail

  /// Per-attempt timeline (empty unless ExecutionConfig::trace): exported
  /// via trace::write_chrome_trace / summarized via trace::skew_summary.
  trace::TaskTimeline trace;

  /// Hadoop-style named counters accumulated by the run (records assigned,
  /// duplicates removed, candidate vs refined pairs, ...).
  cluster::Counters counters;
};

/// Resident (serving-mode) join state for one dataset pair on one system,
/// built by systems::hadoop_gis_resident, spatial_hadoop_resident or
/// spatial_spark_resident: the report of the cold run that built it, and a
/// runner over the preprocessing products that run captured
/// (capture-on-build). A resident query re-executes only the system's join
/// stages on a fresh runtime. Its pair set and counters match the cold
/// batch run's: the MapReduce systems replay their ingest counters, and
/// SpatialSpark, which runs fewer stages, differs only in commit.published.
/// Copies share the captured state, which is immutable, so `run` may be
/// called concurrently.
struct ResidentJoin {
  RunReport build_report;
  /// Answers one join query. `shared_cache`, when non-null, is a cross-query
  /// geom::PreparedCache owned by the caller (the serving catalog). A query
  /// whose envelope expansion differs from the build's yields a
  /// kInvalidArgument report; simulated failures come back as failed
  /// reports, never exceptions.
  std::function<RunReport(const JoinQueryConfig& query, geom::PreparedCache* shared_cache)>
      run;
};

/// Partition-cell count actually used for a query: the explicit target, or
/// max(128, 2 x cluster slots). The floor keeps single hot cells (downtown
/// taxi hotspots) from dominating a wave, mirroring the many-partitions
/// configuration of the real systems (64 MB HDFS blocks / hundreds of RDD
/// partitions).
std::uint32_t effective_target_partitions(const JoinQueryConfig& query,
                                          const cluster::ClusterSpec& cluster);

/// Sample rate actually used when deriving partitions from a dataset of
/// `dataset_size` records: at least the configured rate, raised so the
/// expected sample holds ~4 points per target cell (partitioners degenerate
/// on near-empty samples — a scale artifact the real systems avoid by
/// sampling fixed counts).
double effective_sample_rate(double configured_rate, std::size_t dataset_size,
                             std::uint32_t target_cells);

/// Envelope expansion applied to both sides of a join (partition
/// assignment, MBR filter, reference point): d/2 for within-distance joins,
/// which guarantees that any pair within distance d has intersecting
/// expanded envelopes; 0 otherwise.
double envelope_expansion(JoinPredicate predicate, double within_distance);

/// The span sink of a run's phase recorder: `report.trace`, laid out as
/// `exec.cluster`'s nodes and per-node slots, or null when the run is not
/// traced. The recorder appends on the thread driving the run, so the
/// timeline has one writer and no lock.
trace::TaskTimeline* trace_sink(RunReport& report, const ExecutionConfig& exec);

/// The epilogue every system driver's entry points end in, success or
/// failure: with `breakdown`, the IA/IB/DJ columns from the "A/", "B/" and
/// "join/" phases (the MapReduce systems' Table-3 breakdown); the
/// end-to-end total; the trace in canonical order (trace::sort_spans); and
/// the recovery summary (`attempts_used`, `recovered`).
void finish_report(RunReport& report, bool breakdown);

/// Every accounting invariant `report` violates, one line each; empty when
/// it holds them all. A counter the report lacks counts as 0.
///  * shuffle.assigned_records == shuffle.records + shuffle.filtered_records;
///  * refine.exact_fastpath + refine.exact_slowpath == refine.exact_tests;
///  * refine.exact_tests + refine.early_accepts + refine.early_rejects ==
///    refine.candidates;
///  * where the plan decided the shuffle filter, plan.filter_chosen is 0 or
///    1, plan.filter_rescued is at most plan.filter_chosen, and a declined
///    filter dropped nothing (shuffle.filtered_records 0);
///  * the commit ledger of every phase: each task attempt published, was
///    rejected or aborted, and on a successful run a phase with tasks
///    published one output per task.
std::vector<std::string> check_invariants(const RunReport& report);

/// Runs one distributed spatial join on the chosen system. Simulated
/// failures (BrokenPipe, TaskFailed, SimOutOfMemory, lifecycle kills) are
/// captured in the report; other exceptions (bugs, bad arguments)
/// propagate.
RunReport run_spatial_join(SystemKind system, const workload::Dataset& left,
                           const workload::Dataset& right, const JoinQueryConfig& query,
                           const ExecutionConfig& exec);

}  // namespace sjc::core
