// SpatialSpark analog: partition-based spatial join on the (simulated)
// Spark RDD engine.
//
// Pipeline (paper Section II, Fig. 1c):
//  1. read both inputs from HDFS — the only DFS interaction in the run;
//  2. sample ONE side (the right/indexed side) with the engine's built-in
//     sample(); derive partition MBRs on the driver; broadcast the
//     partition R-tree to all executors (no HDFS involved);
//  3. assign partition ids to the data items of BOTH sides by querying the
//     broadcast index (flatMap);
//  4. groupByKey both sides, then join on partition id — an integer hash
//     join, cheaper than a spatial master-side join;
//  5. a final map runs the local join per partition pair: STR-indexed
//     nested loop (natural under Scala, per the paper) + refinement with
//     the fast (JTS-analog) engine; reference-point duplicate avoidance.
//
// Everything between the initial read and the final collect lives in
// executor memory; when the working set (inputs + per-partition copies +
// shuffle buffers, JVM-inflated) exceeds usable memory the run dies with
// SimOutOfMemory — Spark 1.1 cannot spill this pipeline, which is exactly
// the paper's EC2-8/EC2-6 failure.
//
// The broadcast-based join variant (the paper's earlier design, left for
// future-work comparison) is also provided: the full right-side index and
// data are broadcast, and the left side probes it directly with no shuffle.
// Both plans share stages 1-2. Every RDD ships 8-byte FeatureRef handles
// into a run-scoped feature store while its sizer charges the referenced
// record's full modeled bytes.
#pragma once

#include "core/spatial_join.hpp"
#include "plan/exec_policy.hpp"
#include "rdd/spark_runtime.hpp"

namespace sjc::geom {
class PreparedCache;
}

namespace sjc::systems {

struct SpatialSparkConfig {
  rdd::SparkConfig spark;
  index::LocalJoinAlgorithm local_algorithm = index::LocalJoinAlgorithm::kIndexedNestedLoop;
  /// Per-record JVM object overhead added to every element's accounted
  /// size (boxed Scala objects, collection nodes). Calibrated together with
  /// SparkConfig::memory_reserve_per_node so the OOM matrix of Table 2
  /// reproduces; see DESIGN.md §5.
  std::uint64_t record_overhead_bytes = 150;
  /// Use the broadcast-based join instead of the partition-based one. It
  /// runs the same read/parse/sample/scheme stages on the same FeatureRef
  /// plane, then broadcasts the right side with its STR index instead of
  /// shuffling both sides.
  bool broadcast_join = false;
  /// Geometry engine for refinement (JTS analog by default).
  geom::EngineKind engine = geom::EngineKind::kPrepared;
  /// Adaptive-execution knobs (see plan/exec_policy.hpp):
  ///  - policy.shuffle_filter: map-side occupancy-bitmap filter (sFilter
  ///    analog) on both sides' assign stages of the partition-based join;
  ///    unset resolves to on. The broadcast join shuffles nothing, so it
  ///    never filters.
  ///  - policy.repartition: probe per-cell shuffle load right after the
  ///    driver derives the scheme and quad-split hotspot cells before the
  ///    scheme is broadcast; unset resolves to off.
  ///  - policy.cost_based_plan: let plan::choose_plan() pick broadcast vs
  ///    partitioned per run instead of the static broadcast_join flag.
  plan::ExecPolicy policy;
};

core::RunReport run_spatial_spark(const workload::Dataset& left,
                                  const workload::Dataset& right,
                                  const core::JoinQueryConfig& query,
                                  const core::ExecutionConfig& exec,
                                  const SpatialSparkConfig& config = {});

/// Resident (serving-mode) state for the partition-based join:
/// the parsed feature store, the per-chunk FeatureRef views, the partition
/// scheme and the occupancy filters, all captured from one cold build run
/// (capture-on-build). Queries answered from this state re-execute only the
/// assign -> groupByKey -> join -> local-join tail and are bit-identical to
/// the cold batch path. Cheap to copy (shared immutable state).
class SpatialSparkResident {
 public:
  SpatialSparkResident() = default;

  /// The full RunReport of the cold run that built this state (ingest cost).
  const core::RunReport& build_report() const;
  std::size_t left_size() const;
  std::size_t right_size() const;

  struct Impl;

 private:
  friend SpatialSparkResident spatial_spark_build_resident(
      const workload::Dataset& left, const workload::Dataset& right,
      const core::JoinQueryConfig& query, const core::ExecutionConfig& exec,
      const SpatialSparkConfig& config);
  friend core::RunReport run_spatial_spark_resident(
      const SpatialSparkResident& resident, const core::JoinQueryConfig& query,
      const core::ExecutionConfig& exec, const SpatialSparkConfig& config,
      geom::PreparedCache* shared_cache);

  std::shared_ptr<const Impl> impl_;
};

/// Runs one cold partition-based join and captures its preprocessing
/// products for resident reuse. Requires the partition-based plan (not
/// broadcast_join); throws SjcError when the build run fails.
SpatialSparkResident spatial_spark_build_resident(
    const workload::Dataset& left, const workload::Dataset& right,
    const core::JoinQueryConfig& query, const core::ExecutionConfig& exec,
    const SpatialSparkConfig& config = {});

/// Answers one join query from resident state: fresh runtime + report per
/// query, but the read/parse/sample/partition/filter-build stages are
/// skipped — their products come from the catalog. `shared_cache`, when
/// non-null, is a cross-query geom::PreparedCache owned by the caller (the
/// serving catalog); pair sets and refine.*/shuffle.* counters are
/// bit-identical to the cold path either way. The query must use the same
/// envelope expansion as the build (same predicate family); a mismatch
/// yields a kInvalidArgument report.
core::RunReport run_spatial_spark_resident(const SpatialSparkResident& resident,
                                           const core::JoinQueryConfig& query,
                                           const core::ExecutionConfig& exec,
                                           const SpatialSparkConfig& config = {},
                                           geom::PreparedCache* shared_cache = nullptr);

}  // namespace sjc::systems
