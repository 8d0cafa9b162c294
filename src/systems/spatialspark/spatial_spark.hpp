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
// The broadcast-based join (the paper's earlier design, left for future-work
// comparison) is the other physical plan: the full right-side index and data
// are broadcast, and the left side probes it directly with no shuffle.
// SpatialSparkConfig::join_plan picks one of the two, or leaves the choice to
// plan::choose_plan(). Both plans share stages 1-2. Every RDD ships 8-byte
// FeatureRef handles into a run-scoped feature store while its sizer charges
// the referenced record's full modeled bytes (plus plan::kRecordOverheadBytes).
#pragma once

#include <optional>

#include "cluster/fault_injector.hpp"
#include "core/spatial_join.hpp"
#include "plan/cost_model.hpp"
#include "plan/exec_policy.hpp"

namespace sjc::systems {

struct SpatialSparkConfig {
  /// Fault plan (injected crashes, stragglers, datanode losses) and
  /// recovery budget. Trivial by default. Datanode-loss events double as
  /// executor losses: the DFS re-replicates the node's blocks and Spark
  /// recomputes its cached partitions from lineage.
  cluster::FaultPlan faults;
  /// The physical plan: the partition-based join (the paper's SpatialSpark,
  /// the default) or the broadcast-based one, which runs the same
  /// read/parse/sample/scheme stages on the same FeatureRef plane, then
  /// broadcasts the right side with its STR index instead of shuffling both
  /// sides. Unset lets plan::choose_plan() pick per run once those shared
  /// stages ran, with the partitioned plan's filter decision as its
  /// filter_selectivity; plan.* counters log the prediction.
  std::optional<plan::PlanKind> join_plan = plan::PlanKind::kPartitionedJoin;
  /// Geometry engine for refinement (JTS analog by default).
  geom::EngineKind engine = geom::EngineKind::kPrepared;
  /// Adaptive-execution knobs (see plan/exec_policy.hpp):
  ///  - policy.shuffle_filter: map-side occupancy-bitmap filter (sFilter
  ///    analog) on both sides' assign stages of the partition-based join;
  ///    unset lets the plan decide (core::FilterDecision). The broadcast
  ///    join shuffles nothing, so it never filters.
  ///  - policy.repartition: probe per-cell shuffle load right after the
  ///    driver derives the scheme and quad-split hotspot cells before the
  ///    scheme is broadcast; unset resolves to off.
  plan::ExecPolicy policy;
};

core::RunReport run_spatial_spark(const workload::Dataset& left,
                                  const workload::Dataset& right,
                                  const core::JoinQueryConfig& query,
                                  const core::ExecutionConfig& exec,
                                  const SpatialSparkConfig& config = {});

/// Runs one cold partition-based join and keeps what its preprocessing
/// produced for resident queries: the parsed feature store, the per-chunk
/// FeatureRef views, the partition scheme and the occupancy filters. A
/// resident query re-executes only the assign -> groupByKey -> join ->
/// local-join tail; no dataset is copied. Rejects any join_plan but
/// kPartitionedJoin with InvalidArgument, because the broadcast plan has no
/// resident tail. Throws SjcError when the build run fails.
core::ResidentJoin spatial_spark_resident(const workload::Dataset& left,
                                          const workload::Dataset& right,
                                          const core::JoinQueryConfig& query,
                                          const core::ExecutionConfig& exec,
                                          const SpatialSparkConfig& config = {});

}  // namespace sjc::systems
