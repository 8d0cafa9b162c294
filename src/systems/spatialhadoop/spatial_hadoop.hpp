// SpatialHadoop analog: spatial joins tightly integrated with (simulated)
// native Hadoop.
//
// Pipeline (paper Section II, Fig. 1b):
//
//  Preprocessing, per dataset (two MR jobs):
//    1. sample job  — map-only scan that samples record MBRs; the partition
//       scheme is then derived centrally and written as the "_master" file;
//    2. partition job — full MR: map assigns each record to every partition
//       cell its MBR intersects; shuffle groups records by partition id;
//       reduce writes one block file per partition, with an STR index
//       packed into the block ("indexes built virtually for free").
//
//  Global join:
//    implemented *inside getSplits()* on the master node: read both
//    _master files, plane-sweep join the partition MBRs, and emit one input
//    split per overlapping (cellA, cellB) pair.
//
//  Local join (map-only job, no shuffle):
//    each map task reads its two block files and performs the serial
//    filter+refine join (plane-sweep by default, per the paper), using the
//    fast (JTS-analog) geometry engine. Duplicate results from overlap
//    partitioning are avoided with the reference-point technique, so no
//    dedup pass is needed.
//
// SpatialHadoop never buffers a dataset in memory — every stage spills
// through the DFS — which is exactly why it is the robustness winner in the
// paper: this analog has no failure modes.
#pragma once

#include "core/spatial_join.hpp"
#include "mapreduce/mr_context.hpp"
#include "plan/exec_policy.hpp"

namespace sjc::geom {
class PreparedCache;
}

namespace sjc::systems {

struct SpatialHadoopConfig {
  mapreduce::MrConfig mr;
  /// Serial in-partition join algorithm; the paper names plane-sweep and
  /// synchronized R-tree traversal as SpatialHadoop's options.
  index::LocalJoinAlgorithm local_algorithm = index::LocalJoinAlgorithm::kPlaneSweep;
  /// Geometry engine for refinement (JTS analog by default; override to
  /// kSimple to measure what SpatialHadoop would lose on GEOS).
  geom::EngineKind engine = geom::EngineKind::kPrepared;
  /// Fault plan and recovery budget. Trivial by default — SpatialHadoop
  /// has no intrinsic failure modes, so only injected faults (crashes past
  /// max_attempts, losing every replica of a block) can make it fail.
  cluster::FaultPlan faults;
  /// Adaptive-execution knobs (see plan/exec_policy.hpp):
  ///  - policy.shuffle_filter: index the resident (right) dataset first,
  ///    build a per-cell occupancy bitmap from its partition blocks, and
  ///    drop streamed (left) record copies that provably match nothing in
  ///    the target cell before they are shuffled (sFilter analog). Unset
  ///    resolves to on. The pre-indexed join path
  ///    (run_spatial_hadoop_indexed) never filters — both inputs are
  ///    partitioned before the join pairing is known.
  ///  - policy.repartition: probe per-cell load after the sample job derives
  ///    a dataset's scheme and split hotspot cells on the master before the
  ///    partition MR job writes blocks; unset resolves to off.
  plan::ExecPolicy policy;
};

core::RunReport run_spatial_hadoop(const workload::Dataset& left,
                                   const workload::Dataset& right,
                                   const core::JoinQueryConfig& query,
                                   const core::ExecutionConfig& exec,
                                   const SpatialHadoopConfig& config = {});

/// A persisted SpatialHadoop index: the partition scheme plus the written
/// block files, reusable across joins. Blocks hold indices into the indexed
/// dataset's feature array, so the source Dataset must outlive the index.
/// The paper notes "SpatialHadoop can
/// run faster when re-partitioning can be skipped" — i.e. when both inputs
/// are already indexed, the distributed join starts directly at getSplits.
/// (HadoopGIS cannot do this: its preprocessing partition ids are invisible
/// to the streaming join and get recomputed every time.)
class SpatialHadoopIndex {
 public:
  /// Cost of building this index (the IA or IB column).
  double build_seconds() const;
  const cluster::RunMetrics& build_metrics() const { return metrics_; }
  const std::string& dataset_name() const { return name_; }
  std::size_t partition_count() const;

 private:
  friend SpatialHadoopIndex spatial_hadoop_build_index(const workload::Dataset&,
                                                       const core::JoinQueryConfig&,
                                                       const core::ExecutionConfig&,
                                                       const SpatialHadoopConfig&);
  friend core::RunReport run_spatial_hadoop_indexed(const SpatialHadoopIndex&,
                                                    const SpatialHadoopIndex&,
                                                    const core::JoinQueryConfig&,
                                                    const core::ExecutionConfig&,
                                                    const SpatialHadoopConfig&);
  struct Impl;
  std::shared_ptr<const Impl> impl_;
  cluster::RunMetrics metrics_;
  std::string name_;
};

/// Runs the two preprocessing MR jobs for one dataset and returns the
/// persisted index.
SpatialHadoopIndex spatial_hadoop_build_index(const workload::Dataset& data,
                                              const core::JoinQueryConfig& query,
                                              const core::ExecutionConfig& exec,
                                              const SpatialHadoopConfig& config = {});

/// Joins two pre-indexed datasets: getSplits + the map-only local join,
/// skipping both indexing phases. The report's IA/IB are 0 and DJ == TOT.
core::RunReport run_spatial_hadoop_indexed(const SpatialHadoopIndex& left,
                                           const SpatialHadoopIndex& right,
                                           const core::JoinQueryConfig& query,
                                           const core::ExecutionConfig& exec,
                                           const SpatialHadoopConfig& config = {});

/// Resident (serving-mode) state for one dataset pair: owned copies of both
/// datasets plus the two indexed partition directories the cold driver's own
/// preprocessing built over them (capture-on-build), including the shuffle
/// filter when the cold path would use one. A resident query re-executes
/// only getSplits + the map-only local join; the ingest-time counters
/// (partition.*, shuffle.*) are replayed into the query's report so the
/// full counter set matches a cold batch run exactly. Cheap to copy
/// (shared immutable state).
class SpatialHadoopResident {
 public:
  SpatialHadoopResident() = default;

  /// The full RunReport of the cold run that built this state (ingest cost).
  const core::RunReport& build_report() const;
  std::size_t left_size() const;
  std::size_t right_size() const;

  struct Impl;

 private:
  friend SpatialHadoopResident spatial_hadoop_build_resident(
      const workload::Dataset& left, const workload::Dataset& right,
      const core::JoinQueryConfig& query, const core::ExecutionConfig& exec,
      const SpatialHadoopConfig& config);
  friend core::RunReport run_spatial_hadoop_resident(
      const SpatialHadoopResident& resident, const core::JoinQueryConfig& query,
      const core::ExecutionConfig& exec, const SpatialHadoopConfig& config,
      geom::PreparedCache* shared_cache);

  std::shared_ptr<const Impl> impl_;
};

/// Runs one cold end-to-end join (identical to run_spatial_hadoop, including
/// the filtered indexing order) and captures both indexed datasets for
/// resident reuse. Throws SjcError when the build run fails.
SpatialHadoopResident spatial_hadoop_build_resident(
    const workload::Dataset& left, const workload::Dataset& right,
    const core::JoinQueryConfig& query, const core::ExecutionConfig& exec,
    const SpatialHadoopConfig& config = {});

/// Answers one join query from resident state: getSplits + map-only local
/// join on a fresh runtime, with IA/IB reported as 0 (like the pre-indexed
/// path) and ingest counters replayed for parity with the cold path.
/// `shared_cache`, when non-null, is a cross-query geom::PreparedCache owned
/// by the caller (the serving catalog). The query must use the same envelope
/// expansion as the build; a mismatch yields a kInvalidArgument report.
core::RunReport run_spatial_hadoop_resident(const SpatialHadoopResident& resident,
                                            const core::JoinQueryConfig& query,
                                            const core::ExecutionConfig& exec,
                                            const SpatialHadoopConfig& config = {},
                                            geom::PreparedCache* shared_cache = nullptr);

}  // namespace sjc::systems
