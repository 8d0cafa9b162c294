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

namespace sjc::systems {

struct SpatialHadoopConfig {
  mapreduce::MrConfig mr;
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
  ///    resolves to on.
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

/// Runs one cold end-to-end join (identical to run_spatial_hadoop, including
/// the filtered indexing order) and keeps what its preprocessing produced for
/// resident queries: copies of both datasets, which the partition blocks
/// index into, the two indexed partition directories (built over the copies,
/// so the caller's datasets need not outlive the result), the envelope
/// expansion both were built with and the ingest counters. The paper notes
/// "SpatialHadoop can run faster when re-partitioning can be skipped": a
/// resident query starts at getSplits and re-executes only the global join
/// and the map-only local join, so IA/IB report as 0 and DJ == TOT.
/// (HadoopGIS cannot skip it: its preprocessing partition ids are invisible
/// to the streaming join and get recomputed every time.) Throws SjcError
/// when the build run fails.
core::ResidentJoin spatial_hadoop_resident(const workload::Dataset& left,
                                           const workload::Dataset& right,
                                           const core::JoinQueryConfig& query,
                                           const core::ExecutionConfig& exec,
                                           const SpatialHadoopConfig& config = {});

}  // namespace sjc::systems
