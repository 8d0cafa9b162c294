// HadoopGIS analog: spatial joins over (simulated) Hadoop Streaming.
//
// Faithfully reproduces the pipeline the paper dissects in Section II —
// including its inefficiencies, which are the point of the comparison:
//
//  Preprocessing, per dataset, as SIX separate jobs/steps (Section II.A):
//   1. map-only convert-to-TSV job (reads and rewrites every record);
//   2. map-only sample job (parses every record's WKT just to sample MBRs);
//   3. MR job with a single reducer computing the dataset extent;
//   4. map-only job normalizing the sampled MBRs;
//   5. a *local serial program* generating partitions (samples copied from
//      HDFS to the master and the partition file copied back);
//   6. MR job assigning partition ids (every mapper re-parses records and
//      queries a per-task index; the reducer deduplicates with the
//      cat | sort | uniq idiom — a real string sort here).
//
//  Global join + local join (Section II.B/II.C): the partition ids from
//  preprocessing CANNOT be reused (invisible to Hadoop Streaming), so a
//  joint partition scheme is rebuilt on the master from the two sample
//  files, every mapper of the join job rebuilds an R-tree from it
//  (insert-built, libspatialindex-style), re-parses and re-assigns both
//  datasets, and the reducers run the local join with the slow
//  (GEOS-analog) geometry engine. Duplicated result pairs are removed by a
//  final sort-unique streaming job.
//
// Every record crosses every stage boundary as a text line; the engine
// enforces a per-task pipe capacity, so runs on large inputs die with
// BrokenPipe exactly as HadoopGIS does in Tables 2-3.
#pragma once

#include "core/spatial_join.hpp"
#include "mapreduce/streaming.hpp"
#include "plan/exec_policy.hpp"

namespace sjc::systems {

struct HadoopGisConfig {
  mapreduce::MrConfig mr{
      // Streaming stacks text pipes, Python glue and the GEOS-analog on top
      // of Hadoop: roughly half the effective CPU throughput of the native
      // SpatialHadoop stack.
      .cpu_efficiency = 0.1,
  };
  /// Pipe capacity as a fraction of per-slot node memory (node memory /
  /// cores). Calibrated so the failure matrix of Tables 2-3 reproduces:
  /// full datasets overflow everywhere, sample datasets only on the
  /// small-memory EC2 nodes, after a further derating on multi-node
  /// clusters. See DESIGN.md §5.
  double pipe_capacity_fraction = 0.24;
  /// Geometry engine for refinement. HadoopGIS ships GEOS (the Simple
  /// analog); overriding to kPrepared answers the paper's what-if: how much
  /// of HadoopGIS's slowness is the geometry library?
  geom::EngineKind engine = geom::EngineKind::kSimple;
  /// Fault plan (injected crashes, stragglers, datanode losses) and
  /// recovery budget (max_attempts, backoff, speculation). The default is
  /// trivial: no faults, first failure fatal — the seed model of Tables 2-3.
  cluster::FaultPlan faults;
  /// Adaptive-execution knobs (see plan/exec_policy.hpp):
  ///  - policy.shuffle_filter: master-side occupancy bitmap over the right
  ///    dataset shipped to the join mappers via the distributed cache;
  ///    A-side mappers drop tile line copies that provably match no B
  ///    geometry before the line crosses the streaming pipe (sFilter
  ///    analog). Unset resolves to on.
  ///  - policy.repartition: probe per-tile load after the joint scheme is
  ///    derived on the master and split hotspot tiles before the join job's
  ///    mappers re-assign both datasets; unset resolves to off.
  plan::ExecPolicy policy;
};

core::RunReport run_hadoop_gis(const workload::Dataset& left,
                               const workload::Dataset& right,
                               const core::JoinQueryConfig& query,
                               const core::ExecutionConfig& exec,
                               const HadoopGisConfig& config = {});

/// Runs one cold end-to-end join (identical to run_hadoop_gis) and keeps
/// what its preprocessing produced for resident queries: both inputs'
/// partitioned line files, pre-chunked into the join job's splits, the joint
/// partition scheme, the occupancy bitmaps and the ingest counters. A
/// resident query re-executes only the distributed-join and sort-unique
/// dedup streaming jobs, with IA/IB reported as 0; the shared cache is
/// consulted only under the Prepared engine, like the cold path's run-scoped
/// cache. Throws SjcError when the build run fails.
core::ResidentJoin hadoop_gis_resident(const workload::Dataset& left,
                                       const workload::Dataset& right,
                                       const core::JoinQueryConfig& query,
                                       const core::ExecutionConfig& exec,
                                       const HadoopGisConfig& config = {});

}  // namespace sjc::systems
