#include "systems/spatialhadoop/spatial_hadoop.hpp"

#include <memory>

#include "core/feature_view.hpp"
#include "core/partition_plane.hpp"
#include "index/str_tree.hpp"
#include "mapreduce/map_reduce.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace sjc::systems {

namespace {

using core::JoinPair;

/// One partition block file: the records shuffled into a partition plus the
/// STR index packed at the head of the block. The block stores `indices`
/// into the source dataset's stable feature span (`base`) instead of feature
/// copies; `text_bytes` is the modeled on-disk size.
struct PartBlock {
  std::span<const geom::Feature> base;
  std::vector<std::uint32_t> indices;
  std::uint64_t text_bytes = 0;

  core::FeatureIndexSpan view() const { return {base, indices}; }
};

struct IndexedDataset {
  partition::PartitionScheme scheme{std::vector<geom::Envelope>{geom::Envelope(0, 0, 1, 1)},
                                    geom::Envelope(0, 0, 1, 1)};
  std::vector<std::shared_ptr<PartBlock>> blocks;  // by partition id
  std::string dfs_prefix;
};

/// What the shuffle filter is built from: the already-indexed resident
/// (right) dataset. The streamed side marks every resident block's expanded
/// record envelopes into each of its own cells that intersect the resident
/// cell, so any (cellA, cellB) split the global join can later pair is
/// covered by construction.
struct FilterSource {
  const IndexedDataset* indexed;
  const workload::Dataset* data;
};

/// The two preprocessing MR jobs for one dataset ("indexA"/"indexB" in the
/// paper's Table 3 breakdown). When `filter_source` is non-null a per-cell
/// occupancy bitmap is derived from it on the master (a third, cheap
/// master-side step) and the partition job drops record copies the bitmap
/// proves can match nothing in their target cell. With the filter knob on,
/// both datasets' partition jobs report shuffle.* (so assigned == shuffled +
/// filtered holds globally).
IndexedDataset index_dataset(mapreduce::MrContext& ctx, const workload::Dataset& data,
                             const std::string& tag, const core::PartitionPlane& plane,
                             const core::JoinQueryConfig& query,
                             const core::ExecutionConfig& exec,
                             const SpatialHadoopConfig& config,
                             const FilterSource* filter_source = nullptr) {
  IndexedDataset out;
  out.dfs_prefix = tag + ".part/";

  // Raw input sits in HDFS.
  ctx.dfs->put(tag + ".raw", std::any(), data.text_bytes());

  // ---- Job 1: sample MBRs (map-only) + central partition generation ------
  const auto ranges = data.split_ranges(std::max<std::size_t>(
      ctx.dfs->block_count(tag + ".raw"), exec.cluster.total_slots()));
  Rng sample_rng(query.seed ^ std::hash<std::string>{}(tag));

  struct SampleSplit {
    std::size_t begin;
    std::size_t end;
    Rng rng;
  };
  std::vector<SampleSplit> sample_splits;
  sample_splits.reserve(ranges.size());
  for (std::size_t s = 0; s < ranges.size(); ++s) {
    sample_splits.push_back({ranges[s].first, ranges[s].second, sample_rng.fork(s)});
  }

  const double sample_rate = plane.sample_rate(data.size());
  const auto sample_map = [&data, sample_rate](const SampleSplit& split,
                                               std::vector<geom::Envelope>& out_envs) {
    const auto envs = data.envelopes();
    Rng rng = split.rng;  // task-local copy keeps the job deterministic
    for (std::size_t i = split.begin; i < split.end; ++i) {
      if (rng.bernoulli(sample_rate)) out_envs.push_back(envs[i]);
    }
  };
  const auto sample_split_bytes = [&data](const SampleSplit& split) {
    std::uint64_t bytes = 0;
    for (std::size_t i = split.begin; i < split.end; ++i) {
      bytes += data.record_text_bytes(i);
    }
    return bytes;
  };
  const auto sample_output_bytes = [](const geom::Envelope&) -> std::uint64_t {
    return 32;
  };
  auto sample_spec = mapreduce::make_typed_map_only_spec<SampleSplit, geom::Envelope>(
      tag + "/sample", sample_map, sample_split_bytes, sample_output_bytes);
  sample_spec.config = config.mr;
  const std::vector<geom::Envelope> sample =
      mapreduce::run_map_only(ctx, sample_spec, sample_splits);

  // Central scheme derivation (the SpatialHadoop master writes the _master
  // file that subsequent jobs read via HDFS).
  CpuStopwatch master_cpu;
  out.scheme = plane.make_scheme(sample, data.extent());
  const std::uint64_t master_bytes = out.scheme.size_bytes();
  ctx.dfs->put(tag + "._master", std::any(), master_bytes);
  mapreduce::charge_master_step(ctx, tag + "/master-partition", master_cpu.seconds(),
                                /*read=*/sample.size() * 32, /*write=*/master_bytes);

  const double expand = plane.expand();

  // ---- Optional master step: skew-aware hotspot refinement ----------------
  // Probe the per-cell load the partition job below would shuffle, split
  // hotspot cells on the master, and rewrite the _master file — so Job 2,
  // the shuffle filter and getSplits all see the refined cell set.
  if (plane.repartition()) {
    CpuStopwatch skew_cpu;
    out.scheme = plane.refine(out.scheme, *ctx.counters, core::TextSide{data}).scheme;
    const std::uint64_t refined_bytes = out.scheme.size_bytes();
    ctx.dfs->put(tag + "._master", std::any(), refined_bytes);
    mapreduce::charge_master_step(ctx, tag + "/skew-refine", skew_cpu.seconds(),
                                  /*read=*/master_bytes, /*write=*/refined_bytes);
  }

  // ---- Optional master step: build the shuffle filter from the resident
  // side's partition blocks. Every resident record's expanded envelope is
  // marked into each of *this* scheme's cells intersecting its resident
  // cell; a later split (cellA, cellB) exists only if those cells intersect,
  // so every pair the local join could emit is covered by some mark. The
  // bitmap is tiny (a few uint64 words per cell) and lands in the
  // distributed cache next to the _master file.
  std::unique_ptr<geom::OccupancyFilter> sfilter;
  if (filter_source != nullptr) {
    const auto src_envs = filter_source->data->envelopes();
    const IndexedDataset& src = *filter_source->indexed;
    std::uint64_t src_bytes = 0;
    std::size_t src_records = 0;
    for (const auto& block : src.blocks) {
      if (block == nullptr) continue;
      src_bytes += block->text_bytes;
      src_records += block->indices.size();
    }
    // One unit per resident block, marked in parallel chunks of blocks.
    core::OccupancyBuild built = core::build_occupancy_parallel(
        out.scheme.cells(), src.blocks.size(), src_records,
        [&](geom::OccupancyFilter& partial, std::size_t begin, std::size_t end) {
          std::vector<std::uint32_t> cells_scratch;
          for (std::size_t pb = begin; pb < end; ++pb) {
            const auto& block = src.blocks[pb];
            if (block == nullptr) continue;
            out.scheme.assign_into(src.scheme.cells()[pb], cells_scratch);
            for (const auto src_idx : block->indices) {
              const geom::Envelope env = src_envs[src_idx].expanded_by(expand);
              for (const auto ca : cells_scratch) partial.mark(ca, env);
            }
          }
        });
    sfilter = std::make_unique<geom::OccupancyFilter>(std::move(built.filter));
    const std::uint64_t filter_bytes = sfilter->size_bytes();
    ctx.dfs->put(tag + "._sfilter", std::any(), filter_bytes);
    mapreduce::charge_master_step(ctx, tag + "/filter-build", built.cpu_seconds,
                                  /*read=*/src_bytes, /*write=*/filter_bytes);
  }

  // ---- Job 2: partition + pack per-block index (full MR) ------------------
  std::vector<std::vector<std::uint32_t>> idx_splits;
  idx_splits.reserve(ranges.size());
  for (const auto& [begin, end] : ranges) {
    std::vector<std::uint32_t> split;
    split.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) split.push_back(static_cast<std::uint32_t>(i));
    idx_splits.push_back(std::move(split));
  }

  out.blocks.assign(out.scheme.cell_count(), nullptr);

  // The map assigns a record to every cell its expanded envelope touches;
  // the reduce materializes one block per cell (indices into the dataset's
  // stable feature span) and packs its STR index.
  const geom::OccupancyFilter* filt = sfilter.get();
  core::ShuffleTally tally(*ctx.counters, {.assignments = true,
                                           .duplicates = true,
                                           .shuffle = plane.filter_on(),
                                           .filtered_only_if_any = true});
  const auto part_map = [&data, &out, expand, filt, &tally](const std::uint32_t& idx,
                                                            const auto& emit) {
    // Per-thread scratch keeps the assignment free of per-record allocation.
    // With the filter, true negatives never reach the emit (never buffered,
    // never shuffled); a fully filtered record vanishes here.
    static thread_local std::vector<std::uint32_t> pids;
    tally.assign(out.scheme, data.envelopes()[idx].expanded_by(expand), filt,
                 4 + data.record_text_bytes(idx), pids);
    for (const auto pid : pids) emit(pid, idx);
  };
  const auto part_reduce = [&data, &out](const std::uint32_t& pid,
                                         std::vector<std::uint32_t>& idxs,
                                         std::vector<std::uint32_t>& outv) {
    auto block = std::make_shared<PartBlock>();
    // Pack an STR index into the block head (built while writing: "virtually
    // for free" in disk terms, but its CPU cost is real and measured here).
    const auto envs = data.envelopes();
    std::vector<index::IndexEntry> entries;
    entries.reserve(idxs.size());
    for (std::uint32_t i = 0; i < idxs.size(); ++i) {
      block->text_bytes += data.record_text_bytes(idxs[i]);
      entries.push_back({envs[idxs[i]], i});
    }
    block->base = std::span<const geom::Feature>(data.features());
    block->indices = std::move(idxs);
    const index::StrTree tree(std::move(entries));
    block->text_bytes += tree.size_bytes() / 4;  // serialized index is compact
    out.blocks[pid] = block;
    outv.push_back(pid);
  };
  const auto part_input_bytes = [&data](const std::uint32_t& idx) {
    return data.record_text_bytes(idx);
  };
  const auto part_pair_bytes = [&data](const std::uint32_t&, const std::uint32_t& idx) {
    return 4 + data.record_text_bytes(idx);
  };
  const auto part_output_bytes = [&out](const std::uint32_t& pid) {
    return out.blocks[pid] != nullptr ? out.blocks[pid]->text_bytes : 0;
  };
  auto part_spec =
      mapreduce::make_typed_spec<std::uint32_t, std::uint32_t, std::uint32_t,
                                 std::uint32_t>(tag + "/partition", part_map, part_reduce,
                                                part_input_bytes, part_pair_bytes,
                                                part_output_bytes);
  part_spec.config = config.mr;
  mapreduce::run_map_reduce(ctx, part_spec, idx_splits);

  // Record the block files in the DFS catalog.
  for (std::uint32_t pid = 0; pid < out.blocks.size(); ++pid) {
    if (out.blocks[pid] != nullptr) {
      ctx.dfs->put(out.dfs_prefix + std::to_string(pid), std::any(out.blocks[pid]),
                   out.blocks[pid]->text_bytes);
    }
  }
  return out;
}

/// The distributed-join stage shared by the end-to-end and resident entry
/// points: getSplits on the master, then a map-only local-join job.
/// `shared_cache`, when non-null, is a cross-query geom::PreparedCache owned
/// by the caller (the serving catalog).
std::vector<JoinPair> run_distributed_join(mapreduce::MrContext& ctx,
                                           const IndexedDataset& ia,
                                           const IndexedDataset& ib,
                                           const core::JoinQueryConfig& query,
                                           const SpatialHadoopConfig& config,
                                           geom::PreparedCache* shared_cache = nullptr) {
  // ---- Global join in getSplits(): master-side MBR join of partitions ------
  CpuStopwatch splits_cpu;
  struct JoinSplit {
    std::uint32_t pa;
    std::uint32_t pb;
  };
  std::vector<JoinSplit> join_splits;
  {
    std::vector<index::IndexEntry> cells_a;
    std::vector<index::IndexEntry> cells_b;
    for (std::uint32_t i = 0; i < ia.scheme.cell_count(); ++i) {
      if (ia.blocks[i] != nullptr) cells_a.push_back({ia.scheme.cells()[i], i});
    }
    for (std::uint32_t i = 0; i < ib.scheme.cell_count(); ++i) {
      if (ib.blocks[i] != nullptr) cells_b.push_back({ib.scheme.cells()[i], i});
    }
    index::plane_sweep_join(cells_a, cells_b, [&](std::uint32_t a, std::uint32_t b) {
      join_splits.push_back({a, b});
    });
  }
  mapreduce::charge_master_step(
      ctx, "join/getSplits", splits_cpu.seconds(),
      /*read=*/ia.scheme.size_bytes() + ib.scheme.size_bytes(), /*write=*/0);

  // ---- Local join: map-only job, one task per partition pair ---------------
  // Overlap-duplicated B-side geometries are bound once in the stage's
  // prepared-geometry cache and shared across partition pairs and tasks.
  // Plane-sweep is the paper's SpatialHadoop configuration (it also names
  // synchronized R-tree traversal); JoinQueryConfig::local_algorithm
  // overrides it.
  core::LocalJoinStage stage(query, index::LocalJoinAlgorithm::kPlaneSweep, config.engine,
                             ctx.counters, shared_cache);
  const auto join_map = [&](const JoinSplit& split, std::vector<JoinPair>& out_pairs) {
    // Reference-point duplicate avoidance: emit only in the canonical
    // (lowest-id) cell pair containing the reference point.
    const auto accept = [&](const geom::Envelope& le, const geom::Envelope& re) {
      const geom::Coord p = core::reference_point(le, re);
      const geom::Envelope pe = geom::Envelope::of_point(p.x, p.y);
      return ia.scheme.min_assigned(pe) == split.pa &&
             ib.scheme.min_assigned(pe) == split.pb;
    };
    stage.run(ia.blocks[split.pa]->view(), ib.blocks[split.pb]->view(), accept, out_pairs);
  };
  const auto join_split_bytes = [&](const JoinSplit& split) {
    return ia.blocks[split.pa]->text_bytes + ib.blocks[split.pb]->text_bytes;
  };
  const auto join_output_bytes = [](const JoinPair&) -> std::uint64_t { return 16; };
  auto join_spec = mapreduce::make_typed_map_only_spec<JoinSplit, JoinPair>(
      "join/local", join_map, join_split_bytes, join_output_bytes);
  join_spec.config = config.mr;
  std::vector<JoinPair> pairs = mapreduce::run_map_only(ctx, join_spec, join_splits);
  ctx.counters->add("join.partition_pairs", join_splits.size());
  ctx.counters->add("join.result_pairs", pairs.size());
  stage.record_cache_counters(*ctx.counters);
  return pairs;
}

void finalize_report(core::RunReport& report, std::vector<JoinPair> pairs,
                     const core::ExecutionConfig& exec) {
  core::record_result(report, std::move(pairs), exec);
  report.index_a_seconds = report.metrics.seconds_with_prefix("A/");
  report.index_b_seconds = report.metrics.seconds_with_prefix("B/");
  report.join_seconds = report.metrics.seconds_with_prefix("join/");
  report.total_seconds = report.metrics.total_seconds();
  core::annotate_recovery(report);
}

/// SpatialHadoop has no intrinsic failure modes; injected faults (TaskFailed
/// past the retry budget, BlockUnavailable, lifecycle kills), invalid fault
/// plans and mismatched builds land here as a structured Status. IA/IB/DJ
/// stay NaN.
void fail_report(core::RunReport& report, const SjcError& e) {
  report.status = status_from_exception(e);
  report.total_seconds = report.metrics.total_seconds();
  core::annotate_recovery(report);
}

/// What a resident SpatialHadoop entry keeps between queries: the datasets
/// its partition blocks index into, both indexed partition directories, the
/// envelope expansion their records were assigned with (a query must use
/// the same one) and the counters preprocessing emitted, which every
/// resident report replays so its counter set matches a cold batch run's.
struct ResidentState {
  workload::Dataset left;
  workload::Dataset right;
  IndexedDataset ia;
  IndexedDataset ib;
  double expand = 0.0;
  cluster::Counters ingest_counters;
};

/// The cold end-to-end run. When `capture` is non-null both indexed
/// datasets, their envelope expansion and the ingest counters are copied
/// into it once preprocessing ends; the run itself is unaffected.
core::RunReport run_spatial_hadoop_impl(const workload::Dataset& left,
                                        const workload::Dataset& right,
                                        const core::JoinQueryConfig& query,
                                        const core::ExecutionConfig& exec,
                                        const SpatialHadoopConfig& config,
                                        ResidentState* capture) {
  core::RunReport report;
  trace::TraceCollector collector(exec.cluster.node_count, exec.cluster.node.cores);

  try {
    // Fault-plan validation and DFS setup inside the try: a chaos-generated
    // invalid plan reports a structured Status instead of escaping.
    dfs::SimDfs dfs(core::dfs_config(query, exec));
    mapreduce::MrContext ctx(exec.cluster, exec.data_scale, &dfs, &report.metrics,
                             &report.counters, config.faults);
    if (exec.trace) ctx.trace = &collector;
    const core::PartitionPlane plane(query, exec.cluster, config.policy);

    // ---- Preprocessing: index both inputs (IA, IB) -------------------------
    // With the shuffle filter on (the default), the resident (right) side is
    // indexed first so its partition blocks can seed the occupancy bitmap
    // that prunes the streamed (left) side's shuffle.
    IndexedDataset ia;
    IndexedDataset ib;
    if (plane.filter_on()) {
      ib = index_dataset(ctx, right, "B", plane, query, exec, config);
      const FilterSource source{&ib, &right};
      ia = index_dataset(ctx, left, "A", plane, query, exec, config, &source);
    } else {
      ia = index_dataset(ctx, left, "A", plane, query, exec, config);
      ib = index_dataset(ctx, right, "B", plane, query, exec, config);
    }
    if (capture != nullptr) {
      capture->ia = ia;
      capture->ib = ib;
      capture->expand = plane.expand();
      capture->ingest_counters = report.counters;
    }

    finalize_report(report, run_distributed_join(ctx, ia, ib, query, config), exec);
  } catch (const SjcError& e) {
    fail_report(report, e);
  }
  if (exec.trace) report.trace = collector.merged();
  return report;
}

/// One resident query: getSplits and the local join on a fresh runtime over
/// the captured partition directories. The block files were persisted by
/// the build, so nothing is re-put, and no A/ or B/ phase runs: IA/IB
/// report as 0.
core::RunReport run_resident_query(const ResidentState& state,
                                   const core::JoinQueryConfig& query,
                                   const core::ExecutionConfig& exec,
                                   const SpatialHadoopConfig& config,
                                   geom::PreparedCache* shared_cache) {
  core::RunReport report;
  trace::TraceCollector collector(exec.cluster.node_count, exec.cluster.node.cores);
  try {
    const core::PartitionPlane plane(query, exec.cluster, config.policy);
    plane.require_build_expansion(state.expand, "spatial_hadoop_resident");
    dfs::SimDfs dfs(core::dfs_config(query, exec));
    mapreduce::MrContext ctx(exec.cluster, exec.data_scale, &dfs, &report.metrics,
                             &report.counters);
    if (exec.trace) ctx.trace = &collector;
    report.counters.merge(state.ingest_counters);
    finalize_report(report,
                    run_distributed_join(ctx, state.ia, state.ib, query, config, shared_cache),
                    exec);
  } catch (const SjcError& e) {
    fail_report(report, e);
  }
  if (exec.trace) report.trace = collector.merged();
  return report;
}

}  // namespace

core::RunReport run_spatial_hadoop(const workload::Dataset& left,
                                   const workload::Dataset& right,
                                   const core::JoinQueryConfig& query,
                                   const core::ExecutionConfig& exec,
                                   const SpatialHadoopConfig& config) {
  return run_spatial_hadoop_impl(left, right, query, exec, config, nullptr);
}

core::ResidentJoin spatial_hadoop_resident(const workload::Dataset& left,
                                           const workload::Dataset& right,
                                           const core::JoinQueryConfig& query,
                                           const core::ExecutionConfig& exec,
                                           const SpatialHadoopConfig& config) {
  auto state = std::make_shared<ResidentState>();
  // Index the state's own copies: the blocks borrow the indexed dataset's
  // feature span, which must live as long as the state.
  state->left = left;
  state->right = right;
  core::RunReport build = run_spatial_hadoop_impl(state->left, state->right, query, exec,
                                                  config, state.get());
  require(build.status.ok(),
          "spatial_hadoop_resident: build failed: " + build.status.message());
  return {std::move(build),
          [state = std::shared_ptr<const ResidentState>(std::move(state)), exec, config](
              const core::JoinQueryConfig& q, geom::PreparedCache* shared_cache) {
            return run_resident_query(*state, q, exec, config, shared_cache);
          }};
}

}  // namespace sjc::systems
