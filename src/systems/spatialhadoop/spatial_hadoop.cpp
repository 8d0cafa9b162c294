#include "systems/spatialhadoop/spatial_hadoop.hpp"

#include <memory>
#include <optional>

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
/// index packed at the head of the block. The block stores `indices` into
/// the source dataset's stable feature span (`base`) instead of feature
/// copies. `index` is what the local join reads: the records' expanded
/// envelopes sorted by min x, ids being positions in `indices`.
/// `text_bytes` is the modeled on-disk size, which charges the packed index
/// as the STR tree the paper's blocks carry.
struct PartBlock {
  std::span<const geom::Feature> base;
  std::vector<std::uint32_t> indices;
  index::SweepList index;
  std::uint64_t text_bytes = 0;

  core::FeatureIndexSpan view() const { return {base, indices}; }
};

struct IndexedDataset {
  partition::PartitionScheme scheme{std::vector<geom::Envelope>{geom::Envelope(0, 0, 1, 1)},
                                    geom::Envelope(0, 0, 1, 1)};
  std::vector<std::shared_ptr<PartBlock>> blocks;  // by partition id
  std::string dfs_prefix;
};

/// Job 1's products: the dataset's sampled envelopes, the input splits and
/// the scheme the master derived (and refined) from the sample.
struct SampledDataset {
  std::vector<geom::Envelope> sample;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  partition::PartitionScheme scheme{std::vector<geom::Envelope>{geom::Envelope(0, 0, 1, 1)},
                                    geom::Envelope(0, 0, 1, 1)};
};

/// Modeled bytes of one record's envelope shipped to the master: four
/// doubles.
constexpr std::uint64_t kShippedEnvelopeBytes = 32;

/// One B block's share of A's shuffle filter. Its records are marked into
/// each A cell intersecting the block's cell (`cells`); a later split
/// (cellA, cellB) exists only if those cells intersect, so every pair the
/// local join could emit is covered by some mark. The reducer writes a
/// partial over those cells, or, where the block's records' envelopes weigh
/// less than that partial (a few large records over many A cells), ships
/// the envelopes and A/filter-build marks them. `bytes` is what it writes.
struct BlockShare {
  std::vector<std::uint32_t> cells;
  bool ship_records = false;
  std::uint64_t bytes = 0;
};

/// The share of the B block whose cell is `block_cell` and which holds
/// `records` records, over the A cells of `a_filter` (any filter over A's
/// cells, for their sizes).
BlockShare block_share(const geom::OccupancyFilter& a_filter,
                       const partition::PartitionScheme& a, const geom::Envelope& block_cell,
                       std::size_t records) {
  BlockShare share;
  a.assign_into(block_cell, share.cells);
  for (const auto cell : share.cells) share.bytes += a_filter.cell_bytes(cell);
  const std::uint64_t shipped = records * kShippedEnvelopeBytes;
  if (shipped < share.bytes) {
    share.ship_records = true;
    share.bytes = shipped;
  }
  return share;
}

/// Marks records `idxs` of `envs`, expanded, into every cell of `cells`.
void mark_records(geom::OccupancyFilter& filter, const std::vector<std::uint32_t>& cells,
                  std::span<const geom::Envelope> envs, const std::vector<std::uint32_t>& idxs,
                  double expand) {
  for (const auto idx : idxs) {
    const geom::Envelope env = envs[idx].expanded_by(expand);
    for (const auto cell : cells) filter.mark(cell, env);
  }
}

/// Where B's partition reducers leave the shuffle filter for A: per B block,
/// its share (a partial, or the shipped records).
struct FilterPartials {
  const partition::PartitionScheme* scheme;  // A's
  geom::OccupancyFilter empty;                // over A's cells
  std::span<const geom::Envelope> envs;       // B's records
  double expand = 0.0;
  struct Block {
    BlockShare share;
    std::optional<geom::OccupancyFilter> partial;
    std::vector<std::uint32_t> shipped;
  };
  std::vector<Block> by_block;
};

/// The first preprocessing MR job for one dataset (map-only sample) and the
/// master steps after it: the raw input put, the sample, `master-partition`
/// and, with repartitioning, `skew-refine`.
SampledDataset sample_dataset(mapreduce::MrContext& ctx, const workload::Dataset& data,
                              const std::string& tag, const core::PartitionPlane& plane,
                              const core::JoinQueryConfig& query,
                              const core::ExecutionConfig& exec) {
  SampledDataset out;

  // Raw input sits in HDFS.
  ctx.dfs->put(tag + ".raw", data.text_bytes());

  // ---- Job 1: sample MBRs (map-only) + central partition generation ------
  out.ranges = data.split_ranges(std::max<std::size_t>(
      ctx.dfs->block_count(tag + ".raw"), exec.cluster.total_slots()));
  Rng sample_rng(query.seed ^ std::hash<std::string>{}(tag));

  struct SampleSplit {
    std::size_t begin;
    std::size_t end;
    Rng rng;
  };
  std::vector<SampleSplit> sample_splits;
  sample_splits.reserve(out.ranges.size());
  for (std::size_t s = 0; s < out.ranges.size(); ++s) {
    sample_splits.push_back({out.ranges[s].first, out.ranges[s].second, sample_rng.fork(s)});
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
  out.sample = mapreduce::run_map_only(ctx, sample_spec, sample_splits);

  // Central scheme derivation (the SpatialHadoop master writes the _master
  // file that subsequent jobs read via HDFS).
  CpuStopwatch master_cpu;
  out.scheme = plane.make_scheme(out.sample, data.extent());
  const std::uint64_t master_bytes = out.scheme.size_bytes();
  ctx.dfs->put(tag + "._master", master_bytes);
  mapreduce::charge_master_step(ctx, tag + "/master-partition", master_cpu.seconds(),
                                /*read=*/out.sample.size() * 32, /*write=*/master_bytes);

  // ---- Optional master step: skew-aware hotspot refinement ----------------
  // Probe the per-cell load the partition job would shuffle, split hotspot
  // cells on the master, and rewrite the _master file — so the partition
  // job, the shuffle filter and getSplits all see the refined cell set.
  if (plane.repartition()) {
    CpuStopwatch skew_cpu;
    out.scheme = plane.refine(out.scheme, *ctx.counters, core::TextSide{data}).scheme;
    const std::uint64_t refined_bytes = out.scheme.size_bytes();
    ctx.dfs->put(tag + "._master", refined_bytes);
    mapreduce::charge_master_step(ctx, tag + "/skew-refine", skew_cpu.seconds(),
                                  /*read=*/master_bytes, /*write=*/refined_bytes);
  }
  return out;
}

/// The filter B's reducers would leave, built on the master for the plan's
/// probe: B's records grouped into blocks as B's partition map assigns
/// them, and each block's share marked. `partial_bytes` is what the
/// reducers would write, `shipped_records` the records A/filter-build would
/// mark.
struct PlannedFilter {
  geom::OccupancyFilter filter;
  std::uint64_t partial_bytes = 0;
  std::uint64_t shipped_records = 0;
};

PlannedFilter plan_filter(const workload::Dataset& right, const partition::PartitionScheme& a,
                          const partition::PartitionScheme& b, double expand) {
  PlannedFilter out{geom::OccupancyFilter(a.cells())};
  std::vector<std::vector<std::uint32_t>> blocks(b.cell_count());
  std::vector<std::uint32_t> pbs;
  const auto envs = right.envelopes();
  for (std::uint32_t i = 0; i < envs.size(); ++i) {
    b.assign_into(envs[i].expanded_by(expand), pbs);
    for (const auto pb : pbs) blocks[pb].push_back(i);
  }
  for (std::uint32_t pb = 0; pb < blocks.size(); ++pb) {
    if (blocks[pb].empty()) continue;
    const BlockShare share = block_share(out.filter, a, b.cells()[pb], blocks[pb].size());
    mark_records(out.filter, share.cells, envs, blocks[pb], expand);
    out.partial_bytes += share.bytes;
    if (share.ship_records) out.shipped_records += blocks[pb].size();
  }
  return out;
}

/// The master step that turns B's per-block shares into A's shuffle filter:
/// it reads them and, in block order, merges each partial and marks each
/// block's shipped records, then puts the filter in the distributed cache
/// next to A's _master file. The filter equals one marked serially from
/// every B block.
geom::OccupancyFilter merge_filter_partials(mapreduce::MrContext& ctx,
                                            const FilterPartials& partials) {
  CpuStopwatch merge_cpu;
  geom::OccupancyFilter filter = partials.empty;
  std::uint64_t partial_bytes = 0;
  for (const auto& block : partials.by_block) {
    if (block.partial) filter.merge(*block.partial);
    mark_records(filter, block.share.cells, partials.envs, block.shipped, partials.expand);
    partial_bytes += block.share.bytes;
  }
  const std::uint64_t filter_bytes = filter.size_bytes();
  ctx.dfs->put("A._sfilter", filter_bytes);
  mapreduce::charge_master_step(ctx, "A/filter-build", merge_cpu.seconds(),
                                /*read=*/partial_bytes, /*write=*/filter_bytes);
  return filter;
}

/// The second preprocessing MR job ("indexA"/"indexB" in the paper's Table 3
/// breakdown with the sample job): partition the dataset by `sampled`'s
/// scheme and pack one indexed block per cell. With `filter` the map
/// drops record copies the filter proves can match nothing in their target
/// cell; with `partials` every reducer also marks its block's partial of the
/// other dataset's filter. `report_shuffle` writes the shuffle.* counters
/// (both datasets' jobs do when the run filters, so assigned == shuffled +
/// filtered holds globally).
IndexedDataset partition_dataset(mapreduce::MrContext& ctx, const workload::Dataset& data,
                                 const std::string& tag, const core::PartitionPlane& plane,
                                 SampledDataset sampled, const geom::OccupancyFilter* filter,
                                 bool report_shuffle, FilterPartials* partials) {
  IndexedDataset out;
  out.dfs_prefix = tag + ".part/";
  out.scheme = std::move(sampled.scheme);
  const double expand = plane.expand();

  std::vector<std::vector<std::uint32_t>> idx_splits;
  idx_splits.reserve(sampled.ranges.size());
  for (const auto& [begin, end] : sampled.ranges) {
    std::vector<std::uint32_t> split;
    split.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) split.push_back(static_cast<std::uint32_t>(i));
    idx_splits.push_back(std::move(split));
  }

  out.blocks.assign(out.scheme.cell_count(), nullptr);
  if (partials != nullptr) partials->by_block.assign(out.scheme.cell_count(), {});

  // The map assigns a record to every cell its expanded envelope touches;
  // the reduce materializes one block per cell (indices into the dataset's
  // stable feature span) and packs its sweep index.
  core::ShuffleTally tally(*ctx.counters, {.assignments = true,
                                           .duplicates = true,
                                           .shuffle = report_shuffle,
                                           .filtered_only_if_any = true});
  const auto part_map = [&data, &out, expand, filter, &tally](const std::uint32_t& idx,
                                                              const auto& emit) {
    // Per-thread scratch keeps the assignment free of per-record allocation.
    // With the filter, true negatives never reach the emit (never buffered,
    // never shuffled); a fully filtered record vanishes here.
    static thread_local std::vector<std::uint32_t> pids;
    tally.assign(out.scheme, data.envelopes()[idx].expanded_by(expand), filter,
                 4 + data.record_text_bytes(idx), pids);
    for (const auto pid : pids) emit(pid, idx);
  };
  const auto part_reduce = [&data, &out, expand, partials](const std::uint32_t& pid,
                                                           std::vector<std::uint32_t>& idxs,
                                                           std::vector<std::uint32_t>& outv) {
    auto block = std::make_shared<PartBlock>();
    // Pack the sweep index into the block head (built while writing:
    // "virtually for free" in disk terms, but its CPU cost is real and
    // measured here). The local join reads it as built.
    const auto envs = data.envelopes();
    std::vector<index::IndexEntry> entries;
    entries.reserve(idxs.size());
    for (std::uint32_t i = 0; i < idxs.size(); ++i) {
      block->text_bytes += data.record_text_bytes(idxs[i]);
      entries.push_back({envs[idxs[i]].expanded_by(expand), i});
    }
    index::SweepOrder order;
    block->index.load(entries, order);
    if (partials != nullptr) {
      // The block's share of the other dataset's filter, over the cells
      // intersecting this block's cell; it is written next to the block.
      auto& share = partials->by_block[pid];
      share.share = block_share(partials->empty, *partials->scheme, out.scheme.cells()[pid],
                                idxs.size());
      if (share.share.ship_records) {
        share.shipped = idxs;
      } else {
        mark_records(share.partial.emplace(partials->empty), share.share.cells, envs, idxs,
                     expand);
      }
    }
    block->base = std::span<const geom::Feature>(data.features());
    // The serialized STR index is compact.
    block->text_bytes += index::StrTree::size_bytes_for(idxs.size()) / 4;
    block->indices = std::move(idxs);
    out.blocks[pid] = block;
    outv.push_back(pid);
  };
  const auto part_input_bytes = [&data](const std::uint32_t& idx) {
    return data.record_text_bytes(idx);
  };
  const auto part_pair_bytes = [&data](const std::uint32_t&, const std::uint32_t& idx) {
    return 4 + data.record_text_bytes(idx);
  };
  const auto part_output_bytes = [&out, partials](const std::uint32_t& pid) {
    std::uint64_t bytes = out.blocks[pid] != nullptr ? out.blocks[pid]->text_bytes : 0;
    if (partials != nullptr) bytes += partials->by_block[pid].share.bytes;
    return bytes;
  };
  auto part_spec =
      mapreduce::make_typed_spec<std::uint32_t, std::uint32_t, std::uint32_t,
                                 std::uint32_t>(tag + "/partition", part_map, part_reduce,
                                                part_input_bytes, part_pair_bytes,
                                                part_output_bytes);
  mapreduce::run_map_reduce(ctx, part_spec, idx_splits);

  // Record the block files in the DFS catalog.
  for (std::uint32_t pid = 0; pid < out.blocks.size(); ++pid) {
    if (out.blocks[pid] != nullptr) {
      ctx.dfs->put(out.dfs_prefix + std::to_string(pid), out.blocks[pid]->text_bytes);
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
  // Plane-sweep is the paper's SpatialHadoop configuration; the paper also
  // names a synchronized R-tree traversal, which this model does not run.
  // It sweeps the two blocks' packed indexes, sorted by the partition
  // reducers with this query's expansion (a resident query checks it
  // against the build's).
  core::LocalJoinStage stage(query, index::LocalJoinAlgorithm::kPlaneSweep, config.engine,
                             *ctx.counters, shared_cache);
  const auto join_map = [&](const JoinSplit& split, std::vector<JoinPair>& out_pairs) {
    // Reference-point duplicate avoidance: emit only in the canonical
    // (lowest-id) cell pair containing the reference point.
    const auto accept = [&](const geom::Envelope& le, const geom::Envelope& re) {
      const geom::Coord p = core::reference_point(le, re);
      return ia.scheme.is_canonical(split.pa, p) && ib.scheme.is_canonical(split.pb, p);
    };
    const PartBlock& a = *ia.blocks[split.pa];
    const PartBlock& b = *ib.blocks[split.pb];
    stage.run(a.view(), a.index, b.view(), b.index, accept, out_pairs);
  };
  const auto join_split_bytes = [&](const JoinSplit& split) {
    return ia.blocks[split.pa]->text_bytes + ib.blocks[split.pb]->text_bytes;
  };
  const auto join_output_bytes = [](const JoinPair&) -> std::uint64_t { return 16; };
  auto join_spec = mapreduce::make_typed_map_only_spec<JoinSplit, JoinPair>(
      "join/local", join_map, join_split_bytes, join_output_bytes);
  std::vector<JoinPair> pairs = mapreduce::run_map_only(ctx, join_spec, join_splits);
  ctx.counters->add("join.partition_pairs", join_splits.size());
  ctx.counters->add("join.result_pairs", pairs.size());
  stage.record_cache_counters();
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
/// past the retry budget, lifecycle kills; a lost block fails no read),
/// invalid fault plans and mismatched builds land here as a structured
/// Status. IA/IB/DJ stay NaN.
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
    // Both datasets' sample and master steps run before either partition
    // job: the filter drops A's copies against B's records over A's cells,
    // B's cells decide which A cells each B block marks, and the plan probes
    // A's sample against it.
    SampledDataset sampled_a = sample_dataset(ctx, left, "A", plane, query, exec);
    SampledDataset sampled_b = sample_dataset(ctx, right, "B", plane, query, exec);
    core::FilterDecision filter = plane.forced_filter();
    if (!plane.filter_policy().has_value()) {
      const PlannedFilter planned =
          plan_filter(right, sampled_a.scheme, sampled_b.scheme, plane.expand());
      filter = plane.probe_filter(
          sampled_a.scheme, planned.filter, sampled_a.sample, /*right_sample=*/nullptr,
          {.left_records = left.size(),
           .left_bytes = left.text_bytes() + 4 * left.size(),
           .serial_marks = planned.shipped_records,
           .parallel_marks = right.size(),
           .serial_read_bytes = planned.partial_bytes,
           .serial_filters = 1,  // the merged filter the master writes
           .dfs_replicas = core::dfs_config(query, exec).replication,
           .block_replicas = core::dfs_config(query, exec).replication,
           .cluster = exec.cluster,
           .data_scale = exec.data_scale});
    }
    filter.record(report.counters);
    IndexedDataset ia;
    IndexedDataset ib;
    if (filter.build) {
      // B is partitioned before A, and its reducers leave the filter's
      // per-block shares; the master merges them before A's partition job.
      FilterPartials partials{.scheme = &sampled_a.scheme,
                              .empty = geom::OccupancyFilter(sampled_a.scheme.cells()),
                              .envs = right.envelopes(),
                              .expand = plane.expand(),
                              .by_block = {}};
      ib = partition_dataset(ctx, right, "B", plane, std::move(sampled_b), nullptr,
                             /*report_shuffle=*/true, &partials);
      const geom::OccupancyFilter sfilter = merge_filter_partials(ctx, partials);
      partials.by_block.clear();
      ia = partition_dataset(ctx, left, "A", plane, std::move(sampled_a), &sfilter,
                             /*report_shuffle=*/true, nullptr);
    } else {
      ia = partition_dataset(ctx, left, "A", plane, std::move(sampled_a), nullptr,
                             /*report_shuffle=*/false, nullptr);
      ib = partition_dataset(ctx, right, "B", plane, std::move(sampled_b), nullptr,
                             /*report_shuffle=*/false, nullptr);
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
