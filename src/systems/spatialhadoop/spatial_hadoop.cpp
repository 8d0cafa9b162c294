#include "systems/spatialhadoop/spatial_hadoop.hpp"

#include <memory>

#include "core/feature_view.hpp"
#include "core/local_join.hpp"
#include "index/str_tree.hpp"
#include "mapreduce/map_reduce.hpp"
#include "partition/partitioner.hpp"
#include "partition/sampler.hpp"
#include "plan/partition_refiner.hpp"
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

std::uint32_t default_partitions(const core::JoinQueryConfig& query,
                                 const core::ExecutionConfig& exec) {
  return core::effective_target_partitions(query, exec.cluster);
}

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
/// proves can match nothing in their target cell. `count_shuffle` turns on
/// the shuffle.assigned_records / shuffle.records / shuffle.filtered_*
/// accounting for the partition job (both datasets' jobs count when the
/// filter knob is on, so assigned == shuffled + filtered holds globally).
IndexedDataset index_dataset(mapreduce::MrContext& ctx, const workload::Dataset& data,
                             const std::string& tag, const core::JoinQueryConfig& query,
                             const core::ExecutionConfig& exec,
                             const SpatialHadoopConfig& config,
                             const FilterSource* filter_source = nullptr,
                             bool count_shuffle = false) {
  IndexedDataset out;
  out.dfs_prefix = tag + ".part/";
  const std::uint32_t target_cells = default_partitions(query, exec);

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

  const double sample_rate =
      core::effective_sample_rate(query.sample_rate, data.size(), target_cells);
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
  out.scheme = partition::make_partitions(query.partitioner, sample, data.extent(),
                                          target_cells);
  const std::uint64_t master_bytes = out.scheme.size_bytes();
  ctx.dfs->put(tag + "._master", std::any(), master_bytes);
  mapreduce::charge_master_step(ctx, tag + "/master-partition", master_cpu.seconds(),
                                /*read=*/sample.size() * 32, /*write=*/master_bytes);

  const double expand = query.predicate == core::JoinPredicate::kWithinDistance
                            ? query.within_distance / 2.0
                            : 0.0;

  // ---- Optional master step: skew-aware hotspot refinement ----------------
  // Probe the per-cell load the partition job below would shuffle (the same
  // expanded-envelope assignment, tallied instead of emitted), split hotspot
  // cells on the master, and rewrite the _master file — so Job 2, the
  // shuffle filter and getSplits all see the refined cell set.
  if (config.policy.repartition.value_or(false)) {
    CpuStopwatch skew_cpu;
    const plan::PartitionRefiner refiner(query.partitioner, config.policy.skew);
    const auto envs = data.envelopes();
    const auto probe = [&](const partition::PartitionScheme& s) {
      std::vector<plan::CellLoad> loads(s.cell_count());
      std::vector<std::uint32_t> pids;
      for (std::size_t i = 0; i < envs.size(); ++i) {
        s.assign_into(envs[i].expanded_by(expand), pids);
        const std::uint64_t bytes = 4 + data.record_text_bytes(i);
        for (const auto pid : pids) {
          ++loads[pid].records;
          loads[pid].bytes += bytes;
        }
      }
      return loads;
    };
    plan::RefineResult refined = refiner.refine(out.scheme, probe);
    if (ctx.counters != nullptr) {
      plan::record_repartition_counters(refined, *ctx.counters);
    }
    out.scheme = std::move(refined.scheme);
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
    CpuStopwatch filter_cpu;
    sfilter = std::make_unique<geom::OccupancyFilter>(out.scheme.cells());
    const auto src_envs = filter_source->data->envelopes();
    const IndexedDataset& src = *filter_source->indexed;
    std::vector<std::uint32_t> cells_scratch;
    std::uint64_t src_bytes = 0;
    for (std::uint32_t pb = 0; pb < src.blocks.size(); ++pb) {
      const auto& block = src.blocks[pb];
      if (block == nullptr) continue;
      src_bytes += block->text_bytes;
      out.scheme.assign_into(src.scheme.cells()[pb], cells_scratch);
      for (const auto src_idx : block->indices) {
        const geom::Envelope env = src_envs[src_idx].expanded_by(expand);
        for (const auto ca : cells_scratch) sfilter->mark(ca, env);
      }
    }
    const std::uint64_t filter_bytes = sfilter->size_bytes();
    ctx.dfs->put(tag + "._sfilter", std::any(), filter_bytes);
    mapreduce::charge_master_step(ctx, tag + "/filter-build", filter_cpu.seconds(),
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
  const auto part_map = [&data, &out, expand, &ctx, filt,
                         count_shuffle](const std::uint32_t& idx, const auto& emit) {
    // Per-thread scratch keeps the assignment free of per-record allocation.
    static thread_local std::vector<std::uint32_t> pids_scratch;
    const geom::Envelope env = data.envelopes()[idx].expanded_by(expand);
    std::uint32_t dropped = 0;
    if (filt != nullptr) {
      // Filtered assignment: true negatives never reach the emit (never
      // buffered, never shuffled); a fully filtered record vanishes here.
      dropped = out.scheme.assign_into(env, *filt, pids_scratch);
    } else {
      out.scheme.assign_into(env, pids_scratch);
    }
    const auto& pids = pids_scratch;
    for (const auto pid : pids) emit(pid, idx);
    if (ctx.counters != nullptr) {
      ctx.counters->add("partition.assignments", pids.size());
      ctx.counters->add("partition.records", 1);
      ctx.counters->add("partition.duplicated_records",
                        pids.empty() ? 0 : pids.size() - 1);
      if (count_shuffle) {
        ctx.counters->add("shuffle.assigned_records", pids.size() + dropped);
        ctx.counters->add("shuffle.records", pids.size());
        if (dropped > 0) {
          ctx.counters->add("shuffle.filtered_records", dropped);
          ctx.counters->add("shuffle.filtered_bytes",
                            dropped * (4 + data.record_text_bytes(idx)));
        }
      }
    }
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

}  // namespace

core::RunReport run_spatial_hadoop(const workload::Dataset& left,
                                   const workload::Dataset& right,
                                   const core::JoinQueryConfig& query,
                                   const core::ExecutionConfig& exec,
                                   const SpatialHadoopConfig& config);

namespace {

dfs::DfsConfig dfs_config(const core::JoinQueryConfig& query,
                          const core::ExecutionConfig& exec) {
  return dfs::DfsConfig{
      .block_size = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(64.0 * 1024 * 1024 / exec.data_scale)),
      .replication = 3,
      .datanode_count = exec.cluster.node_count,
      .seed = query.seed,
  };
}

/// The distributed-join stage shared by the end-to-end, pre-indexed and
/// resident entry points: getSplits on the master, then a map-only
/// local-join job. `shared_cache`, when non-null, is a cross-query
/// geom::PreparedCache owned by the caller (the serving catalog); the
/// join's cache-hit counters always record only this run's delta.
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
  // One prepared-geometry cache per join wave (or the caller's resident
  // cache): overlap-duplicated B-side geometries are bound once and shared
  // across partition pairs (and across the concurrently running map tasks —
  // the cache is thread-safe). A resident cache carries hit/miss history
  // from earlier queries, so snapshot and report only this run's delta;
  // for the run-scoped cache the delta equals the totals.
  geom::PreparedCache local_cache;
  geom::PreparedCache& prepared_cache =
      shared_cache != nullptr ? *shared_cache : local_cache;
  const std::uint64_t cache_hits0 = prepared_cache.hits();
  const std::uint64_t cache_misses0 = prepared_cache.misses();
  core::LocalJoinSpec local_spec;
  local_spec.algorithm = query.local_algorithm.value_or(config.local_algorithm);
  local_spec.engine = &geom::GeometryEngine::get(config.engine);
  local_spec.predicate = query.predicate;
  local_spec.within_distance = query.within_distance;
  local_spec.prepared_cache = &prepared_cache;
  // Surface the refine.* accounting (exact tests vs approximation early
  // accepts/rejects) in this run's counters; Counters is thread-safe and
  // run_local_join flushes once per call, not per pair.
  local_spec.refine_counters = ctx.counters;

  // Query-owned scratch pool instead of a `static thread_local` scratch:
  // index trees and candidate buffers stay warm across the partition pairs
  // of this join wave but die with the query, so nothing survives onto the
  // pool threads a serving process keeps around (see core::ScratchPool).
  core::ScratchPool scratch_pool;
  const auto join_map = [&](const JoinSplit& split, std::vector<JoinPair>& out_pairs) {
    const PartBlock& block_a = *ia.blocks[split.pa];
    const PartBlock& block_b = *ib.blocks[split.pb];
    // Reference-point duplicate avoidance: emit only in the canonical
    // (lowest-id) cell pair containing the reference point.
    const auto accept = [&](const geom::Envelope& le, const geom::Envelope& re) {
      const geom::Coord p = core::reference_point(le, re);
      const geom::Envelope pe = geom::Envelope::of_point(p.x, p.y);
      return ia.scheme.min_assigned(pe) == split.pa &&
             ib.scheme.min_assigned(pe) == split.pb;
    };
    auto scratch = scratch_pool.acquire();
    core::run_local_join(block_a.view(), block_b.view(), local_spec, accept, *scratch,
                         out_pairs);
  };
  const auto join_split_bytes = [&](const JoinSplit& split) {
    return ia.blocks[split.pa]->text_bytes + ib.blocks[split.pb]->text_bytes;
  };
  const auto join_output_bytes = [](const JoinPair&) -> std::uint64_t { return 16; };
  auto join_spec = mapreduce::make_typed_map_only_spec<JoinSplit, JoinPair>(
      "join/local", join_map, join_split_bytes, join_output_bytes);
  join_spec.config = config.mr;
  std::vector<JoinPair> pairs = mapreduce::run_map_only(ctx, join_spec, join_splits);
  if (ctx.counters != nullptr) {
    ctx.counters->add("join.partition_pairs", join_splits.size());
    ctx.counters->add("join.result_pairs", pairs.size());
    ctx.counters->add("join.prepared_cache_hits",
                      prepared_cache.hits() - cache_hits0);
    ctx.counters->add("join.prepared_cache_misses",
                      prepared_cache.misses() - cache_misses0);
  }
  return pairs;
}

void finalize_report(core::RunReport& report, std::vector<JoinPair> pairs,
                     const core::ExecutionConfig& exec) {
  report.status = Status::Ok();
  report.result_count = pairs.size();
  report.result_hash = core::hash_pairs_unordered(pairs);
  if (exec.collect_pairs) report.pairs = std::move(pairs);
  report.index_a_seconds = report.metrics.seconds_with_prefix("A/");
  report.index_b_seconds = report.metrics.seconds_with_prefix("B/");
  report.join_seconds = report.metrics.seconds_with_prefix("join/");
  report.total_seconds = report.metrics.total_seconds();
  core::annotate_recovery(report);
}

}  // namespace

/// Everything the serving layer keeps resident between queries for one
/// dataset pair: owned copies of both datasets (zero-copy partition blocks
/// span the indexed dataset's feature array, so the resident state must
/// index its own copies) plus the indexed partition directories the cold
/// driver's own preprocessing built over them, and the ingest-time counters
/// those jobs emitted — replayed into every resident query's report so the
/// full counter set matches a cold batch run exactly.
struct SpatialHadoopResident::Impl {
  workload::Dataset left;
  workload::Dataset right;
  IndexedDataset ia;
  IndexedDataset ib;
  cluster::Counters ingest_counters;
  double expand = 0.0;
  core::RunReport build_report;
};

namespace {

core::RunReport run_spatial_hadoop_impl(const workload::Dataset& left,
                                        const workload::Dataset& right,
                                        const core::JoinQueryConfig& query,
                                        const core::ExecutionConfig& exec,
                                        const SpatialHadoopConfig& config,
                                        SpatialHadoopResident::Impl* capture) {
  core::RunReport report;
  trace::TraceCollector collector(exec.cluster.node_count, exec.cluster.node.cores);
  // Indexing counters accumulate separately and are merged into the run's
  // counters below — totals are unchanged for a cold run, and a resident
  // build keeps the ingest share to replay into resident query reports.
  // Declared outside the try so a failure mid-preprocessing (phase timeout,
  // crash past the budget) still surfaces its counters in the report.
  cluster::Counters ingest_counters;
  bool ingest_merged = false;

  try {
    // Fault-plan validation and DFS setup inside the try: a chaos-generated
    // invalid plan reports a structured Status instead of escaping.
    dfs::SimDfs dfs(dfs_config(query, exec));
    const cluster::FaultInjector faults(config.faults);
    mapreduce::MrContext ctx{&exec.cluster, exec.data_scale, &dfs, &report.metrics,
                             &ingest_counters, &faults};
    if (exec.trace) ctx.trace = &collector;

    // ---- Preprocessing: index both inputs (IA, IB) -------------------------
    // With the shuffle filter on (the default), the resident (right) side is
    // indexed first so its partition blocks can seed the occupancy bitmap
    // that prunes the streamed (left) side's shuffle.
    const bool filter_on = config.policy.shuffle_filter.value_or(true);
    IndexedDataset ia;
    IndexedDataset ib;
    if (filter_on) {
      ib = index_dataset(ctx, right, "B", query, exec, config, nullptr,
                         /*count_shuffle=*/true);
      const FilterSource source{&ib, &right};
      ia = index_dataset(ctx, left, "A", query, exec, config, &source,
                         /*count_shuffle=*/true);
    } else {
      ia = index_dataset(ctx, left, "A", query, exec, config);
      ib = index_dataset(ctx, right, "B", query, exec, config);
    }
    report.counters.merge(ingest_counters);
    ingest_merged = true;
    ctx.counters = &report.counters;
    if (capture != nullptr) {
      capture->ia = ia;
      capture->ib = ib;
      capture->ingest_counters = ingest_counters;
      capture->expand = query.predicate == core::JoinPredicate::kWithinDistance
                            ? query.within_distance / 2.0
                            : 0.0;
    }

    finalize_report(report, run_distributed_join(ctx, ia, ib, query, config), exec);
  } catch (const SjcError& e) {
    // SpatialHadoop has no intrinsic failure modes; injected faults
    // (TaskFailed past the retry budget, BlockUnavailable, lifecycle kills)
    // and invalid fault plans land here as a structured Status.
    report.status = status_from_exception(e);
    report.total_seconds = report.metrics.total_seconds();
    core::annotate_recovery(report);
  }
  if (!ingest_merged) report.counters.merge(ingest_counters);
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

const core::RunReport& SpatialHadoopResident::build_report() const {
  require(impl_ != nullptr, "SpatialHadoopResident: not built");
  return impl_->build_report;
}

std::size_t SpatialHadoopResident::left_size() const {
  require(impl_ != nullptr, "SpatialHadoopResident: not built");
  return impl_->left.size();
}

std::size_t SpatialHadoopResident::right_size() const {
  require(impl_ != nullptr, "SpatialHadoopResident: not built");
  return impl_->right.size();
}

SpatialHadoopResident spatial_hadoop_build_resident(const workload::Dataset& left,
                                                    const workload::Dataset& right,
                                                    const core::JoinQueryConfig& query,
                                                    const core::ExecutionConfig& exec,
                                                    const SpatialHadoopConfig& config) {
  auto impl = std::make_shared<SpatialHadoopResident::Impl>();
  // Copy the datasets first and index the copies: zero-copy blocks borrow
  // the indexed dataset's feature span, which must outlive the catalog entry.
  impl->left = left;
  impl->right = right;
  impl->build_report =
      run_spatial_hadoop_impl(impl->left, impl->right, query, exec, config, impl.get());
  require(impl->build_report.status.ok(),
          "spatial_hadoop_build_resident: build failed: " +
              impl->build_report.status.message());
  SpatialHadoopResident resident;
  resident.impl_ = std::move(impl);
  return resident;
}

core::RunReport run_spatial_hadoop_resident(const SpatialHadoopResident& resident,
                                            const core::JoinQueryConfig& query,
                                            const core::ExecutionConfig& exec,
                                            const SpatialHadoopConfig& config,
                                            geom::PreparedCache* shared_cache) {
  require(resident.impl_ != nullptr,
          "run_spatial_hadoop_resident: resident state must be built first");
  const SpatialHadoopResident::Impl& impl = *resident.impl_;
  core::RunReport report;
  trace::TraceCollector collector(exec.cluster.node_count, exec.cluster.node.cores);
  try {
    const double expand = query.predicate == core::JoinPredicate::kWithinDistance
                              ? query.within_distance / 2.0
                              : 0.0;
    require(expand == impl.expand,
            "run_spatial_hadoop_resident: query envelope expansion differs "
            "from the resident build (rebuild the catalog entry)");
    // Fresh DFS + context per query, like the pre-indexed path: the block
    // files were persisted by the build run; nothing is re-put here.
    dfs::SimDfs dfs(dfs_config(query, exec));
    mapreduce::MrContext ctx{&exec.cluster, exec.data_scale, &dfs, &report.metrics,
                             &report.counters};
    if (exec.trace) ctx.trace = &collector;
    // Replay the ingest-time counters (partition.*, shuffle.*) captured at
    // build time: the resident parity tests compare the full counter set
    // against a cold batch run.
    report.counters.merge(impl.ingest_counters);
    finalize_report(
        report,
        run_distributed_join(ctx, impl.ia, impl.ib, query, config, shared_cache),
        exec);
    // With re-partitioning skipped the query has no indexing phases.
    report.index_a_seconds = 0.0;
    report.index_b_seconds = 0.0;
  } catch (const SjcError& e) {
    report.status = status_from_exception(e);
    report.total_seconds = report.metrics.total_seconds();
    core::annotate_recovery(report);
  }
  if (exec.trace) report.trace = collector.merged();
  return report;
}

// ---------------------------------------------------------------------------
// Pre-indexed ("re-partitioning skipped") path
// ---------------------------------------------------------------------------

struct SpatialHadoopIndex::Impl {
  IndexedDataset data;
};

double SpatialHadoopIndex::build_seconds() const { return metrics_.total_seconds(); }

std::size_t SpatialHadoopIndex::partition_count() const {
  std::size_t n = 0;
  for (const auto& block : impl_->data.blocks) {
    if (block != nullptr) ++n;
  }
  return n;
}

SpatialHadoopIndex spatial_hadoop_build_index(const workload::Dataset& data,
                                              const core::JoinQueryConfig& query,
                                              const core::ExecutionConfig& exec,
                                              const SpatialHadoopConfig& config) {
  SpatialHadoopIndex index;
  index.name_ = data.name();
  dfs::SimDfs dfs(dfs_config(query, exec));
  mapreduce::MrContext ctx{&exec.cluster, exec.data_scale, &dfs, &index.metrics_,
                           nullptr};
  auto impl = std::make_shared<SpatialHadoopIndex::Impl>();
  impl->data = index_dataset(ctx, data, data.name(), query, exec, config);
  index.impl_ = std::move(impl);
  return index;
}

core::RunReport run_spatial_hadoop_indexed(const SpatialHadoopIndex& left,
                                           const SpatialHadoopIndex& right,
                                           const core::JoinQueryConfig& query,
                                           const core::ExecutionConfig& exec,
                                           const SpatialHadoopConfig& config) {
  require(left.impl_ != nullptr && right.impl_ != nullptr,
          "run_spatial_hadoop_indexed: indexes must be built first");
  core::RunReport report;
  dfs::SimDfs dfs(dfs_config(query, exec));
  mapreduce::MrContext ctx{&exec.cluster, exec.data_scale, &dfs, &report.metrics,
                           &report.counters};
  trace::TraceCollector collector(exec.cluster.node_count, exec.cluster.node.cores);
  if (exec.trace) ctx.trace = &collector;
  finalize_report(
      report, run_distributed_join(ctx, left.impl_->data, right.impl_->data, query, config),
      exec);
  // With re-partitioning skipped the run has no indexing phases.
  report.index_a_seconds = 0.0;
  report.index_b_seconds = 0.0;
  if (exec.trace) report.trace = collector.merged();
  return report;
}

}  // namespace sjc::systems
