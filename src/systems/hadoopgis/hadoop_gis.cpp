#include "systems/hadoopgis/hadoop_gis.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "core/local_join.hpp"
#include "geom/wkt.hpp"
#include "index/rtree_dynamic.hpp"
#include "partition/partitioner.hpp"
#include "plan/partition_refiner.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "workload/quarantine.hpp"
#include "workload/tsv.hpp"

namespace sjc::systems {

namespace {

using core::JoinPair;
using mapreduce::StreamingSpec;

/// Splits `lines` into `n` contiguous chunks (HDFS block splits).
std::vector<std::vector<std::string>> chunk_lines(std::vector<std::string> lines,
                                                  std::size_t n) {
  std::vector<std::vector<std::string>> out;
  const std::size_t total = lines.size();
  const std::size_t per = (total + n - 1) / std::max<std::size_t>(n, 1);
  std::size_t i = 0;
  while (i < total) {
    const std::size_t end = std::min(i + per, total);
    out.emplace_back(std::make_move_iterator(lines.begin() + static_cast<std::ptrdiff_t>(i)),
                     std::make_move_iterator(lines.begin() + static_cast<std::ptrdiff_t>(end)));
    i = end;
  }
  if (out.empty()) out.emplace_back();
  return out;
}

std::uint64_t lines_bytes(const std::vector<std::string>& lines) {
  std::uint64_t total = 0;
  for (const auto& l : lines) total += l.size() + 1;
  return total;
}

std::string mbr_line(const geom::Envelope& e) {
  return "m\t" + format_double(e.min_x()) + " " + format_double(e.min_y()) + " " +
         format_double(e.max_x()) + " " + format_double(e.max_y());
}

geom::Envelope parse_mbr_line(const std::string& line) {
  // Reparse scratch: this runs once per record in the streaming loops, so
  // the token vectors are thread_local and reused instead of reallocated.
  static thread_local std::vector<std::string_view> fields;
  static thread_local std::vector<std::string_view> nums;
  split_into(line, '\t', fields);
  split_into(trim(fields.at(1)), ' ', nums);
  return {parse_double(nums.at(0)), parse_double(nums.at(1)), parse_double(nums.at(2)),
          parse_double(nums.at(3))};
}

struct PreprocessedDataset {
  std::vector<std::string> partitioned_lines;  // "p<pid>\t<id>\t<wkt>[\t<pad>]"
  std::vector<geom::Envelope> samples;
  std::uint64_t sample_text_bytes = 0;
  geom::Envelope extent;
};

struct GisContext {
  mapreduce::MrContext* mr;
  mapreduce::StreamingConfig streaming;
  const core::JoinQueryConfig* query;
  const core::ExecutionConfig* exec;
  const HadoopGisConfig* config;
  /// Sink for malformed records on every streaming reparse path; the
  /// hardened parse sites divert bad rows here instead of dying mid-phase.
  workload::RowQuarantine* quarantine;
};

/// The six-step HadoopGIS preprocessing for one dataset (paper §II.A).
PreprocessedDataset preprocess(GisContext& gis, const workload::Dataset& data,
                               const std::string& tag) {
  PreprocessedDataset out;
  mapreduce::MrContext& ctx = *gis.mr;
  const std::size_t split_count =
      std::max<std::size_t>(gis.exec->cluster.total_slots(),
                            data.text_bytes() / ctx.dfs->config().block_size + 1);

  // Raw input as it lands in HDFS, plus any junk rows the fault plan
  // injects (extra lines, never corrupted real ones — so a run that
  // quarantines them all joins bit-identically to the fault-free run).
  auto raw_lines = workload::dataset_to_tsv(data, /*include_pad=*/true);
  if (gis.config->faults.malformed_rows > 0) {
    workload::inject_malformed_rows(
        raw_lines, gis.config->faults.malformed_rows,
        gis.config->faults.seed ^ std::hash<std::string>{}(tag));
    if (ctx.counters != nullptr) {
      ctx.counters->add("input.malformed_rows_injected",
                        gis.config->faults.malformed_rows);
    }
  }
  auto raw_splits = chunk_lines(std::move(raw_lines), split_count);
  {
    std::uint64_t raw_bytes = 0;
    for (const auto& s : raw_splits) raw_bytes += lines_bytes(s);
    ctx.dfs->put(tag + ".raw", std::any(), raw_bytes);
  }

  // ---- Step 1: map-only convert-to-TSV job (reads/writes everything) ------
  StreamingSpec convert;
  convert.name = tag + "/1-convert";
  convert.config = gis.streaming;
  convert.map = [](const std::string& line, std::vector<std::string>& emit) {
    // Format conversion: the real system rewrites OGR fields to TSV; the
    // work that remains at this fidelity is copying every byte through.
    emit.push_back(line);
  };
  auto converted = chunk_lines(
      mapreduce::run_streaming_map_only(ctx, convert, raw_splits), split_count);
  raw_splits.clear();

  // ---- Step 2: map-only sample job (parses WKT of every record!) ----------
  Rng sample_base(gis.query->seed ^ std::hash<std::string>{}(tag));
  StreamingSpec sample;
  sample.name = tag + "/2-sample";
  sample.config = gis.streaming;
  const double sample_rate = core::effective_sample_rate(
      gis.query->sample_rate, data.size(),
      core::effective_target_partitions(*gis.query, gis.exec->cluster));
  workload::RowQuarantine* quarantine = gis.quarantine;
  const std::string sample_site = sample.name;
  sample.make_mapper = [&, quarantine, sample_site](std::size_t task)
      -> mapreduce::StreamingMapFn {
    auto rng = std::make_shared<Rng>(sample_base.fork(task));
    const double rate = sample_rate;
    return [rng, rate, quarantine, sample_site](const std::string& line,
                                                std::vector<std::string>& emit) {
      std::string error;
      const auto f = workload::try_feature_from_tsv(line, &error);
      if (!f) {
        quarantine->divert(sample_site, line, error);
        return;
      }
      if (rng->bernoulli(rate)) emit.push_back(mbr_line(f->geometry.envelope()));
    };
  };
  const auto sample_lines = mapreduce::run_streaming_map_only(ctx, sample, converted);
  out.sample_text_bytes = lines_bytes(sample_lines);

  // ---- Step 3: MR job, single reducer: dataset extent ----------------------
  StreamingSpec extent_job;
  extent_job.name = tag + "/3-extent";
  extent_job.config = gis.streaming;
  extent_job.config.mr.reduce_tasks = 1;
  extent_job.map = [](const std::string& line, std::vector<std::string>& emit) {
    emit.push_back(line);  // constant key "m": everything meets at one reducer
  };
  extent_job.reduce = [](const std::vector<std::string>& lines,
                         std::vector<std::string>& emit) {
    geom::Envelope extent;
    for (const auto& line : lines) extent.expand_to_include(parse_mbr_line(line));
    emit.push_back(mbr_line(extent));
  };
  const auto extent_lines =
      mapreduce::run_streaming(ctx, extent_job, chunk_lines(sample_lines, 4));
  out.extent = parse_mbr_line(extent_lines.at(0));

  // ---- Step 4: map-only normalize job --------------------------------------
  const geom::Envelope extent = out.extent;
  StreamingSpec normalize;
  normalize.name = tag + "/4-normalize";
  normalize.config = gis.streaming;
  normalize.map = [extent](const std::string& line, std::vector<std::string>& emit) {
    const geom::Envelope e = parse_mbr_line(line);
    const double w = std::max(extent.width(), 1e-12);
    const double h = std::max(extent.height(), 1e-12);
    emit.push_back(mbr_line({(e.min_x() - extent.min_x()) / w,
                             (e.min_y() - extent.min_y()) / h,
                             (e.max_x() - extent.min_x()) / w,
                             (e.max_y() - extent.min_y()) / h}));
  };
  const auto norm_lines = mapreduce::run_streaming_map_only(
      ctx, normalize, chunk_lines(sample_lines, gis.exec->cluster.total_slots()));

  // ---- Step 5: local serial partition generation ---------------------------
  // Samples are copied out of HDFS, partitions computed serially and copied
  // back — the paper flags the copy round-trip as a bottleneck.
  CpuStopwatch master_cpu;
  out.samples.reserve(norm_lines.size());
  {
    const double w = std::max(extent.width(), 1e-12);
    const double h = std::max(extent.height(), 1e-12);
    for (const auto& line : norm_lines) {
      const geom::Envelope n = parse_mbr_line(line);
      out.samples.emplace_back(extent.min_x() + n.min_x() * w,
                               extent.min_y() + n.min_y() * h,
                               extent.min_x() + n.max_x() * w,
                               extent.min_y() + n.max_y() * h);
    }
  }
  const std::uint32_t target_cells =
      core::effective_target_partitions(*gis.query, gis.exec->cluster);
  const partition::PartitionScheme scheme = partition::make_partitions(
      gis.query->partitioner, out.samples, data.extent(), target_cells);
  ctx.dfs->put(tag + ".partitions", std::any(), scheme.size_bytes());
  mapreduce::charge_master_step(ctx, tag + "/5-local-partition", master_cpu.seconds(),
                                /*read=*/lines_bytes(norm_lines),
                                /*write=*/scheme.size_bytes() + lines_bytes(norm_lines));

  // ---- Step 6: MR job assigning partition ids ------------------------------
  StreamingSpec assign;
  assign.name = tag + "/6-assign";
  assign.config = gis.streaming;
  // Shared across mapper tasks: records replicated to >1 cell by the
  // multi-assignment (boundary-straddling MBRs) — the same quantity the
  // other two systems report as partition.duplicated_records.
  auto dup_records = std::make_shared<std::atomic<std::uint64_t>>(0);
  const std::string assign_site = assign.name;
  assign.make_mapper = [&scheme, dup_records, quarantine,
                        assign_site](std::size_t) -> mapreduce::StreamingMapFn {
    // Every mapper rebuilds the partition index (insert-built R-tree on the
    // broadcast partition file) — a HadoopGIS design cost the paper calls
    // out explicitly.
    auto tree = std::make_shared<index::DynamicRTree>();
    for (std::uint32_t pid = 0; pid < scheme.cell_count(); ++pid) {
      tree->insert(scheme.cells()[pid], pid);
    }
    const auto* scheme_ptr = &scheme;
    return [tree, scheme_ptr, dup_records, quarantine,
            assign_site](const std::string& line, std::vector<std::string>& emit) {
      std::string error;
      const auto f = workload::try_feature_from_tsv(line, &error);
      if (!f) {
        quarantine->divert(assign_site, line, error);
        return;
      }
      std::vector<std::uint32_t> pids = tree->query_ids(f->geometry.envelope());
      if (pids.empty()) pids = scheme_ptr->assign(f->geometry.envelope());
      if (!pids.empty()) {
        dup_records->fetch_add(pids.size() - 1, std::memory_order_relaxed);
      }
      for (const auto pid : pids) {
        emit.push_back("p" + std::to_string(pid) + "\t" + line);
      }
    };
  };
  assign.reduce = [](const std::vector<std::string>& lines,
                     std::vector<std::string>& emit) {
    // cat | sort | uniq: input arrives sorted; drop exact duplicates.
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (i == 0 || lines[i] != lines[i - 1]) emit.push_back(lines[i]);
    }
  };
  out.partitioned_lines = mapreduce::run_streaming(ctx, assign, converted);
  if (ctx.counters != nullptr) {
    ctx.counters->add("partition.duplicated_records",
                      dup_records->load(std::memory_order_relaxed));
  }
  return out;
}

/// Steps (b) and (c) of the HadoopGIS join — the big distributed-join
/// streaming job and the sort-unique dedup job — shared verbatim by the
/// cold batch driver and the resident serving path: given the same inputs
/// (partitioned line splits, joint scheme, occupancy bitmaps) both produce
/// bit-identical pair sets and identical shuffle.* / refine.* / join.*
/// counters. `shared_cache`, when non-null, is a cross-query
/// geom::PreparedCache owned by the caller (the serving catalog); the
/// cache-hit counters always record only this run's delta.
std::vector<JoinPair> run_gis_join(mapreduce::MrContext& ctx,
                                   const mapreduce::StreamingConfig& streaming,
                                   const core::JoinQueryConfig& query,
                                   const core::ExecutionConfig& exec,
                                   const HadoopGisConfig& config,
                                   const partition::PartitionScheme& joint_scheme,
                                   const geom::OccupancyFilter* filt_a,
                                   const geom::OccupancyFilter* filt_b,
                                   bool filter_on,
                                   const std::vector<std::vector<std::string>>& splits,
                                   std::size_t n_a,
                                   workload::RowQuarantine& quarantine_sink,
                                   geom::PreparedCache* shared_cache,
                                   core::RunReport& report) {
  const std::size_t slots = exec.cluster.total_slots();

  core::LocalJoinSpec local_spec;
  local_spec.algorithm = query.local_algorithm.value_or(config.local_algorithm);
  local_spec.engine = &geom::GeometryEngine::get(config.engine);
  local_spec.predicate = query.predicate;
  local_spec.within_distance = query.within_distance;
  // Run-scoped refiner cache (or the caller's resident cache); inert under
  // the default Simple (GEOS-analog) engine — run_local_join consults it
  // only for the Prepared engine, so the system's measured per-call
  // refinement cost is unchanged. A resident cache carries hit/miss history
  // from earlier queries, so snapshot and report only this run's delta.
  geom::PreparedCache local_cache;
  geom::PreparedCache& prepared_cache =
      shared_cache != nullptr ? *shared_cache : local_cache;
  const std::uint64_t cache_hits0 = prepared_cache.hits();
  const std::uint64_t cache_misses0 = prepared_cache.misses();
  local_spec.prepared_cache = &prepared_cache;
  // refine.* accounting (thread-safe; flushed once per run_local_join
  // call). Under the default Simple engine every refined candidate counts
  // as an exact test — the approximations are a Prepared-path feature.
  local_spec.refine_counters = &report.counters;

  const double expand = local_spec.envelope_expansion();

  // Shared across map tasks; run_streaming executes user code exactly once
  // per task, so retries never double-count (same pattern as dup_records).
  auto shuffle_assigned = std::make_shared<std::atomic<std::uint64_t>>(0);
  auto shuffle_emitted = std::make_shared<std::atomic<std::uint64_t>>(0);
  auto filtered_line_bytes = std::make_shared<std::atomic<std::uint64_t>>(0);

  StreamingSpec join_job;
  join_job.name = "join/b-distributed-join";
  join_job.config = streaming;
  workload::RowQuarantine* quarantine = &quarantine_sink;
  join_job.make_mapper = [&joint_scheme, n_a, expand, quarantine, filt_a,
                          filt_b, shuffle_assigned, shuffle_emitted,
                          filtered_line_bytes](std::size_t task)
      -> mapreduce::StreamingMapFn {
    const char side = task < n_a ? 'A' : 'B';
    // Each side drops against the *other* side's occupancy bitmap.
    const geom::OccupancyFilter* filt = side == 'A' ? filt_b : filt_a;
    auto tree = std::make_shared<index::DynamicRTree>();
    for (std::uint32_t pid = 0; pid < joint_scheme.cell_count(); ++pid) {
      tree->insert(joint_scheme.cells()[pid], pid);
    }
    const auto* scheme_ptr = &joint_scheme;
    return [tree, scheme_ptr, side, expand, quarantine, filt, shuffle_assigned,
            shuffle_emitted, filtered_line_bytes](
               const std::string& line, std::vector<std::string>& emit) {
      // Input lines look like "p<pid>\t<id>\t<wkt>[\t<pad>]": the stale
      // pid is skipped, the record re-parsed, the joint index queried.
      std::string error;
      const auto parsed = workload::try_feature_from_tsv_at(line, 1, &error);
      if (!parsed) {
        quarantine->divert("join/b-distributed-join.map", line, error);
        return;
      }
      const geom::Feature& f = *parsed;
      // View, not substr: the emitted line is assembled below without an
      // intermediate copy of the record tail.
      const std::string_view rest = std::string_view(line).substr(line.find('\t') + 1);
      const geom::Envelope env = f.geometry.envelope().expanded_by(expand);
      std::vector<std::uint32_t> pids = tree->query_ids(env);
      if (pids.empty()) pids = scheme_ptr->assign(env);
      if (filt != nullptr) {
        shuffle_assigned->fetch_add(pids.size(), std::memory_order_relaxed);
        // Drop tile copies with no occupied slot under the envelope: the
        // line is never built, never buffered, never crosses the pipe.
        std::size_t kept = 0;
        std::uint64_t dropped_bytes = 0;
        for (const auto pid : pids) {
          if (filt->may_match(pid, env)) {
            pids[kept++] = pid;
          } else {
            // Size of the "j<pid>\t<side>\t<rest>" line (+1 for the
            // newline the pipe accounting charges per emitted line).
            dropped_bytes += rest.size() + std::to_string(pid).size() + 5;
          }
        }
        if (dropped_bytes > 0) {
          filtered_line_bytes->fetch_add(dropped_bytes,
                                         std::memory_order_relaxed);
        }
        pids.resize(kept);
        shuffle_emitted->fetch_add(pids.size(), std::memory_order_relaxed);
      }
      for (const auto pid : pids) {
        std::string out;
        out.reserve(rest.size() + 16);
        out += 'j';
        out += std::to_string(pid);
        out += '\t';
        out += side;
        out += '\t';
        out += rest;
        emit.push_back(std::move(out));
      }
    };
  };
  // Query-owned scratch pool instead of a `static thread_local` scratch:
  // index trees and candidate buffers stay warm across the cells a reducer
  // thread processes but die with the query, so nothing survives onto the
  // pool threads a serving process keeps around (see core::ScratchPool).
  core::ScratchPool scratch_pool;
  join_job.reduce = [&local_spec, &scratch_pool, quarantine](
                        const std::vector<std::string>& lines,
                        std::vector<std::string>& emit) {
    // Lines arrive sorted, so partitions are contiguous and, within one,
    // side A sorts before side B.
    std::size_t i = 0;
    while (i < lines.size()) {
      const std::string_view key = mapreduce::streaming_key(lines[i]);
      std::vector<geom::Feature> left_features;
      std::vector<geom::Feature> right_features;
      while (i < lines.size() && mapreduce::streaming_key(lines[i]) == key) {
        static thread_local std::vector<std::string_view> fields;
        split_into(lines[i], '\t', fields);
        std::string error;
        auto f = workload::try_feature_from_tsv_at(lines[i], 2, &error);
        if (!f) {
          quarantine->divert("join/b-distributed-join.reduce", lines[i], error);
          ++i;
          continue;
        }
        (fields.at(1) == "A" ? left_features : right_features)
            .push_back(std::move(*f));
        ++i;
      }
      std::vector<JoinPair> pairs;
      auto scratch = scratch_pool.acquire();
      core::run_local_join(std::span<const geom::Feature>(left_features),
                           std::span<const geom::Feature>(right_features), local_spec,
                           core::AcceptAllPairs{}, *scratch, pairs);
      for (const auto& p : pairs) {
        emit.push_back(std::to_string(p.left_id) + "\t" + std::to_string(p.right_id));
      }
    }
  };
  const auto pair_lines = mapreduce::run_streaming(ctx, join_job, splits);
  if (filter_on) {
    const std::uint64_t assigned = shuffle_assigned->load(std::memory_order_relaxed);
    const std::uint64_t emitted = shuffle_emitted->load(std::memory_order_relaxed);
    report.counters.add("shuffle.assigned_records", assigned);
    report.counters.add("shuffle.records", emitted);
    report.counters.add("shuffle.filtered_records", assigned - emitted);
    report.counters.add("shuffle.filtered_bytes",
                        filtered_line_bytes->load(std::memory_order_relaxed));
  }
  report.counters.add("join.pair_lines_before_dedup", pair_lines.size());
  report.counters.add("join.prepared_cache_hits",
                      prepared_cache.hits() - cache_hits0);
  report.counters.add("join.prepared_cache_misses",
                      prepared_cache.misses() - cache_misses0);

  // ---- Step (c): sort-unique dedup job ------------------------------------
  StreamingSpec dedup;
  dedup.name = "join/c-dedup";
  dedup.config = streaming;
  dedup.map = [](const std::string& line, std::vector<std::string>& emit) {
    emit.push_back(line);
  };
  dedup.reduce = [](const std::vector<std::string>& lines,
                    std::vector<std::string>& emit) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (i == 0 || lines[i] != lines[i - 1]) emit.push_back(lines[i]);
    }
  };
  const auto final_lines =
      mapreduce::run_streaming(ctx, dedup, chunk_lines(pair_lines, slots));

  report.counters.add("join.pair_lines_after_dedup", final_lines.size());
  std::vector<JoinPair> pairs;
  pairs.reserve(final_lines.size());
  std::vector<std::string_view> fields;  // master-side reuse, one per loop
  for (const auto& line : final_lines) {
    split_into(line, '\t', fields);
    pairs.push_back({parse_u64(fields.at(0)), parse_u64(fields.at(1))});
  }
  return pairs;
}

mapreduce::StreamingConfig make_streaming_config(const core::ExecutionConfig& exec,
                                                 const HadoopGisConfig& config) {
  mapreduce::StreamingConfig streaming;
  streaming.mr = config.mr;
  streaming.pipe_bandwidth = config.pipe_bandwidth;
  streaming.pipe_capacity_bytes = static_cast<std::uint64_t>(
      config.pipe_capacity_fraction *
      static_cast<double>(exec.cluster.node.memory_bytes) / exec.cluster.node.cores *
      (exec.cluster.node_count > 1 ? config.multi_node_pipe_derating : 1.0));
  return streaming;
}

dfs::DfsConfig gis_dfs_config(const core::JoinQueryConfig& query,
                              const core::ExecutionConfig& exec) {
  return dfs::DfsConfig{
      .block_size = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(64.0 * 1024 * 1024 / exec.data_scale)),
      .replication = 3,
      .datanode_count = exec.cluster.node_count,
      .seed = query.seed,
  };
}

}  // namespace

/// Everything the serving layer keeps resident between queries for one
/// dataset pair: the partitioned line files both preprocessing pipelines
/// produced (already chunked into the join job's splits — the chunking
/// depends only on the cluster's slot count, which is fixed per catalog
/// entry), the joint partition scheme, the occupancy bitmaps, and the
/// ingest-time counters — replayed into every resident query's report so
/// the full counter set matches a cold batch run exactly.
struct HadoopGisResident::Impl {
  std::vector<std::vector<std::string>> splits;  // A chunks then B chunks
  std::size_t n_a = 0;
  std::optional<partition::PartitionScheme> joint_scheme;
  std::unique_ptr<geom::OccupancyFilter> sfilter_a;  // A occupancy, filters B
  std::unique_ptr<geom::OccupancyFilter> sfilter_b;  // B occupancy, filters A
  bool filter_on = false;
  double expand = 0.0;
  cluster::Counters ingest_counters;
  core::RunReport build_report;
};

namespace {

core::RunReport run_hadoop_gis_impl(const workload::Dataset& left,
                                    const workload::Dataset& right,
                                    const core::JoinQueryConfig& query,
                                    const core::ExecutionConfig& exec,
                                    const HadoopGisConfig& config,
                                    HadoopGisResident::Impl* capture) {
  core::RunReport report;
  trace::TraceCollector collector(exec.cluster.node_count, exec.cluster.node.cores);
  // Two sinks so the ingest share of the quarantine counters can be captured
  // for resident replay; a cold run's totals are the sum of both, identical
  // to the seed single-sink accounting.
  workload::RowQuarantine build_quarantine;
  workload::RowQuarantine join_quarantine;
  // Ingest counters accumulate separately and are merged into the run's
  // counters once preprocessing is done — totals are unchanged for a cold
  // run, and a resident build keeps the ingest share for replay.
  cluster::Counters ingest_counters;
  bool ingest_merged = false;

  try {
    // Fault-plan validation (FaultInjector's constructor) and DFS setup can
    // throw on a bad plan: inside the try so a chaos-generated invalid plan
    // reports a structured Status instead of escaping the driver.
    dfs::SimDfs dfs(gis_dfs_config(query, exec));
    const cluster::FaultInjector faults(config.faults);
    mapreduce::MrContext ctx{&exec.cluster, exec.data_scale, &dfs, &report.metrics,
                             &ingest_counters, &faults};
    if (exec.trace) ctx.trace = &collector;

    const mapreduce::StreamingConfig streaming = make_streaming_config(exec, config);

    GisContext gis{&ctx, streaming, &query, &exec, &config, &build_quarantine};

    // ---- Preprocessing (IA, IB) --------------------------------------------
    PreprocessedDataset pa = preprocess(gis, left, "A");
    PreprocessedDataset pb = preprocess(gis, right, "B");

    // ---- Global join step (a): joint partitions built locally --------------
    // The per-dataset partition ids cannot be reused (invisible through
    // streaming), so the samples are concatenated and re-partitioned on the
    // master — with the HDFS copy round-trips charged.
    CpuStopwatch master_cpu;
    std::vector<geom::Envelope> joint_samples = pa.samples;
    joint_samples.insert(joint_samples.end(), pb.samples.begin(), pb.samples.end());
    geom::Envelope joint_extent = left.extent();
    joint_extent.expand_to_include(right.extent());
    const std::uint32_t target_cells =
        core::effective_target_partitions(query, exec.cluster);
    partition::PartitionScheme joint_scheme = partition::make_partitions(
        query.partitioner, joint_samples, joint_extent, target_cells);
    dfs.put("join.partitions", std::any(), joint_scheme.size_bytes());
    mapreduce::charge_master_step(ctx, "join/a-joint-partition", master_cpu.seconds(),
                                  pa.sample_text_bytes + pb.sample_text_bytes,
                                  joint_scheme.size_bytes());

    // ---- Global+local join step (b) inputs ---------------------------------
    const std::size_t slots = exec.cluster.total_slots();
    auto splits_a = chunk_lines(std::move(pa.partitioned_lines), slots);
    const std::size_t n_a = splits_a.size();
    {
      auto splits_b = chunk_lines(std::move(pb.partitioned_lines), slots);
      for (auto& s : splits_b) splits_a.push_back(std::move(s));
    }

    const double expand = query.predicate == core::JoinPredicate::kWithinDistance
                              ? query.within_distance / 2.0
                              : 0.0;

    // ---- Global join step (a1): optional skew-aware tile refinement ---------
    // Probe the per-tile load the join mappers below would push through the
    // streaming pipes (the same expanded-envelope assignment over both
    // datasets, tallied instead of emitted), split hotspot tiles on the
    // master, and rewrite the partition file — the filter bitmaps and the
    // join job then see the refined tile set.
    if (config.policy.repartition.value_or(false)) {
      CpuStopwatch skew_cpu;
      const plan::PartitionRefiner refiner(query.partitioner, config.policy.skew);
      const auto probe = [&](const partition::PartitionScheme& s) {
        std::vector<plan::CellLoad> loads(s.cell_count());
        std::vector<std::uint32_t> pids;
        const auto tally = [&](const workload::Dataset& data) {
          const auto envs = data.envelopes();
          for (std::size_t i = 0; i < envs.size(); ++i) {
            s.assign_into(envs[i].expanded_by(expand), pids);
            const std::uint64_t bytes = 4 + data.record_text_bytes(i);
            for (const auto pid : pids) {
              ++loads[pid].records;
              loads[pid].bytes += bytes;
            }
          }
        };
        tally(left);
        tally(right);
        return loads;
      };
      plan::RefineResult refined = refiner.refine(joint_scheme, probe);
      if (ctx.counters != nullptr) {
        plan::record_repartition_counters(refined, *ctx.counters);
      }
      const std::uint64_t before_bytes = joint_scheme.size_bytes();
      joint_scheme = std::move(refined.scheme);
      dfs.put("join.partitions", std::any(), joint_scheme.size_bytes());
      mapreduce::charge_master_step(ctx, "join/a1-skew-refine", skew_cpu.seconds(),
                                    before_bytes, joint_scheme.size_bytes());
    }

    // ---- Global join step (a2): optional shuffle filter ---------------------
    // LocationSpark's sFilter analog: a master-side pass over each dataset
    // replays the join mapper's assignment (query + nearest-cell fallback)
    // and marks each record's expanded envelope into its tiles' occupancy
    // bitmaps. The scheme is joint, so filtering is symmetric: A-side
    // mappers drop tile line copies the B bitmap proves can match no B
    // geometry in that tile, and B-side mappers drop against the A bitmap —
    // before the line is pushed through the streaming pipe. Both bitmaps
    // ship to every mapper via the distributed cache.
    const bool filter_on = config.policy.shuffle_filter.value_or(true);
    std::unique_ptr<geom::OccupancyFilter> sfilter_b;  // B occupancy, filters A
    std::unique_ptr<geom::OccupancyFilter> sfilter_a;  // A occupancy, filters B
    if (filter_on) {
      CpuStopwatch filter_cpu;
      const auto build_occupancy = [&](const workload::Dataset& data) {
        auto filter = std::make_unique<geom::OccupancyFilter>(joint_scheme.cells());
        const auto envs = data.envelopes();
        std::vector<std::uint32_t> mark_pids;
        for (std::size_t i = 0; i < envs.size(); ++i) {
          const geom::Envelope env = envs[i].expanded_by(expand);
          joint_scheme.assign_into(env, mark_pids);
          for (const auto pid : mark_pids) filter->mark(pid, env);
        }
        return filter;
      };
      sfilter_b = build_occupancy(right);
      sfilter_a = build_occupancy(left);
      dfs.put("join.sfilter", std::any(),
              sfilter_a->size_bytes() + sfilter_b->size_bytes());
      mapreduce::charge_master_step(ctx, "join/a2-filter-build", filter_cpu.seconds(),
                                    left.text_bytes() + right.text_bytes(),
                                    sfilter_a->size_bytes() + sfilter_b->size_bytes());
    }
    const geom::OccupancyFilter* filt_b = sfilter_b.get();
    const geom::OccupancyFilter* filt_a = sfilter_a.get();

    // Preprocessing is done: fold its counters (including its quarantined
    // rows) into the run and point the context at the run's counters for
    // the join jobs.
    build_quarantine.flush_counters(ingest_counters);
    report.counters.merge(ingest_counters);
    ingest_merged = true;
    ctx.counters = &report.counters;

    if (capture != nullptr) {
      capture->splits = splits_a;
      capture->n_a = n_a;
      capture->joint_scheme.emplace(joint_scheme);
      if (sfilter_a != nullptr) {
        capture->sfilter_a = std::make_unique<geom::OccupancyFilter>(*sfilter_a);
        capture->sfilter_b = std::make_unique<geom::OccupancyFilter>(*sfilter_b);
      }
      capture->filter_on = filter_on;
      capture->expand = expand;
      capture->ingest_counters = ingest_counters;
    }
    // ---- Steps (b) + (c): join + dedup streaming jobs -----------------------
    std::vector<JoinPair> pairs =
        run_gis_join(ctx, streaming, query, exec, config, joint_scheme, filt_a,
                     filt_b, filter_on, splits_a, n_a, join_quarantine,
                     /*shared_cache=*/nullptr, report);

    report.status = Status::Ok();
    report.result_count = pairs.size();
    report.result_hash = core::hash_pairs_unordered(pairs);
    if (exec.collect_pairs) report.pairs = std::move(pairs);
  } catch (const SjcError& e) {
    // BrokenPipe (pipe overflow past the retry budget), TaskFailed
    // (injected crash exhausting attempts), BlockUnavailable (all replicas
    // of an input lost), DeadlineExceeded / RetryBudgetExhausted (lifecycle
    // enforcement), InvalidArgument (a bad fault plan): every library error
    // becomes a structured Status — nothing escapes the driver.
    report.status = status_from_exception(e);
  }

  // A failure mid-preprocessing leaves the ingest share unmerged: fold it in
  // here so failed runs report the same counters as the seed single-counter
  // accounting did.
  if (!ingest_merged) {
    build_quarantine.flush_counters(ingest_counters);
    report.counters.merge(ingest_counters);
  }
  join_quarantine.flush_counters(report.counters);
  report.index_a_seconds = report.metrics.seconds_with_prefix("A/");
  report.index_b_seconds = report.metrics.seconds_with_prefix("B/");
  report.join_seconds = report.metrics.seconds_with_prefix("join/");
  report.total_seconds = report.metrics.total_seconds();
  if (exec.trace) report.trace = collector.merged();
  core::annotate_recovery(report);
  return report;
}

}  // namespace

core::RunReport run_hadoop_gis(const workload::Dataset& left,
                               const workload::Dataset& right,
                               const core::JoinQueryConfig& query,
                               const core::ExecutionConfig& exec,
                               const HadoopGisConfig& config) {
  return run_hadoop_gis_impl(left, right, query, exec, config, /*capture=*/nullptr);
}

const core::RunReport& HadoopGisResident::build_report() const {
  require(impl_ != nullptr, "HadoopGisResident: not built");
  return impl_->build_report;
}

HadoopGisResident hadoop_gis_build_resident(const workload::Dataset& left,
                                            const workload::Dataset& right,
                                            const core::JoinQueryConfig& query,
                                            const core::ExecutionConfig& exec,
                                            const HadoopGisConfig& config) {
  auto impl = std::make_shared<HadoopGisResident::Impl>();
  impl->build_report =
      run_hadoop_gis_impl(left, right, query, exec, config, impl.get());
  require(impl->build_report.status.ok(),
          "hadoop_gis_build_resident: build run failed: " +
              impl->build_report.status.message());
  HadoopGisResident resident;
  resident.impl_ = std::move(impl);
  return resident;
}

core::RunReport run_hadoop_gis_resident(const HadoopGisResident& resident,
                                        const core::JoinQueryConfig& query,
                                        const core::ExecutionConfig& exec,
                                        const HadoopGisConfig& config,
                                        geom::PreparedCache* shared_cache) {
  core::RunReport report;
  trace::TraceCollector collector(exec.cluster.node_count, exec.cluster.node.cores);
  workload::RowQuarantine join_quarantine;

  try {
    require(resident.impl_ != nullptr, "run_hadoop_gis_resident: not built");
    const HadoopGisResident::Impl& impl = *resident.impl_;
    {
      core::LocalJoinSpec probe;
      probe.predicate = query.predicate;
      probe.within_distance = query.within_distance;
      require(probe.envelope_expansion() == impl.expand,
              "run_hadoop_gis_resident: query envelope expansion does not "
              "match the resident build");
    }

    // Fresh runtime per query — a serving process answers each query on its
    // own simulated job, like the indexed SpatialHadoop path. The
    // preprocessing products (partition scheme, bitmaps, partitioned lines)
    // come from the catalog; no A/ or B/ phase runs, so IA/IB report as 0.
    dfs::SimDfs dfs(gis_dfs_config(query, exec));
    mapreduce::MrContext ctx{&exec.cluster, exec.data_scale, &dfs, &report.metrics,
                             &report.counters};
    if (exec.trace) ctx.trace = &collector;
    const mapreduce::StreamingConfig streaming = make_streaming_config(exec, config);

    // Replay the ingest-time counters so the resident report's counter set
    // (partition.*, quarantine.*, ...) matches a cold batch run exactly.
    report.counters.merge(impl.ingest_counters);

    std::vector<JoinPair> pairs = run_gis_join(
        ctx, streaming, query, exec, config, *impl.joint_scheme,
        impl.sfilter_a.get(), impl.sfilter_b.get(), impl.filter_on, impl.splits,
        impl.n_a, join_quarantine, shared_cache, report);

    report.status = Status::Ok();
    report.result_count = pairs.size();
    report.result_hash = core::hash_pairs_unordered(pairs);
    if (exec.collect_pairs) report.pairs = std::move(pairs);
  } catch (const SjcError& e) {
    report.status = status_from_exception(e);
  }

  join_quarantine.flush_counters(report.counters);
  report.index_a_seconds = 0.0;
  report.index_b_seconds = 0.0;
  report.join_seconds = report.metrics.seconds_with_prefix("join/");
  report.total_seconds = report.metrics.total_seconds();
  if (exec.trace) report.trace = collector.merged();
  core::annotate_recovery(report);
  return report;
}

}  // namespace sjc::systems
