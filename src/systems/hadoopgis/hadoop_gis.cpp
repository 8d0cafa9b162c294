#include "systems/hadoopgis/hadoop_gis.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <string_view>

#include "core/partition_plane.hpp"
#include "geom/wkt.hpp"
#include "index/rtree_dynamic.hpp"
#include "mapreduce/streaming.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "workload/quarantine.hpp"
#include "workload/tsv.hpp"

namespace sjc::systems {

namespace {

using core::chunk_lines;
using core::JoinPair;
using mapreduce::StreamingMapFn;
using mapreduce::StreamingSpec;

/// A mapper factory handing every map task the same stateless mapper.
std::function<StreamingMapFn(std::size_t)> every_task(StreamingMapFn mapper) {
  return [mapper = std::move(mapper)](std::size_t) { return mapper; };
}

void copy_line(const std::string& line, std::vector<std::string>& emit) {
  emit.push_back(line);
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
  mapreduce::MrConfig streaming;
  const core::JoinQueryConfig* query;
  const core::ExecutionConfig* exec;
  const HadoopGisConfig* config;
  const core::PartitionPlane* plane;
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
  auto raw_splits = chunk_lines(
      core::input_lines(data, tag, gis.config->faults, ctx.counters), split_count);
  {
    std::uint64_t raw_bytes = 0;
    for (const auto& s : raw_splits) raw_bytes += StreamingSpec::split_bytes(s);
    ctx.dfs->put(tag + ".raw", raw_bytes);
  }

  // ---- Step 1: map-only convert-to-TSV job (reads/writes everything) ------
  StreamingSpec convert;
  convert.name = tag + "/1-convert";
  convert.config = gis.streaming;
  // Format conversion: the real system rewrites OGR fields to TSV; the work
  // that remains at this fidelity is copying every byte through.
  convert.make_mapper = every_task(copy_line);
  auto converted =
      chunk_lines(mapreduce::run_map_only(ctx, convert, raw_splits), split_count);
  raw_splits.clear();

  // ---- Step 2: map-only sample job (parses WKT of every record!) ----------
  Rng sample_base(gis.query->seed ^ std::hash<std::string>{}(tag));
  StreamingSpec sample;
  sample.name = tag + "/2-sample";
  sample.config = gis.streaming;
  const double sample_rate = gis.plane->sample_rate(data.size());
  workload::RowQuarantine* quarantine = gis.quarantine;
  const std::string sample_site = sample.name;
  sample.make_mapper = [&, quarantine, sample_site](std::size_t task) -> StreamingMapFn {
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
  const auto sample_lines = mapreduce::run_map_only(ctx, sample, converted);
  out.sample_text_bytes = StreamingSpec::split_bytes(sample_lines);

  // ---- Step 3: MR job, single reducer: dataset extent ----------------------
  StreamingSpec extent_job;
  extent_job.name = tag + "/3-extent";
  extent_job.config = gis.streaming;
  extent_job.config.reduce_tasks = 1;
  // Constant key "m": everything meets at one reducer.
  extent_job.make_mapper = every_task(copy_line);
  extent_job.reduce = [](const std::vector<std::string>& lines,
                         std::vector<std::string>& emit) {
    geom::Envelope extent;
    for (const auto& line : lines) extent.expand_to_include(parse_mbr_line(line));
    emit.push_back(mbr_line(extent));
  };
  const auto extent_lines =
      mapreduce::run_map_reduce(ctx, extent_job, chunk_lines(sample_lines, 4));
  out.extent = parse_mbr_line(extent_lines.at(0));

  // ---- Step 4: map-only normalize job --------------------------------------
  const geom::Envelope extent = out.extent;
  StreamingSpec normalize;
  normalize.name = tag + "/4-normalize";
  normalize.config = gis.streaming;
  normalize.make_mapper = every_task([extent](const std::string& line,
                                              std::vector<std::string>& emit) {
    const geom::Envelope e = parse_mbr_line(line);
    const double w = std::max(extent.width(), 1e-12);
    const double h = std::max(extent.height(), 1e-12);
    emit.push_back(mbr_line({(e.min_x() - extent.min_x()) / w,
                             (e.min_y() - extent.min_y()) / h,
                             (e.max_x() - extent.min_x()) / w,
                             (e.max_y() - extent.min_y()) / h}));
  });
  const auto norm_lines = mapreduce::run_map_only(
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
  const partition::PartitionScheme scheme =
      gis.plane->make_scheme(out.samples, data.extent());
  ctx.dfs->put(tag + ".partitions", scheme.size_bytes());
  const std::uint64_t norm_bytes = StreamingSpec::split_bytes(norm_lines);
  mapreduce::charge_master_step(ctx, tag + "/5-local-partition", master_cpu.seconds(),
                                /*read=*/norm_bytes, /*write=*/scheme.size_bytes() + norm_bytes);

  // ---- Step 6: MR job assigning partition ids ------------------------------
  StreamingSpec assign;
  assign.name = tag + "/6-assign";
  assign.config = gis.streaming;
  // Records replicated to >1 cell by the multi-assignment (boundary-
  // straddling MBRs): the same quantity the other two systems report as
  // partition.duplicated_records.
  core::ShuffleTally tally(*ctx.counters, {.duplicates = true});
  const std::string assign_site = assign.name;
  assign.make_mapper = [&scheme, &tally, quarantine,
                        assign_site](std::size_t) -> StreamingMapFn {
    // Every mapper rebuilds the partition index (insert-built R-tree on the
    // broadcast partition file) — a HadoopGIS design cost the paper calls
    // out explicitly.
    auto tree = std::make_shared<index::DynamicRTree>();
    for (std::uint32_t pid = 0; pid < scheme.cell_count(); ++pid) {
      tree->insert(scheme.cells()[pid], pid);
    }
    const auto* scheme_ptr = &scheme;
    auto* tally_ptr = &tally;
    return [tree, scheme_ptr, tally_ptr, quarantine,
            assign_site](const std::string& line, std::vector<std::string>& emit) {
      std::string error;
      const auto f = workload::try_feature_from_tsv(line, &error);
      if (!f) {
        quarantine->divert(assign_site, line, error);
        return;
      }
      std::vector<std::uint32_t> pids = tree->query_ids(f->geometry.envelope());
      if (pids.empty()) pids = scheme_ptr->assign(f->geometry.envelope());
      tally_ptr->add(pids.size());
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
  out.partitioned_lines = mapreduce::run_map_reduce(ctx, assign, converted);
  return out;
}

/// What the join jobs (b) and (c) read: the partitioned line files of both
/// inputs chunked into the join job's splits (A chunks, then B chunks — the
/// chunking depends only on the cluster's slot count), the joint partition
/// scheme, both occupancy bitmaps when the shuffle filter is on, and the
/// envelope expansion the bitmaps were built with.
struct JoinInputs {
  std::vector<std::vector<std::string>> splits;
  std::size_t n_a = 0;
  std::optional<partition::PartitionScheme> joint_scheme;
  std::optional<geom::OccupancyFilter> occupancy_a;  // filters B
  std::optional<geom::OccupancyFilter> occupancy_b;  // filters A
  double expand = 0.0;
};

/// Steps (b) and (c) of the HadoopGIS join — the big distributed-join
/// streaming job and the sort-unique dedup job — shared verbatim by the
/// cold batch driver and the resident serving path: given the same inputs
/// both produce bit-identical pair sets and identical shuffle.* / refine.* /
/// join.* counters. `shared_cache`, when non-null, is a cross-query
/// geom::PreparedCache owned by the caller (the serving catalog); the
/// Simple (GEOS-analog) engine never consults it.
std::vector<JoinPair> run_gis_join(mapreduce::MrContext& ctx,
                                   const mapreduce::MrConfig& streaming,
                                   const core::JoinQueryConfig& query,
                                   const core::ExecutionConfig& exec,
                                   const HadoopGisConfig& config, const JoinInputs& in,
                                   workload::RowQuarantine& quarantine_sink,
                                   geom::PreparedCache* shared_cache,
                                   core::RunReport& report) {
  // The local join probes a libspatialindex-style R-tree, insert-built per
  // task.
  core::LocalJoinStage stage(query, index::LocalJoinAlgorithm::kIndexedNestedLoopDynamic,
                             config.engine, report.counters, shared_cache);
  core::ShuffleTally tally(report.counters, {.shuffle = in.occupancy_a.has_value()});

  StreamingSpec join_job;
  join_job.name = "join/b-distributed-join";
  join_job.config = streaming;
  workload::RowQuarantine* quarantine = &quarantine_sink;
  join_job.make_mapper = [&in, &tally, quarantine](std::size_t task) -> StreamingMapFn {
    const char side = task < in.n_a ? 'A' : 'B';
    // Each side drops against the *other* side's occupancy bitmap.
    const auto& occupancy = side == 'A' ? in.occupancy_b : in.occupancy_a;
    const geom::OccupancyFilter* filt = occupancy ? &*occupancy : nullptr;
    auto tree = std::make_shared<index::DynamicRTree>();
    for (std::uint32_t pid = 0; pid < in.joint_scheme->cell_count(); ++pid) {
      tree->insert(in.joint_scheme->cells()[pid], pid);
    }
    const partition::PartitionScheme* scheme_ptr = &*in.joint_scheme;
    core::ShuffleTally* tally_ptr = &tally;
    const double expand = in.expand;
    return [tree, scheme_ptr, side, expand, quarantine, filt, tally_ptr](
               const std::string& line, std::vector<std::string>& emit) {
      // Input lines look like "p<pid>\t<id>\t<wkt>[\t<pad>]": the stale
      // pid is skipped, the record re-parsed, the joint index queried.
      std::string error;
      const auto parsed = workload::try_feature_from_tsv_at(line, 1, &error);
      if (!parsed) {
        quarantine->divert("join/b-distributed-join.map", line, error);
        return;
      }
      // View, not substr: the emitted line is assembled below without an
      // intermediate copy of the record tail.
      const std::string_view rest = std::string_view(line).substr(line.find('\t') + 1);
      const geom::Envelope env = parsed->geometry.envelope().expanded_by(expand);
      std::vector<std::uint32_t> pids = tree->query_ids(env);
      if (pids.empty()) pids = scheme_ptr->assign(env);
      // Filtered tile copies are never built, buffered or piped. A copy is
      // the "j<pid>\t<side>\t<rest>" line plus the newline the pipe
      // accounting charges.
      tally_ptr->keep_matching(pids, env, filt, [&rest](std::uint32_t pid) {
        return rest.size() + std::to_string(pid).size() + 5;
      });
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
  join_job.reduce = [&stage, quarantine](const std::vector<std::string>& lines,
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
      stage.run(std::span<const geom::Feature>(left_features),
                std::span<const geom::Feature>(right_features), core::AcceptAllPairs{},
                pairs);
      for (const auto& p : pairs) {
        emit.push_back(std::to_string(p.left_id) + "\t" + std::to_string(p.right_id));
      }
    }
  };
  const auto pair_lines = mapreduce::run_map_reduce(ctx, join_job, in.splits);
  report.counters.add("join.pair_lines_before_dedup", pair_lines.size());
  stage.record_cache_counters();

  // ---- Step (c): sort-unique dedup job ------------------------------------
  StreamingSpec dedup;
  dedup.name = "join/c-dedup";
  dedup.config = streaming;
  dedup.make_mapper = every_task(copy_line);
  dedup.reduce = [](const std::vector<std::string>& lines,
                    std::vector<std::string>& emit) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (i == 0 || lines[i] != lines[i - 1]) emit.push_back(lines[i]);
    }
  };
  const auto final_lines = mapreduce::run_map_reduce(
      ctx, dedup, chunk_lines(pair_lines, exec.cluster.total_slots()));

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

/// Extra pipe-capacity derating on multi-node clusters: distributed
/// streaming reads shuffle data through network-attached pipes with tighter
/// buffers and timeouts, the fragile path behind HadoopGIS's EC2 failures.
/// Calibrated with HadoopGisConfig::pipe_capacity_fraction so the failure
/// matrix of Tables 2-3 reproduces (DESIGN.md §5).
constexpr double kMultiNodePipeDerating = 0.17;

/// Ratio of this simulator's native C++ throughput to HadoopGIS's: Streaming
/// stacks text pipes, Python glue and the GEOS-analog on top of Hadoop, so
/// roughly half the effective CPU throughput of the native SpatialHadoop
/// stack (mapreduce::MrConfig's 0.2).
constexpr double kCpuEfficiency = 0.1;

mapreduce::MrConfig make_streaming_config(const core::ExecutionConfig& exec,
                                          const HadoopGisConfig& config) {
  mapreduce::MrConfig streaming;
  streaming.cpu_efficiency = kCpuEfficiency;
  streaming.pipe_capacity_bytes = static_cast<std::uint64_t>(
      config.pipe_capacity_fraction *
      static_cast<double>(exec.cluster.node.memory_bytes) / exec.cluster.node.cores *
      (exec.cluster.node_count > 1 ? kMultiNodePipeDerating : 1.0));
  return streaming;
}

/// Share of a task's pipe capacity a predicted pipe volume may reach and
/// still count as fitting: join_fits misses what it does not model (the
/// pair lines a reducer emits, how copies cluster in one split). On the
/// Table-3 workstation cells at scales 2e-5 to 1e-3 it read up to 12% low
/// on the reducers and 15% low on the map tasks near their capacity.
constexpr double kPipeGateMargin = 0.85;

/// Whether every task of the distributed-join job (b) is predicted to keep
/// its pipe volume within kPipeGateMargin of the capacity its retry budget
/// allows, with the filter's predicted drops applied (`filtered`) or not.
/// A map task pipes its split's lines (known exactly) and the copies they
/// emit: the side's sampled copies per record, each one line plus its side
/// tag. A reducer pipes the copies of the cells whose key hashes to it,
/// predicted per cell from both sides' samples, each sampled record
/// standing for its side's lines per sampled record. The pair lines a
/// reducer emits are not predicted.
bool join_fits(const mapreduce::MrContext& ctx, const mapreduce::MrConfig& streaming,
               const JoinInputs& in, const core::FilterDecision& filter, bool filtered) {
  if (streaming.pipe_capacity_bytes == 0) return true;
  const double limit =
      static_cast<double>(streaming.pipe_capacity_bytes) *
      ctx.faults().capacity_factor(ctx.faults().plan().max_attempts) *
      kPipeGateMargin / ctx.data_scale;
  const core::SampleCopies* samples[2] = {&filter.left, &filter.right};
  double lines[2] = {0.0, 0.0};
  double copy_bytes[2] = {0.0, 0.0};  // every line of the side, as one copy each
  double largest = 0.0;
  for (std::size_t s = 0; s < in.splits.size(); ++s) {
    const std::size_t side = s < in.n_a ? 0 : 1;
    const core::SampleCopies& sample = *samples[side];
    const double in_bytes = static_cast<double>(StreamingSpec::split_bytes(in.splits[s]));
    const double split_lines = static_cast<double>(in.splits[s].size());
    const double keep = filtered ? 1.0 - sample.drop_fraction() : 1.0;
    largest = std::max(largest, in_bytes + (in_bytes + 2.0 * split_lines) *
                                               sample.copies_per_record() * keep);
    lines[side] += split_lines;
    copy_bytes[side] += in_bytes + 2.0 * split_lines;
  }
  const std::uint32_t cells = in.joint_scheme->cell_count();
  const std::uint32_t reducers = mapreduce::reduce_task_count(streaming, ctx.cluster);
  std::vector<double> reducer_bytes(reducers, 0.0);
  for (std::uint32_t pid = 0; pid < cells; ++pid) {
    double bytes = 0.0;
    for (std::size_t side = 0; side < 2; ++side) {
      const core::SampleCopies& sample = *samples[side];
      if (sample.records == 0 || lines[side] == 0.0) continue;
      const double copies = filtered ? sample.kept[pid] : sample.assigned[pid];
      bytes += copies * copy_bytes[side] / static_cast<double>(sample.records);
    }
    reducer_bytes[mapreduce::streaming_reducer("j" + std::to_string(pid), reducers)] += bytes;
  }
  for (const double bytes : reducer_bytes) largest = std::max(largest, bytes);
  return largest <= limit;
}

/// What a resident HadoopGIS entry keeps between queries: the join jobs'
/// inputs and the counters preprocessing emitted, which every resident
/// report replays so its counter set matches a cold batch run's.
struct ResidentState {
  JoinInputs inputs;
  cluster::Counters ingest_counters;
};

/// The cold end-to-end run. When `capture` is non-null the join jobs' inputs
/// are built in it, and the ingest counters are copied into it when
/// preprocessing ends; the run itself is unaffected.
core::RunReport run_hadoop_gis_impl(const workload::Dataset& left,
                                    const workload::Dataset& right,
                                    const core::JoinQueryConfig& query,
                                    const core::ExecutionConfig& exec,
                                    const HadoopGisConfig& config, ResidentState* capture) {
  core::RunReport report;
  workload::RowQuarantine quarantine;

  try {
    // Fault-plan validation (the context's constructor) and DFS setup can
    // throw on a bad plan: inside the try so a chaos-generated invalid plan
    // reports a structured Status instead of escaping the driver.
    dfs::SimDfs dfs(core::dfs_config(query, exec));
    mapreduce::MrContext ctx(exec.cluster, exec.data_scale, &dfs, &report.metrics,
                             &report.counters, config.faults);
    ctx.trace = core::trace_sink(report, exec);

    const mapreduce::MrConfig streaming = make_streaming_config(exec, config);
    const core::PartitionPlane plane(query, exec.cluster, config.policy);
    GisContext gis{&ctx, streaming, &query, &exec, &config, &plane, &quarantine};

    // ---- Preprocessing (IA, IB) --------------------------------------------
    PreprocessedDataset pa = preprocess(gis, left, "A");
    PreprocessedDataset pb = preprocess(gis, right, "B");

    // ---- Global join step (a): joint partitions built locally --------------
    // The per-dataset partition ids cannot be reused (invisible through
    // streaming), so the samples are concatenated and re-partitioned on the
    // master — with the HDFS copy round-trips charged.
    // A resident build fills its state's inputs in place, so the partitioned
    // lines exist once.
    JoinInputs cold_inputs;
    JoinInputs& in = capture != nullptr ? capture->inputs : cold_inputs;
    in.expand = plane.expand();
    CpuStopwatch master_cpu;
    std::vector<geom::Envelope> joint_samples = pa.samples;
    joint_samples.insert(joint_samples.end(), pb.samples.begin(), pb.samples.end());
    geom::Envelope joint_extent = left.extent();
    joint_extent.expand_to_include(right.extent());
    partition::PartitionScheme& joint_scheme =
        in.joint_scheme.emplace(plane.make_scheme(joint_samples, joint_extent));
    dfs.put("join.partitions", joint_scheme.size_bytes());
    mapreduce::charge_master_step(ctx, "join/a-joint-partition", master_cpu.seconds(),
                                  pa.sample_text_bytes + pb.sample_text_bytes,
                                  joint_scheme.size_bytes());

    // ---- Global+local join step (b) inputs ---------------------------------
    const std::size_t slots = exec.cluster.total_slots();
    in.splits = chunk_lines(std::move(pa.partitioned_lines), slots);
    in.n_a = in.splits.size();
    for (auto& s : chunk_lines(std::move(pb.partitioned_lines), slots)) {
      in.splits.push_back(std::move(s));
    }

    // ---- Global join step (a1): optional skew-aware tile refinement ---------
    // Probe the per-tile load the join mappers below would push through the
    // streaming pipes (both datasets), split hotspot tiles on the master, and
    // rewrite the partition file — the filter bitmaps and the join job then
    // see the refined tile set.
    if (plane.repartition()) {
      CpuStopwatch skew_cpu;
      const std::uint64_t before_bytes = joint_scheme.size_bytes();
      joint_scheme = plane.refine(joint_scheme, *ctx.counters, core::TextSide{left},
                                  core::TextSide{right})
                         .scheme;
      dfs.put("join.partitions", joint_scheme.size_bytes());
      mapreduce::charge_master_step(ctx, "join/a1-skew-refine", skew_cpu.seconds(),
                                    before_bytes, joint_scheme.size_bytes());
    }

    // ---- Global join step (a2): optional shuffle filter ---------------------
    // LocationSpark's sFilter analog: a master-side pass over each dataset
    // marks each record's expanded envelope into its tiles' occupancy
    // bitmaps. The scheme is joint, so filtering is symmetric: A-side
    // mappers drop tile line copies the B bitmap proves can match no B
    // geometry in that tile, and B-side mappers drop against the A bitmap —
    // before the line is pushed through the streaming pipe. Both bitmaps
    // ship to every mapper via the distributed cache. Unless the policy
    // forces it, the plan probes A's sample against B's occupancy (and B's
    // against A's sample) and builds the filter where the copies it drops
    // are worth the pass, or where only the filtered join job is predicted
    // to stay inside its pipes.
    core::FilterDecision filter = plane.decide_filter(
        joint_scheme, core::TextSide{right}, pa.samples, &pb.samples,
        {.left_records = left.size(),
         .left_bytes = left.text_bytes() + 8 * left.size(),
         .right_records = right.size(),
         .right_bytes = right.text_bytes() + 8 * right.size(),
         .serial_marks = left.size() + right.size(),
         .serial_read_bytes = left.text_bytes() + right.text_bytes(),
         .serial_filters = 2,
         .dfs_replicas = core::dfs_config(query, exec).replication,
         .cluster = exec.cluster,
         .data_scale = exec.data_scale});
    if (filter.planned) {
      filter.apply_gate(join_fits(ctx, streaming, in, filter, /*filtered=*/false),
                        join_fits(ctx, streaming, in, filter, /*filtered=*/true));
    }
    filter.record(report.counters);
    if (filter.build) {
      core::OccupancyBuild built_b = plane.build_occupancy(joint_scheme, core::TextSide{right});
      core::OccupancyBuild built_a = plane.build_occupancy(joint_scheme, core::TextSide{left});
      const auto& occupancy_b = in.occupancy_b.emplace(std::move(built_b.filter));
      const auto& occupancy_a = in.occupancy_a.emplace(std::move(built_a.filter));
      const std::uint64_t filter_bytes = occupancy_a.size_bytes() + occupancy_b.size_bytes();
      dfs.put("join.sfilter", filter_bytes);
      mapreduce::charge_master_step(ctx, "join/a2-filter-build",
                                    built_a.cpu_seconds + built_b.cpu_seconds,
                                    left.text_bytes() + right.text_bytes(), filter_bytes);
    }

    // Preprocessing is done: a resident build keeps its counters, including
    // the rows quarantined so far, for replay.
    if (capture != nullptr) {
      capture->ingest_counters = report.counters;
      quarantine.flush_counters(capture->ingest_counters);
    }
    // ---- Steps (b) + (c): join + dedup streaming jobs -----------------------
    core::record_result(report,
                        run_gis_join(ctx, streaming, query, exec, config, in, quarantine,
                                     /*shared_cache=*/nullptr, report),
                        exec);
  } catch (const SjcError& e) {
    // BrokenPipe (pipe overflow past the retry budget), TaskFailed
    // (injected crash exhausting attempts), DeadlineExceeded /
    // RetryBudgetExhausted (lifecycle enforcement), InvalidArgument (a bad
    // fault plan): every library error becomes a structured Status —
    // nothing escapes the driver. A lost block fails no read: SimDfs only
    // counts it.
    report.status = status_from_exception(e);
  }

  quarantine.flush_counters(report.counters);
  core::finish_report(report, /*breakdown=*/true);
  return report;
}

/// One resident query: the distributed-join and dedup streaming jobs on a
/// fresh runtime over the captured inputs. No A/ or B/ phase runs, so IA/IB
/// report as 0.
core::RunReport run_resident_query(const ResidentState& state,
                                   const core::JoinQueryConfig& query,
                                   const core::ExecutionConfig& exec,
                                   const HadoopGisConfig& config,
                                   geom::PreparedCache* shared_cache) {
  core::RunReport report;
  workload::RowQuarantine quarantine;

  try {
    const core::PartitionPlane plane(query, exec.cluster, config.policy);
    plane.require_build_expansion(state.inputs.expand, "hadoop_gis_resident");
    dfs::SimDfs dfs(core::dfs_config(query, exec));
    mapreduce::MrContext ctx(exec.cluster, exec.data_scale, &dfs, &report.metrics,
                             &report.counters);
    ctx.trace = core::trace_sink(report, exec);
    report.counters.merge(state.ingest_counters);
    core::record_result(report,
                        run_gis_join(ctx, make_streaming_config(exec, config), query, exec,
                                     config, state.inputs, quarantine, shared_cache, report),
                        exec);
  } catch (const SjcError& e) {
    report.status = status_from_exception(e);
  }

  quarantine.flush_counters(report.counters);
  core::finish_report(report, /*breakdown=*/true);
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

core::ResidentJoin hadoop_gis_resident(const workload::Dataset& left,
                                       const workload::Dataset& right,
                                       const core::JoinQueryConfig& query,
                                       const core::ExecutionConfig& exec,
                                       const HadoopGisConfig& config) {
  auto state = std::make_shared<ResidentState>();
  core::RunReport build = run_hadoop_gis_impl(left, right, query, exec, config, state.get());
  require(build.status.ok(), "hadoop_gis_resident: build run failed: " + build.status.message());
  return {std::move(build),
          [state = std::shared_ptr<const ResidentState>(std::move(state)), exec, config](
              const core::JoinQueryConfig& q, geom::PreparedCache* shared_cache) {
            return run_resident_query(*state, q, exec, config, shared_cache);
          }};
}

}  // namespace sjc::systems
