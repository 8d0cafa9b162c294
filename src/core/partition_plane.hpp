// PartitionPlane: the partition-stage decisions of the paper's Fig. 1,
// written once for all three system drivers.
//
// Every system runs the same three-stage framework (preprocess/partition,
// global join, local join); they differ only in where each stage runs
// (streaming jobs, MR jobs, RDD stages), what they materialize to the DFS
// and which engine refines. The plane owns what they share:
//
//  * the query's envelope expansion (d/2 for within-distance joins) and the
//    check that a resident build used the same one;
//  * the shuffle-filter decision (forced by the policy, otherwise the
//    plan's: FilterDecision);
//  * scheme derivation: target cells, sample rate, make_partitions;
//  * the skew load probe and hotspot refinement (repartition.* counters);
//  * the occupancy-filter build over one input;
//  * the shuffle tally (ShuffleTally): partition.*, assign.* and shuffle.*
//    counters, accumulated per record and written once per job;
//  * the local-join stage (LocalJoinStage): spec, prepared-geometry cache
//    and scratch pool, whose per-task tallies it writes as the refine.* and
//    join.prepared_cache_* counters;
//  * result recording and the DFS / text-input set-up every run repeats.
//
// A "side" below is one input of `side.records()` records cut into
// `side.units()` units (records, or RDD partitions) that can be visited
// independently: `side(begin, end, visit)` calls `visit(envelope,
// shuffle_bytes)` once per record of units [begin, end), with the record's
// unexpanded envelope and the bytes one shuffled copy of it costs in the
// system's model. TextSide is the MapReduce systems' side.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/counters.hpp"
#include "cluster/fault_injector.hpp"
#include "core/local_join.hpp"
#include "core/spatial_join.hpp"
#include "dfs/sim_dfs.hpp"
#include "geom/occupancy.hpp"
#include "partition/partitioner.hpp"
#include "plan/cost_model.hpp"
#include "plan/exec_policy.hpp"
#include "plan/partition_refiner.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"
#include "workload/dataset.hpp"

namespace sjc::core {

/// An occupancy filter and the CPU its build is charged as one task.
struct OccupancyBuild {
  geom::OccupancyFilter filter;
  /// The partials' summed thread CPU plus the calling thread's own (the
  /// empty filter and the merge): what one serial build would take, give or
  /// take the merge. Each chunk is timed on the thread that runs it and the
  /// caller's time excludes the chunk loop, so a chunk the pool runs inline
  /// on the calling thread counts once.
  double cpu_seconds = 0.0;
};

/// Fewest records one chunk of a parallel occupancy build marks: below it a
/// chunk's fixed cost (a woken worker, a partial copy, a merge) outweighs
/// its work, and the extra charged CPU shows in small builds' phases.
inline constexpr std::size_t kMinOccupancyChunkRecords = 2048;

/// Builds the occupancy filter over `cells` from `units` independent units
/// holding `records` records: `mark(partial, begin, end)` marks units
/// [begin, end) into one partial filter. With enough records the units are
/// split into chunks on the shared pool and the partials merged in unit
/// order; otherwise one call marks them all on the calling thread. Either
/// way the filter equals the one a single serial pass would build.
template <typename Mark>
OccupancyBuild build_occupancy_parallel(const std::vector<geom::Envelope>& cells,
                                        std::size_t units, std::size_t records,
                                        const Mark& mark) {
  CpuStopwatch own;
  OccupancyBuild out{geom::OccupancyFilter(cells)};
  ThreadPool& pool = ThreadPool::shared();
  const auto ranges =
      even_ranges(units, std::min(pool.thread_count(), records / kMinOccupancyChunkRecords));
  if (ranges.size() <= 1) {
    mark(out.filter, 0, units);
    out.cpu_seconds = own.seconds();
    return out;
  }
  std::vector<std::optional<geom::OccupancyFilter>> partials(ranges.size());
  std::vector<double> chunk_cpu(ranges.size(), 0.0);
  out.cpu_seconds = own.seconds();
  pool.parallel_for(ranges.size(), [&](std::size_t c) {
    CpuStopwatch watch;
    // Marked on this thread's stack: the partials' headers (and the mark
    // count every mark() bumps) would share cache lines inside `partials`.
    geom::OccupancyFilter partial = out.filter;
    mark(partial, ranges[c].first, ranges[c].second);
    partials[c].emplace(std::move(partial));
    chunk_cpu[c] = watch.seconds();
  });
  own.reset();
  for (const auto& partial : partials) out.filter.merge(*partial);
  out.cpu_seconds += own.seconds();
  for (const double cpu : chunk_cpu) out.cpu_seconds += cpu;
  return out;
}

/// One side's seeded sample probed for the shuffle-filter decision: each
/// sampled envelope expanded and assigned to the scheme's cells, and each
/// copy probed against the other side's occupancy where it is known. Per
/// cell, the sample copies assigned there and those the filter would keep.
struct SampleCopies {
  std::uint64_t records = 0;
  std::vector<std::uint32_t> assigned;
  std::vector<std::uint32_t> kept;
  std::uint64_t assigned_copies = 0;
  std::uint64_t kept_copies = 0;

  /// Sampled copies per record (1 for an empty sample).
  double copies_per_record() const;
  /// Sampled share of copies the filter drops.
  double drop_fraction() const;
};

/// One run's shuffle-filter decision. A set policy.shuffle_filter forces it;
/// unset, the plan decides: a seeded left-side sample is probed against the
/// right side's occupancy (and, where the filter also drops right copies, a
/// right-side sample against the left sample's occupancy), and the copies
/// it predicts the filter drops are weighed against the filter's predicted
/// cost (plan::predict_filter). A driver whose run can fail for load the
/// filter removes then applies its failure gate (apply_gate). Every field
/// is a pure function of the inputs and the seed.
struct FilterDecision {
  bool build = false;
  /// True when the plan decided (policy unset); only then are the
  /// plan.filter_* counters written.
  bool planned = false;
  /// True when the plan builds the filter because only the filtered run is
  /// predicted to pass the driver's failure gate, whatever its cost.
  bool rescued = false;
  /// The probed samples; `right` is empty where the filter drops only left
  /// copies (SpatialHadoop).
  SampleCopies left;
  SampleCopies right;
  /// The prediction's inputs, completed by the probe.
  plan::FilterInputs inputs;
  plan::FilterPrediction prediction;

  /// Sample records probed on both sides.
  std::uint64_t probed_records() const { return left.records + right.records; }
  /// Predicted share of both inputs' assigned copies the filter drops, in
  /// parts per million.
  std::uint64_t drop_ppm() const;
  /// Predicted share of assigned copies the filter keeps: the cost model's
  /// PlanInputs::filter_selectivity.
  double selectivity() const;
  /// The driver's failure gate (HadoopGIS's pipe capacity, SpatialSpark's
  /// executor memory) predicted without and with the filter: when only the
  /// filtered run fits, the plan builds the filter. No-op unless planned.
  void apply_gate(bool fits_unfiltered, bool fits_filtered);
  /// When the plan decided: plan.filter_chosen and plan.filter_rescued (0 or
  /// 1), plan.filter_probed_records, plan.filter_predicted_drop_ppm and
  /// plan.filter_predicted_saving / plan.filter_predicted_cost (ms).
  void record(cluster::Counters& counters) const;
};

class PartitionPlane {
 public:
  PartitionPlane(const JoinQueryConfig& query, const cluster::ClusterSpec& cluster,
                 const plan::ExecPolicy& policy);

  /// Expansion applied to every envelope on both sides (assignment, filter,
  /// MBR join, reference point).
  double expand() const { return expand_; }
  /// policy.shuffle_filter: set forces the filter on or off, unset lets the
  /// plan decide (decide_filter).
  const std::optional<bool>& filter_policy() const { return filter_policy_; }
  /// policy.repartition.
  bool repartition() const { return repartition_; }
  /// Sample rate for an input of `records` records.
  double sample_rate(std::size_t records) const;
  /// Derives the scheme from sampled envelopes with the query's partitioner.
  partition::PartitionScheme make_scheme(const std::vector<geom::Envelope>& sample,
                                         const geom::Envelope& extent) const;

  /// Throws InvalidArgument unless a resident entry built with expansion
  /// `built` can answer this query.
  void require_build_expansion(double built, const std::string& who) const;

  /// Skew-aware refinement of `scheme`: probes each candidate scheme's
  /// per-cell load over `sides` (every record assigned by its expanded
  /// envelope and charged its shuffle bytes), splits hotspot cells and
  /// writes the repartition.* counters to `counters`.
  template <typename... Sides>
  plan::RefineResult refine(const partition::PartitionScheme& scheme,
                            cluster::Counters& counters, const Sides&... sides) const {
    const plan::PartitionRefiner refiner(partitioner_);
    plan::RefineResult refined = refiner.refine(scheme, [&](const partition::PartitionScheme& s) {
      std::vector<plan::CellLoad> loads(s.cell_count());
      std::vector<std::uint32_t> pids;
      const auto tally = [&](const geom::Envelope& env, std::uint64_t bytes) {
        s.assign_into(env.expanded_by(expand_), pids);
        for (const auto pid : pids) {
          ++loads[pid].records;
          loads[pid].bytes += bytes;
        }
      };
      (sides(0, sides.units(), tally), ...);
      return loads;
    });
    plan::record_repartition_counters(refined, counters);
    return refined;
  }

  /// The run's shuffle-filter decision for a filter over `scheme`'s cells:
  /// forced when the policy is set; otherwise the plan's (probe_filter)
  /// against the right side's occupancy over `scheme`, built here (the
  /// right side is the small one). `right_sample` is null where the filter
  /// drops only left copies.
  template <typename RightSide>
  FilterDecision decide_filter(const partition::PartitionScheme& scheme, const RightSide& right,
                               const std::vector<geom::Envelope>& left_sample,
                               const std::vector<geom::Envelope>* right_sample,
                               const plan::FilterInputs& build) const {
    if (filter_policy_.has_value()) return forced_filter();
    return probe_filter(scheme, build_occupancy(scheme, right).filter, left_sample,
                        right_sample, build);
  }

  /// The decision the policy forces (a set policy.shuffle_filter).
  FilterDecision forced_filter() const {
    FilterDecision decision;
    decision.build = filter_policy_.value_or(false);
    return decision;
  }

  /// The plan's decision: each envelope of `left_sample`, a seeded sample
  /// of the left input, is expanded, assigned to `scheme`'s cells and
  /// probed against `right_occupancy`, the filter the run would build. With
  /// `right_sample`, a seeded sample of the right input is assigned the
  /// same way; its copies are probed against the left sample's occupancy
  /// only when the sample holds every left record (then it is the left
  /// input's occupancy). A smaller sample misses left records and would
  /// overstate the right copies dropped, so then none are predicted
  /// dropped, which understates the filter's saving and relief. The copies
  /// the filter would drop are weighed against the build's predicted cost.
  /// `build` describes the driver's build; the probe fills in the sampled
  /// copies per record, drop shares and filter size.
  FilterDecision probe_filter(const partition::PartitionScheme& scheme,
                              const geom::OccupancyFilter& right_occupancy,
                              const std::vector<geom::Envelope>& left_sample,
                              const std::vector<geom::Envelope>* right_sample,
                              plan::FilterInputs build) const;

  /// Occupancy bitmap of one side under `scheme`: each record's expanded
  /// envelope marked into every cell it is assigned to (the assignment the
  /// side's own assign step performs), built in parallel chunks of units.
  template <typename Side>
  OccupancyBuild build_occupancy(const partition::PartitionScheme& scheme,
                                 const Side& side) const {
    return build_occupancy_parallel(
        scheme.cells(), side.units(), side.records(),
        [&](geom::OccupancyFilter& partial, std::size_t begin, std::size_t end) {
          std::vector<std::uint32_t> pids;
          side(begin, end, [&](const geom::Envelope& env, std::uint64_t) {
            const geom::Envelope expanded = env.expanded_by(expand_);
            scheme.assign_into(expanded, pids);
            for (const auto pid : pids) partial.mark(pid, expanded);
          });
        });
  }

 private:
  partition::PartitionerKind partitioner_;
  double configured_sample_rate_;
  double expand_;
  std::optional<bool> filter_policy_;
  bool repartition_;
  std::uint32_t target_cells_;
};

/// A Dataset as a side of the MapReduce systems, one unit per record: one
/// shuffled copy is a 4-byte partition key plus the record's text.
struct TextSide {
  const workload::Dataset& data;

  std::size_t units() const { return data.size(); }
  std::size_t records() const { return data.size(); }
  template <typename Visit>
  void operator()(std::size_t begin, std::size_t end, Visit&& visit) const {
    const auto envs = data.envelopes();
    for (std::size_t i = begin; i < end; ++i) visit(envs[i], 4 + data.record_text_bytes(i));
  }
};

/// Counts one job's partition assignments and writes them to `sink` once,
/// when the tally is destroyed. Scope it around the job: it then flushes
/// once the job's tasks have run, whether or not the job then fails, so a
/// failed report keeps the counters of the work that was done.
///
/// Thread-safe: tasks add into per-thread shards of relaxed atomics, so the
/// per-record cost is a few uncontended increments, and the totals (integer
/// sums) do not depend on the interleaving.
class ShuffleTally {
 public:
  enum Side : std::size_t { kLeft = 0, kRight = 1 };

  /// The counter groups a job reports.
  struct Writes {
    /// partition.assignments (copies kept) and partition.records.
    bool assignments = false;
    /// partition.duplicated_records: copies beyond a record's first.
    bool duplicates = false;
    /// shuffle.{assigned_records,records,filtered_records,filtered_bytes};
    /// assigned == records + filtered_records.
    bool shuffle = false;
    /// assign.left_assignments / assign.right_assignments.
    bool sides = false;
    /// Write shuffle.filtered_* only when the filter dropped a copy
    /// (SpatialHadoop's partition jobs); otherwise zeros are written too.
    bool filtered_only_if_any = false;
  };

  ShuffleTally(cluster::Counters& sink, Writes writes) : sink_(sink), writes_(writes) {}
  ShuffleTally(const ShuffleTally&) = delete;
  ShuffleTally& operator=(const ShuffleTally&) = delete;
  ~ShuffleTally();

  /// One record of `side`: `kept` copies shuffled, `dropped` copies removed
  /// by the filter, weighing `dropped_bytes` together.
  void add(std::size_t kept, std::uint32_t dropped = 0, std::uint64_t dropped_bytes = 0,
           Side side = kLeft) {
    Shard& s = shards_[thread_shard() % kShards];
    s.records.fetch_add(1, std::memory_order_relaxed);
    s.kept[side].fetch_add(kept, std::memory_order_relaxed);
    if (kept > 1) s.duplicates.fetch_add(kept - 1, std::memory_order_relaxed);
    if (dropped > 0) {
      s.dropped.fetch_add(dropped, std::memory_order_relaxed);
      s.dropped_bytes.fetch_add(dropped_bytes, std::memory_order_relaxed);
    }
  }

  /// Assigns one record's expanded envelope into `pids`, filtered by
  /// `filter` when non-null, and tallies it; `copy_bytes` is one copy's
  /// modeled size.
  void assign(const partition::PartitionScheme& scheme, const geom::Envelope& env,
              const geom::OccupancyFilter* filter, std::uint64_t copy_bytes,
              std::vector<std::uint32_t>& pids, Side side = kLeft) {
    std::uint32_t dropped = 0;
    if (filter != nullptr) {
      dropped = scheme.assign_into(env, *filter, pids);
    } else {
      scheme.assign_into(env, pids);
    }
    add(pids.size(), dropped, dropped * copy_bytes, side);
  }

  /// Removes from an assigned id list the cells `filter` (when non-null)
  /// proves `env` matches nothing in, and tallies the record;
  /// `copy_bytes(pid)` is the modeled size of the copy bound for `pid`.
  template <typename CopyBytes>
  void keep_matching(std::vector<std::uint32_t>& pids, const geom::Envelope& env,
                     const geom::OccupancyFilter* filter, CopyBytes&& copy_bytes,
                     Side side = kLeft) {
    std::uint32_t dropped = 0;
    std::uint64_t dropped_bytes = 0;
    if (filter != nullptr) {
      std::size_t kept = 0;
      for (const auto pid : pids) {
        if (filter->may_match(pid, env)) {
          pids[kept++] = pid;
        } else {
          ++dropped;
          dropped_bytes += copy_bytes(pid);
        }
      }
      pids.resize(kept);
    }
    add(pids.size(), dropped, dropped_bytes, side);
  }

 private:
  static constexpr std::size_t kShards = 16;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> records;
    std::atomic<std::uint64_t> kept[2];
    std::atomic<std::uint64_t> duplicates;
    std::atomic<std::uint64_t> dropped;
    std::atomic<std::uint64_t> dropped_bytes;
  };
  /// A small per-thread index, assigned on the thread's first use.
  static std::size_t thread_shard();

  cluster::Counters& sink_;
  Writes writes_;
  std::array<Shard, kShards> shards_{};
};

/// The local-join stage of one run: the LocalJoinSpec built from the query,
/// the system's default algorithm and its engine; the prepared-geometry
/// cache (run-scoped, or the caller's shared cache); and the query-owned
/// scratch pool (buffers stay warm across the partition pairs of this run
/// and die with it, so nothing survives on a serving process's pool
/// threads).
///
/// Each task tallies its work in the scratch it leases (LocalJoinScratch),
/// and the stage sums the pool's scratches on the driver thread. Like
/// ShuffleTally it writes refine.* to the report's counters once, when it
/// is destroyed: scope it around the job, and a report whose job fails after
/// its tasks ran keeps the refine.* of the work that was done.
/// join.prepared_cache_* is written on success only (record_cache_counters).
class LocalJoinStage {
 public:
  /// `counters` is the report's; `shared_cache`, when non-null, replaces
  /// the run-scoped cache (the serving catalog's).
  LocalJoinStage(const JoinQueryConfig& query, index::LocalJoinAlgorithm system_algorithm,
                 geom::EngineKind engine, cluster::Counters& counters,
                 geom::PreparedCache* shared_cache = nullptr);
  LocalJoinStage(const LocalJoinStage&) = delete;
  LocalJoinStage& operator=(const LocalJoinStage&) = delete;
  /// Writes refine.* (none when no candidate was refined).
  ~LocalJoinStage() { scratch_pool_.tally().record(counters_); }

  const LocalJoinSpec& spec() const { return spec_; }

  /// Joins one partition pair with a scratch from the pool.
  template <typename LeftSeq, typename RightSeq, typename AcceptFn>
  void run(const LeftSeq& left, const RightSeq& right, AcceptFn&& accept,
           std::vector<JoinPair>& out) {
    auto scratch = scratch_pool_.acquire();
    run_local_join(left, right, spec_, accept, *scratch, out);
  }

  /// Joins one partition pair over the two sides' packed sweep indexes.
  template <typename LeftSeq, typename RightSeq, typename AcceptFn>
  void run(const LeftSeq& left, const index::SweepList& left_index, const RightSeq& right,
           const index::SweepList& right_index, AcceptFn&& accept,
           std::vector<JoinPair>& out) {
    auto scratch = scratch_pool_.acquire();
    run_local_join(left, left_index, right, right_index, spec_, accept, *scratch, out);
  }

  /// Joins one left partition with the broadcast right side through its
  /// STR index over expanded envelopes (the broadcast run_local_join).
  /// Pass the tree as a const reference: a mutable one binds the accept
  /// overload's forwarding reference instead.
  template <typename LeftSeq, typename RightSeq>
  void run(const LeftSeq& left, const RightSeq& right, const index::StrTree& right_index,
           std::vector<JoinPair>& out) {
    auto scratch = scratch_pool_.acquire();
    run_local_join(left, right, right_index, spec_, *scratch, out);
  }

  /// Adds join.prepared_cache_{hits,misses}: the lookups this run's tasks
  /// made, whatever other queries share the cache. Call it once the job's
  /// tasks are done.
  void record_cache_counters() const;

 private:
  cluster::Counters& counters_;
  std::optional<geom::PreparedCache> run_cache_;  // only without a shared cache
  LocalJoinSpec spec_;
  ScratchPool scratch_pool_;
};

/// Marks `report` successful with result `pairs` (count, order-independent
/// hash, and the pairs themselves when the run collects them).
void record_result(RunReport& report, std::vector<JoinPair> pairs,
                   const ExecutionConfig& exec);

/// The run's DFS: 64 MB blocks at paper magnitude, 3 replicas, one datanode
/// per cluster node.
dfs::DfsConfig dfs_config(const JoinQueryConfig& query, const ExecutionConfig& exec);

/// Splits `lines` into `n` contiguous chunks (HDFS block splits); never
/// returns zero chunks.
std::vector<std::vector<std::string>> chunk_lines(std::vector<std::string> lines,
                                                  std::size_t n);

/// An input as TSV lines, with the fault plan's malformed rows injected at
/// deterministic positions (seed x tag) and counted in
/// input.malformed_rows_injected. Junk rows are always extra records, so a
/// quarantining parse yields exactly the fault-free feature set.
std::vector<std::string> input_lines(const workload::Dataset& data, const std::string& tag,
                                     const cluster::FaultPlan& faults,
                                     cluster::Counters* counters);

}  // namespace sjc::core
