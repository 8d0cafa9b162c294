// The Hadoop job runner: the execution model of both Hadoop systems.
//
// SpatialHadoop runs native typed jobs and HadoopGIS runs Hadoop Streaming
// jobs (streaming.hpp), and both cross MapReduce's one skeleton, run here: a
// full job maps over input splits, hash-partitions the intermediate records
// into R reduce tasks, sorts and reduces within each reduce task, and writes
// the output to DFS; a map-only job writes its map output instead. User code
// runs for real (its CPU time is measured); disk, network and pipe volumes
// are charged through the context's cost model. Header-only because it is
// templated over the record types.
//
// A job spec says how records cross the skeleton, through these members:
//   task_mapper(task)            a map task's mapper, built inside its CPU
//                                timing; called as mapper(record, emit)
//   map_split(task, split, out)  a map-only task's map into its output
//   input_bytes, split_bytes     what a record or a map-only split reads
//   item_bytes(item)             what an intermediate record spills/shuffles
//   reducer_of(item, reducers)   the reduce task it goes to
//   reduce_bucket(items, out)    sorts one reduce task's records, reduces them
//   output_bytes(out)            what an output record writes
//   kPipes                       whether tasks pipe every byte they read and
//                                write (Hadoop Streaming)
// The typed specs below template the user functors, so map, emit, key_less
// and pair_bytes inline into the task loops; map-side buckets are backed by
// a chunked ShuffleArena instead of per-record vector growth.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/mr_context.hpp"
#include "mapreduce/shuffle_arena.hpp"
#include "util/status.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace sjc::mapreduce {

/// The reduce tasks a job runs: its config's count, else one per slot.
inline std::uint32_t reduce_task_count(const MrConfig& config,
                                       const cluster::ClusterSpec& cluster) {
  return config.reduce_tasks != 0 ? config.reduce_tasks : cluster.total_slots();
}

/// Native MapReduce job over typed (K, V) pairs, the SpatialHadoop model:
/// reduce tasks group their pairs by a stable sort on the key and reduce
/// each key's values. Build via make_typed_spec.
template <typename In, typename K, typename V, typename Out, typename MapFn,
          typename ReduceFn, typename InBytesFn, typename PairBytesFn,
          typename OutBytesFn, typename KeyLessFn = std::less<K>,
          typename KeyHashFn = std::hash<K>>
struct TypedMapReduceSpec {
  using InType = In;
  using Item = std::pair<K, V>;
  using OutType = Out;
  /// Typed records stay inside the task's JVM: nothing crosses a pipe.
  static constexpr bool kPipes = false;

  std::string name;
  MapFn map;
  ReduceFn reduce;
  InBytesFn input_bytes;
  PairBytesFn pair_bytes;
  OutBytesFn output_bytes;
  KeyLessFn key_less{};
  KeyHashFn key_hash{};
  MrConfig config{};

  const MapFn& task_mapper(std::size_t) const { return map; }
  std::uint64_t item_bytes(const Item& kv) const { return pair_bytes(kv.first, kv.second); }
  std::size_t reducer_of(const Item& kv, std::uint32_t reducers) const {
    return key_hash(kv.first) % reducers;
  }
  void reduce_bucket(std::vector<Item>& pairs, std::vector<Out>& out) const {
    // Sort-based grouping (what Hadoop's merge sort does).
    std::stable_sort(pairs.begin(), pairs.end(), [this](const Item& a, const Item& b) {
      return key_less(a.first, b.first);
    });
    std::size_t i = 0;
    while (i < pairs.size()) {
      std::size_t j = i + 1;
      while (j < pairs.size() && !key_less(pairs[i].first, pairs[j].first) &&
             !key_less(pairs[j].first, pairs[i].first)) {
        ++j;
      }
      std::vector<V> values;
      values.reserve(j - i);
      for (std::size_t k = i; k < j; ++k) values.push_back(std::move(pairs[k].second));
      reduce(pairs[i].first, values, out);
      i = j;
    }
  }
};

/// Builds a TypedMapReduceSpec with deduced functor types. `map` is any
/// callable (record, emit) -> void where emit(K, V) is itself a callable;
/// write it as a generic lambda so the runner's emit inlines.
template <typename In, typename K, typename V, typename Out, typename MapFn,
          typename ReduceFn, typename InBytesFn, typename PairBytesFn,
          typename OutBytesFn, typename KeyLessFn = std::less<K>,
          typename KeyHashFn = std::hash<K>>
auto make_typed_spec(std::string name, MapFn map, ReduceFn reduce,
                     InBytesFn input_bytes, PairBytesFn pair_bytes,
                     OutBytesFn output_bytes, KeyLessFn key_less = {},
                     KeyHashFn key_hash = {}) {
  return TypedMapReduceSpec<In, K, V, Out, MapFn, ReduceFn, InBytesFn, PairBytesFn,
                            OutBytesFn, KeyLessFn, KeyHashFn>{
      std::move(name),        std::move(map),      std::move(reduce),
      std::move(input_bytes), std::move(pair_bytes), std::move(output_bytes),
      std::move(key_less),    std::move(key_hash)};
}

/// Native map-only job (SpatialHadoop's distributed-join pattern: the global
/// join happens in getSplits on the master, then one map task per partition
/// pair does the local join; no shuffle, no reduce). The caller provides the
/// splits; per-split input bytes come from `split_bytes`, counted outside the
/// task's CPU timing. Build via make_typed_map_only_spec.
template <typename Split, typename Out, typename MapFn, typename SplitBytesFn,
          typename OutBytesFn>
struct TypedMapOnlySpec {
  using SplitType = Split;
  using OutType = Out;
  static constexpr bool kPipes = false;

  std::string name;
  MapFn map;
  SplitBytesFn split_bytes;
  OutBytesFn output_bytes;
  MrConfig config{};

  void map_split(std::size_t, const Split& split, std::vector<Out>& out) const {
    map(split, out);
  }
};

template <typename Split, typename Out, typename MapFn, typename SplitBytesFn,
          typename OutBytesFn>
auto make_typed_map_only_spec(std::string name, MapFn map, SplitBytesFn split_bytes,
                              OutBytesFn output_bytes) {
  return TypedMapOnlySpec<Split, Out, MapFn, SplitBytesFn, OutBytesFn>{
      std::move(name), std::move(map), std::move(split_bytes),
      std::move(output_bytes)};
}

namespace detail {

template <typename Out>
std::vector<Out> concat(std::vector<std::vector<Out>>& parts) {
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<Out> all;
  all.reserve(total);
  for (auto& part : parts) {
    all.insert(all.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return all;
}

}  // namespace detail

/// Runs the job over `splits` (one map task per split). Returns all reduce
/// outputs, ordered by reduce task and, within one, as its reduce emitted
/// them.
template <typename Spec>
std::vector<typename Spec::OutType> run_map_reduce(
    MrContext& ctx, const Spec& spec,
    const std::vector<std::vector<typename Spec::InType>>& splits) {
  using Item = typename Spec::Item;
  using Out = typename Spec::OutType;
  require(ctx.dfs != nullptr, "run_map_reduce: incomplete context");
  const std::uint32_t reducers = reduce_task_count(spec.config, ctx.cluster);

  // ---- Map phase -----------------------------------------------------------
  // Each map task's intermediate records, pre-bucketed by reduce task.
  std::vector<ShuffleArena<Item>> buckets(splits.size());
  JobPhase map(spec.name + "/map", splits.size(), spec.config, Spec::kPipes);
  ThreadPool::shared().parallel_for(splits.size(), [&](std::size_t s) {
    ShuffleArena<Item>& arena = buckets[s];
    arena.reset(reducers);
    CpuStopwatch cpu;
    const auto& mapper = spec.task_mapper(s);
    std::uint64_t in_bytes = 0;
    std::uint64_t out_bytes = 0;
    const auto emit = [&](auto&&... record) {
      Item item(std::forward<decltype(record)>(record)...);
      out_bytes += spec.item_bytes(item);
      const std::size_t bucket = spec.reducer_of(item, reducers);
      arena.push(bucket, std::move(item));
    };
    for (const auto& record : splits[s]) {
      in_bytes += spec.input_bytes(record);
      mapper(record, emit);
    }
    cluster::SimTask& task = map.charge(s, cpu.seconds(), in_bytes, out_bytes);
    const auto rc = ctx.dfs->read_cost(in_bytes);
    task.disk_read = rc.disk_read;
    task.network = rc.network;
    task.disk_write = out_bytes;  // map spill to local disk
  });
  map.book(ctx, kJobStartupSeconds, /*shuffle=*/false);

  // ---- Shuffle + reduce phase ---------------------------------------------
  std::vector<std::vector<Out>> outputs(reducers);
  JobPhase reduce(spec.name + "/reduce", reducers, spec.config, Spec::kPipes);
  const double remote_fraction = ctx.cluster.remote_fraction();
  ThreadPool::shared().parallel_for(reducers, [&](std::size_t r) {
    CpuStopwatch cpu;
    // Fetch this reducer's bucket from every map task (the shuffle).
    std::vector<Item> items;
    std::uint64_t shuffle_bytes = 0;
    for (auto& arena : buckets) {
      arena.consume(r, [&](Item& item) {
        shuffle_bytes += spec.item_bytes(item);
        items.push_back(std::move(item));
      });
    }
    spec.reduce_bucket(items, outputs[r]);
    std::uint64_t out_bytes = 0;
    for (const auto& o : outputs[r]) out_bytes += spec.output_bytes(o);
    cluster::SimTask& task = reduce.charge(r, cpu.seconds(), shuffle_bytes, out_bytes);
    // Shuffle: read map spills from their disks, move across the network,
    // then write the job output to DFS (replicated). On multi-node clusters
    // every reducer opens one fetch connection per mapper.
    if (ctx.cluster.node_count > 1) {
      task.fixed_overhead +=
          kShuffleFetchLatencySeconds * static_cast<double>(splits.size());
    }
    task.disk_read = shuffle_bytes;
    task.network = static_cast<std::uint64_t>(static_cast<double>(shuffle_bytes) *
                                              remote_fraction);
    const auto wc = ctx.dfs->write_cost(out_bytes);
    task.disk_write = wc.disk_write;
    task.network += wc.network;
  });
  reduce.book(ctx, 0.0, /*shuffle=*/true);
  return detail::concat(outputs);
}

/// Runs the map-only job over `splits` (one map task per split), each task
/// writing its map output to DFS. Returns the outputs in split order.
template <typename Spec>
std::vector<typename Spec::OutType> run_map_only(
    MrContext& ctx, const Spec& spec, const std::vector<typename Spec::SplitType>& splits) {
  using Out = typename Spec::OutType;
  require(ctx.dfs != nullptr, "run_map_only: incomplete context");
  std::vector<std::vector<Out>> outputs(splits.size());
  JobPhase map(spec.name + "/map", splits.size(), spec.config, Spec::kPipes);
  ThreadPool::shared().parallel_for(splits.size(), [&](std::size_t s) {
    CpuStopwatch cpu;
    spec.map_split(s, splits[s], outputs[s]);
    std::uint64_t out_bytes = 0;
    for (const auto& o : outputs[s]) out_bytes += spec.output_bytes(o);
    // Hadoop's record reader counts the bytes it reads for free; sizing a
    // split here may walk its records, so it stays out of the task's CPU.
    const double cpu_seconds = cpu.seconds();
    const std::uint64_t in_bytes = spec.split_bytes(splits[s]);
    cluster::SimTask& task = map.charge(s, cpu_seconds, in_bytes, out_bytes);
    const auto rc = ctx.dfs->read_cost(in_bytes);
    const auto wc = ctx.dfs->write_cost(out_bytes);
    task.disk_read = rc.disk_read;
    task.disk_write = wc.disk_write;
    task.network = rc.network + wc.network;
  });
  map.book(ctx, kJobStartupSeconds, /*shuffle=*/false);
  return detail::concat(outputs);
}

}  // namespace sjc::mapreduce
