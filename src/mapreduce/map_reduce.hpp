// Typed (native) MapReduce job — the SpatialHadoop execution model.
//
// A full MR job: map over input splits, hash-partition intermediate (K, V)
// pairs into R reduce tasks, sort-group within each reduce task (Hadoop's
// sort-based shuffle), reduce, write output to DFS. User code runs for real
// (its CPU time is measured); disk/network volumes are charged through the
// context's cost model. Header-only because it is templated over the record
// types.
//
// Specs are templated on the user functor types (build them with
// make_typed_spec / make_typed_map_only_spec), so map/emit/key_less/
// pair_bytes inline into the engine loops, and map-side buckets are backed
// by a chunked ShuffleArena instead of per-pair vector growth.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mapreduce/mr_context.hpp"
#include "mapreduce/shuffle_arena.hpp"
#include "util/status.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace sjc::mapreduce {

/// Functor-typed spec: map/reduce/sizers/key functions are concrete callable
/// types, so they inline into the engine loops; the engine backs its map-side
/// shuffle buckets with a ShuffleArena. Build via make_typed_spec.
template <typename In, typename K, typename V, typename Out, typename MapFn,
          typename ReduceFn, typename InBytesFn, typename PairBytesFn,
          typename OutBytesFn, typename KeyLessFn = std::less<K>,
          typename KeyHashFn = std::hash<K>>
struct TypedMapReduceSpec {
  using InType = In;
  using KeyType = K;
  using ValueType = V;
  using OutType = Out;

  std::string name;
  MapFn map;
  ReduceFn reduce;
  InBytesFn input_bytes;
  PairBytesFn pair_bytes;
  OutBytesFn output_bytes;
  KeyLessFn key_less{};
  KeyHashFn key_hash{};
  MrConfig config{};
};

/// Builds a TypedMapReduceSpec with deduced functor types. `map` is any
/// callable (record, emit) -> void where emit(K, V) is itself a callable;
/// write it as a generic lambda so the engine's emit inlines.
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

/// Runs the job over `splits` (one map task per split). Returns all reduce
/// outputs, ordered by (reduce task, key).
template <typename Spec>
std::vector<typename Spec::OutType> run_map_reduce(
    MrContext& ctx, const Spec& spec,
    const std::vector<std::vector<typename Spec::InType>>& splits) {
  using K = typename Spec::KeyType;
  using V = typename Spec::ValueType;
  using Out = typename Spec::OutType;
  using PairT = std::pair<K, V>;

  require(ctx.cluster != nullptr && ctx.dfs != nullptr && ctx.metrics != nullptr,
          "run_map_reduce: incomplete context");

  const std::uint32_t reduce_tasks = spec.config.reduce_tasks != 0
                                         ? spec.config.reduce_tasks
                                         : ctx.cluster->total_slots();

  // ---- Map phase -----------------------------------------------------------
  struct MapResult {
    // Pairs pre-bucketed by reduce task in one chunked arena per map task.
    ShuffleArena<PairT> arena;
    cluster::SimTask task;
  };
  std::vector<MapResult> map_results(splits.size());

  ThreadPool::shared().parallel_for(splits.size(), [&](std::size_t s) {
    MapResult& result = map_results[s];
    result.arena.reset(reduce_tasks);
    CpuStopwatch cpu;
    std::uint64_t in_bytes = 0;
    std::uint64_t out_bytes = 0;
    const auto emit = [&](K key, V value) {
      out_bytes += spec.pair_bytes(key, value);
      const std::size_t bucket = spec.key_hash(key) % reduce_tasks;
      result.arena.push(bucket, PairT(std::move(key), std::move(value)));
    };
    for (const auto& record : splits[s]) {
      in_bytes += spec.input_bytes(record);
      spec.map(record, emit);
    }
    result.task.cpu_seconds = cpu.seconds() / spec.config.cpu_efficiency;
    const auto rc = ctx.dfs->read_cost(in_bytes);
    result.task.disk_read = rc.disk_read;
    result.task.network = rc.network;
    result.task.disk_write = out_bytes;  // map spill to local disk
    result.task.fixed_overhead = spec.config.task_overhead_s;
  });

  std::uint64_t map_in_bytes = 0;
  std::uint64_t map_out_bytes = 0;
  {
    std::vector<cluster::SimTask> tasks;
    tasks.reserve(map_results.size());
    for (const auto& r : map_results) {
      tasks.push_back(r.task);
      map_in_bytes += r.task.disk_read;
      map_out_bytes += r.task.disk_write;
    }
    const auto outcome = record_phase(ctx, spec.name + "/map", tasks, map_in_bytes,
                                      map_out_bytes, 0, spec.config.job_startup_s);
    if (!outcome.success) {
      throw TaskFailed(spec.name + "/map: task " +
                       std::to_string(outcome.first_failed_task) +
                       " crashed and exhausted its attempts");
    }
  }

  // ---- Shuffle + reduce phase ---------------------------------------------
  std::vector<std::vector<Out>> reduce_outputs(reduce_tasks);
  std::vector<cluster::SimTask> reduce_task_costs(reduce_tasks);
  const double remote_fraction = ctx.remote_fraction();

  ThreadPool::shared().parallel_for(reduce_tasks, [&](std::size_t r) {
    CpuStopwatch cpu;
    // Fetch this reducer's bucket from every map task (the shuffle).
    std::vector<PairT> pairs;
    std::uint64_t shuffle_bytes = 0;
    for (auto& mr : map_results) {
      mr.arena.consume(r, [&](PairT& kv) {
        shuffle_bytes += spec.pair_bytes(kv.first, kv.second);
        pairs.push_back(std::move(kv));
      });
    }
    // Sort-based grouping (what Hadoop's merge sort does).
    std::stable_sort(pairs.begin(), pairs.end(),
                     [&](const auto& a, const auto& b) {
                       return spec.key_less(a.first, b.first);
                     });
    std::uint64_t out_bytes = 0;
    std::size_t i = 0;
    while (i < pairs.size()) {
      std::size_t j = i + 1;
      while (j < pairs.size() && !spec.key_less(pairs[i].first, pairs[j].first) &&
             !spec.key_less(pairs[j].first, pairs[i].first)) {
        ++j;
      }
      std::vector<V> values;
      values.reserve(j - i);
      for (std::size_t k = i; k < j; ++k) values.push_back(std::move(pairs[k].second));
      const std::size_t before = reduce_outputs[r].size();
      spec.reduce(pairs[i].first, values, reduce_outputs[r]);
      for (std::size_t k = before; k < reduce_outputs[r].size(); ++k) {
        out_bytes += spec.output_bytes(reduce_outputs[r][k]);
      }
      i = j;
    }
    cluster::SimTask& task = reduce_task_costs[r];
    task.cpu_seconds = cpu.seconds() / spec.config.cpu_efficiency;
    task.fixed_overhead = spec.config.task_overhead_s;
    // Shuffle: read map spills from their disks, move across the network,
    // then write the job output to DFS (replicated). On multi-node clusters
    // every reducer opens one fetch connection per mapper.
    if (ctx.cluster->node_count > 1) {
      task.fixed_overhead +=
          spec.config.shuffle_fetch_latency_s * static_cast<double>(map_results.size());
    }
    task.disk_read = shuffle_bytes;
    task.network = static_cast<std::uint64_t>(static_cast<double>(shuffle_bytes) *
                                              remote_fraction);
    const auto wc = ctx.dfs->write_cost(out_bytes);
    task.disk_write = wc.disk_write;
    task.network += wc.network;
  });

  std::uint64_t total_shuffle = 0;
  std::uint64_t total_out = 0;
  for (const auto& t : reduce_task_costs) {
    total_shuffle += t.disk_read;
    total_out += t.disk_write;
  }
  {
    const auto outcome = record_phase(ctx, spec.name + "/reduce", reduce_task_costs,
                                      total_shuffle, total_out, total_shuffle, 0.0);
    if (!outcome.success) {
      throw TaskFailed(spec.name + "/reduce: task " +
                       std::to_string(outcome.first_failed_task) +
                       " crashed and exhausted its attempts");
    }
  }

  std::vector<Out> all;
  for (auto& out : reduce_outputs) {
    for (auto& o : out) all.push_back(std::move(o));
  }
  return all;
}

/// Map-only job spec (SpatialHadoop's distributed-join pattern: the global
/// join happens in getSplits on the master, then one map task per partition
/// pair does the local join; no shuffle, no reduce). The caller provides the
/// splits; per-split input bytes come from `split_bytes`. Build via
/// make_typed_map_only_spec.
template <typename Split, typename Out, typename MapFn, typename SplitBytesFn,
          typename OutBytesFn>
struct TypedMapOnlySpec {
  using SplitType = Split;
  using OutType = Out;

  std::string name;
  MapFn map;
  SplitBytesFn split_bytes;
  OutBytesFn output_bytes;
  MrConfig config{};
};

template <typename Split, typename Out, typename MapFn, typename SplitBytesFn,
          typename OutBytesFn>
auto make_typed_map_only_spec(std::string name, MapFn map, SplitBytesFn split_bytes,
                              OutBytesFn output_bytes) {
  return TypedMapOnlySpec<Split, Out, MapFn, SplitBytesFn, OutBytesFn>{
      std::move(name), std::move(map), std::move(split_bytes),
      std::move(output_bytes)};
}

template <typename Spec>
std::vector<typename Spec::OutType> run_map_only(
    MrContext& ctx, const Spec& spec,
    const std::vector<typename Spec::SplitType>& splits) {
  using Out = typename Spec::OutType;
  require(ctx.cluster != nullptr && ctx.dfs != nullptr && ctx.metrics != nullptr,
          "run_map_only: incomplete context");
  std::vector<std::vector<Out>> outputs(splits.size());
  std::vector<cluster::SimTask> tasks(splits.size());

  ThreadPool::shared().parallel_for(splits.size(), [&](std::size_t s) {
    CpuStopwatch cpu;
    spec.map(splits[s], outputs[s]);
    std::uint64_t out_bytes = 0;
    for (const auto& o : outputs[s]) out_bytes += spec.output_bytes(o);
    cluster::SimTask& task = tasks[s];
    task.cpu_seconds = cpu.seconds() / spec.config.cpu_efficiency;
    const auto rc = ctx.dfs->read_cost(spec.split_bytes(splits[s]));
    const auto wc = ctx.dfs->write_cost(out_bytes);
    task.disk_read = rc.disk_read;
    task.disk_write = wc.disk_write;
    task.network = rc.network + wc.network;
    task.fixed_overhead = spec.config.task_overhead_s;
  });

  std::uint64_t in_bytes = 0;
  std::uint64_t out_bytes = 0;
  for (std::size_t s = 0; s < splits.size(); ++s) {
    in_bytes += spec.split_bytes(splits[s]);
    out_bytes += tasks[s].disk_write;
  }
  {
    const auto outcome = record_phase(ctx, spec.name + "/map", tasks, in_bytes,
                                      out_bytes, 0, spec.config.job_startup_s);
    if (!outcome.success) {
      throw TaskFailed(spec.name + "/map: task " +
                       std::to_string(outcome.first_failed_task) +
                       " crashed and exhausted its attempts");
    }
  }

  std::vector<Out> all;
  for (auto& out : outputs) {
    for (auto& o : out) all.push_back(std::move(o));
  }
  return all;
}

}  // namespace sjc::mapreduce
