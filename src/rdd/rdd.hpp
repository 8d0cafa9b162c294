// Rdd<T>: typed, partitioned, memory-accounted datasets with Spark-style
// transformations.
//
// Ownership: an Rdd is a cheap handle onto shared partition storage; the
// storage registers its bytes with the runtime's MemoryManager on creation
// and releases them when the last handle drops — so the OOM gate sees the
// true working set, including intermediates a careless pipeline keeps
// alive. Transformations execute eagerly but are *accounted* like Spark
// stages: narrow ops charge CPU only, wide ops (group_by_key, join_by_key)
// charge a shuffle.
//
// Every Rdd carries a byte sizer for its element type; transformations that
// change the type take the new sizer as an argument.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rdd/spark_runtime.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace sjc::rdd {

template <typename T>
using Sizer = std::function<std::uint64_t(const T&)>;

namespace detail {

template <typename T>
struct RddStorage {
  SparkRuntime* runtime = nullptr;
  std::vector<std::vector<T>> partitions;
  Sizer<T> sizer;
  std::uint64_t bytes = 0;
  std::string name;

  RddStorage(SparkRuntime* rt, std::vector<std::vector<T>> parts, Sizer<T> sz,
             std::string rdd_name)
      : runtime(rt), partitions(std::move(parts)), sizer(std::move(sz)),
        name(std::move(rdd_name)) {
    // Sized one partition per pool task; the total is an integer sum, so it
    // does not depend on the schedule. Sizers are pure functions of an item.
    std::vector<std::uint64_t> partition_bytes(partitions.size(), 0);
    ThreadPool::shared().parallel_for(partitions.size(), [&](std::size_t p) {
      std::uint64_t sum = 0;
      for (const auto& item : partitions[p]) sum += sizer(item);
      partition_bytes[p] = sum;
    });
    for (const std::uint64_t b : partition_bytes) bytes += b;
    runtime->memory().allocate(bytes, "rdd:" + name);
  }

  ~RddStorage() { runtime->memory().release(bytes); }

  RddStorage(const RddStorage&) = delete;
  RddStorage& operator=(const RddStorage&) = delete;
};

}  // namespace detail

template <typename T>
class Rdd {
 public:
  Rdd() = default;

  static Rdd create(SparkRuntime& rt, std::vector<std::vector<T>> partitions,
                    Sizer<T> sizer, std::string name) {
    Rdd rdd;
    rdd.storage_ = std::make_shared<detail::RddStorage<T>>(
        &rt, std::move(partitions), std::move(sizer), std::move(name));
    return rdd;
  }

  bool valid() const { return storage_ != nullptr; }
  SparkRuntime& runtime() const {
    require(valid(), "Rdd: uninitialized handle");
    return *storage_->runtime;
  }
  std::size_t num_partitions() const {
    require(valid(), "Rdd: uninitialized handle");
    return storage_->partitions.size();
  }
  const std::vector<std::vector<T>>& partitions() const {
    require(valid(), "Rdd: uninitialized handle");
    return storage_->partitions;
  }
  const Sizer<T>& sizer() const {
    require(valid(), "Rdd: uninitialized handle");
    return storage_->sizer;
  }
  std::uint64_t bytes() const {
    require(valid(), "Rdd: uninitialized handle");
    return storage_->bytes;
  }
  const std::string& name() const {
    require(valid(), "Rdd: uninitialized handle");
    return storage_->name;
  }

  std::vector<T> collect() const {
    require(valid(), "Rdd: uninitialized handle");
    std::vector<T> out;
    for (const auto& p : storage_->partitions) {
      out.insert(out.end(), p.begin(), p.end());
    }
    storage_->runtime->record_collect(storage_->name + ".collect", bytes());
    return out;
  }

  /// Narrow 1:N transformation.
  template <typename U>
  Rdd<U> flat_map(const std::string& name,
                  const std::function<void(const T&, std::vector<U>&)>& fn,
                  Sizer<U> out_sizer) const {
    return map_partitions_indexed<U>(
        name,
        [&fn](std::size_t, const std::vector<T>& in, std::vector<U>& out) {
          for (const auto& item : in) fn(item, out);
        },
        std::move(out_sizer));
  }

  /// Narrow whole-partition transformation that also sees the partition
  /// index (mapPartitionsWithIndex). The zero-copy data plane uses this to
  /// parse each partition into a stable per-partition store and emit
  /// references into it.
  template <typename U>
  Rdd<U> map_partitions_indexed(
      const std::string& name,
      const std::function<void(std::size_t, const std::vector<T>&, std::vector<U>&)>& body,
      Sizer<U> out_sizer) const {
    require(valid(), "Rdd: uninitialized handle");
    const std::size_t n = num_partitions();
    std::vector<std::vector<U>> out(n);
    std::vector<double> cpu(n, 0.0);
    ThreadPool::shared().parallel_for(n, [&](std::size_t p) {
      CpuStopwatch watch;
      body(p, storage_->partitions[p], out[p]);
      cpu[p] = watch.seconds();
    });
    storage_->runtime->record_narrow_stage(storage_->name + "." + name, cpu);
    return Rdd<U>::create(*storage_->runtime, std::move(out), std::move(out_sizer),
                          storage_->name + "." + name);
  }

  /// Bernoulli sample (what Spark's sample(false, rate) does).
  Rdd<T> sample(const std::string& name, double rate, std::uint64_t seed) const {
    require(rate >= 0.0 && rate <= 1.0, "Rdd::sample: rate must be in [0, 1]");
    Rng base(seed);
    std::vector<Rng> rngs;
    rngs.reserve(num_partitions());
    for (std::size_t p = 0; p < num_partitions(); ++p) rngs.push_back(base.fork(p));
    // Partitions run in parallel but each body only touches its own Rng
    // (indexed by partition), so this is race-free and deterministic.
    return map_partitions_indexed<T>(
        name,
        [&rngs, rate](std::size_t p, const std::vector<T>& in, std::vector<T>& out) {
          for (const auto& item : in) {
            if (rngs[p].bernoulli(rate)) out.push_back(item);
          }
        },
        storage_->sizer);
  }

 private:
  std::shared_ptr<detail::RddStorage<T>> storage_;

  template <typename>
  friend class Rdd;
};

// ---------------------------------------------------------------------------
// Wide (shuffle) operations over pair RDDs
// ---------------------------------------------------------------------------

/// Hash-partitions (K, V) pairs into `num_partitions` groups and collects
/// each key's values (Spark's groupByKey). Shuffle buffers are charged to
/// the memory manager while live — the step the paper identifies as
/// SpatialSpark's OOM risk.
template <typename K, typename V>
Rdd<std::pair<K, std::vector<V>>> group_by_key(
    const Rdd<std::pair<K, V>>& in, std::uint32_t num_partitions,
    Sizer<std::pair<K, std::vector<V>>> out_sizer, const std::string& name = "groupByKey") {
  require(in.valid(), "group_by_key: uninitialized rdd");
  require(num_partitions >= 1, "group_by_key: need at least one partition");
  SparkRuntime& rt = in.runtime();

  // Map side: bucket by hash(K).
  const std::size_t n_in = in.num_partitions();
  std::vector<std::vector<std::vector<std::pair<K, V>>>> buckets(n_in);
  std::vector<double> map_cpu(n_in, 0.0);
  ThreadPool::shared().parallel_for(n_in, [&](std::size_t p) {
    CpuStopwatch watch;
    buckets[p].resize(num_partitions);
    for (const auto& kv : in.partitions()[p]) {
      buckets[p][std::hash<K>{}(kv.first) % num_partitions].push_back(kv);
    }
    map_cpu[p] = watch.seconds();
  });
  // Shuffle buffers hold a full copy of the data while in flight.
  rt.memory().allocate(in.bytes(), "shuffle:" + name);

  // Reduce side: group values per key.
  std::vector<std::vector<std::pair<K, std::vector<V>>>> out(num_partitions);
  std::vector<double> reduce_cpu(num_partitions, 0.0);
  ThreadPool::shared().parallel_for(num_partitions, [&](std::size_t r) {
    CpuStopwatch watch;
    std::unordered_map<K, std::vector<V>> groups;
    for (std::size_t p = 0; p < n_in; ++p) {
      for (auto& kv : buckets[p][r]) {
        groups[kv.first].push_back(std::move(kv.second));
      }
    }
    out[r].reserve(groups.size());
    for (auto& [key, values] : groups) {
      out[r].emplace_back(key, std::move(values));
    }
    reduce_cpu[r] = watch.seconds();
  });

  std::vector<double> cpu = map_cpu;
  cpu.insert(cpu.end(), reduce_cpu.begin(), reduce_cpu.end());
  rt.record_shuffle_stage(in.name() + "." + name, cpu, in.bytes());

  auto result = Rdd<std::pair<K, std::vector<V>>>::create(
      rt, std::move(out), std::move(out_sizer), in.name() + "." + name);
  rt.memory().release(in.bytes());
  return result;
}

/// Inner join of two pair RDDs on K (Spark's join): co-partitions both
/// sides by hash(K), then hash-joins within each partition. Emits one
/// (K, A, B) tuple per matching (A, B) combination.
template <typename K, typename A, typename B>
Rdd<std::tuple<K, A, B>> join_by_key(const Rdd<std::pair<K, A>>& left,
                                     const Rdd<std::pair<K, B>>& right,
                                     std::uint32_t num_partitions,
                                     Sizer<std::tuple<K, A, B>> out_sizer,
                                     const std::string& name = "join") {
  require(left.valid() && right.valid(), "join_by_key: uninitialized rdd");
  require(num_partitions >= 1, "join_by_key: need at least one partition");
  SparkRuntime& rt = left.runtime();

  const std::uint64_t shuffle_bytes = left.bytes() + right.bytes();
  rt.memory().allocate(shuffle_bytes, "shuffle:" + name);

  // Co-partition both sides.
  std::vector<std::vector<std::pair<K, A>>> left_parts(num_partitions);
  std::vector<std::vector<std::pair<K, B>>> right_parts(num_partitions);
  std::vector<double> part_cpu;
  {
    CpuStopwatch watch;
    for (const auto& part : left.partitions()) {
      for (const auto& kv : part) {
        left_parts[std::hash<K>{}(kv.first) % num_partitions].push_back(kv);
      }
    }
    for (const auto& part : right.partitions()) {
      for (const auto& kv : part) {
        right_parts[std::hash<K>{}(kv.first) % num_partitions].push_back(kv);
      }
    }
    part_cpu.push_back(watch.seconds());
  }

  // Per-partition hash join.
  std::vector<std::vector<std::tuple<K, A, B>>> out(num_partitions);
  std::vector<double> join_cpu(num_partitions, 0.0);
  ThreadPool::shared().parallel_for(num_partitions, [&](std::size_t r) {
    CpuStopwatch watch;
    std::unordered_map<K, std::vector<const B*>> table;
    for (const auto& kv : right_parts[r]) {
      table[kv.first].push_back(&kv.second);
    }
    for (const auto& kv : left_parts[r]) {
      const auto it = table.find(kv.first);
      if (it == table.end()) continue;
      for (const B* b : it->second) {
        out[r].emplace_back(kv.first, kv.second, *b);
      }
    }
    join_cpu[r] = watch.seconds();
  });

  std::vector<double> cpu = part_cpu;
  cpu.insert(cpu.end(), join_cpu.begin(), join_cpu.end());
  rt.record_shuffle_stage(left.name() + "." + name, cpu, shuffle_bytes);

  auto result = Rdd<std::tuple<K, A, B>>::create(rt, std::move(out),
                                                 std::move(out_sizer),
                                                 left.name() + "." + name);
  rt.memory().release(shuffle_bytes);
  return result;
}

// ---------------------------------------------------------------------------
// Broadcast variables
// ---------------------------------------------------------------------------

/// Read-only value replicated to every executor. Memory is charged per node
/// for the lifetime of the broadcast.
template <typename T>
class Broadcast {
 public:
  Broadcast(SparkRuntime& rt, T value, std::uint64_t bytes, const std::string& name)
      : runtime_(&rt),
        value_(std::make_shared<const T>(std::move(value))),
        charged_bytes_(bytes * rt.cluster().node_count) {
    rt.memory().allocate(charged_bytes_, "broadcast:" + name);
    rt.record_broadcast(name, bytes);
  }

  ~Broadcast() {
    if (runtime_ != nullptr) runtime_->memory().release(charged_bytes_);
  }

  Broadcast(const Broadcast&) = delete;
  Broadcast& operator=(const Broadcast&) = delete;
  Broadcast(Broadcast&& other) noexcept
      : runtime_(other.runtime_), value_(std::move(other.value_)),
        charged_bytes_(other.charged_bytes_) {
    other.runtime_ = nullptr;
  }
  Broadcast& operator=(Broadcast&&) = delete;

  const T& value() const { return *value_; }

 private:
  SparkRuntime* runtime_;
  std::shared_ptr<const T> value_;
  std::uint64_t charged_bytes_;
};

}  // namespace sjc::rdd
