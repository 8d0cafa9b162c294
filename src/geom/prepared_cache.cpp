#include "geom/prepared_cache.hpp"

#include <optional>
#include <utility>

namespace sjc::geom {

PreparedCache::PreparedCache(MakeRefiner make_refiner)
    : make_refiner_(make_refiner ? std::move(make_refiner)
                                 : [](const Geometry& g) { return BatchRefiner(g); }) {}

std::shared_ptr<const BatchRefiner> PreparedCache::acquire_refiner(
    std::uint64_t id, const Geometry& geometry, bool* built) {
  Shard& shard = shards_[shard_of(id)];
  std::shared_future<Handle> pending;
  std::optional<std::promise<Handle>> promise;  // set on a miss only
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    ++shard.lookups;
    const auto [it, inserted] = shard.entries.try_emplace(id);
    if (!inserted) {
      // Built or in flight: either way a hit; wait outside the lock.
      ++shard.hits;
      pending = it->second;
    } else {
      ++shard.misses;
      it->second = promise.emplace().get_future().share();
    }
  }
  if (built != nullptr) *built = !pending.valid();
  if (pending.valid()) return pending.get();

  // Build outside the lock: preparation is the expensive part and lookups
  // of other ids must not serialize behind it.
  try {
    auto holder = std::make_shared<RefinerHolder>(geometry, make_refiner_);
    Handle handle(holder, &holder->refiner);
    promise->set_value(handle);
    return handle;
  } catch (...) {
    {
      // Drop the failed entry so the next lookup retries instead of
      // rethrowing forever. Only this build erases the id, so the entry is
      // still the one it installed.
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.entries.erase(id);
    }
    promise->set_exception(std::current_exception());
    throw;
  }
}

std::uint64_t PreparedCache::sum(std::uint64_t Shard::*field) const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.*field;
  }
  return total;
}

std::size_t PreparedCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.entries.size();
  }
  return total;
}

std::uint64_t PreparedCache::lookups() const { return sum(&Shard::lookups); }

std::uint64_t PreparedCache::hits() const { return sum(&Shard::hits); }

std::uint64_t PreparedCache::misses() const { return sum(&Shard::misses); }

double PreparedCache::hit_rate() const {
  // Both counts per shard under one lock, so hits never exceed lookups.
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    lookups += shard.lookups;
    hits += shard.hits;
  }
  return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
}

}  // namespace sjc::geom
