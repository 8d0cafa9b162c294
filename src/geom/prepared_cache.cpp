#include "geom/prepared_cache.hpp"

#include <optional>
#include <utility>

#include "util/status.hpp"

namespace sjc::geom {

PreparedCache::PreparedCache(std::size_t capacity, MakeRefiner make_refiner)
    : capacity_(capacity),
      make_refiner_(make_refiner ? std::move(make_refiner)
                                 : [](const Geometry& g) { return BatchRefiner(g); }) {
  require(capacity > 0, "PreparedCache: capacity must be > 0");
}

void PreparedCache::erase_locked(std::unordered_map<std::uint64_t, Entry>::iterator it) {
  recency_.erase(it->second.recency);
  entries_.erase(it);
}

std::shared_ptr<const BatchRefiner> PreparedCache::acquire_refiner(
    std::uint64_t id, const Geometry& geometry) {
  std::shared_future<Handle> pending;
  std::optional<std::promise<Handle>> promise;  // set on a miss only
  std::uint64_t build = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++lookups_;
    const auto [it, inserted] = entries_.try_emplace(id);
    if (!inserted) {
      // Built or in flight: either way a hit; wait outside the lock.
      ++hits_;
      recency_.splice(recency_.begin(), recency_, it->second.recency);
      pending = it->second.refiner;
    } else {
      ++misses_;
      build = ++builds_;
      it->second.refiner = promise.emplace().get_future().share();
      it->second.build = build;
      it->second.recency = recency_.insert(recency_.begin(), id);
      if (entries_.size() > capacity_) {
        // The least recently used entry; never the one just inserted, which
        // is at the front (size > capacity >= 1 puts another behind it).
        erase_locked(entries_.find(recency_.back()));
        ++evictions_;
      }
    }
  }
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
      // Drop the failed entry (unless it was already evicted and rebuilt)
      // so the next lookup retries instead of rethrowing forever.
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = entries_.find(id);
      if (it != entries_.end() && it->second.build == build) erase_locked(it);
    }
    promise->set_exception(std::current_exception());
    throw;
  }
}

std::size_t PreparedCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t PreparedCache::lookups() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lookups_;
}

std::uint64_t PreparedCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t PreparedCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t PreparedCache::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

double PreparedCache::hit_rate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lookups_ == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(lookups_);
}

void PreparedCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  recency_.clear();
}

}  // namespace sjc::geom
