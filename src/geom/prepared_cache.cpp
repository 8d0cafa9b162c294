#include "geom/prepared_cache.hpp"

#include <optional>
#include <utility>

#include "geom/batch_refine.hpp"
#include "util/status.hpp"

namespace sjc::geom {

// Out-of-line so unique_ptr<BatchRefiner> destroys where the type is
// complete (the header only forward-declares it).
PreparedCache::RefinerHolder::~RefinerHolder() = default;

PreparedCache::PreparedCache(std::size_t capacity) : capacity_(capacity) {
  require(capacity > 0, "PreparedCache: capacity must be > 0");
}

void PreparedCache::touch_and_evict_locked(Entry& entry, std::uint64_t keep_id) {
  entry.last_used = ++tick_;
  if (entries_.size() <= capacity_) return;
  // Evict the least-recently-used entry other than the one just touched
  // (size > capacity >= 1 guarantees one exists).
  auto victim = entries_.end();
  for (auto cur = entries_.begin(); cur != entries_.end(); ++cur) {
    if (cur->first == keep_id) continue;
    if (victim == entries_.end() || cur->second.last_used < victim->second.last_used) {
      victim = cur;
    }
  }
  entries_.erase(victim);
  ++evictions_;
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
      it->second.last_used = ++tick_;
      pending = it->second.refiner;
    } else {
      ++misses_;
      build = ++builds_;
      it->second.refiner = promise.emplace().get_future().share();
      it->second.build = build;
      touch_and_evict_locked(it->second, id);
    }
  }
  if (pending.valid()) return pending.get();

  // Build outside the lock: preparation is the expensive part and lookups
  // of other ids must not serialize behind it.
  try {
    auto holder = std::make_shared<RefinerHolder>();
    holder->geometry = geometry;
    holder->refiner = std::make_unique<BatchRefiner>(holder->geometry);
    Handle handle(holder, holder->refiner.get());
    promise->set_value(handle);
    return handle;
  } catch (...) {
    {
      // Drop the failed entry (unless it was already evicted and rebuilt)
      // so the next lookup retries instead of rethrowing forever.
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = entries_.find(id);
      if (it != entries_.end() && it->second.build == build) entries_.erase(it);
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
  tick_ = 0;
}

}  // namespace sjc::geom
