#include "geom/prepared_cache.hpp"

#include <optional>
#include <utility>

namespace sjc::geom {

PreparedCache::PreparedCache(MakeRefiner make_refiner)
    : make_refiner_(make_refiner ? std::move(make_refiner)
                                 : [](const Geometry& g) { return BatchRefiner(g); }) {}

std::shared_ptr<const BatchRefiner> PreparedCache::acquire_refiner(
    std::uint64_t id, const Geometry& geometry) {
  std::shared_future<Handle> pending;
  std::optional<std::promise<Handle>> promise;  // set on a miss only
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++lookups_;
    const auto [it, inserted] = entries_.try_emplace(id);
    if (!inserted) {
      // Built or in flight: either way a hit; wait outside the lock.
      ++hits_;
      pending = it->second;
    } else {
      ++misses_;
      it->second = promise.emplace().get_future().share();
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
      // Drop the failed entry so the next lookup retries instead of
      // rethrowing forever. Only this build erases the id, so the entry is
      // still the one it installed.
      std::lock_guard<std::mutex> lock(mutex_);
      entries_.erase(id);
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

double PreparedCache::hit_rate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lookups_ == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(lookups_);
}

}  // namespace sjc::geom
