// Chunked arena storage for map-side shuffle buckets.
//
// One std::vector per (map task, reduce bucket), grown pair by pair, is a
// reallocation storm and a cold-cache scatter with hundreds of reducers and
// small per-bucket counts — a cost the real systems never pay (their spill
// buffers are contiguous byte arenas).
// ShuffleArena stores all buckets of one map task in a single chunk pool:
// each bucket is a linked chain of fixed-capacity chunks, chunks are
// allocated once and never reallocate, and draining a bucket walks its
// chain in allocation order. Modeled shuffle bytes are unaffected — this
// container only changes how the harness holds the pairs.
//
// One arena belongs to one map task and is filled single-threaded; draining
// (the reduce-side fetch) may happen from a different thread after the map
// phase barrier, and distinct buckets may be drained concurrently.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace sjc::mapreduce {

template <typename T>
class ShuffleArena {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  explicit ShuffleArena(std::size_t chunk_capacity = 128)
      : chunk_capacity_(chunk_capacity == 0 ? 1 : chunk_capacity) {}

  /// Resets the arena to `bucket_count` empty buckets.
  void reset(std::size_t bucket_count) {
    chunks_.clear();
    heads_.assign(bucket_count, kNone);
    tails_.assign(bucket_count, kNone);
    sizes_.assign(bucket_count, 0);
  }

  std::size_t bucket_count() const { return heads_.size(); }
  std::uint64_t bucket_size(std::size_t bucket) const { return sizes_[bucket]; }

  std::uint64_t total_size() const {
    std::uint64_t total = 0;
    for (const auto s : sizes_) total += s;
    return total;
  }

  void push(std::size_t bucket, T value) {
    std::uint32_t tail = tails_[bucket];
    if (tail == kNone || chunks_[tail].items.size() == chunk_capacity_) {
      const auto fresh = static_cast<std::uint32_t>(chunks_.size());
      chunks_.emplace_back();
      chunks_.back().items.reserve(chunk_capacity_);
      if (tail == kNone) {
        heads_[bucket] = fresh;
      } else {
        chunks_[tail].next = fresh;
      }
      tails_[bucket] = fresh;
      tail = fresh;
    }
    chunks_[tail].items.push_back(std::move(value));
    ++sizes_[bucket];
  }

  /// Visits every item of `bucket` in insertion order, passing a mutable
  /// reference (callers typically move the item out). The bucket is left
  /// empty. Distinct buckets may be consumed concurrently.
  template <typename Fn>
  void consume(std::size_t bucket, Fn&& fn) {
    for (std::uint32_t c = heads_[bucket]; c != kNone; c = chunks_[c].next) {
      for (auto& item : chunks_[c].items) fn(item);
      chunks_[c].items.clear();
    }
    heads_[bucket] = kNone;
    tails_[bucket] = kNone;
    sizes_[bucket] = 0;
  }

 private:
  struct Chunk {
    std::vector<T> items;
    std::uint32_t next = kNone;
  };

  std::size_t chunk_capacity_;
  std::vector<Chunk> chunks_;
  std::vector<std::uint32_t> heads_;
  std::vector<std::uint32_t> tails_;
  std::vector<std::uint64_t> sizes_;
};

}  // namespace sjc::mapreduce
