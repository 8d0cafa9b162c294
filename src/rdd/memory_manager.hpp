// Executor memory accounting for the RDD engine.
//
// The paper's headline robustness result is that SpatialSpark fails with
// out-of-memory on EC2-8/EC2-6 while succeeding on the workstation (128 GB)
// and EC2-10 (150 GB aggregate): Spark 1.1's in-memory pipeline for this
// workload cannot spill. MemoryManager is that gate: every materialized
// RDD, shuffle buffer and broadcast registers its bytes; exceeding the
// usable fraction of aggregate cluster memory throws SimOutOfMemory.
//
// Raw bytes are converted to paper magnitude (x data_scale) before being
// charged against capacity; the JVM object overhead (boxed records,
// pointer-heavy Scala collections) is already in the raw bytes, since the
// RDD sizers add it per record.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

namespace sjc::rdd {

class MemoryManager {
 public:
  /// `capacity_bytes` is usable executor memory at paper magnitude.
  MemoryManager(std::uint64_t capacity_bytes, double data_scale);

  /// Registers `raw_bytes` (scaled magnitude) of live data; throws
  /// SimOutOfMemory when the paper-magnitude total would exceed capacity.
  void allocate(std::uint64_t raw_bytes, const std::string& what);

  /// Releases a previous allocation.
  void release(std::uint64_t raw_bytes);

  /// Live raw bytes (scaled magnitude).
  std::uint64_t live_raw_bytes() const;

  /// High-water mark at paper magnitude.
  std::uint64_t peak_paper_bytes() const;

  std::uint64_t capacity_bytes() const { return capacity_; }

  /// Paper-magnitude size of `raw_bytes`.
  std::uint64_t to_paper_bytes(std::uint64_t raw_bytes) const;

 private:
  std::uint64_t capacity_;
  double data_scale_;
  mutable std::mutex mutex_;
  std::uint64_t live_ = 0;  // raw (scaled) bytes
  std::uint64_t peak_paper_ = 0;
};

}  // namespace sjc::rdd
