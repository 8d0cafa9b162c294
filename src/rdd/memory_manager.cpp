#include "rdd/memory_manager.hpp"

#include "util/status.hpp"
#include "util/strings.hpp"

namespace sjc::rdd {

MemoryManager::MemoryManager(std::uint64_t capacity_bytes, double data_scale)
    : capacity_(capacity_bytes), data_scale_(data_scale) {
  require(data_scale > 0.0, "MemoryManager: data_scale must be positive");
}

std::uint64_t MemoryManager::to_paper_bytes(std::uint64_t raw_bytes) const {
  return static_cast<std::uint64_t>(static_cast<double>(raw_bytes) * data_scale_);
}

void MemoryManager::allocate(std::uint64_t raw_bytes, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t new_live = live_ + raw_bytes;
  const std::uint64_t paper = to_paper_bytes(new_live);
  if (paper > capacity_) {
    throw SimOutOfMemory("executor memory exhausted allocating " + what + ": " +
                         format_bytes(paper) + " needed > " + format_bytes(capacity_) +
                         " usable");
  }
  live_ = new_live;
  if (paper > peak_paper_) peak_paper_ = paper;
}

void MemoryManager::release(std::uint64_t raw_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  live_ = raw_bytes > live_ ? 0 : live_ - raw_bytes;
}

std::uint64_t MemoryManager::live_raw_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_;
}

std::uint64_t MemoryManager::peak_paper_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_paper_;
}

}  // namespace sjc::rdd
