#include "workload/dataset.hpp"

#include "geom/wkt.hpp"
#include "util/status.hpp"

namespace sjc::workload {

Dataset::Dataset(std::string name, std::vector<geom::Feature> features,
                 std::uint64_t attr_pad_bytes)
    : name_(std::move(name)), features_(std::move(features)), attr_pad_(attr_pad_bytes) {
  wkt_sizes_.reserve(features_.size());
  envelopes_.reserve(features_.size());
  std::string wkt;  // one buffer reused for every record's WKT length
  for (const auto& f : features_) {
    wkt.clear();
    geom::append_wkt(wkt, f.geometry);
    const auto len = static_cast<std::uint32_t>(wkt.size());
    wkt_sizes_.push_back(len);
    const std::uint64_t record = 12 + len + attr_pad_;  // "<id>\t" + wkt + attrs + '\n'
    text_bytes_ += record;
    memory_bytes_ += f.geometry.size_bytes();
    envelopes_.push_back(f.geometry.envelope());
    extent_.expand_to_include(envelopes_.back());
  }
}

double Dataset::mean_coords() const {
  if (features_.empty()) return 0.0;
  std::size_t total = 0;
  for (const auto& f : features_) total += f.geometry.num_coords();
  return static_cast<double>(total) / static_cast<double>(features_.size());
}

std::vector<std::pair<std::size_t, std::size_t>> Dataset::split_ranges(
    std::size_t n) const {
  require(n >= 1, "Dataset::split_ranges: need at least one split");
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const std::size_t total = features_.size();
  const std::size_t per = (total + n - 1) / std::max<std::size_t>(n, 1);
  for (std::size_t begin = 0; begin < total; begin += per) {
    out.emplace_back(begin, std::min(begin + per, total));
  }
  if (out.empty()) out.emplace_back(0, 0);
  return out;
}

}  // namespace sjc::workload
