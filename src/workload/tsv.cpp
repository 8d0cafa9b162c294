#include "workload/tsv.hpp"

#include <charconv>

#include "geom/wkt.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace sjc::workload {

namespace {

/// Longest "<id>\t" prefix: a 20-digit uint64 and the tab.
constexpr std::size_t kMaxIdField = 21;

void append_tsv(std::string& line, const geom::Feature& feature, std::size_t pad_bytes) {
  char id[20];
  line.append(id, std::to_chars(id, id + sizeof(id), feature.id).ptr);
  line.push_back('\t');
  geom::append_wkt(line, feature.geometry);
  if (pad_bytes > 0) {
    line.push_back('\t');
    line.append(pad_bytes, 'a');
  }
}

}  // namespace

std::string feature_to_tsv(const geom::Feature& feature, std::size_t pad_bytes) {
  std::string line;
  append_tsv(line, feature, pad_bytes);
  return line;
}

geom::Feature feature_from_tsv(std::string_view line) {
  return feature_from_tsv_at(line, 0);
}

geom::Feature feature_from_tsv_at(std::string_view line, std::size_t field_offset) {
  std::string_view rest = line;
  for (std::size_t skip = 0; skip < field_offset; ++skip) {
    const auto tab = rest.find('\t');
    if (tab == std::string_view::npos) {
      throw ParseError("feature_from_tsv_at: too few fields in '" + std::string(line) +
                       "'");
    }
    rest = rest.substr(tab + 1);
  }
  const auto tab = rest.find('\t');
  if (tab == std::string_view::npos) {
    throw ParseError("feature_from_tsv: missing wkt field in '" + std::string(line) + "'");
  }
  geom::Feature feature;
  feature.id = parse_u64(rest.substr(0, tab));
  std::string_view wkt = rest.substr(tab + 1);
  // Trailing attribute fields (if any) end the WKT at the next tab.
  const auto wkt_end = wkt.find('\t');
  if (wkt_end != std::string_view::npos) wkt = wkt.substr(0, wkt_end);
  feature.geometry = geom::from_wkt(wkt);
  return feature;
}

std::optional<geom::Feature> try_feature_from_tsv(std::string_view line,
                                                  std::string* error) {
  return try_feature_from_tsv_at(line, 0, error);
}

std::optional<geom::Feature> try_feature_from_tsv_at(std::string_view line,
                                                     std::size_t field_offset,
                                                     std::string* error) {
  try {
    return feature_from_tsv_at(line, field_offset);
  } catch (const ParseError& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

std::vector<std::string> dataset_to_tsv(const Dataset& dataset, bool include_pad) {
  const std::size_t pad = include_pad ? dataset.attr_pad_bytes() : 0;
  const auto& features = dataset.features();
  // Each line's one allocation, sized from the cached WKT length, is made
  // here on the calling thread, which also frees the lines later. Lines
  // allocated by pool workers land in the workers' malloc arenas, and
  // freeing them from another thread slowed the jobs' own allocations:
  // SpatialHadoop's taxi x nycb joins ran ~7% slower and charged ~1% more
  // CPU (4-core Xeon VM). Only the formatting runs on the pool.
  std::vector<std::string> lines(features.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    lines[i].reserve(kMaxIdField + dataset.wkt_bytes(i) + (pad > 0 ? 1 + pad : 0));
  }
  ThreadPool& pool = ThreadPool::shared();
  const auto ranges = even_ranges(features.size(), pool.thread_count());
  pool.parallel_for(ranges.size(), [&](std::size_t c) {
    for (std::size_t i = ranges[c].first; i < ranges[c].second; ++i) {
      append_tsv(lines[i], features[i], pad);
    }
  });
  return lines;
}

}  // namespace sjc::workload
