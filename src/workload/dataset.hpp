// Dataset: an in-memory spatial dataset with the bookkeeping the simulated
// systems need.
//
// Each dataset tracks two byte measures:
//  * text_bytes — the size of the dataset serialized as TSV records
//    ("<id>\t<wkt>" plus an attribute-padding allowance matching the
//    paper's per-record byte footprint); this is what DFS reads/writes and
//    streaming pipes carry;
//  * memory_bytes — the in-memory geometry footprint; this is what the RDD
//    memory manager sees.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geom/envelope.hpp"
#include "geom/geometry.hpp"

namespace sjc::workload {

class Dataset {
 public:
  Dataset() = default;
  /// `attr_pad_bytes` models non-spatial attribute columns that ride along
  /// with each record on disk but are never parsed by the joins.
  Dataset(std::string name, std::vector<geom::Feature> features,
          std::uint64_t attr_pad_bytes);

  const std::string& name() const { return name_; }
  const std::vector<geom::Feature>& features() const { return features_; }
  std::size_t size() const { return features_.size(); }
  std::uint64_t attr_pad_bytes() const { return attr_pad_; }

  const geom::Envelope& extent() const { return extent_; }
  std::uint64_t text_bytes() const { return text_bytes_; }
  std::uint64_t memory_bytes() const { return memory_bytes_; }

  /// Average coordinates per record (geometry complexity).
  double mean_coords() const;

  /// On-disk TSV size of one record (id + wkt + attribute padding). Called
  /// once per record per sizer in every MR job — kept inline and unchecked.
  std::uint64_t record_text_bytes(std::size_t i) const {
    return 12 + wkt_sizes_[i] + attr_pad_;
  }

  /// Length of record i's WKT text.
  std::uint32_t wkt_bytes(std::size_t i) const { return wkt_sizes_[i]; }

  /// Envelopes of all features, in feature order. Built once at
  /// construction; the span stays valid for the dataset's lifetime.
  std::span<const geom::Envelope> envelopes() const { return envelopes_; }

  /// Splits feature indices into `n` contiguous chunks (HDFS-block-like
  /// splits of the raw file).
  std::vector<std::pair<std::size_t, std::size_t>> split_ranges(std::size_t n) const;

 private:
  std::string name_;
  std::vector<geom::Feature> features_;
  std::vector<std::uint32_t> wkt_sizes_;  // cached per-record WKT length
  std::vector<geom::Envelope> envelopes_;  // cached per-record envelope
  std::uint64_t attr_pad_ = 0;
  std::uint64_t text_bytes_ = 0;
  std::uint64_t memory_bytes_ = 0;
  geom::Envelope extent_;
};

}  // namespace sjc::workload
