// TSV record format for the streaming (HadoopGIS) data path.
//
// Hadoop Streaming forces records to be text lines; HadoopGIS stores
// geometries as "<id>\t<wkt>" (after its step-1 format-conversion job).
// These helpers serialize/parse that format — for real, because paying the
// parse cost at every stage boundary is precisely the overhead the paper
// attributes to the streaming design.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "geom/geometry.hpp"
#include "workload/dataset.hpp"

namespace sjc::workload {

/// "<id>\t<wkt>[\t<attr filler>]" — `pad_bytes` appends a filler attribute
/// field so line volumes match the dataset's on-disk record size (HadoopGIS
/// drags all attribute columns through every pipe).
std::string feature_to_tsv(const geom::Feature& feature, std::size_t pad_bytes = 0);

/// Parses "<id>\t<wkt>"; throws ParseError on malformed lines.
geom::Feature feature_from_tsv(std::string_view line);

/// "<prefix-fields...>\t<id>\t<wkt>" — parse a feature from the record
/// starting at field `field_offset` (streaming stages prepend keys).
geom::Feature feature_from_tsv_at(std::string_view line, std::size_t field_offset);

/// Non-throwing parse variants for hardened (quarantine-backed) input
/// paths: nullopt on a malformed line, with the ParseError text copied into
/// `*error` when `error` is non-null. InvalidArgument and other
/// non-parse errors still propagate — those are caller bugs, not bad data.
std::optional<geom::Feature> try_feature_from_tsv(std::string_view line,
                                                  std::string* error = nullptr);
std::optional<geom::Feature> try_feature_from_tsv_at(std::string_view line,
                                                     std::size_t field_offset,
                                                     std::string* error = nullptr);

/// Serializes a whole dataset (used to seed the streaming pipeline), line i
/// being feature_to_tsv(feature i). When `include_pad` is set every line
/// carries the dataset's attribute padding. Chunks of lines are written in
/// parallel on the shared pool.
std::vector<std::string> dataset_to_tsv(const Dataset& dataset, bool include_pad = false);

}  // namespace sjc::workload
