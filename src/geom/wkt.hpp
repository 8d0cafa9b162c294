// Well-Known Text reader/writer.
//
// WKT is the wire format of the streaming (HadoopGIS-style) data path: every
// record crosses each pipeline stage as "<id>\t<wkt>" text and is re-parsed
// on the far side. The parser is therefore written for throughput
// (single-pass, from_chars numerics, no regex) while still rejecting
// malformed input with precise ParseError messages.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "geom/geometry.hpp"

namespace sjc::geom {

/// Serializes a geometry as canonical WKT, e.g.
/// "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))". Coordinates are written in
/// the shortest form that round-trips (std::to_chars).
std::string to_wkt(const Geometry& geometry);

/// Appends to_wkt(geometry) to `out`, formatting each coordinate straight
/// into the buffer, so a caller that reuses or pre-sizes `out` allocates
/// nothing per coordinate.
void append_wkt(std::string& out, const Geometry& geometry);

/// Parses WKT for the five supported types. Throws ParseError on malformed
/// input (unknown tag, unbalanced parens, bad numbers, unclosed rings, ...).
Geometry from_wkt(std::string_view wkt);

/// Non-throwing parse for hardened input paths: nullopt on malformed input,
/// with the ParseError text copied into `*error` when `error` is non-null.
std::optional<Geometry> try_from_wkt(std::string_view wkt,
                                     std::string* error = nullptr);

}  // namespace sjc::geom
