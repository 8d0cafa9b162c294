// Tests for the synthetic workload generators: determinism, scaling,
// statistical shape and the structural properties the joins rely on
// (census blocks tile the extent; every taxi point falls in exactly one
// block interior-wise).
#include <gtest/gtest.h>

#include <limits>

#include "cluster/counters.hpp"
#include "geom/predicates.hpp"
#include "geom/wkt.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"
#include "workload/generators.hpp"
#include "workload/quarantine.hpp"
#include "workload/tsv.hpp"

namespace sjc::workload {
namespace {

WorkloadConfig tiny() {
  WorkloadConfig wc;
  wc.scale = 5e-5;
  return wc;
}

TEST(Generators, DatasetNames) {
  EXPECT_STREQ(dataset_id_name(DatasetId::kTaxi), "taxi");
  EXPECT_STREQ(dataset_id_name(DatasetId::kEdges01), "edges0.1");
}

TEST(Generators, PaperFactsMatchTable1) {
  EXPECT_EQ(paper_record_count(DatasetId::kTaxi), 169'720'892ULL);
  EXPECT_EQ(paper_record_count(DatasetId::kNycb), 38'839ULL);
  EXPECT_EQ(paper_record_count(DatasetId::kEdges), 72'729'686ULL);
  EXPECT_EQ(paper_record_count(DatasetId::kLinearwater), 5'857'442ULL);
  EXPECT_GT(paper_size_bytes(DatasetId::kEdges), 23ULL * 1024 * 1024 * 1024);
}

TEST(Generators, ScaledCountsTrackPaper) {
  const auto taxi = generate_taxi(tiny());
  const double expected = 169'720'892.0 * 5e-5;
  EXPECT_NEAR(static_cast<double>(taxi.size()), expected, expected * 0.01 + 2);
}

TEST(Generators, DeterministicForSeed) {
  const auto a = generate_edges(tiny());
  const auto b = generate_edges(tiny());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 97) {
    EXPECT_TRUE(a.features()[i].geometry == b.features()[i].geometry);
  }
  WorkloadConfig other = tiny();
  other.seed = 999;
  const auto c = generate_edges(other);
  EXPECT_FALSE(a.features()[0].geometry == c.features()[0].geometry);
}

TEST(Generators, AllWithinExtent) {
  const WorkloadConfig wc = tiny();
  for (const auto id : {DatasetId::kTaxi, DatasetId::kNycb, DatasetId::kEdges,
                        DatasetId::kLinearwater}) {
    const auto data = generate(id, wc);
    EXPECT_TRUE(wc.extent.contains(data.extent()))
        << dataset_id_name(id) << " escapes the extent";
  }
}

TEST(Generators, IdsAreDense) {
  const auto taxi = generate_taxi(tiny());
  for (std::size_t i = 0; i < taxi.size(); i += 131) {
    EXPECT_EQ(taxi.features()[i].id, i);
  }
}

TEST(Generators, TaxiIsSkewed) {
  // Hotspot mixture: the densest 10% of a coarse grid should hold far more
  // than 10% of points.
  const auto taxi = generate_taxi(tiny());
  const int g = 10;
  std::vector<int> cells(g * g, 0);
  const auto& extent = tiny().extent;
  for (const auto& f : taxi.features()) {
    const auto& p = f.geometry.as_point();
    const int cx = std::min(g - 1, static_cast<int>((p.x - extent.min_x()) /
                                                    extent.width() * g));
    const int cy = std::min(g - 1, static_cast<int>((p.y - extent.min_y()) /
                                                    extent.height() * g));
    cells[cy * g + cx]++;
  }
  std::sort(cells.begin(), cells.end(), std::greater<>());
  int top10 = 0;
  for (int i = 0; i < g * g / 10; ++i) top10 += cells[i];
  EXPECT_GT(top10, static_cast<int>(taxi.size()) / 4);
}

TEST(Generators, NycbBlocksTileWithoutOverlap) {
  const auto nycb = generate_nycb(tiny());
  // Probe random points: each must be covered by >= 1 block, and interior
  // points by exactly one (shared boundaries may give two).
  Rng rng(5);
  const auto& extent = tiny().extent;
  int multi = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const geom::Geometry p = geom::Geometry::point(
        rng.uniform(extent.min_x() + 1, extent.max_x() - 1),
        rng.uniform(extent.min_y() + 1, extent.max_y() - 1));
    int covering = 0;
    for (const auto& f : nycb.features()) {
      if (geom::contains_naive(f.geometry, p)) ++covering;
    }
    EXPECT_GE(covering, 1);
    EXPECT_LE(covering, 2);
    if (covering > 1) ++multi;
  }
  EXPECT_LE(multi, 5);  // boundary hits are measure-zero-rare
}

TEST(Generators, NycbPolygonsAreValidAndDensified) {
  const auto nycb = generate_nycb(tiny());
  EXPECT_GE(nycb.size(), 4u);
  for (const auto& f : nycb.features()) {
    EXPECT_EQ(f.geometry.type(), geom::GeomType::kPolygon);
    EXPECT_GE(f.geometry.num_coords(), 17u);  // 4 corners + 4x3 densified + close
  }
}

TEST(Generators, GeometryComplexityShape) {
  const WorkloadConfig wc = tiny();
  const auto edges = generate_edges(wc);
  const auto water = generate_linearwater(wc);
  // TIGER-like: edges are short (few vertices), linearwater long.
  EXPECT_LT(edges.mean_coords(), 10.0);
  EXPECT_GT(water.mean_coords(), 30.0);
  EXPECT_GT(water.mean_coords(), edges.mean_coords() * 4);
}

TEST(Generators, SampleFraction) {
  const auto edges = generate_edges(tiny());
  const auto sampled = sample_fraction(edges, "edges0.1", 0.1, 7);
  EXPECT_NEAR(static_cast<double>(sampled.size()),
              static_cast<double>(edges.size()) * 0.1,
              static_cast<double>(edges.size()) * 0.05);
  EXPECT_EQ(sampled.name(), "edges0.1");
  EXPECT_THROW(sample_fraction(edges, "bad", 0.0, 7), InvalidArgument);
}

TEST(Generators, GenerateDispatchCoversAllIds) {
  const WorkloadConfig wc = tiny();
  for (const auto id : {DatasetId::kTaxi, DatasetId::kTaxi1m, DatasetId::kNycb,
                        DatasetId::kEdges, DatasetId::kLinearwater, DatasetId::kEdges01,
                        DatasetId::kLinearwater01}) {
    const auto data = generate(id, wc);
    EXPECT_GT(data.size(), 0u) << dataset_id_name(id);
    EXPECT_GT(data.text_bytes(), 0u);
    EXPECT_GT(data.memory_bytes(), 0u);
  }
}

TEST(Dataset, SplitRangesCoverExactly) {
  const auto taxi = generate_taxi1m(tiny());
  const auto ranges = taxi.split_ranges(7);
  std::size_t covered = 0;
  std::size_t prev_end = 0;
  for (const auto& [begin, end] : ranges) {
    EXPECT_EQ(begin, prev_end);
    covered += end - begin;
    prev_end = end;
  }
  EXPECT_EQ(covered, taxi.size());
}

TEST(Dataset, TextBytesSumRecordBytes) {
  const auto nycb = generate_nycb(tiny());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < nycb.size(); ++i) total += nycb.record_text_bytes(i);
  EXPECT_EQ(total, nycb.text_bytes());
}

// ---------------------------------------------------------------------------
// TSV round trip
// ---------------------------------------------------------------------------

TEST(Tsv, FeatureRoundTrip) {
  const geom::Feature f{42, geom::Geometry::point(1.5, 2.5)};
  const geom::Feature parsed = feature_from_tsv(feature_to_tsv(f));
  EXPECT_EQ(parsed.id, 42u);
  EXPECT_TRUE(parsed.geometry == f.geometry);
}

TEST(Tsv, PaddedLineParses) {
  const geom::Feature f{7, geom::Geometry::line_string({{0, 0}, {1, 1}})};
  const std::string line = feature_to_tsv(f, 50);
  EXPECT_GT(line.size(), feature_to_tsv(f).size() + 49);
  const geom::Feature parsed = feature_from_tsv(line);
  EXPECT_TRUE(parsed.geometry == f.geometry);
}

TEST(Tsv, FieldOffsetParsing) {
  const std::string line = "p12\tA\t9\tPOINT (3 4)";
  const geom::Feature parsed = feature_from_tsv_at(line, 2);
  EXPECT_EQ(parsed.id, 9u);
  EXPECT_EQ(parsed.geometry.as_point().x, 3.0);
}

TEST(Tsv, MalformedLinesThrow) {
  EXPECT_THROW(feature_from_tsv("no-tabs-here"), ParseError);
  EXPECT_THROW(feature_from_tsv("abc\tPOINT (1 2)"), ParseError);
  EXPECT_THROW(feature_from_tsv_at("only\ttwo", 5), ParseError);
}

TEST(Tsv, DatasetToTsvMatchesSize) {
  const auto nycb = generate_nycb(tiny());
  const auto lines = dataset_to_tsv(nycb);
  EXPECT_EQ(lines.size(), nycb.size());
  const auto padded = dataset_to_tsv(nycb, /*include_pad=*/true);
  EXPECT_GT(padded[0].size(), lines[0].size());
}

// The serializer dataset_to_tsv replaced, copied verbatim as the reference:
// the format_double-based to_wkt plus feature_to_tsv.
namespace reference {

using geom::Coord;
using geom::GeomType;
using geom::Geometry;
using geom::Polygon;

void append_coord(std::string& out, const Coord& c) {
  out += format_double(c.x);
  out.push_back(' ');
  out += format_double(c.y);
}

void append_coord_list(std::string& out, const std::vector<Coord>& coords) {
  out.push_back('(');
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (i > 0) out += ", ";
    append_coord(out, coords[i]);
  }
  out.push_back(')');
}

void append_polygon_body(std::string& out, const Polygon& poly) {
  out.push_back('(');
  append_coord_list(out, poly.shell);
  for (const auto& hole : poly.holes) {
    out += ", ";
    append_coord_list(out, hole);
  }
  out.push_back(')');
}

std::string to_wkt(const Geometry& geometry) {
  std::string out = geom_type_name(geometry.type());
  out.push_back(' ');
  switch (geometry.type()) {
    case GeomType::kPoint: {
      out.push_back('(');
      append_coord(out, geometry.as_point());
      out.push_back(')');
      break;
    }
    case GeomType::kLineString:
      append_coord_list(out, geometry.as_line_string().coords);
      break;
    case GeomType::kPolygon:
      append_polygon_body(out, geometry.as_polygon());
      break;
    case GeomType::kMultiLineString: {
      out.push_back('(');
      const auto& parts = geometry.as_multi_line_string().parts;
      for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) out += ", ";
        append_coord_list(out, parts[i].coords);
      }
      out.push_back(')');
      break;
    }
    case GeomType::kMultiPolygon: {
      out.push_back('(');
      const auto& parts = geometry.as_multi_polygon().parts;
      for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) out += ", ";
        append_polygon_body(out, parts[i]);
      }
      out.push_back(')');
      break;
    }
  }
  return out;
}

std::string feature_to_tsv(const geom::Feature& feature, std::size_t pad_bytes) {
  std::string line = std::to_string(feature.id) + "\t" + reference::to_wkt(feature.geometry);
  if (pad_bytes > 0) {
    line.push_back('\t');
    line.append(pad_bytes, 'a');
  }
  return line;
}

}  // namespace reference

/// dataset_to_tsv, feature_to_tsv, to_wkt and the cached WKT lengths all
/// agree with the reference serializer, with and without padding, and every
/// line parses back to the same id and geometry (the text round trip the
/// SpatialSpark and HadoopGIS parse stages rely on).
void expect_reference_tsv(const Dataset& data) {
  for (const bool include_pad : {false, true}) {
    const std::size_t pad = include_pad ? data.attr_pad_bytes() : 0;
    const auto lines = dataset_to_tsv(data, include_pad);
    ASSERT_EQ(lines.size(), data.size()) << data.name();
    for (std::size_t i = 0; i < data.size(); ++i) {
      const geom::Feature& f = data.features()[i];
      const std::string expected = reference::feature_to_tsv(f, pad);
      ASSERT_EQ(lines[i], expected) << data.name() << " line " << i << " pad " << pad;
      ASSERT_EQ(feature_to_tsv(f, pad), expected) << data.name() << " line " << i;
      ASSERT_EQ(geom::to_wkt(f.geometry), reference::to_wkt(f.geometry)) << data.name();
      ASSERT_EQ(data.wkt_bytes(i), reference::to_wkt(f.geometry).size()) << data.name();
      const geom::Feature parsed = feature_from_tsv(lines[i]);
      ASSERT_EQ(parsed.id, f.id) << data.name() << " line " << i;
      ASSERT_TRUE(parsed.geometry == f.geometry) << data.name() << " line " << i;
    }
  }
}

TEST(Tsv, DatasetToTsvMatchesReferenceSerializer) {
  for (const auto id : {DatasetId::kTaxi, DatasetId::kNycb, DatasetId::kEdges,
                        DatasetId::kLinearwater}) {
    expect_reference_tsv(generate(id, tiny()));
  }
  expect_reference_tsv(Dataset("empty", {}, 40));

  // Holes, multipolygons, signed zeros, exponent-formatted and subnormal
  // coordinates, and an id with all 20 digits.
  using geom::Geometry;
  const geom::Ring shell = {
      {-0.0, 0.0}, {1e21, -0.0}, {1e21, 2.5e-7}, {0.0, 2.5e-7}, {-0.0, 0.0}};
  const geom::Ring hole = {{1e3, 1e-8}, {2e3, 1e-8}, {2e3, 2e-8}, {1e3, 1e-8}};
  const geom::Ring sliver = {
      {-1.5e300, -2.0}, {-1.0e300, -2.0}, {-1.0e300, 3.0}, {-1.5e300, -2.0}};
  std::vector<geom::Feature> corpus = {
      {0, Geometry::point(-0.0, 5e-324)},
      {std::numeric_limits<std::uint64_t>::max(), Geometry::point(1.7976931348623157e308, -0.1)},
      {7, Geometry::line_string({{0.1, 0.2}, {1e-5, 123456789.125}, {-3e22, 4.0}})},
      {8, Geometry::polygon(shell, {hole})},
      {9, Geometry::multi_line_string({geom::LineString{{{-0.0, 1.0}, {2.0, -0.0}}},
                                       geom::LineString{{{1e-300, 1e300}, {5.0, 6.0}}}})},
      {10, Geometry::multi_polygon({geom::Polygon{shell, {hole}}, geom::Polygon{sliver, {}}})},
  };
  expect_reference_tsv(Dataset("corpus", std::move(corpus), 3));
}

// ---------------------------------------------------------------------------
// Input quarantine: tolerant parsing, junk injection, the quarantine sink
// ---------------------------------------------------------------------------

TEST(Quarantine, TryParseReturnsFeatureOrError) {
  std::string error;
  const auto good = try_feature_from_tsv("7\tPOINT (1 2)", &error);
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(7u, good->id);

  for (const char* bad : {"not-a-number\tPOINT (1 2)", "7\tBLOB (1 2)",
                          "7\tPOINT (x y)", "just-one-field"}) {
    error.clear();
    EXPECT_FALSE(try_feature_from_tsv(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
    // The throwing path still throws on exactly the same lines.
    EXPECT_THROW(feature_from_tsv(bad), ParseError) << bad;
  }
}

TEST(Quarantine, InjectedJunkIsExtraAndDeterministic) {
  const std::vector<std::string> original = {"1\tPOINT (0 0)", "2\tPOINT (1 1)",
                                             "3\tPOINT (2 2)"};
  std::vector<std::string> a = original;
  inject_malformed_rows(a, 4, /*seed=*/99);
  ASSERT_EQ(original.size() + 4, a.size());

  // Same seed, same placement; different seed moves the junk.
  std::vector<std::string> b = original;
  inject_malformed_rows(b, 4, 99);
  EXPECT_EQ(a, b);

  // Real rows survive, in order, as a subsequence; junk is recognizable
  // and never parses.
  std::size_t next_real = 0;
  std::size_t junk = 0;
  for (const auto& line : a) {
    if (is_injected_junk(line)) {
      ++junk;
      EXPECT_FALSE(try_feature_from_tsv(line).has_value()) << line;
    } else {
      ASSERT_LT(next_real, original.size());
      EXPECT_EQ(original[next_real], line);
      ++next_real;
    }
  }
  EXPECT_EQ(original.size(), next_real);
  EXPECT_EQ(4u, junk);
}

TEST(Quarantine, SinkCountsSamplesAndFlushes) {
  RowQuarantine q(/*sample_capacity=*/2);
  EXPECT_EQ(0u, q.count());
  q.divert("siteA", "bad-line-1", "no tab");
  q.divert("siteA", "bad-line-2", "no tab");
  q.divert("siteB", "bad-line-3", "no tab");  // beyond capacity: counted only
  EXPECT_EQ(3u, q.count());
  EXPECT_EQ(2u, q.samples().size());
  EXPECT_NE(std::string::npos, q.samples()[0].find("siteA"));
  EXPECT_NE(std::string::npos, q.samples()[0].find("bad-line-1"));

  cluster::Counters counters;
  q.flush_counters(counters);
  EXPECT_EQ(3u, counters.get("input.quarantined_rows"));

  // An empty sink adds nothing.
  RowQuarantine empty;
  cluster::Counters none;
  empty.flush_counters(none);
  EXPECT_EQ(0u, none.get("input.quarantined_rows"));
}

}  // namespace
}  // namespace sjc::workload
