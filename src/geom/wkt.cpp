#include "geom/wkt.hpp"

#include <charconv>

#include "util/status.hpp"

namespace sjc::geom {

namespace {

void append_number(std::string& out, double value) {
  // Cannot overflow: the longest shortest-round-trip double is 24 chars.
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

void append_coord(std::string& out, const Coord& c) {
  append_number(out, c.x);
  out.push_back(' ');
  append_number(out, c.y);
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

/// Recursive-descent WKT scanner over a string_view.
class WktParser {
 public:
  explicit WktParser(std::string_view text) : text_(text) {}

  Geometry parse() {
    skip_ws();
    const std::string_view tag = read_tag();
    Geometry g = parse_body(tag);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after geometry");
    return g;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError("WKT parse error at offset " + std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void expect(char c) {
    skip_ws();
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_if(char c) {
    skip_ws();
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string_view read_tag() {
    skip_ws();
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && ((text_[pos_] >= 'A' && text_[pos_] <= 'Z') ||
                                   (text_[pos_] >= 'a' && text_[pos_] <= 'z'))) {
      ++pos_;
    }
    if (pos_ == begin) fail("expected geometry tag");
    return text_.substr(begin, pos_ - begin);
  }

  double read_number() {
    skip_ws();
    double value = 0.0;
    const char* first = text_.data() + pos_;
    const char* last = text_.data() + text_.size();
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc()) fail("expected number");
    pos_ += static_cast<std::size_t>(ptr - first);
    return value;
  }

  Coord read_coord() {
    const double x = read_number();
    const double y = read_number();
    return {x, y};
  }

  std::vector<Coord> read_coord_list() {
    expect('(');
    std::vector<Coord> coords;
    do {
      coords.push_back(read_coord());
    } while (consume_if(','));
    expect(')');
    return coords;
  }

  Polygon read_polygon_body() {
    expect('(');
    Polygon poly;
    poly.shell = read_coord_list();
    while (consume_if(',')) poly.holes.push_back(read_coord_list());
    expect(')');
    return poly;
  }

  Geometry parse_body(std::string_view tag) {
    if (tag == "POINT") {
      expect('(');
      const Coord c = read_coord();
      expect(')');
      return Geometry::point(c.x, c.y);
    }
    if (tag == "LINESTRING") {
      return Geometry::line_string(read_coord_list());
    }
    if (tag == "POLYGON") {
      Polygon poly = read_polygon_body();
      return Geometry::polygon(std::move(poly.shell), std::move(poly.holes));
    }
    if (tag == "MULTILINESTRING") {
      expect('(');
      std::vector<LineString> parts;
      do {
        parts.push_back(LineString{read_coord_list()});
      } while (consume_if(','));
      expect(')');
      return Geometry::multi_line_string(std::move(parts));
    }
    if (tag == "MULTIPOLYGON") {
      expect('(');
      std::vector<Polygon> parts;
      do {
        parts.push_back(read_polygon_body());
      } while (consume_if(','));
      expect(')');
      return Geometry::multi_polygon(std::move(parts));
    }
    fail("unknown geometry tag '" + std::string(tag) + "'");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string to_wkt(const Geometry& geometry) {
  std::string out;
  append_wkt(out, geometry);
  return out;
}

void append_wkt(std::string& out, const Geometry& geometry) {
  out += geom_type_name(geometry.type());
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
}

Geometry from_wkt(std::string_view wkt) { return WktParser(wkt).parse(); }

std::optional<Geometry> try_from_wkt(std::string_view wkt, std::string* error) {
  try {
    return WktParser(wkt).parse();
  } catch (const ParseError& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

}  // namespace sjc::geom
