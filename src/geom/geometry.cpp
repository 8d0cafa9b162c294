#include "geom/geometry.hpp"

#include "util/status.hpp"

namespace sjc::geom {

const char* geom_type_name(GeomType type) {
  switch (type) {
    case GeomType::kPoint: return "POINT";
    case GeomType::kLineString: return "LINESTRING";
    case GeomType::kPolygon: return "POLYGON";
    case GeomType::kMultiLineString: return "MULTILINESTRING";
    case GeomType::kMultiPolygon: return "MULTIPOLYGON";
  }
  return "?";
}

double ring_signed_area(const Ring& ring) {
  double sum = 0.0;
  for (std::size_t i = 0; i + 1 < ring.size(); ++i) {
    sum += ring[i].x * ring[i + 1].y - ring[i + 1].x * ring[i].y;
  }
  return sum / 2.0;
}

namespace {

void validate_ring(const Ring& ring, const char* what) {
  if (ring.size() < 4) {
    throw InvalidArgument(std::string(what) + ": ring needs >= 4 coordinates");
  }
  if (ring.front() != ring.back()) {
    throw InvalidArgument(std::string(what) + ": ring must be closed");
  }
}

void validate_polygon(const Polygon& poly) {
  validate_ring(poly.shell, "Polygon shell");
  for (const auto& hole : poly.holes) validate_ring(hole, "Polygon hole");
}

}  // namespace

Geometry::Geometry() : Geometry(GeomType::kPoint, Coord{0.0, 0.0}) {}

Geometry::Geometry(GeomType type, Storage storage)
    : type_(type), storage_(std::move(storage)) {
  compute_envelope();
}

Geometry Geometry::point(double x, double y) {
  return Geometry(GeomType::kPoint, Coord{x, y});
}

Geometry Geometry::line_string(std::vector<Coord> coords) {
  require(coords.size() >= 2, "LineString needs >= 2 coordinates");
  return Geometry(GeomType::kLineString, LineString{std::move(coords)});
}

Geometry Geometry::polygon(Ring shell, std::vector<Ring> holes) {
  Polygon poly{std::move(shell), std::move(holes)};
  validate_polygon(poly);
  return Geometry(GeomType::kPolygon, std::move(poly));
}

Geometry Geometry::multi_line_string(std::vector<LineString> parts) {
  require(!parts.empty(), "MultiLineString needs >= 1 part");
  for (const auto& part : parts) {
    require(part.coords.size() >= 2, "MultiLineString part needs >= 2 coordinates");
  }
  return Geometry(GeomType::kMultiLineString, MultiLineString{std::move(parts)});
}

Geometry Geometry::multi_polygon(std::vector<Polygon> parts) {
  require(!parts.empty(), "MultiPolygon needs >= 1 part");
  for (const auto& part : parts) validate_polygon(part);
  return Geometry(GeomType::kMultiPolygon, MultiPolygon{std::move(parts)});
}

const Coord& Geometry::as_point() const {
  require(type_ == GeomType::kPoint, "Geometry is not a POINT");
  return std::get<Coord>(storage_);
}

const LineString& Geometry::as_line_string() const {
  require(type_ == GeomType::kLineString, "Geometry is not a LINESTRING");
  return std::get<LineString>(storage_);
}

const Polygon& Geometry::as_polygon() const {
  require(type_ == GeomType::kPolygon, "Geometry is not a POLYGON");
  return std::get<Polygon>(storage_);
}

const MultiLineString& Geometry::as_multi_line_string() const {
  require(type_ == GeomType::kMultiLineString, "Geometry is not a MULTILINESTRING");
  return std::get<MultiLineString>(storage_);
}

const MultiPolygon& Geometry::as_multi_polygon() const {
  require(type_ == GeomType::kMultiPolygon, "Geometry is not a MULTIPOLYGON");
  return std::get<MultiPolygon>(storage_);
}

void Geometry::compute_envelope() {
  envelope_ = Envelope();
  const auto add_coords = [this](const std::vector<Coord>& coords) {
    for (const auto& c : coords) envelope_.expand_to_include(c.x, c.y);
  };
  switch (type_) {
    case GeomType::kPoint: {
      const auto& p = std::get<Coord>(storage_);
      envelope_.expand_to_include(p.x, p.y);
      break;
    }
    case GeomType::kLineString:
      add_coords(std::get<LineString>(storage_).coords);
      break;
    case GeomType::kPolygon: {
      // Every ring, holes included: the reader accepts a hole that lies
      // outside its shell, and the envelope must still bound it.
      const auto& poly = std::get<Polygon>(storage_);
      add_coords(poly.shell);
      for (const auto& hole : poly.holes) add_coords(hole);
      break;
    }
    case GeomType::kMultiLineString:
      for (const auto& part : std::get<MultiLineString>(storage_).parts) {
        add_coords(part.coords);
      }
      break;
    case GeomType::kMultiPolygon:
      for (const auto& part : std::get<MultiPolygon>(storage_).parts) {
        add_coords(part.shell);
        for (const auto& hole : part.holes) add_coords(hole);
      }
      break;
  }
}

std::size_t Geometry::num_coords() const {
  switch (type_) {
    case GeomType::kPoint:
      return 1;
    case GeomType::kLineString:
      return std::get<LineString>(storage_).coords.size();
    case GeomType::kPolygon: {
      const auto& poly = std::get<Polygon>(storage_);
      std::size_t n = poly.shell.size();
      for (const auto& hole : poly.holes) n += hole.size();
      return n;
    }
    case GeomType::kMultiLineString: {
      std::size_t n = 0;
      for (const auto& part : std::get<MultiLineString>(storage_).parts) {
        n += part.coords.size();
      }
      return n;
    }
    case GeomType::kMultiPolygon: {
      std::size_t n = 0;
      for (const auto& part : std::get<MultiPolygon>(storage_).parts) {
        n += part.shell.size();
        for (const auto& hole : part.holes) n += hole.size();
      }
      return n;
    }
  }
  return 0;
}

std::size_t Geometry::size_bytes() const {
  // Coordinates dominate; add a small fixed overhead for the object shell.
  return 48 + num_coords() * sizeof(Coord);
}

bool operator==(const Geometry& a, const Geometry& b) {
  return a.type_ == b.type_ && a.storage_ == b.storage_;
}

}  // namespace sjc::geom
