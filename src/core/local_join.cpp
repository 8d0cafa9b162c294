#include "core/local_join.hpp"

#include <algorithm>

#include "util/status.hpp"

namespace sjc::core {

geom::Coord reference_point(const geom::Envelope& a, const geom::Envelope& b) {
  return {std::max(a.min_x(), b.min_x()), std::max(a.min_y(), b.min_y())};
}

bool evaluate_predicate(const geom::GeometryEngine& engine, JoinPredicate predicate,
                        double within_distance, const geom::Geometry& left,
                        const geom::Geometry& right) {
  switch (predicate) {
    case JoinPredicate::kIntersects:
      return engine.intersects(left, right);
    case JoinPredicate::kWithin:
      return engine.contains(right, left);
    case JoinPredicate::kWithinDistance:
      return engine.distance(left, right) <= within_distance;
  }
  throw InvalidArgument("evaluate_predicate: unknown predicate");
}

}  // namespace sjc::core
