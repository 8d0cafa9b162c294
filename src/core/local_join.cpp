#include "core/local_join.hpp"

#include <algorithm>

#include "util/status.hpp"

namespace sjc::core {

geom::Coord reference_point(const geom::Envelope& a, const geom::Envelope& b) {
  return {std::max(a.min_x(), b.min_x()), std::max(a.min_y(), b.min_y())};
}

bool evaluate_predicate(geom::EngineKind engine, JoinPredicate predicate,
                        double within_distance, const geom::Geometry& left,
                        const geom::Geometry& right) {
  // One-shot: preparing pays off once the anchor has enough edges that the
  // probe would otherwise rescan them all.
  constexpr std::size_t kPrepareThreshold = 32;
  const auto prepare = [engine](const geom::Geometry& anchor) {
    return engine == geom::EngineKind::kPrepared &&
           anchor.num_coords() >= kPrepareThreshold;
  };
  geom::RefineStats stats;  // one-shot calls keep no refine.* accounting
  switch (predicate) {
    case JoinPredicate::kIntersects:
      return prepare(left) ? geom::BatchRefiner(left).intersects(right, stats)
                           : geom::intersects_naive(left, right);
    case JoinPredicate::kWithin:
      return prepare(right) ? geom::BatchRefiner(right).contains(left, stats)
                            : geom::contains_naive(right, left);
    case JoinPredicate::kWithinDistance:
      return geom::distance_naive(left, right) <= within_distance;
  }
  throw InvalidArgument("evaluate_predicate: unknown predicate");
}

}  // namespace sjc::core
