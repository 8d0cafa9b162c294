#include "core/local_join.hpp"

#include <algorithm>

namespace sjc::core {

geom::Coord reference_point(const geom::Envelope& a, const geom::Envelope& b) {
  return {std::max(a.min_x(), b.min_x()), std::max(a.min_y(), b.min_y())};
}

}  // namespace sjc::core
