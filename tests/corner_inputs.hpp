// Inputs on which the map-side shuffle filter pays for itself, shared by the
// filter-plan tests: heavy polylines spread over a 1000 x 1000 extent on the
// left, small boxes in its lower-left corner on the right, so nearly every
// left copy lands in a cell holding no right geometry.
#pragma once

#include <random>
#include <vector>

#include "geom/geometry.hpp"
#include "workload/dataset.hpp"

namespace sjc::testing {

struct CornerInputs {
  workload::Dataset left;
  workload::Dataset right;
};

inline CornerInputs corner_inputs() {
  std::mt19937_64 rng(20);
  std::uniform_real_distribution<double> start(0.0, 1000.0);
  std::uniform_real_distribution<double> step(-2.0, 2.0);
  std::uniform_real_distribution<double> corner(0.0, 95.0);
  std::vector<geom::Feature> lines;
  for (std::uint64_t id = 0; id < 3000; ++id) {
    std::vector<geom::Coord> coords;
    double x = start(rng);
    double y = start(rng);
    for (int v = 0; v < 64; ++v) {
      coords.push_back({x, y});
      x += step(rng);
      y += step(rng);
    }
    lines.push_back({id, geom::Geometry::line_string(std::move(coords))});
  }
  std::vector<geom::Feature> boxes;
  for (std::uint64_t id = 0; id < 40; ++id) {
    const double x = corner(rng);
    const double y = corner(rng);
    boxes.push_back(
        {id, geom::Geometry::polygon({{x, y}, {x + 5, y}, {x + 5, y + 5}, {x, y + 5}, {x, y}})});
  }
  // 2 KB of attribute columns per line: heavy copies, as road records are.
  return {workload::Dataset("corner-lines", std::move(lines), 2048),
          workload::Dataset("corner-boxes", std::move(boxes), 0)};
}

}  // namespace sjc::testing
