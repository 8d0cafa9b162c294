// Best-first nearest-neighbor search over an STR tree.
//
// The paper's opening example is "matching taxi pickup/drop-off locations
// with road segments through point-to-nearest-polyline distance
// computation". The distributed systems evaluate it as a within-distance
// join; this module provides the k-NN primitive (classic Hjaltason–Samet
// best-first traversal over MBR distances) behind resident serving's kNN
// lookups.
#pragma once

#include <cstdint>
#include <vector>

#include "index/str_tree.hpp"

namespace sjc::index {

struct NearestHit {
  std::uint32_t id = 0;
  double distance = 0.0;  // envelope distance (lower bound on exact)
};

/// The k entries whose ENVELOPES are nearest to `query` (ties broken by
/// id), in ascending distance order. Returns fewer than k when the tree is
/// smaller.
std::vector<NearestHit> k_nearest_envelopes(const StrTree& tree,
                                            const geom::Envelope& query,
                                            std::size_t k);

}  // namespace sjc::index
