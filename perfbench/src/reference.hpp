// Correct answers computed outside the systems under test: the join's pair
// count and digest from a single-node STR-tree candidate scan plus the naive
// geom predicates, and brute-force answers for range and k-NN lookups.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "index/nearest.hpp"
#include "index/str_tree.hpp"

namespace pb {

/// STR tree over a dataset's envelopes, entry id = record index (the trees
/// a ResidentEntry answers lookups from).
sjc::index::StrTree envelope_tree(const sjc::workload::Dataset& data);

/// Pair count and core::hash_pairs_unordered digest of left x right under
/// `predicate`, split over `threads` threads.
Reference reference_join(const Inputs& inputs, sjc::core::JoinPredicate predicate,
                         unsigned threads);

/// `n` lookups, alternating range / k-NN, anchored at left-side
/// records drawn from `seed`, each with its brute-force answer computed on
/// `threads` threads.
std::vector<Lookup> make_lookups(const Inputs& inputs, std::uint64_t seed, std::size_t n,
                                 unsigned threads);

bool range_matches(const Lookup& lookup, const std::vector<std::uint32_t>& ids);
bool knn_matches(const Lookup& lookup, const std::vector<sjc::index::NearestHit>& hits);

}  // namespace pb
