#include "reference.hpp"

#include <algorithm>
#include <thread>

#include "geom/predicates.hpp"
#include "util/rng.hpp"

namespace pb {

namespace {

constexpr std::size_t kLookupK = 10;

using sjc::core::JoinPair;
using sjc::core::JoinPredicate;

bool predicate_holds(JoinPredicate predicate, const sjc::geom::Geometry& left,
                     const sjc::geom::Geometry& right) {
  switch (predicate) {
    case JoinPredicate::kIntersects:
      return sjc::geom::intersects_naive(left, right);
    case JoinPredicate::kWithin:
      return sjc::geom::contains_naive(right, left);
    case JoinPredicate::kWithinDistance:
      break;
  }
  throw sjc::InvalidArgument("perfbench: reference join has no within-distance mode");
}

}  // namespace

sjc::index::StrTree envelope_tree(const sjc::workload::Dataset& data) {
  const auto envs = data.envelopes();
  std::vector<sjc::index::IndexEntry> entries;
  entries.reserve(envs.size());
  for (std::size_t i = 0; i < envs.size(); ++i) {
    entries.push_back({envs[i], static_cast<std::uint32_t>(i)});
  }
  return sjc::index::StrTree(std::move(entries));
}

Reference reference_join(const Inputs& inputs, JoinPredicate predicate, unsigned threads) {
  const auto& left = inputs.left.features();
  const auto& right = inputs.right.features();
  const auto tree = envelope_tree(inputs.right);
  const auto left_envs = inputs.left.envelopes();

  threads = std::max(1u, threads);
  std::vector<std::vector<JoinPair>> pairs(threads);
  {
    std::vector<std::jthread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t i = t; i < left.size(); i += threads) {
          tree.for_each_intersecting(left_envs[i], [&](std::uint32_t r) {
            if (predicate_holds(predicate, left[i].geometry, right[r].geometry)) {
              pairs[t].push_back({left[i].id, right[r].id});
            }
          });
        }
      });
    }
  }
  // The digest is a wrapping sum of per-pair mixes, so per-thread digests add.
  Reference ref;
  for (const auto& part : pairs) {
    ref.count += part.size();
    ref.hash += sjc::core::hash_pairs_unordered(part);
  }
  return ref;
}

std::vector<Lookup> make_lookups(const Inputs& inputs, std::uint64_t seed, std::size_t n,
                                 unsigned threads) {
  sjc::Rng rng(seed ^ 0x10c4u);
  const auto envs = inputs.left.envelopes();  // the larger side
  std::vector<Lookup> lookups(n);
  for (std::size_t q = 0; q < n; ++q) {
    const auto& anchor = envs[rng.next_below(envs.size())];
    lookups[q].knn = q % 2 == 1;
    lookups[q].k = kLookupK;
    lookups[q].window = sjc::geom::Envelope::of_point(anchor.center_x(), anchor.center_y());
  }
  // Brute-force answers. A range window is the square around its anchor
  // reaching the k-th nearest envelope, so every window holds about k
  // records whatever the local density.
  threads = std::max(1u, threads);
  std::vector<std::jthread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<std::pair<double, std::uint32_t>> ranked(envs.size());
      for (std::size_t q = t; q < n; q += threads) {
        Lookup& lookup = lookups[q];
        for (std::size_t i = 0; i < envs.size(); ++i) {
          ranked[i] = {envs[i].distance(lookup.window), static_cast<std::uint32_t>(i)};
        }
        const std::size_t k = std::min(lookup.k, ranked.size());
        const auto kth = ranked.begin() + static_cast<std::ptrdiff_t>(k);
        std::partial_sort(ranked.begin(), kth, ranked.end());
        if (lookup.knn) {
          for (auto it = ranked.begin(); it != kth; ++it) {
            lookup.expected_distance.push_back(it->first);
            lookup.expected_ids.push_back(it->second);
          }
          continue;
        }
        lookup.window = lookup.window.expanded_by(std::max(1.0, (kth - 1)->first));
        for (std::size_t i = 0; i < envs.size(); ++i) {
          if (envs[i].intersects(lookup.window)) {
            lookup.expected_ids.push_back(static_cast<std::uint32_t>(i));
          }
        }
      }
    });
  }
  workers.clear();  // joins every worker
  return lookups;
}

bool range_matches(const Lookup& lookup, const std::vector<std::uint32_t>& ids) {
  return ids == lookup.expected_ids;
}

bool knn_matches(const Lookup& lookup, const std::vector<sjc::index::NearestHit>& hits) {
  if (hits.size() != lookup.expected_ids.size()) return false;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (hits[i].id != lookup.expected_ids[i] ||
        hits[i].distance != lookup.expected_distance[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace pb
