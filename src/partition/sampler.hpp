// Samplers for partition-boundary estimation.
//
// All three systems derive partition boundaries from a sample of the input
// (Section II.A): HadoopGIS and SpatialHadoop sample via extra MR jobs,
// SpatialSpark via Spark's built-in sample(). The scheme is Bernoulli: each
// item kept independently with probability p, as Spark's sample() does.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/envelope.hpp"
#include "util/rng.hpp"

namespace sjc::partition {

/// Bernoulli-samples indices [0, n): every index kept with probability
/// `rate`.
std::vector<std::uint32_t> bernoulli_sample(std::size_t n, double rate, Rng& rng);

/// Gathers the envelopes at `indices` from `envs`.
std::vector<geom::Envelope> gather_envelopes(std::span<const geom::Envelope> envs,
                                             const std::vector<std::uint32_t>& indices);

}  // namespace sjc::partition
