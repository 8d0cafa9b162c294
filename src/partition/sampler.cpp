#include "partition/sampler.hpp"

#include "util/status.hpp"

namespace sjc::partition {

std::vector<std::uint32_t> bernoulli_sample(std::size_t n, double rate, Rng& rng) {
  require(rate >= 0.0 && rate <= 1.0, "bernoulli_sample: rate must be in [0, 1]");
  std::vector<std::uint32_t> out;
  out.reserve(static_cast<std::size_t>(static_cast<double>(n) * rate * 1.1) + 8);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(rate)) out.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

std::vector<geom::Envelope> gather_envelopes(std::span<const geom::Envelope> envs,
                                             const std::vector<std::uint32_t>& indices) {
  std::vector<geom::Envelope> out;
  out.reserve(indices.size());
  for (const auto i : indices) out.push_back(envs[i]);
  return out;
}

}  // namespace sjc::partition
