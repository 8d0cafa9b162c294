// Ablation of the serial in-partition (local) join algorithms the systems
// run (Section II.C): SpatialHadoop's plane sweep, SpatialSpark's
// STR-indexed nested loop and HadoopGIS's insert-built R-tree probe.
// Measures the MBR filter phase on workload shapes matching the paper's
// partitions.
//
// Each algorithm is measured two ways:
//   * templated — the templated-sink kernel, fresh scratch per call;
//   * scratch   — the templated kernel with a reused MbrJoinScratch, the
//                 configuration the systems' task loops run.
// The plane sweep also runs over two SweepLists sorted before the timed
// loop (BM_PlaneSweepPresorted): SpatialHadoop's join over its packed
// blocks. Its gap to the plane_sweep scratch row is the per-call sort.
#include <benchmark/benchmark.h>

#include "index/mbr_join.hpp"
#include "util/rng.hpp"

namespace {

using namespace sjc;
using index::IndexEntry;
using index::LocalJoinAlgorithm;

// Partition-shaped workloads: `n` left boxes, n/10 right boxes, mild skew.
std::pair<std::vector<IndexEntry>, std::vector<IndexEntry>> make_partition(
    std::size_t n, double right_fraction) {
  Rng rng(42);
  std::vector<IndexEntry> left;
  std::vector<IndexEntry> right;
  for (std::uint32_t i = 0; i < n; ++i) {
    const double x = rng.bernoulli(0.6) ? rng.normal(300, 60) : rng.uniform(0, 1000);
    const double y = rng.bernoulli(0.6) ? rng.normal(300, 60) : rng.uniform(0, 1000);
    left.push_back({geom::Envelope(x, y, x + rng.uniform(0, 3), y + rng.uniform(0, 3)),
                    i});
  }
  const auto m = static_cast<std::uint32_t>(static_cast<double>(n) * right_fraction);
  for (std::uint32_t i = 0; i < m; ++i) {
    const double x = rng.uniform(0, 990);
    const double y = rng.uniform(0, 990);
    right.push_back({geom::Envelope(x, y, x + rng.uniform(2, 10), y + rng.uniform(2, 10)),
                     i});
  }
  return {std::move(left), std::move(right)};
}

/// Templated sink, fresh scratch per call.
void BM_LocalMbrJoin(benchmark::State& state, LocalJoinAlgorithm algo) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto [left, right] = make_partition(n, 0.1);
  std::size_t pairs = 0;
  for (auto _ : state) {
    pairs = 0;
    index::local_mbr_join(algo, left, right,
                          [&pairs](std::uint32_t, std::uint32_t) { ++pairs; });
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.SetItemsProcessed(state.iterations() * n);
}

/// Templated sink plus reused scratch (the systems' task-loop configuration:
/// trees and buffers stay warm across calls).
void BM_LocalMbrJoinScratch(benchmark::State& state, LocalJoinAlgorithm algo) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto [left, right] = make_partition(n, 0.1);
  index::MbrJoinScratch scratch;
  std::size_t pairs = 0;
  for (auto _ : state) {
    pairs = 0;
    index::local_mbr_join(algo, left, right, scratch,
                          [&pairs](std::uint32_t, std::uint32_t) { ++pairs; });
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.SetItemsProcessed(state.iterations() * n);
}

/// The plane sweep over two SweepLists sorted once, outside the timed loop.
void BM_PlaneSweepPresorted(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto [left, right] = make_partition(n, 0.1);
  index::SweepList ls;
  index::SweepList rs;
  index::SweepOrder order;
  ls.load(left, order);
  rs.load(right, order);
  std::vector<std::uint32_t> hits;
  std::size_t pairs = 0;
  for (auto _ : state) {
    pairs = 0;
    index::plane_sweep_join(ls, rs, hits,
                            [&pairs](std::uint32_t, std::uint32_t) { ++pairs; });
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.SetItemsProcessed(state.iterations() * n);
}

#define SJC_BENCH_ALGO(name, algo)                                        \
  BENCHMARK_CAPTURE(BM_LocalMbrJoin, name, algo)->Arg(1000)->Arg(10000);  \
  BENCHMARK_CAPTURE(BM_LocalMbrJoinScratch, name, algo)                   \
      ->Arg(1000)->Arg(10000)->Arg(50000)

SJC_BENCH_ALGO(plane_sweep, LocalJoinAlgorithm::kPlaneSweep);
SJC_BENCH_ALGO(indexed_nested_loop_str, LocalJoinAlgorithm::kIndexedNestedLoop);
SJC_BENCH_ALGO(indexed_nested_loop_dynamic, LocalJoinAlgorithm::kIndexedNestedLoopDynamic);
#undef SJC_BENCH_ALGO

BENCHMARK(BM_PlaneSweepPresorted)->Arg(1000)->Arg(10000)->Arg(50000);

}  // namespace

BENCHMARK_MAIN();
