// Sample-rate ablation (Section II.A): every system derives partitions from
// a sample; the rate trades preprocessing cost against partition quality.
// Reports partition balance (skew, replication) and end-to-end runtimes at
// each rate.
#include <cstdio>

#include "core/experiments.hpp"
#include "core/spatial_join.hpp"
#include "partition/partition_stats.hpp"
#include "partition/sampler.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

int main() {
  using namespace sjc;
  const double scale = core::bench_scale();
  workload::WorkloadConfig wc;
  wc.scale = scale;

  const auto taxi = workload::generate(workload::DatasetId::kTaxi1m, wc);
  const auto nycb = workload::generate(workload::DatasetId::kNycb, wc);

  core::ExecutionConfig exec;
  exec.cluster = cluster::ClusterSpec::workstation();
  exec.data_scale = 1.0 / scale;

  std::printf(
      "== Sample-rate sweep (taxi1m x nycb, WS): partition quality and runtime ==\n\n");

  TablePrinter table({"sample rate", "cells", "skew (max/mean)", "replication",
                      "SpatialHadoop s", "SpatialSpark s"});

  for (const double rate : {0.001, 0.01, 0.05, 0.2, 1.0}) {
    // Partition quality, measured directly on the taxi envelopes.
    const auto envs = taxi.envelopes();
    Rng rng(7);
    const auto idx = partition::bernoulli_sample(
        envs.size(), core::effective_sample_rate(rate, envs.size(), 128), rng);
    const auto sample = partition::gather_envelopes(envs, idx);
    const auto scheme = partition::make_partitions(partition::PartitionerKind::kStr,
                                                   sample, taxi.extent(), 128);
    const auto stats = partition::compute_partition_stats(scheme, envs);

    core::JoinQueryConfig query;
    query.predicate = core::JoinPredicate::kWithin;
    query.sample_rate = rate;
    const auto sh = core::run_spatial_join(core::SystemKind::kSpatialHadoopSim, taxi,
                                           nycb, query, exec);
    const auto ss = core::run_spatial_join(core::SystemKind::kSpatialSparkSim, taxi,
                                           nycb, query, exec);

    char rate_s[16];
    std::snprintf(rate_s, sizeof(rate_s), "%g", rate);
    char skew_s[16];
    std::snprintf(skew_s, sizeof(skew_s), "%.2f", stats.skew);
    char repl_s[16];
    std::snprintf(repl_s, sizeof(repl_s), "%.3f", stats.replication_factor);
    table.add_row({rate_s, std::to_string(stats.cell_count), skew_s, repl_s,
                   sh.status.ok() ? format_seconds(sh.total_seconds) : "-",
                   ss.status.ok() ? format_seconds(ss.total_seconds) : "-"});
  }
  table.print();
  std::printf(
      "\nhigher rates buy flatter partitions (skew -> 1) at more sampling work;\n"
      "the paper notes HadoopGIS's master-side re-partitioning becomes an I/O\n"
      "and scalability problem at high rates (Section II.B).\n");
  return 0;
}
