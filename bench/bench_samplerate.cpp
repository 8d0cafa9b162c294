// Sample-rate ablation (Section II.A): every system derives partitions from
// a sample; the rate trades preprocessing cost against partition quality.
// Reports the partition balance of SpatialHadoop's own run at each rate,
// next to both systems' end-to-end runtimes:
//   taxi rate   — the left side's effective rate: core::effective_sample_rate
//                 raises the configured rate to ~4 sampled records per target
//                 cell, so rates below that floor run the same sample
//   skew        — the largest join/local task's input bytes over the mean
//                 (one task per joined cell pair; read from the run's trace)
//   replication — partition.assignments / partition.records: the copies the
//                 partition jobs kept per input record, both datasets
#include <algorithm>
#include <cstdio>

#include "core/experiments.hpp"
#include "core/spatial_join.hpp"
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
  core::ExecutionConfig traced = exec;
  traced.trace = true;

  std::printf(
      "== Sample-rate sweep (taxi1m x nycb, WS): SpatialHadoop's partition quality "
      "and runtime ==\n\n");

  TablePrinter table({"sample rate", "taxi rate", "cell pairs", "skew (max/mean)",
                      "replication", "SpatialHadoop s", "SpatialSpark s"});

  for (const double rate : {0.001, 0.01, 0.05, 0.2, 1.0}) {
    core::JoinQueryConfig query;
    query.predicate = core::JoinPredicate::kWithin;
    query.sample_rate = rate;
    const double taxi_rate = core::effective_sample_rate(
        rate, taxi.size(), core::effective_target_partitions(query, exec.cluster));
    const auto sh = core::run_spatial_join(core::SystemKind::kSpatialHadoopSim, taxi,
                                           nycb, query, traced);
    const auto ss = core::run_spatial_join(core::SystemKind::kSpatialSparkSim, taxi,
                                           nycb, query, exec);

    std::uint64_t tasks = 0;
    std::uint64_t max_in = 0;
    std::uint64_t sum_in = 0;
    for (const auto& span : sh.trace.spans) {
      if (span.phase != "join/local/map" || span.outcome != trace::SpanOutcome::kOk) continue;
      ++tasks;
      max_in = std::max(max_in, span.bytes_in);
      sum_in += span.bytes_in;
    }
    const double skew = sum_in > 0 ? static_cast<double>(max_in) *
                                         static_cast<double>(tasks) /
                                         static_cast<double>(sum_in)
                                   : 0.0;
    const std::uint64_t records = sh.counters.get("partition.records");
    const double replication =
        records > 0 ? static_cast<double>(sh.counters.get("partition.assignments")) /
                          static_cast<double>(records)
                    : 0.0;

    char rate_s[16];
    std::snprintf(rate_s, sizeof(rate_s), "%g", rate);
    char taxi_rate_s[16];
    std::snprintf(taxi_rate_s, sizeof(taxi_rate_s), "%.3f", taxi_rate);
    char skew_s[16];
    std::snprintf(skew_s, sizeof(skew_s), "%.2f", skew);
    char repl_s[16];
    std::snprintf(repl_s, sizeof(repl_s), "%.3f", replication);
    table.add_row({rate_s, taxi_rate_s, std::to_string(tasks), skew_s, repl_s,
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
