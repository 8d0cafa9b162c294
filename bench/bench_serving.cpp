// Serving-mode benchmark: multi-tenant open-loop load against resident
// datasets through serving::QueryService.
//
// The paper's tables measure one cold batch query at a time. This driver
// measures the other deployment mode the same systems face in practice: a
// long-running service answering a stream of spatial-join / range / k-NN
// queries from many tenants against resident state (partition directories,
// STR trees, occupancy bitmaps and a shared cross-query PreparedCache held
// by a ResidentCatalog).
//
// Method: one resident entry per system is installed on the first Table-2
// experiment pair. A calibration pass measures the mean service time of the
// query mix at no load, giving an estimated saturation throughput
// (workers / mean service seconds). The driver then sweeps offered load
// across fractions of that estimate; at each point a fresh QueryService
// takes Poisson (open-loop) arrivals multiplexed over the tenants and the
// driver records achieved qps, p50/p99 latency and the rejection rate.
// The latency-vs-throughput knee — the highest offered load the service
// sustains (achieved >= 90% of offered, <=1% rejected) — is reported and
// written to BENCH_serving.json along with the full sweep, the knee
// point's per-tenant skew footer, and each entry's PreparedCache counters.
//
// Usage: bench_serving [--tenants=N] [--workers=N] [--queries=N]
//                      [--join-share=F] [--knn-share=F] [--seed=S]
//                      [--max-p99=SECONDS]
//   --tenants    simulated tenants (default 8)
//   --workers    QueryService worker slots (default 4)
//   --queries    queries per sweep point (default 320)
//   --join-share fraction of arrivals that are full joins (default 0.05)
//   --knn-share  fraction of arrivals that are k-NN queries (default 0.15)
//   --max-p99    fail (exit 1) when the knee's p99 exceeds this bound;
//                0 disables the gate (default)
// BENCH_serving.json is written before the gate is evaluated, so CI can
// upload it from failing runs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/experiments.hpp"
#include "serving/query_service.hpp"
#include "serving/resident_catalog.hpp"
#include "util/bench_io.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

namespace {

using namespace sjc;

double parse_flag_double(const char* arg, const char* name, double fallback) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0) return std::strtod(arg + n, nullptr);
  return fallback;
}

std::string fmt(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

struct QueryMix {
  double join_share = 0.05;
  double knn_share = 0.15;
  // remainder: range queries
};

/// Draws one query of the configured mix against `entry`; range and k-NN
/// windows fall inside `extent`, the right dataset's.
serving::Query draw_query(Rng& rng, const serving::ResidentEntry& entry,
                          const std::string& entry_name, const geom::Envelope& extent,
                          const QueryMix& mix) {
  serving::Query q;
  q.entry = entry_name;
  const double roll = rng.next_double();
  const double cx = rng.uniform(extent.min_x(), extent.max_x());
  const double cy = rng.uniform(extent.min_y(), extent.max_y());
  if (roll < mix.join_share) {
    q.kind = serving::QueryKind::kSpatialJoin;
    q.join = entry.config().build_query;
  } else if (roll < mix.join_share + mix.knn_share) {
    q.kind = serving::QueryKind::kKnn;
    q.window = geom::Envelope(cx, cy, cx, cy);
    q.k = 1 + rng.next_below(8);
  } else {
    q.kind = serving::QueryKind::kRange;
    const double half_w = extent.width() * 0.005;
    const double half_h = extent.height() * 0.005;
    q.window = geom::Envelope(cx - half_w, cy - half_h, cx + half_w, cy + half_h);
  }
  return q;
}

double percentile(std::vector<double> sorted_or_not, double q) {
  if (sorted_or_not.empty()) return 0.0;
  std::sort(sorted_or_not.begin(), sorted_or_not.end());
  const std::size_t n = sorted_or_not.size();
  const std::size_t rank =
      std::min(n - 1, static_cast<std::size_t>(std::ceil(q * n)) -
                          (std::ceil(q * n) >= 1.0 ? 1 : 0));
  return sorted_or_not[rank];
}

struct LoadPoint {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double mean_s = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double elapsed_s = 0.0;
  std::vector<trace::TenantSkew> footer;
};

/// One open-loop sweep point: Poisson arrivals at `offered_qps` total,
/// multiplexed round-robin over tenants and entries.
LoadPoint run_point(const serving::ResidentCatalog& catalog,
                    const std::vector<std::string>& entry_names,
                    const geom::Envelope& extent,
                    const serving::QueryServiceConfig& service_config,
                    std::size_t tenants, std::size_t queries, double offered_qps,
                    const QueryMix& mix, std::uint64_t seed) {
  LoadPoint point;
  point.offered_qps = offered_qps;
  Rng rng(seed);
  serving::QueryService service(catalog, service_config);
  std::vector<std::future<serving::QueryResult>> futures;
  futures.reserve(queries);

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  auto next_arrival = start;
  for (std::size_t i = 0; i < queries; ++i) {
    // Exponential interarrival: an open-loop Poisson stream — arrivals do
    // NOT wait for completions, which is what exposes the knee.
    const double gap = -std::log(1.0 - rng.next_double()) / offered_qps;
    next_arrival += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gap));
    std::this_thread::sleep_until(next_arrival);

    const std::string tenant = "tenant-" + std::to_string(i % tenants);
    const std::string& entry_name = entry_names[(i / tenants) % entry_names.size()];
    const auto entry = catalog.find(entry_name);
    auto submission =
        service.submit(tenant, draw_query(rng, *entry, entry_name, extent, mix));
    ++point.submitted;
    if (submission.status.ok()) {
      futures.push_back(std::move(submission.result));
    } else {
      ++point.rejected;
    }
  }
  service.drain();
  point.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> latencies;
  latencies.reserve(futures.size());
  for (auto& f : futures) {
    auto result = f.get();
    if (result.status.ok()) {
      ++point.completed;
      latencies.push_back(result.latency_seconds);
    } else {
      ++point.failed;
    }
  }
  point.achieved_qps =
      point.elapsed_s > 0.0 ? static_cast<double>(point.completed) / point.elapsed_s
                            : 0.0;
  point.p50_s = percentile(latencies, 0.50);
  point.p99_s = percentile(latencies, 0.99);
  double total = 0.0;
  for (const double v : latencies) total += v;
  point.mean_s = latencies.empty() ? 0.0 : total / static_cast<double>(latencies.size());
  point.footer = service.tenant_footer();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t tenants = 8;
  std::size_t workers = 4;
  std::size_t queries = 320;
  std::uint64_t seed = 20260809;
  QueryMix mix;
  double max_p99 = 0.0;  // 0 = gate disabled
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--tenants=", 10) == 0) {
      tenants = std::strtoull(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = std::strtoull(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      queries = std::strtoull(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else {
      mix.join_share = parse_flag_double(argv[i], "--join-share=", mix.join_share);
      mix.knn_share = parse_flag_double(argv[i], "--knn-share=", mix.knn_share);
      max_p99 = parse_flag_double(argv[i], "--max-p99=", max_p99);
    }
  }

  const double scale = core::bench_scale(2e-4);
  workload::WorkloadConfig wc;
  wc.scale = scale;
  const auto& experiment = core::full_experiments().front();
  const auto left = workload::generate(experiment.left, wc);
  const auto right = workload::generate(experiment.right, wc);

  core::ExecutionConfig exec;
  exec.cluster = cluster::ClusterSpec::workstation();
  exec.data_scale = 1.0 / scale;

  std::printf(
      "== Serving bench: %zu tenants, %zu workers, %zu queries/point "
      "(%s, scale %g, mix %.0f%% join / %.0f%% knn / %.0f%% range) ==\n\n",
      tenants, workers, queries, experiment.id.c_str(), scale,
      mix.join_share * 100, mix.knn_share * 100,
      (1.0 - mix.join_share - mix.knn_share) * 100);

  // One resident entry per system — the catalog's cross-system setup. All
  // tenants share all entries, so the PreparedCaches see cross-tenant reuse.
  serving::ResidentCatalog catalog;
  std::vector<std::string> entry_names;
  for (const auto system :
       {core::SystemKind::kHadoopGisSim, core::SystemKind::kSpatialHadoopSim,
        core::SystemKind::kSpatialSparkSim}) {
    serving::ResidentEntryConfig config;
    config.system = system;
    config.build_query.predicate = experiment.predicate;
    config.exec = exec;
    config.hadoop_gis.pipe_capacity_fraction = 0.0;
    const std::string name = core::system_kind_name(system);
    const auto entry = catalog.install(name, left, right, std::move(config));
    entry_names.push_back(name);
    std::printf("installed %-15s build TOT %.3fs, %zu pairs\n", name.c_str(),
                entry->build_report().total_seconds,
                entry->build_report().result_count);
  }

  // Calibration: mean service time of the mix at no load -> capacity
  // estimate. Closed loop (one in flight) so queueing never pollutes it.
  {
    serving::QueryServiceConfig calib_config;
    calib_config.workers = 1;
    serving::QueryService calib(catalog, calib_config);
    Rng rng(seed ^ 0x5eedULL);
    double service_total = 0.0;
    const std::size_t calib_queries = 48;
    for (std::size_t i = 0; i < calib_queries; ++i) {
      const std::string& entry_name = entry_names[i % entry_names.size()];
      const auto entry = catalog.find(entry_name);
      auto submission = calib.submit(
          "calibration", draw_query(rng, *entry, entry_name, right.extent(), mix));
      if (!submission.status.ok()) continue;
      service_total += submission.result.get().service_seconds;
    }
    const double mean_service = service_total / static_cast<double>(calib_queries);
    const double capacity_qps = static_cast<double>(workers) / mean_service;
    std::printf("\ncalibration: mean service %.4fs -> est. capacity %.1f qps "
                "(%zu workers)\n\n",
                mean_service, capacity_qps, workers);

    serving::QueryServiceConfig service_config;
    service_config.workers = workers;

    const double fractions[] = {0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.2, 1.5};
    std::vector<LoadPoint> sweep;
    TablePrinter table({"offered qps", "achieved qps", "p50 ms", "p99 ms",
                        "mean ms", "rejected", "failed"});
    for (const double f : fractions) {
      const double offered = capacity_qps * f;
      LoadPoint point = run_point(catalog, entry_names, right.extent(), service_config,
                                  tenants, queries, offered, mix, seed + 1);
      table.add_row({fmt(point.offered_qps, 1), fmt(point.achieved_qps, 1),
                     fmt(point.p50_s * 1e3, 2), fmt(point.p99_s * 1e3, 2),
                     fmt(point.mean_s * 1e3, 2), std::to_string(point.rejected),
                     std::to_string(point.failed)});
      sweep.push_back(std::move(point));
    }
    table.print();

    // The knee: highest offered load the service sustains. Past it the
    // open-loop queue grows without bound (achieved flatlines, p99 and the
    // rejection rate take off).
    std::size_t knee = 0;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const auto& p = sweep[i];
      const double reject_rate =
          p.submitted > 0
              ? static_cast<double>(p.rejected) / static_cast<double>(p.submitted)
              : 0.0;
      if (p.achieved_qps >= 0.9 * p.offered_qps && reject_rate <= 0.01) knee = i;
    }
    const LoadPoint& knee_point = sweep[knee];
    std::printf(
        "\nknee: sustained %.1f qps offered (%.1f achieved) at p50 %.2fms / "
        "p99 %.2fms\n",
        knee_point.offered_qps, knee_point.achieved_qps, knee_point.p50_s * 1e3,
        knee_point.p99_s * 1e3);

    std::printf("\nper-tenant skew at the knee:\n");
    for (const auto& row : knee_point.footer) {
      std::printf("  %-12s %4zu queries (%zu failed)  p50 %8.3fms  p99 %8.3fms\n",
                  row.tenant.c_str(), row.queries, row.failed, row.p50_s * 1e3,
                  row.p99_s * 1e3);
    }

    std::printf("\ncross-query PreparedCache reuse:\n");
    bool any_cache_hits = false;
    for (const auto& name : entry_names) {
      const auto entry = catalog.find(name);
      const auto& cache = entry->prepared_cache();
      any_cache_hits = any_cache_hits || cache.hits() > 0;
      std::printf("  %-15s %llu lookups, %llu hits (%.1f%%), %llu entries\n",
                  name.c_str(),
                  static_cast<unsigned long long>(cache.lookups()),
                  static_cast<unsigned long long>(cache.hits()),
                  cache.hit_rate() * 100.0,
                  static_cast<unsigned long long>(cache.size()));
    }

    JsonWriter out;
    out.begin_object();
    out.field("tenants", static_cast<std::uint64_t>(tenants));
    out.field("workers", static_cast<std::uint64_t>(workers));
    out.field("queries_per_point", static_cast<std::uint64_t>(queries));
    out.field("experiment", experiment.id);
    out.field("scale", scale);
    out.field("join_share", mix.join_share);
    out.field("knn_share", mix.knn_share);
    out.field("mean_service_seconds", mean_service);
    out.field("estimated_capacity_qps", capacity_qps);
    out.begin_array("sweep");
    for (const auto& p : sweep) {
      out.begin_element();
      out.field("offered_qps", p.offered_qps);
      out.field("achieved_qps", p.achieved_qps);
      out.field("p50_seconds", p.p50_s);
      out.field("p99_seconds", p.p99_s);
      out.field("mean_seconds", p.mean_s);
      out.field("submitted", p.submitted);
      out.field("rejected", p.rejected);
      out.field("completed", p.completed);
      out.field("failed", p.failed);
      out.field("elapsed_seconds", p.elapsed_s);
      out.end_object();
    }
    out.end_array();
    out.field("knee_offered_qps", knee_point.offered_qps);
    out.field("knee_achieved_qps", knee_point.achieved_qps);
    out.field("knee_p50_seconds", knee_point.p50_s);
    out.field("knee_p99_seconds", knee_point.p99_s);
    out.begin_array("knee_tenants");
    for (const auto& row : knee_point.footer) {
      out.begin_element();
      out.field("tenant", row.tenant);
      out.field("queries", static_cast<std::uint64_t>(row.queries));
      out.field("failed", static_cast<std::uint64_t>(row.failed));
      out.field("p50_seconds", row.p50_s);
      out.field("p99_seconds", row.p99_s);
      out.field("max_seconds", row.max_s);
      out.end_object();
    }
    out.end_array();
    out.begin_array("prepared_caches");
    for (const auto& name : entry_names) {
      const auto entry = catalog.find(name);
      const auto& cache = entry->prepared_cache();
      out.begin_element();
      out.field("entry", name);
      out.field("lookups", cache.lookups());
      out.field("hits", cache.hits());
      out.field("misses", cache.misses());
      out.field("hit_rate", cache.hit_rate());
      out.end_object();
    }
    out.end_array();
    out.field("peak_rss_bytes", peak_rss_bytes());
    out.end_object();
    const std::string path = write_bench_json("serving", out.str());
    std::printf("\nwrote %s\n", path.c_str());

    if (mix.join_share > 0.0 && !any_cache_hits) {
      std::fprintf(stderr,
                   "no PreparedCache hits despite join traffic — cross-query "
                   "reuse is broken, failing the bench\n");
      return 1;
    }
    if (max_p99 > 0.0 && knee_point.p99_s > max_p99) {
      std::fprintf(stderr,
                   "knee p99 %.3fs exceeds the --max-p99=%.3fs gate — failing "
                   "the bench\n",
                   knee_point.p99_s, max_p99);
      return 1;
    }
  }
  return 0;
}
