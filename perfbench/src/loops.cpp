#include "loops.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <random>
#include <thread>
#include <utility>

#include "core/experiments.hpp"
#include "reference.hpp"
#include "serving/query_service.hpp"
#include "trace/trace.hpp"
#include "util/bench_io.hpp"

namespace pb {

namespace {

using sjc::core::SystemKind;

// A resident round: one join per entry, then kLookupsPerRound lookups
// submitted kLookupWindow at a time to kLookupWorkers workers. The fixed mix
// keeps a round's cost the same from run to run, and pipelined lookups keep
// the workers busy instead of measuring one thread wake-up per lookup.
// HadoopGIS cannot hold resident state at this scale (its build run breaks
// the streaming pipe), so it has no entry.
constexpr std::size_t kLookupsPerRound = 4 * 4096;
constexpr std::size_t kLookupWindow = 32;
constexpr std::size_t kLookupWorkers = 2;
constexpr SystemKind kResidentSystems[] = {SystemKind::kSpatialHadoopSim,
                                           SystemKind::kSpatialSparkSim};

/// The paper's failure matrix (Table 2): HadoopGIS breaks its streaming pipe
/// everywhere, SpatialSpark runs out of memory on EC2-8 and EC2-6.
const char* expected_status(SystemKind system, const std::string& cluster) {
  if (system == SystemKind::kHadoopGisSim) return "BROKEN_PIPE";
  if (system == SystemKind::kSpatialSparkSim && (cluster == "EC2-8" || cluster == "EC2-6")) {
    return "OUT_OF_MEMORY";
  }
  return "OK";
}

/// Short system label used in metric names.
const char* system_label(SystemKind system) {
  switch (system) {
    case SystemKind::kHadoopGisSim:
      return "HadoopGIS";
    case SystemKind::kSpatialHadoopSim:
      return "SpatialHadoop";
    case SystemKind::kSpatialSparkSim:
      return "SpatialSpark";
  }
  return "?";
}

void keep_sample(LookupSamples& samples, const LookupSample& sample, std::mt19937_64& rng) {
  ++samples.seen;
  if (samples.kept.size() < LookupSamples::kLookupSampleCap) {
    samples.kept.push_back(sample);
  } else if (const std::uint64_t slot = rng() % samples.seen;
             slot < LookupSamples::kLookupSampleCap) {
    samples.kept[slot] = sample;
  }
}

UsageDelta usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  UsageDelta u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + 1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + 1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
  u.voluntary_ctx = static_cast<std::uint64_t>(ru.ru_nvcsw);
  u.involuntary_ctx = static_cast<std::uint64_t>(ru.ru_nivcsw);
  return u;
}

UsageDelta usage_since(const UsageDelta& before) {
  const UsageDelta after = usage_now();
  return {after.user_s - before.user_s, after.sys_s - before.sys_s,
          after.voluntary_ctx - before.voluntary_ctx,
          after.involuntary_ctx - before.involuntary_ctx};
}

void add_usage(UsageDelta& total, const UsageDelta& part) {
  total.user_s += part.user_s;
  total.sys_s += part.sys_s;
  total.voluntary_ctx += part.voluntary_ctx;
  total.involuntary_ctx += part.involuntary_ctx;
}

/// Lowers the process's peak RSS (VmHWM) to its current RSS, so the next
/// peak_rss_since_reset() covers only what runs in between. Where
/// /proc/self/clear_refs cannot be written the peak stays the process's.
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// VmHWM in bytes, or the process's peak RSS where /proc is unreadable.
double peak_rss_since_reset() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    }
    std::fclose(f);
    if (found) return static_cast<double>(kib) * 1024.0;
  }
  return static_cast<double>(sjc::peak_rss_bytes());
}

/// Serializes one join operation: outcome, correctness against the
/// reference and the paper's failure matrix, counters, and per-phase
/// accounting (with task-span CPU and skew when the run was traced).
/// Returns whether the outcome was correct.
bool join_record(std::vector<std::string>& out, int pass, std::size_t dataset, bool traced,
                 SystemKind system, const std::string& cluster, double host_ms,
                 const Reference& ref, const sjc::core::RunReport& report) {
  const char* expected = expected_status(system, cluster);
  const std::string status = sjc::status_code_name(report.status.code());
  bool correct = status == expected;
  if (correct && report.status.ok()) {
    correct = report.result_count == ref.count && report.result_hash == ref.hash;
  }
  Json j;
  j.begin_object()
      .field("pass", static_cast<std::uint64_t>(pass))
      .field("dataset", dataset)
      .field("traced", traced)
      .field("system", system_label(system))
      .field("cluster", cluster)
      .field("host_ms", host_ms)
      .field("status", status)
      .field("expected", expected)
      .field("correct", correct)
      .field("count", static_cast<std::uint64_t>(report.result_count))
      .field("hash", report.result_hash)
      .field("sim_s", report.status.ok() ? report.total_seconds : 0.0)
      .field("attempts", report.attempts_used)
      .field("peak_memory_bytes", report.peak_memory_bytes)
      .field("max_pipe_bytes", report.metrics.max_task_pipe_bytes());
  j.key("counters").begin_object();
  for (const auto& [name, value] : report.counters.snapshot()) j.field(name, value);
  j.end_object();

  j.key("phases").begin_array();
  for (const auto& p : report.metrics.phases()) {
    j.begin_object()
        .field("name", p.name)
        .field("sim_s", p.sim_seconds)
        .field("read", p.bytes_read)
        .field("written", p.bytes_written)
        .field("shuffled", p.bytes_shuffled)
        .field("tasks", static_cast<std::uint64_t>(p.task_count))
        .field("attempts", p.task_attempts)
        .end_object();
  }
  j.end_array();

  if (traced) {
    std::map<std::string, std::pair<std::uint64_t, double>> spans;  // count, cpu
    for (const auto& s : report.trace.spans) {
      auto& slot = spans[s.phase];
      ++slot.first;
      slot.second += s.cpu_seconds;
    }
    j.key("spans").begin_object();
    for (const auto& [phase, agg] : spans) {
      j.key(phase).begin_object().field("count", agg.first).field("cpu_s", agg.second).end_object();
    }
    j.end_object();
    j.key("skew").begin_object();
    for (const auto& row : sjc::trace::skew_summary(report.trace)) {
      j.key(row.phase).begin_object().field("p50_s", row.p50_s).field("max_s", row.max_s).end_object();
    }
    j.end_object();
  }
  j.end_object();
  out.push_back(j.str());
  return correct;
}

sjc::core::ExecutionConfig resident_exec(const WorkloadSpec& spec, bool traced) {
  sjc::core::ExecutionConfig exec;
  exec.cluster = resident_cluster();
  exec.data_scale = 1.0 / spec.scale;
  exec.trace = traced;
  return exec;
}

}  // namespace

sjc::cluster::ClusterSpec resident_cluster() { return sjc::cluster::ClusterSpec::ec2(10); }

double run_cold_pass(const WorkloadSpec& spec, const Inputs& inputs, std::size_t dataset,
                     const Reference& ref, LoopResult& out) {
  const auto clusters = sjc::core::paper_cluster_configs();
  reset_peak_rss();
  const UsageDelta before = usage_now();
  const double start = now_s();
  for (const auto system : {SystemKind::kHadoopGisSim, SystemKind::kSpatialHadoopSim,
                            SystemKind::kSpatialSparkSim}) {
    for (const auto& cluster : clusters) {
      sjc::core::JoinQueryConfig query;
      query.predicate = spec.predicate;
      sjc::core::ExecutionConfig exec;
      exec.cluster = cluster;
      exec.data_scale = 1.0 / spec.scale;
      exec.trace = out.traced;
      const double t0 = now_s();
      const auto report =
          sjc::core::run_spatial_join(system, inputs.left, inputs.right, query, exec);
      const double host_ms = (now_s() - t0) * 1e3;
      ++out.ops;
      if (!join_record(out.joins, out.passes, dataset, out.traced, system, cluster.name,
                       host_ms, ref, report)) {
        ++out.wrong;
      }
    }
  }
  const double elapsed = now_s() - start;
  add_usage(out.usage, usage_since(before));
  out.peak_rss_bytes.push_back(peak_rss_since_reset());
  out.elapsed_s += elapsed;
  ++out.passes;
  return elapsed;
}

void install_resident(sjc::serving::ResidentCatalog& catalog, const WorkloadSpec& spec,
                      const Inputs& inputs, bool traced) {
  for (const auto system : kResidentSystems) {
    sjc::serving::ResidentEntryConfig config;
    config.system = system;
    config.build_query.predicate = spec.predicate;
    config.exec = resident_exec(spec, traced);
    catalog.install(system_label(system), inputs.left, inputs.right, std::move(config));
  }
}

void warm_resident(const sjc::serving::ResidentCatalog& catalog, const WorkloadSpec& spec) {
  std::vector<std::jthread> warmers;
  for (const auto system : kResidentSystems) {
    const auto entry = catalog.find(system_label(system));
    warmers.emplace_back([entry, &spec] {
      sjc::core::JoinQueryConfig query;
      query.predicate = spec.predicate;
      (void)entry->run_join(query);
    });
  }
}

void run_resident(const WorkloadSpec& spec, std::size_t dataset,
                  const sjc::serving::ResidentCatalog& catalog, const Reference& ref,
                  const std::vector<Lookup>& lookups, double seconds, LoopResult& out) {
  namespace sv = sjc::serving;
  const bool traced = out.traced;
  std::map<std::string, CacheDelta> cache_before;
  for (const auto system : kResidentSystems) {
    const auto& cache = catalog.find(system_label(system))->prepared_cache();
    cache_before[system_label(system)] = {cache.hits(), cache.misses(), cache.evictions()};
  }

  sv::QueryServiceConfig config;
  config.workers = kLookupWorkers;
  config.max_queue_depth = kLookupWindow;
  config.max_queued_per_tenant = kLookupWindow;
  config.trace = traced;
  std::mt19937_64 rng(out.passes);
  const double deadline = now_s() + seconds;
  sv::QueryService service(catalog, config);
  std::size_t next_lookup = 0;
  std::vector<std::pair<const Lookup*, sv::Submission>> window;
  for (int round = 0; round == 0 || now_s() < deadline; ++round, ++out.passes) {
    reset_peak_rss();
    const UsageDelta before = usage_now();
    const double start = now_s();
    for (const auto system : kResidentSystems) {
      sv::Query query;
      query.kind = sv::QueryKind::kSpatialJoin;
      query.entry = system_label(system);
      query.join.predicate = spec.predicate;
      const double t0 = now_s();
      auto submission = service.submit("joins", std::move(query));
      ++out.ops;
      if (!submission.status.ok()) {
        ++out.wrong;
        continue;
      }
      const sv::QueryResult result = submission.result.get();
      const double host_ms = (now_s() - t0) * 1e3;
      if (!join_record(out.joins, out.passes, dataset, traced, system,
                       resident_cluster().name, host_ms, ref, result.report)) {
        ++out.wrong;
      }
      out.join_queue_ms.push_back(result.queue_seconds * 1e3);
      out.join_service_ms.push_back(result.service_seconds * 1e3);
    }
    // Range and k-NN lookups, alternating between the entries.
    for (std::size_t done = 0; done < kLookupsPerRound; done += kLookupWindow) {
      for (std::size_t w = 0; w < kLookupWindow; ++w, ++next_lookup) {
        const Lookup& lookup = lookups[next_lookup % lookups.size()];
        sv::Query query;
        query.kind = lookup.knn ? sv::QueryKind::kKnn : sv::QueryKind::kRange;
        query.entry = system_label(kResidentSystems[next_lookup / 2 % 2]);
        query.window = lookup.window;
        query.k = lookup.k;
        query.left_side = true;
        window.emplace_back(&lookup, service.submit("lookups", std::move(query)));
      }
      for (auto& [lookup, submission] : window) {
        ++out.ops;
        if (!submission.status.ok()) {
          ++out.wrong;
          continue;
        }
        const sv::QueryResult result = submission.result.get();
        LookupSample sample;
        sample.knn = lookup->knn;
        sample.latency_us = result.latency_seconds * 1e6;
        sample.queue_ms = result.queue_seconds * 1e3;
        sample.service_ms = result.service_seconds * 1e3;
        sample.correct = result.status.ok() && (lookup->knn ? knn_matches(*lookup, result.hits)
                                                            : range_matches(*lookup, result.ids));
        if (!sample.correct) ++out.wrong;
        keep_sample(out.lookups[lookup->knn], sample, rng);
      }
      window.clear();
    }
    out.elapsed_s += now_s() - start;
    add_usage(out.usage, usage_since(before));
    out.peak_rss_bytes.push_back(peak_rss_since_reset());
  }
  service.drain();
  for (const auto& stats : service.tenant_stats()) out.rejected += stats.rejected;
  for (const auto system : kResidentSystems) {
    const auto& cache = catalog.find(system_label(system))->prepared_cache();
    const CacheDelta& b = cache_before[system_label(system)];
    CacheDelta& total = out.cache[system_label(system)];
    total.hits += cache.hits() - b.hits;
    total.misses += cache.misses() - b.misses;
    total.evictions += cache.evictions() - b.evictions;
  }
}

}  // namespace pb
