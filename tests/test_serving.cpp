// Serving-layer tests: resident-vs-cold parity for all three systems on
// both Table-2 experiment shapes and a within-distance join (every counter,
// entries installed from temporaries), the build-expansion check,
// HadoopGIS's replayed ingest quarantine, cross-query PreparedCache reuse,
// per-query cache counts under overlapping queries on one entry,
// admission control, round-robin fairness, and interleaved multi-tenant
// bit-identity against serial execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <latch>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "serving/query_service.hpp"
#include "serving/resident_catalog.hpp"
#include "workload/generators.hpp"

namespace sjc {
namespace {

struct Workbench {
  workload::Dataset points;
  workload::Dataset polys;
  workload::Dataset lines_a;
  workload::Dataset lines_b;
  core::ExecutionConfig exec;

  static const Workbench& instance() {
    static const Workbench bench = [] {
      Workbench w;
      workload::WorkloadConfig wc;
      wc.scale = 2e-4;
      w.points = workload::generate(workload::DatasetId::kTaxi1m, wc);
      w.polys = workload::generate(workload::DatasetId::kNycb, wc);
      w.lines_a = workload::generate(workload::DatasetId::kEdges01, wc);
      w.lines_b = workload::generate(workload::DatasetId::kLinearwater01, wc);
      w.exec.cluster = cluster::ClusterSpec::workstation();
      w.exec.data_scale = 1.0 / wc.scale;
      w.exec.collect_pairs = true;
      return w;
    }();
    return bench;
  }
};

std::vector<core::JoinPair> sorted_pairs(core::RunReport report) {
  std::sort(report.pairs.begin(), report.pairs.end());
  return report.pairs;
}

/// Every counter of a report except `skip`.
std::map<std::string, std::uint64_t> counters_except(const core::RunReport& r,
                                                     const std::string& skip) {
  auto out = r.counters.snapshot();
  out.erase(skip);
  return out;
}

serving::ResidentEntryConfig entry_config(core::SystemKind system,
                                          core::JoinPredicate predicate) {
  const auto& w = Workbench::instance();
  serving::ResidentEntryConfig config;
  config.system = system;
  config.build_query.predicate = predicate;
  config.exec = w.exec;
  // The gate has its own dedicated tests; parity tests run near the WS
  // pipe limit (see test_systems.cpp).
  config.hadoop_gis.pipe_capacity_fraction = 0.0;
  return config;
}

core::RunReport run_cold(core::SystemKind system, const workload::Dataset& left,
                         const workload::Dataset& right,
                         const serving::ResidentEntryConfig& config) {
  switch (system) {
    case core::SystemKind::kHadoopGisSim:
      return systems::run_hadoop_gis(left, right, config.build_query, config.exec,
                                     config.hadoop_gis);
    case core::SystemKind::kSpatialHadoopSim:
      return systems::run_spatial_hadoop(left, right, config.build_query, config.exec,
                                         config.spatial_hadoop);
    case core::SystemKind::kSpatialSparkSim:
      return systems::run_spatial_spark(left, right, config.build_query, config.exec,
                                        config.spatial_spark);
  }
  throw InvalidArgument("unknown system");
}

// ---------------------------------------------------------------------------
// Resident parity: bit-identical pairs and counters vs the cold batch path
// ---------------------------------------------------------------------------

class ResidentParity : public ::testing::TestWithParam<core::SystemKind> {};

/// Builds `config`'s entry and checks one resident query against a cold
/// batch run; `resident_out`, when set, receives the resident report.
void expect_parity(const serving::ResidentEntryConfig& config, const workload::Dataset& left,
                   const workload::Dataset& right, core::RunReport* resident_out = nullptr) {
  const core::RunReport cold = run_cold(config.system, left, right, config);
  ASSERT_TRUE(cold.status.ok()) << cold.status.to_string();

  // Installed from temporaries: once install returns the entry must not
  // refer to the caller's datasets (the sanitizer job catches it if it does).
  serving::ResidentCatalog catalog;
  const auto entry =
      catalog.install("pair", workload::Dataset(left), workload::Dataset(right), config);
  const core::RunReport resident = entry->run_join(config.build_query);
  ASSERT_TRUE(resident.status.ok()) << resident.status.to_string();

  // Bit-identical survivor pair sets.
  EXPECT_EQ(cold.result_count, resident.result_count);
  EXPECT_EQ(cold.result_hash, resident.result_hash);
  EXPECT_EQ(sorted_pairs(cold), sorted_pairs(resident));

  // Identical accounting: the resident path re-executes or replays exactly
  // the work the cold path did. A resident SpatialSpark query runs fewer
  // stages (no read, parse, sample or filter build), so only its commit
  // count differs.
  const std::string skip =
      config.system == core::SystemKind::kSpatialSparkSim ? "commit.published" : "";
  EXPECT_EQ(counters_except(cold, skip), counters_except(resident, skip));

  // Ingest is amortized: a resident query reports zero indexing time.
  // (SpatialSpark reports NaN on both paths — the paper's note that Spark
  // stages cannot be attributed — so only TOT is comparable there.)
  if (config.system != core::SystemKind::kSpatialSparkSim) {
    EXPECT_EQ(resident.index_a_seconds, 0.0);
    EXPECT_EQ(resident.index_b_seconds, 0.0);
  }
  if (resident_out != nullptr) *resident_out = resident;
}

TEST_P(ResidentParity, PointInPolygonJoin) {
  const auto& w = Workbench::instance();
  expect_parity(entry_config(GetParam(), core::JoinPredicate::kWithin), w.points, w.polys);
}

TEST_P(ResidentParity, PolylineIntersectionJoin) {
  const auto& w = Workbench::instance();
  expect_parity(entry_config(GetParam(), core::JoinPredicate::kIntersects), w.lines_a,
                w.lines_b);
}

TEST_P(ResidentParity, WithinDistanceJoin) {
  // The build assigns every record by its envelope expanded by d/2, and the
  // resident query must pair the blocks built that way.
  const auto& w = Workbench::instance();
  auto config = entry_config(GetParam(), core::JoinPredicate::kWithinDistance);
  config.build_query.within_distance = 100.0;
  core::RunReport resident;
  expect_parity(config, w.points, w.lines_a, &resident);
  EXPECT_GT(resident.result_count, 0u);
}

TEST_P(ResidentParity, ExpansionMismatchIsInvalidArgument) {
  // An intersects-built entry cannot answer a within-distance query: its
  // partitions were assigned without the d/2 envelope expansion, so the
  // pair set would silently lose pairs. The query fails as a report.
  const auto& w = Workbench::instance();
  const auto config = entry_config(GetParam(), core::JoinPredicate::kIntersects);
  serving::ResidentCatalog catalog;
  const auto entry = catalog.install("pair", w.lines_a, w.lines_b, config);
  core::JoinQueryConfig query = config.build_query;
  query.predicate = core::JoinPredicate::kWithinDistance;
  query.within_distance = 1e-3;
  core::RunReport report;
  EXPECT_NO_THROW(report = entry->run_join(query));
  EXPECT_EQ(report.status.code(), StatusCode::kInvalidArgument) << report.status.to_string();
  EXPECT_EQ(report.result_count, 0u);
  EXPECT_TRUE(report.pairs.empty());
}

INSTANTIATE_TEST_SUITE_P(AllSystems, ResidentParity,
                         ::testing::Values(core::SystemKind::kHadoopGisSim,
                                           core::SystemKind::kSpatialHadoopSim,
                                           core::SystemKind::kSpatialSparkSim),
                         [](const auto& info) {
                           switch (info.param) {
                             case core::SystemKind::kHadoopGisSim:
                               return std::string("HadoopGis");
                             case core::SystemKind::kSpatialHadoopSim:
                               return std::string("SpatialHadoop");
                             case core::SystemKind::kSpatialSparkSim:
                               return std::string("SpatialSpark");
                           }
                           return std::string("Unknown");
                         });

TEST(ResidentParityMalformedRows, HadoopGisReplaysIngestQuarantine) {
  // Junk rows are diverted while preprocessing parses the raw input; the
  // join jobs only see partitioned lines. A resident query's quarantine
  // count therefore comes entirely from the ingest counters its build
  // captured, and must equal the cold run's.
  const auto& w = Workbench::instance();
  auto config = entry_config(core::SystemKind::kHadoopGisSim, core::JoinPredicate::kWithin);
  config.hadoop_gis.faults.malformed_rows = 3;
  core::RunReport resident;
  expect_parity(config, w.points, w.polys, &resident);
  EXPECT_EQ(resident.counters.get("input.malformed_rows_injected"), 6u);
  EXPECT_GT(resident.counters.get("input.quarantined_rows"), 0u);
}

// ---------------------------------------------------------------------------
// Cross-query PreparedCache reuse
// ---------------------------------------------------------------------------

TEST(ResidentCache, SecondQueryHitsSharedPreparedCache) {
  const auto& w = Workbench::instance();
  serving::ResidentCatalog catalog;
  const auto config =
      entry_config(core::SystemKind::kSpatialHadoopSim, core::JoinPredicate::kWithin);
  const auto entry = catalog.install("taxi-nycb", w.points, w.polys, config);

  const auto first = entry->run_join(config.build_query);
  ASSERT_TRUE(first.status.ok()) << first.status.to_string();
  const std::uint64_t hits_after_first = entry->prepared_cache().hits();

  const auto second = entry->run_join(config.build_query);
  ASSERT_TRUE(second.status.ok()) << second.status.to_string();
  EXPECT_EQ(first.result_hash, second.result_hash);

  // The second query's bind() lookups land on handles the first one
  // populated: cross-query reuse must produce real hits.
  const auto& cache = entry->prepared_cache();
  EXPECT_GT(cache.hits(), hits_after_first);
  EXPECT_GT(cache.hit_rate(), 0.0);
  EXPECT_EQ(cache.hits() + cache.misses(), cache.lookups());

  // Per-query counter deltas stay balanced even though the shared cache
  // carries history: each report counts only its own lookups.
  const std::uint64_t q1 = first.counters.get("join.prepared_cache_hits") +
                           first.counters.get("join.prepared_cache_misses");
  const std::uint64_t q2 = second.counters.get("join.prepared_cache_hits") +
                           second.counters.get("join.prepared_cache_misses");
  EXPECT_EQ(q1 + q2, cache.lookups());
  EXPECT_GT(second.counters.get("join.prepared_cache_hits"),
            first.counters.get("join.prepared_cache_hits"));
}

// Overlapping queries on one entry share its PreparedCache, yet each report
// counts only its own work: two warm joins started together each report the
// serial warm join's cache lookups and refine.* counters, on SpatialHadoop's
// packed blocks and on SpatialSpark's partitioned plan.
TEST(ResidentOverlap, EachQueryCountsItsOwnCacheLookups) {
  const auto& w = Workbench::instance();
  struct Case {
    core::SystemKind system;
    core::JoinPredicate predicate;
    const workload::Dataset* left;
    const workload::Dataset* right;
  };
  const auto own_work = [](const core::RunReport& r) {
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, value] : r.counters.snapshot()) {
      if (name.starts_with("refine.") || name.starts_with("join.prepared_cache_")) {
        out[name] = value;
      }
    }
    return out;
  };
  for (const Case& c :
       {Case{core::SystemKind::kSpatialHadoopSim, core::JoinPredicate::kWithin, &w.points,
             &w.polys},
        Case{core::SystemKind::kSpatialSparkSim, core::JoinPredicate::kIntersects, &w.lines_a,
             &w.lines_b}}) {
    const std::string tag = core::system_kind_name(c.system);
    serving::ResidentCatalog catalog;
    const auto config = entry_config(c.system, c.predicate);
    const auto entry = catalog.install("pair", *c.left, *c.right, config);
    // The first query builds every refiner it needs; the second is the warm
    // reference.
    ASSERT_TRUE(entry->run_join(config.build_query).status.ok()) << tag;
    const core::RunReport serial = entry->run_join(config.build_query);
    ASSERT_TRUE(serial.status.ok()) << tag;
    const auto expected = own_work(serial);
    ASSERT_EQ(expected.size(), 8u) << tag;
    ASSERT_GT(expected.at("join.prepared_cache_hits"), 0u) << tag;
    EXPECT_EQ(expected.at("join.prepared_cache_misses"), 0u) << tag;
    for (int round = 0; round < 3; ++round) {
      std::latch start(2);
      const auto overlapped = [&] {
        start.arrive_and_wait();
        return entry->run_join(config.build_query);
      };
      auto a = std::async(std::launch::async, overlapped);
      auto b = std::async(std::launch::async, overlapped);
      for (auto* query : {&a, &b}) {
        const core::RunReport report = query->get();
        ASSERT_TRUE(report.status.ok()) << tag << ": " << report.status.to_string();
        EXPECT_EQ(own_work(report), expected) << tag << " round " << round;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Range and k-NN from resident STR trees
// ---------------------------------------------------------------------------

TEST(ResidentRangeKnn, MatchesBruteForce) {
  const auto& w = Workbench::instance();
  serving::ResidentCatalog catalog;
  const auto entry = catalog.install(
      "taxi-nycb", w.points, w.polys,
      entry_config(core::SystemKind::kSpatialHadoopSim, core::JoinPredicate::kWithin));

  const geom::Envelope window(-74.0, 40.7, -73.9, 40.8);
  const auto ids = entry->run_range(window, /*left_side=*/true);
  std::vector<std::uint32_t> expect;
  const auto envs = w.points.envelopes();
  for (std::size_t i = 0; i < envs.size(); ++i) {
    if (envs[i].intersects(window)) expect.push_back(static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(ids, expect);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));

  const auto hits = entry->run_knn(window, 5, /*left_side=*/false);
  ASSERT_EQ(hits.size(), std::min<std::size_t>(5, w.polys.size()));
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i - 1].distance, hits[i].distance);
  }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(QueryServiceAdmission, BoundedQueueRejectsWithResourceExhausted) {
  const auto& w = Workbench::instance();
  serving::ResidentCatalog catalog;
  const auto config =
      entry_config(core::SystemKind::kSpatialHadoopSim, core::JoinPredicate::kWithin);
  catalog.install("taxi-nycb", w.points, w.polys, config);

  serving::QueryServiceConfig sc;
  sc.workers = 1;
  sc.max_queue_depth = 2;
  sc.max_queued_per_tenant = 8;
  serving::QueryService service(catalog, sc);

  serving::Query query;
  query.kind = serving::QueryKind::kSpatialJoin;
  query.entry = "taxi-nycb";
  query.join = config.build_query;

  // A join runs for milliseconds; eight back-to-back submissions outpace
  // the single worker, so the 2-deep queue must overflow.
  std::vector<std::future<serving::QueryResult>> accepted;
  std::size_t rejected = 0;
  for (int i = 0; i < 8; ++i) {
    auto sub = service.submit("t0", query);
    if (sub.status.ok()) {
      accepted.push_back(std::move(sub.result));
    } else {
      EXPECT_EQ(sub.status.code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 1u);
  EXPECT_GE(accepted.size(), 1u);
  for (auto& f : accepted) {
    const auto result = f.get();
    EXPECT_TRUE(result.status.ok()) << result.status.to_string();
    EXPECT_TRUE(result.report.status.ok());
  }

  service.drain();
  const auto late = service.submit("t0", query);
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);

  const auto stats = service.tenant_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].submitted, 9u);
  EXPECT_EQ(stats[0].rejected, rejected + 1);
  EXPECT_EQ(stats[0].completed, accepted.size());
}

TEST(QueryServiceAdmission, UnknownEntryFailsTheQueryNotTheService) {
  const auto& w = Workbench::instance();
  serving::ResidentCatalog catalog;
  catalog.install(
      "taxi-nycb", w.points, w.polys,
      entry_config(core::SystemKind::kSpatialHadoopSim, core::JoinPredicate::kWithin));
  serving::QueryService service(catalog);

  serving::Query query;
  query.kind = serving::QueryKind::kRange;
  query.entry = "no-such-entry";
  auto sub = service.submit("t0", query);
  ASSERT_TRUE(sub.status.ok());
  const auto result = sub.result.get();
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Round-robin fairness
// ---------------------------------------------------------------------------

TEST(QueryServiceFairness, BacklogsInterleaveAcrossTenants) {
  const auto& w = Workbench::instance();
  serving::ResidentCatalog catalog;
  catalog.install(
      "taxi-nycb", w.points, w.polys,
      entry_config(core::SystemKind::kSpatialHadoopSim, core::JoinPredicate::kWithin));

  serving::QueryServiceConfig sc;
  sc.workers = 1;
  sc.max_queue_depth = 64;
  sc.max_queued_per_tenant = 32;
  serving::QueryService service(catalog, sc);

  // Pin the single worker on a join for a few milliseconds so both range
  // backlogs are fully queued before anything dispatches — without this the
  // worker would drain tenant-a's microsecond queries before tenant-b even
  // submits, and the ordering assertion below would be a race, not a
  // scheduling property.
  serving::Query blocker;
  blocker.kind = serving::QueryKind::kSpatialJoin;
  blocker.entry = "taxi-nycb";
  blocker.join.predicate = core::JoinPredicate::kWithin;
  auto warmup = service.submit("warmup", blocker);
  ASSERT_TRUE(warmup.status.ok());

  serving::Query query;
  query.kind = serving::QueryKind::kRange;
  query.entry = "taxi-nycb";
  query.window = geom::Envelope(-74.05, 40.6, -73.8, 40.9);

  // Tenant A enqueues its whole backlog first; strict FIFO would then
  // finish all of A before touching B. Round robin must interleave them.
  std::vector<std::future<serving::QueryResult>> futures;
  for (int i = 0; i < 12; ++i) {
    auto sub = service.submit("tenant-a", query);
    ASSERT_TRUE(sub.status.ok());
    futures.push_back(std::move(sub.result));
  }
  for (int i = 0; i < 12; ++i) {
    auto sub = service.submit("tenant-b", query);
    ASSERT_TRUE(sub.status.ok());
    futures.push_back(std::move(sub.result));
  }
  EXPECT_TRUE(warmup.result.get().status.ok());
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  service.drain();

  // Spans carry arrival as sim_start; dispatch order is completion order on
  // the single worker, so sort by sim_end before checking interleaving.
  auto timeline = service.timeline();
  ASSERT_EQ(timeline.spans.size(), 25u);
  std::stable_sort(timeline.spans.begin(), timeline.spans.end(),
                   [](const auto& a, const auto& b) { return a.sim_end < b.sim_end; });
  std::size_t first_b = timeline.spans.size();
  std::size_t seen = 0;
  for (std::size_t i = 0; i < timeline.spans.size(); ++i) {
    if (timeline.spans[i].phase == "tenant/warmup") continue;
    if (timeline.spans[i].phase == "tenant/tenant-b" && first_b > seen) first_b = seen;
    ++seen;
  }
  EXPECT_LT(first_b, 12u);

  const auto footer = service.tenant_footer();
  ASSERT_EQ(footer.size(), 3u);
  std::size_t range_queries = 0;
  for (const auto& row : footer) {
    if (row.tenant != "warmup") range_queries += row.queries;
  }
  EXPECT_EQ(range_queries, 24u);
}

// ---------------------------------------------------------------------------
// Interleaved multi-tenant execution is bit-identical to serial
// ---------------------------------------------------------------------------

TEST(QueryServiceInterleaving, TwoTenantsOnOnePoolMatchSerialRuns) {
  const auto& w = Workbench::instance();
  serving::ResidentCatalog catalog;
  const auto within_config =
      entry_config(core::SystemKind::kSpatialHadoopSim, core::JoinPredicate::kWithin);
  const auto intersects_config = entry_config(core::SystemKind::kSpatialSparkSim,
                                              core::JoinPredicate::kIntersects);
  const auto e1 = catalog.install("taxi-nycb", w.points, w.polys, within_config);
  const auto e2 = catalog.install("edges-water", w.lines_a, w.lines_b,
                                  intersects_config);

  // Serial reference: one resident run per entry, no concurrency.
  const auto serial1 = e1->run_join(within_config.build_query);
  const auto serial2 = e2->run_join(intersects_config.build_query);
  ASSERT_TRUE(serial1.status.ok());
  ASSERT_TRUE(serial2.status.ok());

  serving::QueryServiceConfig sc;
  sc.workers = 2;  // both tenants' queries genuinely overlap on the pool
  sc.max_queue_depth = 64;
  sc.max_queued_per_tenant = 32;
  serving::QueryService service(catalog, sc);

  serving::Query q1;
  q1.entry = "taxi-nycb";
  q1.join = within_config.build_query;
  serving::Query q2;
  q2.entry = "edges-water";
  q2.join = intersects_config.build_query;

  std::vector<std::future<serving::QueryResult>> f1, f2;
  for (int i = 0; i < 3; ++i) {
    auto s1 = service.submit("tenant-a", q1);
    auto s2 = service.submit("tenant-b", q2);
    ASSERT_TRUE(s1.status.ok());
    ASSERT_TRUE(s2.status.ok());
    f1.push_back(std::move(s1.result));
    f2.push_back(std::move(s2.result));
  }
  for (auto& f : f1) {
    const auto r = f.get();
    ASSERT_TRUE(r.report.status.ok()) << r.report.status.to_string();
    EXPECT_EQ(sorted_pairs(r.report), sorted_pairs(serial1));
    EXPECT_EQ(r.report.result_hash, serial1.result_hash);
  }
  for (auto& f : f2) {
    const auto r = f.get();
    ASSERT_TRUE(r.report.status.ok()) << r.report.status.to_string();
    EXPECT_EQ(sorted_pairs(r.report), sorted_pairs(serial2));
    EXPECT_EQ(r.report.result_hash, serial2.result_hash);
  }
}

// ---------------------------------------------------------------------------
// Catalog lifecycle
// ---------------------------------------------------------------------------

TEST(ResidentCatalogLifecycle, InstallFindEraseReplace) {
  const auto& w = Workbench::instance();
  serving::ResidentCatalog catalog;
  const auto config =
      entry_config(core::SystemKind::kSpatialSparkSim, core::JoinPredicate::kWithin);
  const auto entry = catalog.install("e", w.points, w.polys, config);
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.find("e"), entry);
  EXPECT_EQ(catalog.find("missing"), nullptr);
  EXPECT_TRUE(entry->build_report().status.ok());

  // Replace: a held shared_ptr keeps answering from the old state.
  const auto replacement = catalog.install("e", w.points, w.polys, config);
  EXPECT_NE(catalog.find("e"), entry);
  const auto old_report = entry->run_join(config.build_query);
  EXPECT_TRUE(old_report.status.ok());

  EXPECT_TRUE(catalog.erase("e"));
  EXPECT_FALSE(catalog.erase("e"));
  EXPECT_EQ(catalog.size(), 0u);
}

}  // namespace
}  // namespace sjc
