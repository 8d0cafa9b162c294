// Integration tests for the three simulated systems: result agreement
// across systems/configurations, failure gates (broken pipe / OOM), and
// report/breakdown consistency.
#include <gtest/gtest.h>

#include <set>

#include "core/experiments.hpp"
#include "core/spatial_join.hpp"
#include "geom/predicates.hpp"
#include "mapreduce/streaming.hpp"
#include "systems/hadoopgis/hadoop_gis.hpp"
#include "systems/spatialhadoop/spatial_hadoop.hpp"
#include "systems/spatialspark/spatial_spark.hpp"
#include "util/stopwatch.hpp"
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
      // 2e-4 sits inside the verified-stable band of the failure gates:
      // small enough to run in milliseconds, large enough that per-task
      // volumes are not dominated by lumpiness artifacts.
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

// HadoopGIS with the broken-pipe gate disabled: the agreement tests verify
// result equality across arbitrary configurations, some of which sit near
// the (intentional) WS pipe limit; the gate has its own dedicated tests.
core::RunReport run_hadoop_gis_ungated(const workload::Dataset& left,
                                       const workload::Dataset& right,
                                       const core::JoinQueryConfig& query,
                                       const core::ExecutionConfig& exec) {
  systems::HadoopGisConfig config;
  config.pipe_capacity_fraction = 0.0;
  return systems::run_hadoop_gis(left, right, query, exec, config);
}

// ---------------------------------------------------------------------------
// Cross-system agreement under varying configurations
// ---------------------------------------------------------------------------

struct AgreementCase {
  std::string name;
  core::JoinQueryConfig query;
};

class SystemsAgree : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(SystemsAgree, PointInPolygonJoin) {
  const auto& w = Workbench::instance();
  core::JoinQueryConfig query = GetParam().query;
  query.predicate = core::JoinPredicate::kWithin;

  const auto sh = core::run_spatial_join(core::SystemKind::kSpatialHadoopSim, w.points,
                                         w.polys, query, w.exec);
  ASSERT_TRUE(sh.status.ok()) << sh.status.to_string();
  EXPECT_GT(sh.result_count, 0u);
  // Every point lies in at most one block, so pairs <= points.
  EXPECT_LE(sh.result_count, w.points.size());

  const auto ss = core::run_spatial_join(core::SystemKind::kSpatialSparkSim, w.points,
                                         w.polys, query, w.exec);
  ASSERT_TRUE(ss.status.ok()) << ss.status.to_string();
  const auto hg = run_hadoop_gis_ungated(w.points, w.polys, query, w.exec);
  ASSERT_TRUE(hg.status.ok()) << hg.status.to_string();

  EXPECT_EQ(sorted_pairs(sh), sorted_pairs(ss));
  EXPECT_EQ(sorted_pairs(sh), sorted_pairs(hg));
}

TEST_P(SystemsAgree, PolylineIntersectionJoin) {
  const auto& w = Workbench::instance();
  core::JoinQueryConfig query = GetParam().query;
  query.predicate = core::JoinPredicate::kIntersects;

  const auto sh = core::run_spatial_join(core::SystemKind::kSpatialHadoopSim, w.lines_a,
                                         w.lines_b, query, w.exec);
  ASSERT_TRUE(sh.status.ok()) << sh.status.to_string();
  EXPECT_GT(sh.result_count, 0u);
  const auto ss = core::run_spatial_join(core::SystemKind::kSpatialSparkSim, w.lines_a,
                                         w.lines_b, query, w.exec);
  ASSERT_TRUE(ss.status.ok()) << ss.status.to_string();
  const auto hg = run_hadoop_gis_ungated(w.lines_a, w.lines_b, query, w.exec);
  ASSERT_TRUE(hg.status.ok()) << hg.status.to_string();

  EXPECT_EQ(sorted_pairs(sh), sorted_pairs(ss));
  EXPECT_EQ(sorted_pairs(sh), sorted_pairs(hg));
}

std::vector<AgreementCase> agreement_cases() {
  std::vector<AgreementCase> cases;
  {
    AgreementCase c;
    c.name = "defaults";
    cases.push_back(c);
  }
  {
    AgreementCase c;
    c.name = "grid_partitioner";
    c.query.partitioner = partition::PartitionerKind::kFixedGrid;
    cases.push_back(c);
  }
  {
    AgreementCase c;
    c.name = "few_partitions";
    c.query.target_partitions = 5;
    cases.push_back(c);
  }
  {
    AgreementCase c;
    c.name = "many_partitions";
    c.query.target_partitions = 400;
    cases.push_back(c);
  }
  {
    AgreementCase c;
    c.name = "high_sample_rate";
    c.query.sample_rate = 0.5;
    cases.push_back(c);
  }
  {
    AgreementCase c;
    c.name = "other_seed";
    c.query.seed = 12345;
    cases.push_back(c);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Configs, SystemsAgree, ::testing::ValuesIn(agreement_cases()),
                         [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Cross-cluster invariance: the pair set must not depend on the cluster.
// ---------------------------------------------------------------------------

TEST(Systems, SpatialHadoopResultIndependentOfCluster) {
  const auto& w = Workbench::instance();
  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithin;
  core::ExecutionConfig exec = w.exec;
  const auto ws = core::run_spatial_join(core::SystemKind::kSpatialHadoopSim, w.points,
                                         w.polys, query, exec);
  exec.cluster = cluster::ClusterSpec::ec2(6);
  const auto ec2 = core::run_spatial_join(core::SystemKind::kSpatialHadoopSim, w.points,
                                          w.polys, query, exec);
  ASSERT_TRUE(ws.status.ok() && ec2.status.ok());
  EXPECT_EQ(sorted_pairs(ws), sorted_pairs(ec2));
}

// ---------------------------------------------------------------------------
// Broadcast join variant agrees with the partition-based join.
// ---------------------------------------------------------------------------

/// Runs SpatialSpark with the broadcast plan forced and with the default
/// partitioned plan, and expects the same pairs and the same refinement
/// work: both plans refine each MBR candidate once through the shared
/// refine step, so every refine.* counter and the refiners built
/// (join.prepared_cache_misses) agree. Cache hits differ, because the
/// broadcast plan groups candidates per left partition, not per cell pair.
/// Returns the partitioned run.
core::RunReport expect_broadcast_matches_partitioned(const workload::Dataset& left,
                                                     const workload::Dataset& right,
                                                     const core::JoinQueryConfig& query,
                                                     const std::string& tag) {
  const auto& w = Workbench::instance();
  systems::SpatialSparkConfig broadcast_cfg;
  broadcast_cfg.join_plan = plan::PlanKind::kBroadcastJoin;
  const auto bc = systems::run_spatial_spark(left, right, query, w.exec, broadcast_cfg);
  EXPECT_TRUE(bc.status.ok()) << tag << ": " << bc.status.to_string();
  auto pt = systems::run_spatial_spark(left, right, query, w.exec);
  EXPECT_TRUE(pt.status.ok()) << tag << ": " << pt.status.to_string();
  EXPECT_EQ(sorted_pairs(bc), sorted_pairs(pt)) << tag;
  EXPECT_GT(pt.result_count, 0u) << tag;
  EXPECT_GT(pt.counters.get("refine.candidates"), 0u) << tag;
  const auto broadcast_counters = bc.counters.snapshot();
  for (const char* name :
       {"refine.candidates", "refine.exact_tests", "refine.early_accepts",
        "refine.early_rejects", "refine.exact_fastpath", "refine.exact_slowpath",
        "join.prepared_cache_misses"}) {
    EXPECT_TRUE(broadcast_counters.contains(name)) << tag << " " << name;
    EXPECT_EQ(bc.counters.get(name), pt.counters.get(name)) << tag << " " << name;
  }
  return pt;
}

TEST(Systems, BroadcastJoinAgreesWithPartitionJoin) {
  const auto& w = Workbench::instance();
  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithin;
  const core::RunReport pt =
      expect_broadcast_matches_partitioned(w.points, w.polys, query, "taxi-nycb within");

  core::JoinQueryConfig lines_query;
  lines_query.predicate = core::JoinPredicate::kIntersects;
  expect_broadcast_matches_partitioned(w.lines_a, w.lines_b, lines_query,
                                       "edges-linearwater intersects");
  lines_query.predicate = core::JoinPredicate::kWithinDistance;
  lines_query.within_distance = 200.0;
  expect_broadcast_matches_partitioned(w.lines_a, w.lines_b, lines_query,
                                       "edges-linearwater within-distance");

  systems::SpatialSparkConfig broadcast_cfg;
  broadcast_cfg.join_plan = plan::PlanKind::kBroadcastJoin;

  // Under virtual time the broadcast plan is deterministic: two runs give
  // bit-identical reports.
  {
    const VirtualTimeGuard vt;
    const auto a = systems::run_spatial_spark(w.points, w.polys, query, w.exec,
                                              broadcast_cfg);
    const auto b = systems::run_spatial_spark(w.points, w.polys, query, w.exec,
                                              broadcast_cfg);
    ASSERT_TRUE(a.status.ok()) << a.status.to_string();
    EXPECT_EQ(a.status.code(), b.status.code());
    EXPECT_EQ(a.result_count, b.result_count);
    EXPECT_EQ(a.result_hash, b.result_hash);
    EXPECT_EQ(a.pairs, b.pairs);
    EXPECT_EQ(a.total_seconds, b.total_seconds);
    EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
    EXPECT_EQ(a.counters.snapshot(), b.counters.snapshot());
    ASSERT_EQ(a.metrics.phases().size(), b.metrics.phases().size());
    for (std::size_t i = 0; i < a.metrics.phases().size(); ++i) {
      const auto& pa = a.metrics.phases()[i];
      const auto& pb = b.metrics.phases()[i];
      EXPECT_EQ(pa.name, pb.name);
      EXPECT_EQ(pa.sim_seconds, pb.sim_seconds) << pa.name;
      EXPECT_EQ(pa.bytes_read, pb.bytes_read) << pa.name;
      EXPECT_EQ(pa.bytes_written, pb.bytes_written) << pa.name;
      EXPECT_EQ(pa.bytes_shuffled, pb.bytes_shuffled) << pa.name;
      EXPECT_EQ(pa.task_count, pb.task_count) << pa.name;
      EXPECT_EQ(pa.task_attempts, pb.task_attempts) << pa.name;
    }
  }

  // Junk input rows are quarantined by the shared parse stage: the
  // broadcast plan diverts every injected row and still finds exactly the
  // partitioned plan's pairs.
  systems::SpatialSparkConfig malformed_cfg = broadcast_cfg;
  malformed_cfg.faults.malformed_rows = 3;
  const auto junk = systems::run_spatial_spark(w.points, w.polys, query, w.exec,
                                               malformed_cfg);
  ASSERT_TRUE(junk.status.ok()) << junk.status.to_string();
  EXPECT_GT(junk.counters.get("input.malformed_rows_injected"), 0u);
  EXPECT_EQ(junk.counters.get("input.quarantined_rows"),
            junk.counters.get("input.malformed_rows_injected"));
  EXPECT_EQ(sorted_pairs(junk), sorted_pairs(pt));
}

// ---------------------------------------------------------------------------
// Failure gates
// ---------------------------------------------------------------------------

TEST(Systems, HadoopGisBreaksPipesOnFullWorkload) {
  workload::WorkloadConfig wc;
  wc.scale = 5e-5;
  const auto taxi = workload::generate(workload::DatasetId::kTaxi, wc);
  const auto nycb = workload::generate(workload::DatasetId::kNycb, wc);
  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithin;
  core::ExecutionConfig exec;
  exec.data_scale = 1.0 / wc.scale;
  const auto report =
      core::run_spatial_join(core::SystemKind::kHadoopGisSim, taxi, nycb, query, exec);
  EXPECT_EQ(report.status.code(), StatusCode::kBrokenPipe) << report.status.to_string();
  // Failed runs still report what they measured up to the failure.
  EXPECT_FALSE(report.metrics.phases().empty());
}

TEST(Systems, SpatialSparkOomsOnSmallCluster) {
  workload::WorkloadConfig wc;
  wc.scale = 5e-5;
  const auto taxi = workload::generate(workload::DatasetId::kTaxi, wc);
  const auto nycb = workload::generate(workload::DatasetId::kNycb, wc);
  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithin;
  core::ExecutionConfig exec;
  exec.data_scale = 1.0 / wc.scale;
  exec.cluster = cluster::ClusterSpec::ec2(6);
  const auto report =
      core::run_spatial_join(core::SystemKind::kSpatialSparkSim, taxi, nycb, query, exec);
  EXPECT_EQ(report.status.code(), StatusCode::kOutOfMemory) << report.status.to_string();
  EXPECT_GT(report.peak_memory_bytes, 0u);
}

TEST(Systems, SpatialHadoopNeverFails) {
  // Robustness winner: completes the full workload on the smallest cluster.
  workload::WorkloadConfig wc;
  wc.scale = 5e-5;
  const auto taxi = workload::generate(workload::DatasetId::kTaxi, wc);
  const auto nycb = workload::generate(workload::DatasetId::kNycb, wc);
  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithin;
  core::ExecutionConfig exec;
  exec.data_scale = 1.0 / wc.scale;
  exec.cluster = cluster::ClusterSpec::ec2(6);
  const auto report =
      core::run_spatial_join(core::SystemKind::kSpatialHadoopSim, taxi, nycb, query, exec);
  EXPECT_TRUE(report.status.ok()) << report.status.to_string();
}

// ---------------------------------------------------------------------------
// Report consistency
// ---------------------------------------------------------------------------

TEST(Systems, BreakdownSumsToTotal) {
  const auto& w = Workbench::instance();
  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithin;
  for (const auto kind :
       {core::SystemKind::kHadoopGisSim, core::SystemKind::kSpatialHadoopSim}) {
    const auto r = core::run_spatial_join(kind, w.points, w.polys, query, w.exec);
    ASSERT_TRUE(r.status.ok());
    EXPECT_NEAR(r.index_a_seconds + r.index_b_seconds + r.join_seconds, r.total_seconds,
                1e-6)
        << core::system_kind_name(kind);
    EXPECT_GT(r.index_a_seconds, 0.0);
    EXPECT_GT(r.index_b_seconds, 0.0);
    EXPECT_GT(r.join_seconds, 0.0);
    EXPECT_NEAR(r.metrics.total_seconds(), r.total_seconds, 1e-6);
  }
}

TEST(Systems, SparkReportsOnlyTotals) {
  const auto& w = Workbench::instance();
  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithin;
  const auto r = core::run_spatial_join(core::SystemKind::kSpatialSparkSim, w.points,
                                        w.polys, query, w.exec);
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(std::isnan(r.index_a_seconds));
  EXPECT_TRUE(std::isnan(r.join_seconds));
  EXPECT_GT(r.total_seconds, 0.0);
}

TEST(Systems, HashMatchesPairsWhenCollected) {
  const auto& w = Workbench::instance();
  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithin;
  const auto r = core::run_spatial_join(core::SystemKind::kSpatialHadoopSim, w.points,
                                        w.polys, query, w.exec);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.result_hash, core::hash_pairs_unordered(r.pairs));
  EXPECT_EQ(r.result_count, r.pairs.size());
}

TEST(Systems, CollectPairsOffStillCountsAndHashes) {
  const auto& w = Workbench::instance();
  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithin;
  core::ExecutionConfig exec = w.exec;
  exec.collect_pairs = false;
  const auto with = core::run_spatial_join(core::SystemKind::kSpatialSparkSim, w.points,
                                           w.polys, query, w.exec);
  const auto without = core::run_spatial_join(core::SystemKind::kSpatialSparkSim,
                                              w.points, w.polys, query, exec);
  ASSERT_TRUE(with.status.ok() && without.status.ok());
  EXPECT_EQ(with.result_count, without.result_count);
  EXPECT_EQ(with.result_hash, without.result_hash);
  EXPECT_TRUE(without.pairs.empty());
}

TEST(Systems, WithinDistanceJoinRunsEndToEnd) {
  // The paper's motivating "taxi to nearest road" workload, as an extension.
  const auto& w = Workbench::instance();
  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithinDistance;
  query.within_distance = 250.0;  // meters
  const auto sh = core::run_spatial_join(core::SystemKind::kSpatialHadoopSim, w.points,
                                         w.lines_a, query, w.exec);
  ASSERT_TRUE(sh.status.ok()) << sh.status.to_string();
  EXPECT_GT(sh.result_count, 0u);
  const auto ss = core::run_spatial_join(core::SystemKind::kSpatialSparkSim, w.points,
                                         w.lines_a, query, w.exec);
  ASSERT_TRUE(ss.status.ok());
  EXPECT_EQ(sh.result_hash, ss.result_hash);
}

// ---------------------------------------------------------------------------
// Experiment registry
// ---------------------------------------------------------------------------

TEST(Systems, CountersArePopulated) {
  const auto& w = Workbench::instance();
  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithin;
  const auto sh = core::run_spatial_join(core::SystemKind::kSpatialHadoopSim, w.points,
                                         w.polys, query, w.exec);
  ASSERT_TRUE(sh.status.ok());
  // Both datasets assigned; result pairs counted.
  EXPECT_EQ(sh.counters.get("partition.records"), w.points.size() + w.polys.size());
  EXPECT_GE(sh.counters.get("partition.assignments"),
            sh.counters.get("partition.records"));
  EXPECT_EQ(sh.counters.get("join.result_pairs"), sh.result_count);
  EXPECT_GT(sh.counters.get("join.partition_pairs"), 0u);
  // SpatialHadoop refines on the Prepared engine, so the run-scoped bind()
  // cache must have been consulted and (with overlap-duplicated features
  // across partition pairs) have served hits.
  EXPECT_GT(sh.counters.get("join.prepared_cache_hits"), 0u);
  EXPECT_GT(sh.counters.get("join.prepared_cache_misses"), 0u);
  // Every exact test is classified by the adaptive predicate's outcome
  // (refine.* sums), and the shuffle and commit accounting balances.
  EXPECT_GT(sh.counters.get("refine.exact_tests"), 0u);
  EXPECT_EQ(core::check_invariants(sh), std::vector<std::string>{});

  const auto ss = core::run_spatial_join(core::SystemKind::kSpatialSparkSim, w.points,
                                         w.polys, query, w.exec);
  ASSERT_TRUE(ss.status.ok());
  EXPECT_GT(ss.counters.get("join.prepared_cache_hits"), 0u);
  EXPECT_GT(ss.counters.get("refine.exact_tests"), 0u);
  EXPECT_EQ(core::check_invariants(ss), std::vector<std::string>{});

  const auto hg = run_hadoop_gis_ungated(w.points, w.polys, query, w.exec);
  ASSERT_TRUE(hg.status.ok());
  // The sort-unique dedup can only shrink the pair lines.
  EXPECT_GE(hg.counters.get("join.pair_lines_before_dedup"),
            hg.counters.get("join.pair_lines_after_dedup"));
  EXPECT_EQ(hg.counters.get("join.pair_lines_after_dedup"), hg.result_count);
  // HadoopGIS refines on the Simple (GEOS-analog) engine: the cache must
  // stay inert or the measured engine gap would be corrupted.
  EXPECT_EQ(hg.counters.get("join.prepared_cache_hits"), 0u);
  EXPECT_EQ(hg.counters.get("join.prepared_cache_misses"), 0u);
  EXPECT_GT(hg.counters.get("refine.exact_tests"), 0u);
  EXPECT_EQ(core::check_invariants(hg), std::vector<std::string>{});
}

TEST(Experiments, RegistryShape) {
  EXPECT_EQ(core::full_experiments().size(), 2u);
  EXPECT_EQ(core::sample_experiments().size(), 2u);
  EXPECT_EQ(core::full_experiments()[0].id, "taxi-nycb");
  EXPECT_EQ(core::paper_cluster_configs().size(), 4u);
  EXPECT_EQ(core::paper_cluster_configs()[0].name, "WS");
}

}  // namespace
}  // namespace sjc

namespace sjc {
namespace {

TEST(Systems, ResultsDeterministicAcrossRepeatedRuns) {
  const auto& w = Workbench::instance();
  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithin;
  for (const auto kind :
       {core::SystemKind::kHadoopGisSim, core::SystemKind::kSpatialHadoopSim,
        core::SystemKind::kSpatialSparkSim}) {
    const auto a = core::run_spatial_join(kind, w.points, w.polys, query, w.exec);
    const auto b = core::run_spatial_join(kind, w.points, w.polys, query, w.exec);
    ASSERT_TRUE(a.status.ok() && b.status.ok()) << core::system_kind_name(kind);
    EXPECT_EQ(a.result_hash, b.result_hash);
    EXPECT_EQ(a.result_count, b.result_count);
    // The executed phase structure is identical too (timings may differ by
    // real measurement noise, names and task counts may not).
    ASSERT_EQ(a.metrics.phases().size(), b.metrics.phases().size());
    for (std::size_t i = 0; i < a.metrics.phases().size(); ++i) {
      EXPECT_EQ(a.metrics.phases()[i].name, b.metrics.phases()[i].name);
      EXPECT_EQ(a.metrics.phases()[i].task_count, b.metrics.phases()[i].task_count);
      EXPECT_EQ(a.metrics.phases()[i].bytes_read, b.metrics.phases()[i].bytes_read);
    }
  }
}

TEST(Systems, UserCodeErrorsPropagateNotSwallowed) {
  // A malformed record in the streaming pipeline is a bug, not a simulated
  // infrastructure failure: it must throw, not come back as a RunReport.
  mapreduce::StreamingSpec bad;
  bad.name = "bad";
  bad.make_mapper = [](std::size_t) -> mapreduce::StreamingMapFn {
    return [](const std::string&, std::vector<std::string>&) { throw ParseError("boom"); };
  };
  bad.reduce = [](const std::vector<std::string>&, std::vector<std::string>&) {};
  cluster::RunMetrics metrics;
  dfs::SimDfs fs(dfs::DfsConfig{});
  const auto spec = cluster::ClusterSpec::workstation();
  mapreduce::MrContext ctx(spec, 1000.0, &fs, &metrics);
  EXPECT_THROW(mapreduce::run_map_reduce(ctx, bad, {{"line"}}), ParseError);
}

}  // namespace
}  // namespace sjc

namespace sjc {
namespace {

TEST(Systems, WithinDistanceMatchesBruteForce) {
  // The epsilon-join must find EXACTLY the pairs within distance d, across
  // partition boundaries (the envelope-expansion machinery under test).
  workload::WorkloadConfig wc;
  wc.scale = 5e-5;
  const auto points = workload::generate(workload::DatasetId::kTaxi1m, wc);
  const auto roads = workload::generate(workload::DatasetId::kEdges01, wc);

  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithinDistance;
  query.within_distance = 300.0;
  query.target_partitions = 64;  // force many partition boundaries
  core::ExecutionConfig exec;
  exec.cluster = cluster::ClusterSpec::workstation();
  exec.data_scale = 1.0 / wc.scale;
  exec.collect_pairs = true;

  const auto report = core::run_spatial_join(core::SystemKind::kSpatialHadoopSim,
                                             points, roads, query, exec);
  ASSERT_TRUE(report.status.ok());

  std::set<core::JoinPair> got(report.pairs.begin(), report.pairs.end());
  std::set<core::JoinPair> expected;
  for (const auto& p : points.features()) {
    for (const auto& r : roads.features()) {
      if (p.geometry.envelope().distance(r.geometry.envelope()) > 300.0) continue;
      if (geom::distance_naive(p.geometry, r.geometry) <= 300.0) {
        expected.insert({p.id, r.id});
      }
    }
  }
  EXPECT_EQ(got, expected);
  EXPECT_GT(expected.size(), 0u);
}

TEST(Systems, PointInPolygonMatchesBruteForce) {
  workload::WorkloadConfig wc;
  wc.scale = 5e-5;
  const auto points = workload::generate(workload::DatasetId::kTaxi1m, wc);
  const auto blocks = workload::generate(workload::DatasetId::kNycb, wc);

  core::JoinQueryConfig query;
  query.predicate = core::JoinPredicate::kWithin;
  query.target_partitions = 64;
  core::ExecutionConfig exec;
  exec.cluster = cluster::ClusterSpec::workstation();
  exec.data_scale = 1.0 / wc.scale;
  exec.collect_pairs = true;

  const auto report = core::run_spatial_join(core::SystemKind::kSpatialSparkSim,
                                             points, blocks, query, exec);
  ASSERT_TRUE(report.status.ok());

  std::set<core::JoinPair> got(report.pairs.begin(), report.pairs.end());
  std::set<core::JoinPair> expected;
  for (const auto& b : blocks.features()) {
    for (const auto& p : points.features()) {
      if (!b.geometry.envelope().contains(p.geometry.as_point().x,
                                          p.geometry.as_point().y)) {
        continue;
      }
      if (geom::contains_naive(b.geometry, p.geometry)) expected.insert({p.id, b.id});
    }
  }
  EXPECT_EQ(got, expected);
  // Census blocks tile the extent: every point matched at least once.
  EXPECT_GE(expected.size(), points.size());
}

}  // namespace
}  // namespace sjc
