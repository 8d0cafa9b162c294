// End-to-end smoke test: the three simulated systems agree on the join
// result for both paper workloads at a tiny scale.
#include <gtest/gtest.h>

#include "core/experiments.hpp"
#include "core/spatial_join.hpp"
#include "workload/generators.hpp"

namespace sjc {
namespace {

class SmokeTest : public ::testing::TestWithParam<core::ExperimentDef> {};

TEST_P(SmokeTest, SystemsAgreeOnResult) {
  const core::ExperimentDef& def = GetParam();
  workload::WorkloadConfig wc;
  wc.scale = 1e-4;  // small but non-trivial
  const workload::Dataset left = workload::generate(def.left, wc);
  const workload::Dataset right = workload::generate(def.right, wc);

  core::JoinQueryConfig query;
  query.predicate = def.predicate;
  query.sample_rate = 0.2;

  core::ExecutionConfig exec;
  exec.cluster = cluster::ClusterSpec::workstation();
  exec.data_scale = 1.0 / wc.scale;
  exec.collect_pairs = true;

  const auto sh = core::run_spatial_join(core::SystemKind::kSpatialHadoopSim, left,
                                         right, query, exec);
  ASSERT_TRUE(sh.status.ok()) << sh.status.to_string();
  EXPECT_GT(sh.result_count, 0u);

  const auto ss = core::run_spatial_join(core::SystemKind::kSpatialSparkSim, left,
                                         right, query, exec);
  ASSERT_TRUE(ss.status.ok()) << ss.status.to_string();
  EXPECT_EQ(ss.result_count, sh.result_count);
  EXPECT_EQ(ss.result_hash, sh.result_hash);

  const auto hg = core::run_spatial_join(core::SystemKind::kHadoopGisSim, left, right,
                                         query, exec);
  ASSERT_TRUE(hg.status.ok()) << hg.status.to_string();
  EXPECT_EQ(hg.result_count, sh.result_count);
  EXPECT_EQ(hg.result_hash, sh.result_hash);
}

// The *sample* experiments are the ones every system completes on the
// workstation configuration (Table 3); the full ones intentionally break
// HadoopGIS's pipes.
INSTANTIATE_TEST_SUITE_P(PaperExperiments, SmokeTest,
                         ::testing::Values(core::sample_experiments()[0],
                                           core::sample_experiments()[1]),
                         [](const auto& info) {
                           std::string name = info.param.id;
                           for (auto& c : name) {
                             if (c == '-' || c == '.') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace sjc
