#include "core/experiments.hpp"

#include <cstdlib>

#include "util/status.hpp"
#include "util/strings.hpp"

namespace sjc::core {

const std::vector<ExperimentDef>& full_experiments() {
  static const std::vector<ExperimentDef> defs = {
      {"taxi-nycb", workload::DatasetId::kTaxi, workload::DatasetId::kNycb,
       JoinPredicate::kWithin},
      {"edge-linearwater", workload::DatasetId::kEdges, workload::DatasetId::kLinearwater,
       JoinPredicate::kIntersects},
  };
  return defs;
}

const std::vector<ExperimentDef>& sample_experiments() {
  static const std::vector<ExperimentDef> defs = {
      {"taxi1m-nycb", workload::DatasetId::kTaxi1m, workload::DatasetId::kNycb,
       JoinPredicate::kWithin},
      {"edge0.1-linearwater0.1", workload::DatasetId::kEdges01,
       workload::DatasetId::kLinearwater01, JoinPredicate::kIntersects},
  };
  return defs;
}

std::vector<cluster::ClusterSpec> paper_cluster_configs() {
  return {cluster::ClusterSpec::workstation(), cluster::ClusterSpec::ec2(10),
          cluster::ClusterSpec::ec2(8), cluster::ClusterSpec::ec2(6)};
}

double bench_scale(double fallback) {
  const char* env = std::getenv("SJC_SCALE");
  if (env == nullptr) return fallback;
  double v = 0.0;  // a malformed value stays 0 and is rejected below
  try {
    v = parse_double(env);
  } catch (const ParseError&) {
  }
  if (!(v > 0.0 && v <= 1.0)) {
    throw InvalidArgument(std::string("SJC_SCALE='") + env +
                          "' is not a number in (0, 1]");
  }
  return v;
}

}  // namespace sjc::core
