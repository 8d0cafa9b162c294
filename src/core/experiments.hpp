// Registry of the paper's experiments (workload x predicate pairs), shared
// by the benchmark binaries and EXPERIMENTS.md.
//
// Table 2 (full datasets):   taxi x nycb (point-in-polygon / within),
//                            edges x linearwater (polyline intersection).
// Table 3 (sample datasets): taxi1m x nycb, edges0.1 x linearwater0.1.
#pragma once

#include <string>
#include <vector>

#include "core/spatial_join.hpp"
#include "workload/generators.hpp"

namespace sjc::core {

struct ExperimentDef {
  std::string id;  // the paper's row label, e.g. "taxi-nycb"
  workload::DatasetId left;
  workload::DatasetId right;
  JoinPredicate predicate;
};

/// The two full-dataset experiments of Table 2, in paper order.
const std::vector<ExperimentDef>& full_experiments();

/// The two sample-dataset experiments of Table 3, in paper order.
const std::vector<ExperimentDef>& sample_experiments();

/// The four cluster configurations of Table 2, in paper order
/// (WS, EC2-10, EC2-8, EC2-6).
std::vector<cluster::ClusterSpec> paper_cluster_configs();

/// Reads the bench-wide workload scale: SJC_SCALE env var (fraction of the
/// paper's record counts), or `fallback` when the variable is unset. Throws
/// InvalidArgument, naming the value, when it is set to anything but a
/// number in (0, 1].
double bench_scale(double fallback = 1e-3);

}  // namespace sjc::core
