// Per-task cost accounting.
//
// A SimTask records what one distributed task *did*: measured CPU seconds
// (real work on scaled data) and bytes moved through each device class. Its
// simulated duration charges those quantities — scaled back to paper
// magnitude by `data_scale` — against the per-slot bandwidth of the cluster
// the task ran on.
#pragma once

#include <cstdint>

#include "cluster/cluster_spec.hpp"

namespace sjc::cluster {

struct SimTask {
  double cpu_seconds = 0.0;         // measured on scaled data
  std::uint64_t disk_read = 0;      // bytes at scaled magnitude
  std::uint64_t disk_write = 0;     // bytes at scaled magnitude
  std::uint64_t network = 0;        // bytes at scaled magnitude
  double fixed_overhead = 0.0;      // per-task latency (JVM spin-up etc.), paper units

  /// Simulated duration in paper-unit seconds.
  double duration(const ClusterSpec& cluster, double data_scale) const {
    double seconds = fixed_overhead;
    seconds += cpu_seconds * data_scale / cluster.node.cpu_speed;
    if (disk_read > 0) {
      seconds += static_cast<double>(disk_read) * data_scale /
                 cluster.per_slot_disk_read_bw();
    }
    if (disk_write > 0) {
      seconds += static_cast<double>(disk_write) * data_scale /
                 cluster.per_slot_disk_write_bw();
    }
    if (network > 0) {
      seconds += static_cast<double>(network) * data_scale /
                 cluster.per_slot_network_bw();
    }
    return seconds;
  }
};

}  // namespace sjc::cluster
