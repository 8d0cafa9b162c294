// Simulated cluster hardware descriptions.
//
// The paper evaluates on (a) a dual-8-core 128 GB workstation run as a
// single-node cluster and (b) Amazon EC2 clusters of 6/8/10 g2.2xlarge
// nodes (8 vCPU, 15 GB each). ClusterSpec captures the capacities that
// drive the observed behaviour: core counts (parallel slots), memory (the
// OOM and broken-pipe gates), per-node disk bandwidth (single-node I/O
// bottleneck on the workstation) and network bandwidth (shuffle cost on
// EC2).
//
// All values are in *paper units* (real bytes, real bytes/sec). Experiments
// run on data scaled down by `data_scale`; the engines multiply measured
// bytes and CPU seconds back up by that factor before charging them against
// these capacities, so simulated seconds are magnitude-comparable with the
// paper's tables (see DESIGN.md §1).
#pragma once

#include <cstdint>
#include <string>

namespace sjc::cluster {

struct NodeSpec {
  std::uint32_t cores = 1;
  std::uint64_t memory_bytes = 0;
  double disk_read_bw = 0.0;   // bytes/sec, per node
  double disk_write_bw = 0.0;  // bytes/sec, per node
  double network_bw = 0.0;     // bytes/sec, per node
  double cpu_speed = 1.0;      // relative to a workstation core
};

struct ClusterSpec {
  std::string name;
  NodeSpec node;
  std::uint32_t node_count = 1;

  std::uint32_t total_slots() const { return node.cores * node_count; }
  std::uint64_t aggregate_memory() const { return node.memory_bytes * node_count; }

  /// Bandwidth available to one busy slot when every slot on the node is
  /// busy (the saturated steady state of a map/reduce wave).
  double per_slot_disk_read_bw() const { return node.disk_read_bw / node.cores; }
  double per_slot_disk_write_bw() const { return node.disk_write_bw / node.cores; }
  double per_slot_network_bw() const { return node.network_bw / node.cores; }

  /// Fraction of shuffled bytes that cross the network (a reducer co-hosted
  /// with a mapper reads locally): (nodes-1)/nodes.
  double remote_fraction() const {
    return node_count <= 1 ? 0.0
                           : static_cast<double>(node_count - 1) /
                                 static_cast<double>(node_count);
  }

  /// The workstation configuration (WS): 16 cores, 128 GB, one local disk,
  /// loopback "network".
  static ClusterSpec workstation();

  /// EC2-n configuration: n g2.2xlarge nodes (8 vCPU, 15 GB, instance-store
  /// disk, ~1 Gbps network).
  static ClusterSpec ec2(std::uint32_t nodes);
};

}  // namespace sjc::cluster
