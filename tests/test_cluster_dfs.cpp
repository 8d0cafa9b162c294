// Tests for the cluster model (specs, task durations, scheduling) and the
// simulated DFS (catalog, blocks, replication, cost structure).
#include <gtest/gtest.h>

#include "cluster/cluster_spec.hpp"
#include "cluster/counters.hpp"
#include "cluster/fault_injector.hpp"
#include "cluster/scheduler.hpp"
#include "cluster/sim_task.hpp"
#include "dfs/sim_dfs.hpp"
#include "cluster/metrics.hpp"
#include "util/status.hpp"

namespace sjc {
namespace {

// ---------------------------------------------------------------------------
// cluster specs
// ---------------------------------------------------------------------------

TEST(ClusterSpec, WorkstationShape) {
  const auto ws = cluster::ClusterSpec::workstation();
  EXPECT_EQ(ws.name, "WS");
  EXPECT_EQ(ws.node_count, 1u);
  EXPECT_EQ(ws.total_slots(), 16u);
  EXPECT_EQ(ws.aggregate_memory(), 128ULL * 1024 * 1024 * 1024);
}

TEST(ClusterSpec, Ec2Shape) {
  const auto ec2 = cluster::ClusterSpec::ec2(10);
  EXPECT_EQ(ec2.name, "EC2-10");
  EXPECT_EQ(ec2.total_slots(), 80u);
  EXPECT_EQ(ec2.aggregate_memory(), 150ULL * 1024 * 1024 * 1024);
}

TEST(ClusterSpec, PaperMemoryOrdering) {
  // The OOM analysis depends on: EC2-6 < EC2-8 < WS < EC2-10 aggregate.
  const auto ws = cluster::ClusterSpec::workstation().aggregate_memory();
  EXPECT_LT(cluster::ClusterSpec::ec2(6).aggregate_memory(),
            cluster::ClusterSpec::ec2(8).aggregate_memory());
  EXPECT_LT(cluster::ClusterSpec::ec2(8).aggregate_memory(), ws);
  EXPECT_LT(ws, cluster::ClusterSpec::ec2(10).aggregate_memory());
}

TEST(ClusterSpec, PerSlotBandwidthDividesByCore) {
  const auto ws = cluster::ClusterSpec::workstation();
  EXPECT_DOUBLE_EQ(ws.per_slot_disk_read_bw() * ws.node.cores, ws.node.disk_read_bw);
}

TEST(ClusterSpec, RemoteFraction) {
  EXPECT_DOUBLE_EQ(cluster::ClusterSpec::workstation().remote_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(cluster::ClusterSpec::ec2(10).remote_fraction(), 0.9);
}

// ---------------------------------------------------------------------------
// sim task durations
// ---------------------------------------------------------------------------

TEST(SimTask, CpuOnlyScalesWithDataScaleAndSpeed) {
  cluster::SimTask t;
  t.cpu_seconds = 0.001;
  auto spec = cluster::ClusterSpec::workstation();
  EXPECT_DOUBLE_EQ(t.duration(spec, 1000.0), 1.0);
  spec.node.cpu_speed = 0.5;
  EXPECT_DOUBLE_EQ(t.duration(spec, 1000.0), 2.0);
}

TEST(SimTask, IoChargesPerSlotBandwidth) {
  cluster::SimTask t;
  t.disk_read = 1024;  // scaled bytes
  const auto spec = cluster::ClusterSpec::workstation();
  const double expected = 1024.0 * 1000.0 / spec.per_slot_disk_read_bw();
  EXPECT_DOUBLE_EQ(t.duration(spec, 1000.0), expected);
}

TEST(SimTask, FixedOverheadIsUnscaled) {
  cluster::SimTask t;
  t.fixed_overhead = 2.5;
  EXPECT_DOUBLE_EQ(t.duration(cluster::ClusterSpec::workstation(), 12345.0), 2.5);
}

// ---------------------------------------------------------------------------
// scheduler
// ---------------------------------------------------------------------------

/// The plain FIFO makespan: the scheduler under a fault-free plan.
double fifo_makespan(const std::vector<double>& durations, std::uint32_t slots) {
  static const cluster::FaultInjector fault_free{cluster::FaultPlan{}};
  return cluster::list_schedule_makespan(durations, slots, fault_free, 0).makespan;
}

TEST(Scheduler, EmptyIsZero) {
  EXPECT_EQ(fifo_makespan({}, 4), 0.0);
}

TEST(Scheduler, SingleSlotSums) {
  EXPECT_DOUBLE_EQ(fifo_makespan({1, 2, 3}, 1), 6.0);
}

TEST(Scheduler, PerfectlyParallel) {
  EXPECT_DOUBLE_EQ(fifo_makespan({2, 2, 2, 2}, 4), 2.0);
}

TEST(Scheduler, FifoOrderMatters) {
  // FIFO: [4, 1, 1, 1, 1] on 2 slots -> slot A runs 4, slot B runs the
  // four 1s -> makespan 4. [1, 1, 1, 1, 4]: A gets t0(1), t2(1), t4(4) = 6
  // while B runs t1 + t3 = 2.
  EXPECT_DOUBLE_EQ(fifo_makespan({4, 1, 1, 1, 1}, 2), 4.0);
  EXPECT_DOUBLE_EQ(fifo_makespan({1, 1, 1, 1, 4}, 2), 6.0);
}

TEST(Scheduler, MakespanLowerBoundedByMaxAndMean) {
  const std::vector<double> tasks = {3, 1, 4, 1, 5, 9, 2, 6};
  const double makespan = fifo_makespan(tasks, 3);
  EXPECT_GE(makespan, 9.0);                 // longest task
  EXPECT_GE(makespan, (3 + 1 + 4 + 1 + 5 + 9 + 2 + 6) / 3.0);  // total / slots
}

TEST(Scheduler, RejectsZeroSlots) {
  EXPECT_THROW(fifo_makespan({1.0}, 0), InvalidArgument);
}

// ---------------------------------------------------------------------------
// SimDfs
// ---------------------------------------------------------------------------

dfs::DfsConfig small_dfs() {
  return dfs::DfsConfig{.block_size = 100, .replication = 3, .datanode_count = 5,
                        .seed = 1};
}

TEST(SimDfs, MissingFileThrows) {
  dfs::SimDfs fs(small_dfs());
  EXPECT_THROW(fs.block_count("nope"), SjcError);
}

TEST(SimDfs, BlockCountCeils) {
  dfs::SimDfs fs(small_dfs());
  fs.put("exact", 300);
  fs.put("ragged", 301);
  fs.put("tiny", 1);
  fs.put("empty", 0);
  EXPECT_EQ(fs.block_count("exact"), 3u);
  EXPECT_EQ(fs.block_count("ragged"), 4u);
  EXPECT_EQ(fs.block_count("tiny"), 1u);
  EXPECT_EQ(fs.block_count("empty"), 1u);  // empty file still has one block
}

// Two datanodes hold two replicas of the block, not three: the first loss
// leaves a survivor (and no spare node to copy it to), the second loses it.
TEST(SimDfs, ReplicationCappedByNodes) {
  dfs::SimDfs fs(dfs::DfsConfig{.block_size = 100, .replication = 3,
                                .datanode_count = 2, .seed = 1});
  fs.put("f", 100);
  const auto first = fs.fail_datanode(0);
  EXPECT_EQ(first.under_replicated, 1u);
  EXPECT_EQ(first.blocks_lost, 0u);
  EXPECT_EQ(first.bytes_rereplicated, 0u);
  EXPECT_EQ(fs.fail_datanode(1).blocks_lost, 1u);
}

// Three replicas on three datanodes: distinct placement puts every block on
// every node, so each of the first two losses under-replicates all five
// blocks and the third loses them all.
TEST(SimDfs, ReplicasOnDistinctNodes) {
  dfs::SimDfs fs(dfs::DfsConfig{.block_size = 100, .replication = 3,
                                .datanode_count = 3, .seed = 1});
  fs.put("f", 500);
  for (const std::uint32_t node : {0u, 1u}) {
    const auto repair = fs.fail_datanode(node);
    EXPECT_EQ(repair.under_replicated, 5u) << "node " << node;
    EXPECT_EQ(repair.blocks_lost, 0u) << "node " << node;
  }
  EXPECT_EQ(fs.fail_datanode(2).blocks_lost, 5u);
}

// A put on an existing path replaces its blocks: losing the only datanode
// loses the new version's one block, not the old version's three.
TEST(SimDfs, OverwriteReplacesBlocks) {
  dfs::SimDfs fs(dfs::DfsConfig{.block_size = 100, .replication = 1,
                                .datanode_count = 1, .seed = 1});
  fs.put("f", 300);
  fs.put("f", 50);
  EXPECT_EQ(fs.block_count("f"), 1u);
  EXPECT_EQ(fs.fail_datanode(0).blocks_lost, 1u);
}

TEST(SimDfs, WriteCostChargesReplication) {
  dfs::SimDfs fs(small_dfs());
  const auto cost = fs.write_cost(1000);
  EXPECT_EQ(cost.disk_write, 3000u);  // 3 replicas
  EXPECT_EQ(cost.network, 2000u);     // 2 remote copies
}

TEST(SimDfs, ReadCostLocalityModel) {
  dfs::SimDfs fs(small_dfs());  // replication 3 of 5 nodes -> 60% local
  const auto cost = fs.read_cost(1000);
  EXPECT_EQ(cost.disk_read, 1000u);
  EXPECT_EQ(cost.network, 400u);  // 40% remote
}

TEST(SimDfs, SingleNodeReadsAreLocal) {
  dfs::SimDfs fs(dfs::DfsConfig{.block_size = 100, .replication = 3,
                                .datanode_count = 1, .seed = 1});
  EXPECT_EQ(fs.read_cost(1000).network, 0u);
  EXPECT_EQ(fs.write_cost(1000).network, 0u);
}

TEST(SimDfs, RejectsBadConfig) {
  EXPECT_THROW(dfs::SimDfs(dfs::DfsConfig{.block_size = 0, .replication = 1,
                                          .datanode_count = 1, .seed = 1}),
               InvalidArgument);
  EXPECT_THROW(dfs::SimDfs(dfs::DfsConfig{.block_size = 1, .replication = 0,
                                          .datanode_count = 1, .seed = 1}),
               InvalidArgument);
}

}  // namespace
}  // namespace sjc

namespace sjc {
namespace {

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

TEST(Counters, AddAndGet) {
  cluster::Counters counters;
  EXPECT_EQ(counters.get("x"), 0u);
  counters.add("x", 3);
  counters.add("x", 4);
  counters.add("y", 1);
  EXPECT_EQ(counters.get("x"), 7u);
  EXPECT_EQ(counters.snapshot().size(), 2u);
}

TEST(Counters, MergeAccumulates) {
  cluster::Counters a;
  cluster::Counters b;
  a.add("shared", 1);
  b.add("shared", 2);
  b.add("only_b", 5);
  a.merge(b);
  EXPECT_EQ(a.get("shared"), 3u);
  EXPECT_EQ(a.get("only_b"), 5u);
  EXPECT_EQ(b.get("shared"), 2u);  // source unchanged
}

TEST(Counters, CopyTransfersValues) {
  cluster::Counters a;
  a.add("k", 9);
  const cluster::Counters b = a;
  EXPECT_EQ(b.get("k"), 9u);
}

TEST(RunMetricsExtra, SecondsWithPrefixAndSummary) {
  cluster::RunMetrics a;
  a.add_phase({.name = "A/map", .sim_seconds = 2.0});
  a.add_phase({.name = "A/reduce", .sim_seconds = 3.0});
  a.add_phase({.name = "join/local", .sim_seconds = 5.0});
  EXPECT_DOUBLE_EQ(a.seconds_with_prefix("A/"), 5.0);
  EXPECT_DOUBLE_EQ(a.seconds_with_prefix("join/"), 5.0);
  EXPECT_DOUBLE_EQ(a.seconds_with_prefix("nope"), 0.0);
  a.add_phase({.name = "B/map", .sim_seconds = 1.0});
  EXPECT_DOUBLE_EQ(a.total_seconds(), 11.0);
  EXPECT_NE(a.to_string().find("B/map"), std::string::npos);
  EXPECT_NE(a.to_string().find("TOTAL"), std::string::npos);
}

}  // namespace
}  // namespace sjc
