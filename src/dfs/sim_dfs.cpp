#include "dfs/sim_dfs.hpp"

#include <algorithm>

namespace sjc::dfs {

SimDfs::SimDfs(DfsConfig config) : config_(config), rng_(config.seed) {
  require(config_.block_size > 0, "SimDfs: block_size must be positive");
  require(config_.replication >= 1, "SimDfs: replication must be >= 1");
  require(config_.datanode_count >= 1, "SimDfs: need at least one datanode");
  next_node_ = static_cast<std::uint32_t>(rng_.next_below(config_.datanode_count));
}

std::vector<std::uint32_t> SimDfs::live_nodes() const {
  std::vector<std::uint32_t> live;
  live.reserve(config_.datanode_count - dead_nodes_.size());
  for (std::uint32_t n = 0; n < config_.datanode_count; ++n) {
    if (!dead_nodes_.contains(n)) live.push_back(n);
  }
  return live;
}

std::vector<SimDfs::Block> SimDfs::place_blocks(std::uint64_t bytes) {
  const std::vector<std::uint32_t> live = live_nodes();
  if (live.empty()) {
    throw BlockUnavailable("SimDfs: cannot place blocks, no live datanodes");
  }
  std::vector<Block> blocks;
  const std::uint32_t replicas = std::min(
      config_.replication, static_cast<std::uint32_t>(live.size()));
  std::uint64_t remaining = bytes;
  do {
    Block block;
    block.size = std::min(remaining, config_.block_size);
    // HDFS default placement: first replica on the "writer" node, the rest
    // rotate across the (live part of the) cluster.
    for (std::uint32_t r = 0; r < replicas; ++r) {
      block.replica_nodes.push_back(live[(next_node_ + r) % live.size()]);
    }
    next_node_ = static_cast<std::uint32_t>((next_node_ + 1) % live.size());
    blocks.push_back(std::move(block));
    remaining -= std::min(remaining, config_.block_size);
  } while (remaining > 0);
  return blocks;
}

void SimDfs::put(const std::string& path, std::uint64_t bytes) {
  files_.insert_or_assign(path, place_blocks(bytes));
}

std::size_t SimDfs::block_count(const std::string& path) const {
  const auto it = files_.find(path);
  if (it == files_.end()) throw SjcError("SimDfs: no such file: " + path);
  return it->second.size();
}

IoCost SimDfs::write_cost(std::uint64_t bytes) const {
  const std::uint32_t live = live_datanode_count();
  require(live >= 1, "SimDfs: write_cost with no live datanodes");
  const std::uint32_t replicas = std::min(config_.replication, live);
  IoCost cost;
  cost.disk_write = bytes * replicas;
  cost.network = bytes * (replicas - 1);
  return cost;
}

IoCost SimDfs::read_cost(std::uint64_t bytes) const {
  const std::uint32_t live = live_datanode_count();
  require(live >= 1, "SimDfs: read_cost with no live datanodes");
  IoCost cost;
  cost.disk_read = bytes;
  const double coverage =
      std::min(1.0, static_cast<double>(config_.replication) /
                        static_cast<double>(live));
  // Expected remote fraction: blocks without a replica on the reading node.
  const double remote_fraction = 1.0 - coverage;
  cost.network = static_cast<std::uint64_t>(static_cast<double>(bytes) * remote_fraction);
  return cost;
}

ReplicationRepair SimDfs::fail_datanode(std::uint32_t node) {
  require(node < config_.datanode_count, "SimDfs: fail_datanode: no such node");
  ReplicationRepair repair;
  if (dead_nodes_.contains(node)) return repair;  // already dead: no-op
  dead_nodes_.insert(node);

  const std::vector<std::uint32_t> live = live_nodes();
  for (auto& [path, blocks] : files_) {
    for (Block& block : blocks) {
      const auto it =
          std::find(block.replica_nodes.begin(), block.replica_nodes.end(), node);
      if (it == block.replica_nodes.end()) continue;
      block.replica_nodes.erase(it);
      if (block.replica_nodes.empty()) {
        ++repair.blocks_lost;
        continue;
      }
      ++repair.under_replicated;
      // Namenode re-replication: copy the block from a surviving replica to
      // the first live node not already holding it (deterministic choice).
      for (const std::uint32_t candidate : live) {
        if (std::find(block.replica_nodes.begin(), block.replica_nodes.end(),
                      candidate) != block.replica_nodes.end()) {
          continue;
        }
        block.replica_nodes.push_back(candidate);
        repair.bytes_rereplicated += block.size;
        repair.cost.disk_read += block.size;
        repair.cost.disk_write += block.size;
        repair.cost.network += block.size;
        break;
      }
    }
  }
  return repair;
}

}  // namespace sjc::dfs
