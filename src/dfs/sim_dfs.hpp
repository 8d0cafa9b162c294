// SimDfs: an HDFS-like distributed file system simulator.
//
// The simulator runs in one process and no engine reads a file back, so
// SimDfs stores no payloads: each engine keeps its data in its own
// structures (SpatialHadoop's blocks live in its IndexedDataset). What
// SimDfs models is everything the paper's analysis hangs on:
//
//  * a namenode catalog (path -> the file's blocks),
//  * files split into fixed-size blocks (one map task per block),
//  * block placement with n-way replication across datanodes,
//  * the cost structure of reads/writes: a write pushes `size` bytes to a
//    local disk plus (replication-1) remote copies over the network; a
//    data-local read costs disk bandwidth only, a remote read adds network,
//  * datanode failure: fail_datanode(n) drops every replica hosted on n and
//    re-replicates under-replicated blocks onto surviving nodes (charging
//    the copy traffic, like the HDFS namenode's re-replication queue); the
//    repair counts blocks that lost *all* replicas.
//
// Engines charge those byte volumes into SimTask records; SimDfs itself
// never advances a clock.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/status.hpp"

namespace sjc::dfs {

struct DfsConfig {
  /// Block size in *scaled* bytes (the engines divide HDFS's 64 MB default
  /// by the experiment's data_scale so files keep realistic block counts).
  std::uint64_t block_size = 64 * 1024;
  std::uint32_t replication = 3;
  std::uint32_t datanode_count = 1;
  std::uint64_t seed = 42;  // block placement determinism
};

/// Byte volumes one DFS operation moves through each device class.
struct IoCost {
  std::uint64_t disk_read = 0;
  std::uint64_t disk_write = 0;
  std::uint64_t network = 0;
};

/// What restoring replication after a datanode loss did and cost.
struct ReplicationRepair {
  /// Blocks that lost *every* replica.
  std::size_t blocks_lost = 0;
  /// Blocks that lost a replica but still had survivors.
  std::size_t under_replicated = 0;
  /// Bytes actually copied to restore the replication target.
  std::uint64_t bytes_rereplicated = 0;
  /// Device traffic of the repair: each copied block is read from a
  /// surviving replica, shipped over the network, written to a new node.
  IoCost cost;
};

class SimDfs {
 public:
  explicit SimDfs(DfsConfig config);

  const DfsConfig& config() const { return config_; }

  /// Creates (or replaces) a file of `bytes` logical bytes at scaled
  /// magnitude and places its blocks.
  void put(const std::string& path, std::uint64_t bytes);

  /// Blocks of `path`; throws SjcError when the file does not exist.
  std::size_t block_count(const std::string& path) const;

  /// Cost of writing `bytes` with the configured replication: one local
  /// disk write per replica plus (replication-1) network transfers.
  IoCost write_cost(std::uint64_t bytes) const;

  /// Cost of reading `bytes`, data-local with probability equal to the
  /// replica coverage (replication/live datanodes, capped at 1); remote
  /// reads add a network hop. Deterministic expected-value model.
  IoCost read_cost(std::uint64_t bytes) const;

  // ---- datanode failure & recovery ----------------------------------------

  /// Kills datanode `node`: every replica it hosted disappears. Blocks that
  /// still have survivors are re-replicated onto live nodes (deterministic
  /// target choice, traffic charged in the returned repair); blocks whose
  /// last replica died are counted in `blocks_lost`. Idempotent: failing a
  /// dead node is a no-op repair.
  ReplicationRepair fail_datanode(std::uint32_t node);

  std::uint32_t live_datanode_count() const {
    return config_.datanode_count - static_cast<std::uint32_t>(dead_nodes_.size());
  }

 private:
  struct Block {
    std::uint64_t size = 0;
    std::vector<std::uint32_t> replica_nodes;
  };

  std::vector<Block> place_blocks(std::uint64_t bytes);
  std::vector<std::uint32_t> live_nodes() const;

  DfsConfig config_;
  std::map<std::string, std::vector<Block>> files_;
  Rng rng_;
  std::uint32_t next_node_ = 0;  // rotation index into the live-node list
  std::set<std::uint32_t> dead_nodes_;
};

}  // namespace sjc::dfs
