// ResidentCatalog: cross-query resident state for the serving layer.
//
// The paper's experiments are batch runs: every query pays the full
// preprocess / global-join / local-join pipeline. A query-serving
// deployment of the same systems amortizes the preprocessing instead — the
// partition directories, the indexed block files, the occupancy bitmaps
// and the prepared-geometry handles survive between queries. The catalog
// holds exactly that: one ResidentEntry per (system, dataset pair).
//
// Each entry owns:
//  * one core::ResidentJoin, built by the system's resident builder
//    (hadoop_gis_resident, spatial_hadoop_resident, spatial_spark_resident)
//    from one cold end-to-end run whose preprocessing products it captures,
//    so every resident query is bit-identical to the cold batch path
//    (test-enforced by tests/test_serving.cpp). Only SpatialHadoop's state
//    copies the datasets, because its partition blocks index into them;
//    the entry itself keeps no dataset;
//  * STR trees over both datasets' envelopes, answering range and k-NN
//    queries without touching the join machinery;
//  * a shared thread-safe geom::PreparedCache, passed into every resident
//    join so prepared-geometry handles built by one query are reused by
//    the next (cross-query reuse — the serving win LocationSpark
//    demonstrates within a query). The cache is per-entry, not global:
//    cache keys are feature ids, which collide across datasets.
//
// Entries are immutable after install (the PreparedCache is internally
// synchronized), so any number of queries — across tenants and worker
// threads — can run against one entry concurrently.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/spatial_join.hpp"
#include "geom/prepared_cache.hpp"
#include "index/nearest.hpp"
#include "index/str_tree.hpp"
#include "systems/hadoopgis/hadoop_gis.hpp"
#include "systems/spatialhadoop/spatial_hadoop.hpp"
#include "systems/spatialspark/spatial_spark.hpp"

namespace sjc::serving {

struct ResidentEntryConfig {
  core::SystemKind system = core::SystemKind::kSpatialHadoopSim;
  /// The query the resident state is built for. Joins answered from the
  /// entry must use the same envelope expansion (same predicate family) —
  /// the resident runners reject a mismatch with kInvalidArgument.
  core::JoinQueryConfig build_query;
  /// Cluster geometry and scale for the build run and every query against
  /// this entry. Fixed per entry: the resident partition directories are a
  /// function of the cluster's slot count.
  core::ExecutionConfig exec;
  systems::HadoopGisConfig hadoop_gis;
  systems::SpatialHadoopConfig spatial_hadoop;
  systems::SpatialSparkConfig spatial_spark;
};

class ResidentEntry {
 public:
  const std::string& name() const { return name_; }
  core::SystemKind system() const { return config_.system; }
  const ResidentEntryConfig& config() const { return config_; }

  /// The full RunReport of the cold batch run that built this entry.
  const core::RunReport& build_report() const { return join_.build_report; }

  /// The entry's shared cross-query refiner cache (thread-safe). Exposed so
  /// harnesses can assert hit rates; queries use it implicitly.
  geom::PreparedCache& prepared_cache() const { return prepared_cache_; }

  /// Answers one spatial-join query from resident state on the entry's
  /// system. Thread-safe; bit-identical pairs and counters vs the cold batch
  /// path. Simulated failures come back as a failed RunReport, never an
  /// exception.
  core::RunReport run_join(const core::JoinQueryConfig& query) const {
    return join_.run(query, &prepared_cache_);
  }

  /// MBR range query over one side's envelopes (the filter-step semantics
  /// every system's global join uses): record indexes, ascending.
  std::vector<std::uint32_t> run_range(const geom::Envelope& window,
                                       bool left_side) const;

  /// k nearest records of one side by envelope distance (ascending,
  /// ties by record index) — the Hjaltason–Samet traversal over the
  /// entry's STR tree.
  std::vector<index::NearestHit> run_knn(const geom::Envelope& query, std::size_t k,
                                         bool left_side) const;

 private:
  friend class ResidentCatalog;
  ResidentEntry() = default;

  std::string name_;
  ResidentEntryConfig config_;
  core::ResidentJoin join_;
  std::unique_ptr<index::StrTree> left_tree_;
  std::unique_ptr<index::StrTree> right_tree_;
  // Thread-safe; mutable because cache population is not logical mutation
  // of the (immutable) entry.
  mutable geom::PreparedCache prepared_cache_;
};

class ResidentCatalog {
 public:
  ResidentCatalog() = default;
  ResidentCatalog(const ResidentCatalog&) = delete;
  ResidentCatalog& operator=(const ResidentCatalog&) = delete;

  /// Builds resident state for (left, right) on config.system — one cold
  /// end-to-end run via the system's resident builder — plus the STR trees,
  /// and installs the entry under `name` (replacing any previous entry with
  /// that name; in-flight queries against the old entry finish safely on
  /// their shared_ptr). The entry does not refer to `left` or `right` once
  /// install returns. Throws SjcError when the build run fails; the catalog
  /// is then unchanged.
  std::shared_ptr<const ResidentEntry> install(const std::string& name,
                                               const workload::Dataset& left,
                                               const workload::Dataset& right,
                                               ResidentEntryConfig config);

  /// nullptr when `name` is not installed.
  std::shared_ptr<const ResidentEntry> find(const std::string& name) const;

  /// Invalidation: drops the entry. Queries holding the shared_ptr finish
  /// against the dropped state. Returns false when absent.
  bool erase(const std::string& name);

  std::size_t size() const;
  std::vector<std::string> names() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const ResidentEntry>> entries_;
};

}  // namespace sjc::serving
