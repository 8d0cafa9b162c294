// QueryService: a long-running multi-tenant query-serving loop over a
// ResidentCatalog.
//
// The paper measures one query at a time; a serving deployment faces an
// open-loop stream of queries from many tenants against the same resident
// datasets. This service models that front door:
//
//  * Admission control — a bounded global queue plus a per-tenant quota.
//    Overload is rejected synchronously with a structured Status
//    (kResourceExhausted), and a draining/stopped service rejects with
//    kUnavailable; nothing blocks the submitting tenant.
//
//  * Per-tenant fair scheduling — deficit round-robin over the service's
//    worker slots. Each tenant carries a deficit counter; a visit adds the
//    quantum and dispatches while the deficit covers the head query's
//    nominal cost (joins cost more than range/k-NN lookups), so a tenant
//    flooding cheap queries cannot starve one running occasional joins,
//    and vice versa. Costs are nominal units, not measured seconds — the
//    scheduler must price a query before running it.
//
//  * Execution — worker threads answer queries through the catalog entry's
//    resident runners, which reuse the captured partition directories,
//    bitmaps, STR trees and the entry's shared PreparedCache; the heavy
//    join path schedules its simulated tasks through cluster::Scheduler
//    exactly like a batch run.
//
//  * Observability — one trace::TaskSpan per completed query, phase
//    "tenant/<name>", on the service's real-time clock: the queue wait is
//    the span's start offset and the service time its duration, so
//    trace::tenant_summary renders the per-tenant skew footer directly
//    from the timeline. Per-tenant counters (submitted / rejected /
//    completed / failed, queue and service seconds) are kept service-side.
//
// Every accepted query's future is eventually satisfied — on execution, on
// failure (the Status travels in the result), and on service shutdown (the
// destructor drains the queue before joining workers).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serving/resident_catalog.hpp"
#include "trace/trace.hpp"

namespace sjc::serving {

/// Span-phase prefix for per-query trace spans: "tenant/<tenant name>".
inline constexpr const char* kTenantPhasePrefix = "tenant/";

enum class QueryKind : std::uint8_t {
  kSpatialJoin = 0,  // full distributed join from resident state
  kRange = 1,        // MBR range lookup on one side's STR tree
  kKnn = 2,          // k nearest envelopes on one side's STR tree
};

const char* query_kind_name(QueryKind kind);

struct Query {
  QueryKind kind = QueryKind::kSpatialJoin;
  /// Catalog entry the query targets.
  std::string entry;
  /// kSpatialJoin: the join to answer (must match the entry's build
  /// expansion; the resident runner rejects mismatches).
  core::JoinQueryConfig join;
  /// kRange: the query window. kKnn: the query envelope (a point for the
  /// paper's taxi-to-road example).
  geom::Envelope window;
  /// kKnn only.
  std::size_t k = 1;
  /// Range/k-NN side selector: false = right dataset (the indexed side).
  bool left_side = false;
};

struct QueryResult {
  Status status;
  QueryKind kind = QueryKind::kSpatialJoin;
  /// kSpatialJoin: the full run report (status mirrors report.status).
  core::RunReport report;
  /// kRange: matching record indexes, ascending.
  std::vector<std::uint32_t> ids;
  /// kKnn: hits in ascending envelope-distance order.
  std::vector<index::NearestHit> hits;
  /// Real-time accounting, seconds: admission -> dispatch, dispatch ->
  /// completion, and their sum.
  double queue_seconds = 0.0;
  double service_seconds = 0.0;
  double latency_seconds = 0.0;
};

struct QueryServiceConfig {
  /// Worker slots answering queries (the serving analog of cluster slots).
  std::size_t workers = 4;
  /// Global bound on queued (not yet dispatched) queries; admission beyond
  /// it is rejected with kResourceExhausted.
  std::size_t max_queue_depth = 64;
  /// Per-tenant bound on queued queries (a tenant quota inside the global
  /// bound), same rejection.
  std::size_t max_queued_per_tenant = 16;
  /// DRR deficit added per scheduling visit. Keep >= the largest cost so
  /// every backlogged tenant dispatches at least one query per round.
  std::uint32_t quantum = 16;
  /// Nominal DRR costs per query kind.
  std::uint32_t join_cost = 16;
  std::uint32_t range_cost = 1;
  std::uint32_t knn_cost = 2;
  /// Record per-query trace spans (timeline(), tenant footer).
  bool trace = true;
};

/// Service-side per-tenant counters (monotone; snapshot via tenant_stats).
struct TenantStats {
  std::string tenant;
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;   // admission rejections (quota/queue/draining)
  std::uint64_t completed = 0;  // executed, status OK
  std::uint64_t failed = 0;     // executed, non-OK status
  double queue_seconds = 0.0;
  double service_seconds = 0.0;
};

/// submit() outcome: `status` is the admission decision. The future is
/// valid only when status.ok() — a rejected query never enters the queue.
struct Submission {
  Status status;
  std::future<QueryResult> result;
};

class QueryService {
 public:
  explicit QueryService(const ResidentCatalog& catalog, QueryServiceConfig config = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admission control + enqueue. Never blocks: returns kResourceExhausted
  /// (global queue full or tenant quota hit) or kUnavailable (draining /
  /// shut down) instead of waiting.
  Submission submit(const std::string& tenant, Query query);

  /// Stops admitting, waits until every queued and in-flight query has
  /// completed. Idempotent; the destructor calls it.
  void drain();

  /// Queries queued but not yet dispatched.
  std::size_t queue_depth() const;

  /// Per-tenant counters, sorted by tenant name.
  std::vector<TenantStats> tenant_stats() const;

  /// Merged per-query trace timeline (empty when config.trace is false).
  /// Call after drain() for a complete picture.
  trace::TaskTimeline timeline() const;

  /// Per-tenant skew footer over the current timeline.
  std::vector<trace::TenantSkew> tenant_footer() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    std::string tenant;
    Query query;
    std::promise<QueryResult> promise;
    Clock::time_point arrival;
    std::uint64_t seq = 0;
    std::uint32_t cost = 1;
  };

  struct TenantState {
    std::deque<Pending> queue;
    std::uint32_t deficit = 0;
    bool in_ring = false;
    TenantStats stats;
  };

  std::uint32_t cost_of(QueryKind kind) const;
  /// DRR pick. Caller holds mutex_ and guarantees total_queued_ > 0.
  Pending pick_next_locked();
  void worker_loop(std::uint32_t slot);
  void execute(Pending task, std::uint32_t slot);

  const ResidentCatalog* catalog_;
  const QueryServiceConfig config_;
  trace::TraceCollector collector_;
  const Clock::time_point epoch_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable drained_cv_;
  std::unordered_map<std::string, TenantState> tenants_;
  std::vector<std::string> ring_;  // active (backlogged) tenants, DRR order
  std::size_t ring_cursor_ = 0;
  std::size_t total_queued_ = 0;
  std::size_t in_flight_ = 0;
  std::uint64_t next_seq_ = 0;
  bool accepting_ = true;
  bool stopping_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace sjc::serving
