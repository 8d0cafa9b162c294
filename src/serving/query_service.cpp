#include "serving/query_service.hpp"

#include <algorithm>
#include <utility>

namespace sjc::serving {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

QueryService::QueryService(const ResidentCatalog& catalog, QueryServiceConfig config)
    : catalog_(&catalog),
      config_(config),
      epoch_(Clock::now()) {
  require(config_.workers > 0, "QueryService: workers must be > 0");
  require(config_.max_queue_depth > 0, "QueryService: max_queue_depth must be > 0");
  timeline_.slots_per_node = static_cast<std::uint32_t>(config_.workers);
  workers_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    workers_.emplace_back(
        [this, w] { worker_loop(static_cast<std::uint32_t>(w)); });
  }
}

QueryService::~QueryService() {
  drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

Submission QueryService::submit(const std::string& tenant, Query query) {
  std::unique_lock<std::mutex> lock(mutex_);
  TenantState& state = tenants_[tenant];
  if (state.stats.tenant.empty()) state.stats.tenant = tenant;
  ++state.stats.submitted;
  if (!accepting_) {
    ++state.stats.rejected;
    return {Status(StatusCode::kUnavailable, "service is draining"), {}};
  }
  if (total_queued_ >= config_.max_queue_depth) {
    ++state.stats.rejected;
    return {Status(StatusCode::kResourceExhausted,
                   "admission queue full (" + std::to_string(total_queued_) +
                       " queued)"),
            {}};
  }
  if (state.queue.size() >= config_.max_queued_per_tenant) {
    ++state.stats.rejected;
    return {Status(StatusCode::kResourceExhausted,
                   "tenant '" + tenant + "' quota full (" +
                       std::to_string(state.queue.size()) + " queued)"),
            {}};
  }

  Pending pending;
  pending.tenant = tenant;
  pending.query = std::move(query);
  pending.arrival = Clock::now();
  pending.seq = next_seq_++;
  std::future<QueryResult> future = pending.promise.get_future();
  state.queue.push_back(std::move(pending));
  if (!state.in_ring) {
    ring_.push_back(tenant);
    state.in_ring = true;
  }
  ++total_queued_;
  lock.unlock();
  work_cv_.notify_one();
  return {Status::Ok(), std::move(future)};
}

QueryService::Pending QueryService::pick_next_locked() {
  // Round robin: the tenant at the cursor dispatches its head query. A
  // tenant leaves the ring when its backlog empties and rejoins at the end
  // on its next submit, so every ring member has a queued query.
  TenantState& state = tenants_[ring_[ring_cursor_]];
  Pending task = std::move(state.queue.front());
  state.queue.pop_front();
  if (state.queue.empty()) {
    state.in_ring = false;
    ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(ring_cursor_));
    if (ring_cursor_ >= ring_.size()) ring_cursor_ = 0;
  } else {
    ring_cursor_ = (ring_cursor_ + 1) % ring_.size();
  }
  return task;
}

void QueryService::worker_loop(std::uint32_t slot) {
  for (;;) {
    Pending task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || total_queued_ > 0; });
      if (total_queued_ == 0) {
        if (stopping_) return;
        continue;
      }
      task = pick_next_locked();
      --total_queued_;
      ++in_flight_;
    }
    execute(std::move(task), slot);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (total_queued_ == 0 && in_flight_ == 0) drained_cv_.notify_all();
    }
  }
}

void QueryService::execute(Pending task, std::uint32_t slot) {
  const Clock::time_point start = Clock::now();
  QueryResult result;
  result.kind = task.query.kind;

  const std::shared_ptr<const ResidentEntry> entry = catalog_->find(task.query.entry);
  if (entry == nullptr) {
    result.status = Status(StatusCode::kInvalidArgument,
                           "unknown resident entry '" + task.query.entry + "'");
  } else {
    try {
      switch (task.query.kind) {
        case QueryKind::kSpatialJoin:
          result.report = entry->run_join(task.query.join);
          result.status = result.report.status;
          break;
        case QueryKind::kRange:
          result.ids = entry->run_range(task.query.window, task.query.left_side);
          result.status = Status::Ok();
          break;
        case QueryKind::kKnn:
          result.hits =
              entry->run_knn(task.query.window, task.query.k, task.query.left_side);
          result.status = Status::Ok();
          break;
      }
    } catch (const SjcError& e) {
      // Resident runners report simulated failures through the RunReport;
      // anything thrown here is a usage error surfaced as a Status so the
      // serving loop (and the tenant's future) always completes.
      result.status = status_from_exception(e);
    }
  }

  const Clock::time_point end = Clock::now();
  result.queue_seconds = seconds_between(task.arrival, start);
  result.service_seconds = seconds_between(start, end);
  result.latency_seconds = seconds_between(task.arrival, end);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    TenantStats& stats = tenants_[task.tenant].stats;
    if (result.status.ok()) {
      ++stats.completed;
    } else {
      ++stats.failed;
    }
    stats.queue_seconds += result.queue_seconds;
    stats.service_seconds += result.service_seconds;
    if (config_.trace) {
      trace::TaskSpan& span = timeline_.spans.emplace_back();
      span.phase = std::string(kTenantPhasePrefix) + task.tenant;
      span.task = task.seq;
      span.slot = slot;
      // The span covers arrival -> completion on the service clock, so span
      // duration == query latency and tenant_summary() summarizes exactly
      // what the bench reports.
      span.sim_start = seconds_between(epoch_, task.arrival);
      span.sim_end = seconds_between(epoch_, end);
      span.cpu_seconds = result.service_seconds;
      span.outcome =
          result.status.ok() ? trace::SpanOutcome::kOk : trace::SpanOutcome::kFailed;
    }
  }

  task.promise.set_value(std::move(result));
}

void QueryService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  accepting_ = false;
  drained_cv_.wait(lock, [this] { return total_queued_ == 0 && in_flight_ == 0; });
}

std::vector<TenantStats> QueryService::tenant_stats() const {
  std::vector<TenantStats> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(tenants_.size());
    for (const auto& [name, state] : tenants_) out.push_back(state.stats);
  }
  std::sort(out.begin(), out.end(),
            [](const TenantStats& a, const TenantStats& b) { return a.tenant < b.tenant; });
  return out;
}

trace::TaskTimeline QueryService::timeline() const {
  trace::TaskTimeline timeline;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    timeline = timeline_;
  }
  trace::sort_spans(timeline);
  return timeline;
}

std::vector<trace::TenantSkew> QueryService::tenant_footer() const {
  return trace::tenant_summary(timeline(), kTenantPhasePrefix);
}

}  // namespace sjc::serving
