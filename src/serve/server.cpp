#include "serve/server.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace sndr::serve {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

Server::Server(ServerOptions options, SharedCache* cache)
    : options_(options),
      owned_cache_(cache == nullptr ? std::make_unique<SharedCache>()
                                    : nullptr),
      cache_(cache == nullptr ? owned_cache_.get() : cache) {
  // The process pool is set exactly once, here; admitted jobs inherit it
  // (threads rewritten to -1 in submit), so no job ever rebuilds the pool
  // under another job's parallel region.
  options_.thread_budget.apply();
  const int workers = std::max(1, options_.workers);
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() { shutdown(Shutdown::kCancel); }

common::Result<int> Server::submit(flow::FlowConfig config) {
  obs::ScopeBinding binding(scope_);
  std::lock_guard<std::mutex> lock(mutex_);
  SNDR_COUNTER_ADD("serve.jobs_submitted", 1);
  if (!accepting_) {
    SNDR_COUNTER_ADD("serve.jobs_rejected", 1);
    return common::Status::InvalidArgument("server is not accepting jobs");
  }
  if (options_.memory_budget_bytes > 0) {
    if (config.memory_budget_bytes == 0) {
      SNDR_COUNTER_ADD("serve.jobs_rejected", 1);
      return common::Status::InvalidArgument(
          "job must declare memory_budget under a server memory budget");
    }
    if (config.memory_budget_bytes > options_.memory_budget_bytes) {
      SNDR_COUNTER_ADD("serve.jobs_rejected", 1);
      return common::Status::InvalidArgument(
          "job memory_budget exceeds the server budget (" +
          std::to_string(config.memory_budget_bytes) + " > " +
          std::to_string(options_.memory_budget_bytes) + " bytes)");
    }
  }
  // The server owns the process lane count; jobs inherit it.
  config.threads = -1;

  const int id = next_id_++;
  auto entry = std::make_unique<Entry>();
  entry->record.id = id;
  entry->record.design_path = config.design_path;
  entry->config = std::move(config);
  entry->submitted = std::chrono::steady_clock::now();
  jobs_.emplace(id, std::move(entry));
  queue_.push_back(id);
  SNDR_COUNTER_ADD("serve.jobs_admitted", 1);
  SNDR_GAUGE_SET("serve.queue_depth", static_cast<double>(queue_.size()));
  work_cv_.notify_one();
  return id;
}

bool Server::cancel(int id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  it->second->token.cancel();
  // A queued job blocked behind the memory gate becomes dispatchable (as
  // an immediate cancelled completion) — wake the workers.
  work_cv_.notify_all();
  return true;
}

common::Result<JobRecord> Server::wait(int id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return common::Status::InvalidArgument("unknown job id " +
                                           std::to_string(id));
  }
  const Entry* entry = it->second.get();
  done_cv_.wait(lock, [entry] { return entry->done; });
  // A done entry is immutable and never erased: copy it unlocked.
  lock.unlock();
  return entry->record;
}

bool Server::head_ready() const {
  if (queue_.empty()) return false;
  const Entry& head = *jobs_.at(queue_.front());
  if (head.token.cancelled()) return true;  // dispatch = mark cancelled.
  if (options_.memory_budget_bytes == 0) return true;
  return memory_in_use_ + head.config.memory_budget_bytes <=
         options_.memory_budget_bytes;
}

void Server::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // stop_ is only ever set once the queue is empty (shutdown waits for
    // the drain first), so "stop and empty" is the complete exit clause.
    work_cv_.wait(lock,
                  [this] { return (stop_ && queue_.empty()) || head_ready(); });
    if (stop_ && queue_.empty()) return;
    const int id = queue_.front();
    queue_.pop_front();
    Entry& entry = *jobs_.at(id);
    {
      obs::ScopeBinding binding(scope_);
      SNDR_GAUGE_SET("serve.queue_depth",
                     static_cast<double>(queue_.size()));
    }
    entry.record.queue_seconds = seconds_between(
        entry.submitted, std::chrono::steady_clock::now());

    if (entry.token.cancelled()) {
      // Never started: no session, no files, just a typed record.
      entry.record.state = JobState::kDone;
      entry.record.outcome.status =
          common::Status::Cancelled("cancelled before start");
      entry.done = true;
      obs::ScopeBinding binding(scope_);
      SNDR_COUNTER_ADD("serve.jobs_cancelled", 1);
      done_cv_.notify_all();
      work_cv_.notify_all();
      continue;
    }

    entry.record.state = JobState::kRunning;
    const std::size_t reserved = options_.memory_budget_bytes > 0
                                     ? entry.config.memory_budget_bytes
                                     : 0;
    memory_in_use_ += reserved;
    ++running_;
    flow::FlowConfig config = entry.config;  // run outside the lock.
    const common::CancelToken token = entry.token;
    lock.unlock();

    JobOutcome outcome = [&] {
      // A running job is a lane the pool's threads leave free (DESIGN §6).
      const common::BusyDriver busy;
      return execute_job(std::move(config), cache_, token);
    }();

    lock.lock();
    memory_in_use_ -= reserved;
    --running_;
    {
      // Fold the job's observations plus the server's own accounting into
      // the server-level registry.
      obs::ScopeBinding binding(scope_);
      scope_.metrics().accumulate(outcome.metrics);
      SNDR_HISTOGRAM_OBSERVE("serve.job_wall_seconds", outcome.wall_seconds);
      // Per-job cache effectiveness, as histograms on purpose: a gauge
      // here is last-writer-wins across workers, so all but one job's rate
      // vanished from the snapshot. The distribution keeps every job.
      const std::int64_t exact_hits =
          outcome.metrics.counter("ndr.exact_cache.hits");
      const std::int64_t exact_misses =
          outcome.metrics.counter("ndr.exact_cache.misses");
      if (exact_hits + exact_misses > 0) {
        SNDR_HISTOGRAM_OBSERVE(
            "serve.job_exact_cache_hit_rate",
            obs::safe_ratio(exact_hits, exact_hits + exact_misses));
      }
      const std::int64_t geo_hits =
          outcome.metrics.counter("extract.nets_materialized_from_cache");
      const std::int64_t geo_walks =
          outcome.metrics.counter("extract.nets_fresh_walks");
      if (geo_hits + geo_walks > 0) {
        SNDR_HISTOGRAM_OBSERVE("serve.job_geometry_cache_hit_rate",
                               obs::safe_ratio(geo_hits, geo_hits + geo_walks));
      }
      if (outcome.status.code() == common::StatusCode::kCancelled) {
        SNDR_COUNTER_ADD("serve.jobs_cancelled", 1);
      } else if (outcome.ok()) {
        SNDR_COUNTER_ADD("serve.jobs_completed", 1);
      } else {
        SNDR_COUNTER_ADD("serve.jobs_failed", 1);
      }
    }
    entry.record.outcome = std::move(outcome);
    entry.record.state = JobState::kDone;
    entry.done = true;
    done_cv_.notify_all();
    work_cv_.notify_all();  // memory freed: the head may fit now.
  }
}

void Server::shutdown(Shutdown mode) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    accepting_ = false;
    if (mode == Shutdown::kCancel) {
      for (auto& [id, entry] : jobs_) {
        if (!entry->done) entry->token.cancel();
      }
    }
    work_cv_.notify_all();
    // Graceful either way: wait until every queued/running job reached a
    // terminal record (drain: ran to completion; cancel: unwound or was
    // never started).
    done_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
    stop_ = true;
    work_cv_.notify_all();
  }
  if (!joined_) {
    for (std::thread& w : workers_) w.join();
    joined_ = true;
  }
}

std::vector<JobRecord> Server::drain() {
  shutdown(Shutdown::kDrain);
  // Admission is closed and every entry is done, so neither jobs_ nor any
  // record changes again (submit only inserts while accepting): copy the
  // records without holding mutex_.
  std::vector<JobRecord> records;
  records.reserve(jobs_.size());
  for (const auto& [id, entry] : jobs_) records.push_back(entry->record);
  return records;  // std::map iteration: ascending id.
}

int Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(queue_.size());
}

obs::MetricsRegistry::Snapshot Server::metrics_snapshot() {
  obs::ScopeBinding binding(scope_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SNDR_GAUGE_SET("serve.queue_depth", static_cast<double>(queue_.size()));
    SNDR_GAUGE_SET("serve.jobs_running", static_cast<double>(running_));
  }
  return scope_.metrics().snapshot();
}

}  // namespace sndr::serve
