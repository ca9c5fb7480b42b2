// Server: a persistent, multi-tenant job queue over the Session/Flow core.
//
// Jobs are FlowConfigs. submit() applies admission control and enqueues;
// a fixed pool of worker threads pops jobs FIFO and runs each through
// serve::execute_job with the shared cache (technology parsed once per
// distinct file, predictors trained once per distinct input triple) and a
// per-job CancelToken. Everything a job observes lands in its private
// ObsScope; on completion the server folds that snapshot into its own
// server-level registry, so one manifest answers "what has this server
// done" (admit/reject/cancel counters, queue depth, per-job wall-time
// histogram, plus the summed core metrics of every job).
//
// Admission control (DESIGN.md §12):
//   * Memory. With a server memory budget set, every job must declare its
//     own memory_budget (> 0, <= the server's) or be rejected outright
//     (kInvalidArgument) — an undeclared job is unbounded and
//     unschedulable. Dispatch blocks rather than oversubscribes: the head
//     job waits until the sum of running declarations plus its own fits
//     the server budget (head-of-line order keeps dispatch FIFO and
//     starvation-free).
//   * Threads. The evaluation pool is process-global, so the server owns
//     it: the lane count is applied once at construction (from
//     ServerOptions::thread_budget) and every admitted job's `threads` is
//     rewritten to -1 (inherit). Results are bit-identical at any lane
//     count, so this changes scheduling, never output.
//
// Shutdown: drain() stops admission and lets queued jobs finish;
// shutdown(kCancel) additionally fires every remaining token — running
// jobs unwind with kCancelled at their next cancellation point, queued
// jobs never start. Either way the workers are joined before return.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "obs/scope.hpp"
#include "serve/shared_cache.hpp"
#include "serve/submit.hpp"

namespace sndr::serve {

struct ServerOptions {
  /// Worker threads (>= 1). Each runs one job at a time; jobs themselves
  /// may parallelize through the process-global pool. A running job
  /// counts as a busy lane (common::BusyDriver), so the pool lends its
  /// threads to jobs only while running jobs leave lanes idle: while at
  /// least `lanes` jobs run, each runs its regions on its own worker.
  int workers = 1;
  /// Server-wide memory budget for admission control; 0 = unlimited (jobs
  /// need not declare).
  std::size_t memory_budget_bytes = 0;
  /// Process-global lane count, applied once at construction.
  /// Default (-1) inherits whatever the process already resolved.
  common::ThreadBudget thread_budget{-1};
};

enum class JobState { kQueued, kRunning, kDone };

struct JobRecord {
  int id = 0;
  std::string design_path;
  JobState state = JobState::kQueued;
  double queue_seconds = 0.0;  ///< submit -> dispatch.
  JobOutcome outcome;          ///< meaningful when state == kDone.
};

class Server {
 public:
  enum class Shutdown { kDrain, kCancel };

  /// `cache` may be shared across servers; null = the server owns one.
  explicit Server(ServerOptions options, SharedCache* cache = nullptr);
  ~Server();  ///< shutdown(kCancel) if still running.
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admission control + enqueue. Returns the job id, or kInvalidArgument
  /// when the job is rejected (no/oversized memory declaration under a
  /// server budget, or the server is no longer accepting).
  common::Result<int> submit(flow::FlowConfig config);

  /// Fires the job's cancel token (queued: never starts; running: unwinds
  /// with kCancelled at the next cancellation point). False for an
  /// unknown id; true even if the job already finished (no-op then).
  bool cancel(int id);

  /// Blocks until the job completes; returns a copy of its record (made
  /// outside the server lock: a done record never changes and entries are
  /// never erased, so every wait on one id returns an equal record). The
  /// record holds only what the job reports — its evaluations keep no
  /// per-net parasitics. kInvalidArgument result for an unknown id.
  common::Result<JobRecord> wait(int id);

  /// Stops admission, waits for the queue to empty (kDrain) or cancels
  /// everything in flight first (kCancel), joins the workers. Idempotent.
  void shutdown(Shutdown mode);

  /// shutdown(kDrain) + every record, ascending id, copied after the
  /// workers are joined and outside the server lock.
  std::vector<JobRecord> drain();

  int queue_depth() const;
  SharedCache& cache() { return *cache_; }
  obs::ObsScope& obs_scope() { return scope_; }

  /// The server-level registry view: serve.* counters, the queue-depth
  /// gauge (refreshed here), the per-job wall-time histogram, and the
  /// accumulated per-job core metrics.
  obs::MetricsRegistry::Snapshot metrics_snapshot();

 private:
  struct Entry {
    JobRecord record;
    flow::FlowConfig config;
    common::CancelToken token;
    bool done = false;
    std::chrono::steady_clock::time_point submitted;
  };

  void worker_loop();
  /// Head job is dispatchable: cancelled (dispatch = mark done) or fits
  /// the memory budget. Caller holds mutex_.
  bool head_ready() const;

  ServerOptions options_;
  std::unique_ptr<SharedCache> owned_cache_;
  SharedCache* cache_;
  obs::ObsScope scope_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: queue / memory / stop.
  std::condition_variable done_cv_;  ///< waiters: job done / queue empty.
  std::deque<int> queue_;
  std::map<int, std::unique_ptr<Entry>> jobs_;
  std::size_t memory_in_use_ = 0;
  int running_ = 0;
  int next_id_ = 1;
  bool accepting_ = true;
  bool stop_ = false;
  bool joined_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace sndr::serve
