// Fixed-size thread pool with chunked, deterministic job execution.
//
// The pool is the substrate of the library's parallel loops (parallel.hpp).
// Work is always expressed as a fixed number of *chunks* whose boundaries
// depend only on the problem size and grain — never on the thread count —
// and every chunk writes results into its own pre-assigned slot (or a
// per-chunk partial that is combined in chunk order). That is the
// determinism contract: any thread count, including the serial fallback,
// produces bit-identical floating-point results.
//
// Nested use is safe by construction: a parallel call issued from inside a
// pool worker runs serially on that worker (no deadlock, no oversubscribe),
// so coarse outer parallelism (e.g. one task per corner) automatically
// quiets the inner per-net loops.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sndr::obs {
class ObsScope;
}

namespace sndr::common {

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers; the caller of run() is the last lane.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallel lanes (workers + the calling thread).
  int lanes() const { return static_cast<int>(workers_.size()) + 1; }

  /// Executes chunk_fn(c) for every c in [0, chunks); blocks until all
  /// chunks finished. The calling thread participates. If chunks throw,
  /// the exception of the lowest-indexed throwing chunk is rethrown here.
  void run(int chunks, const std::function<void(int)>& chunk_fn);

  /// True on a thread currently executing a pool chunk; parallel calls
  /// made from such a thread fall back to serial execution.
  static bool on_worker_thread();

 private:
  struct Job {
    const std::function<void(int)>* fn = nullptr;
    obs::ObsScope* scope = nullptr;  ///< caller's obs scope at submit time.
    /// The submitter's bound cancel flag (CancelBinding) at submit time;
    /// null when none. Each lane re-checks it before executing a chunk, so
    /// a cancel lands within one chunk regardless of which thread asked.
    std::shared_ptr<std::atomic<bool>> cancel;
    int chunks = 0;
    int next = 0;           ///< next unclaimed chunk (under mutex).
    int done = 0;           ///< finished chunks (under mutex).
    std::vector<std::exception_ptr> errors;  ///< per chunk, mostly null.
  };

  void worker_loop();
  /// Claims and executes chunks of `job` until none remain.
  void work_on(const std::shared_ptr<Job>& job);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;   ///< workers wait for a job / stop.
  std::condition_variable done_;   ///< run() waits for completion.
  std::shared_ptr<Job> job_;       ///< active job, null when idle.
  std::mutex run_mutex_;           ///< serializes concurrent run() callers.
  bool stop_ = false;
};

/// Sets the global thread budget: n < 0 restores the default (hardware
/// concurrency), n <= 1 forces the serial fallback, n > 1 uses n lanes.
/// Takes effect on the next parallel call; do not call while a parallel
/// region is executing.
void set_thread_count(int n);

/// The resolved global thread budget (>= 1).
int thread_count();

/// Minimum estimated work, in microseconds, a loop must carry before the
/// cost-annotated parallel_for/parallel_reduce overloads go parallel.
/// Committed bench data (BENCH_runtime.json) shows per-net loops of a few
/// hundred µs total running *slower* at 2-4 threads than serial on small
/// boxes — dispatch overhead dominates. Fixed at 2000 µs.
double parallel_min_us();

/// Test hook: overrides parallel_min_us(); us < 0 restores the 2000 µs
/// constant. 0 disables the gate (everything may go parallel). Do not
/// call while a parallel region is executing.
void set_parallel_min_us(double us);

/// The shared pool sized to thread_count(), or nullptr in serial mode.
ThreadPool* global_pool();

/// A session's view of the process thread budget. The pool itself is a
/// process-wide resource (rebuilding it mid-run would tear threads out
/// from under concurrent sessions), so a budget only *forwards* an
/// explicit request: apply() calls set_thread_count() when the session
/// asked for a specific lane count and is a no-op otherwise — two
/// sessions that both leave the budget at "default" never reset the
/// shared pool against each other.
class ThreadBudget {
 public:
  /// requested < 0 means "whatever the process default is"; 0/1 force the
  /// serial fallback; N uses N lanes.
  explicit ThreadBudget(int requested = -1) : requested_(requested) {}

  int requested() const { return requested_; }

  /// Forwards an explicit request to set_thread_count(); returns the
  /// resolved process-wide lane count either way.
  int apply() const {
    if (requested_ >= 0) set_thread_count(requested_);
    return thread_count();
  }

 private:
  int requested_;
};

}  // namespace sndr::common
