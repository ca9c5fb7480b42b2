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
//
// Many threads may drive regions at once (serve workers, concurrent
// sessions). Each run() posts its region to a FIFO list and works on it
// itself, never waiting for another caller's region; idle pool threads
// join the oldest posted region. Pool threads only help while
// (pool threads inside regions) + max(1, busy drivers) <= lanes(), where a
// busy driver is a thread holding a BusyDriver mark (a serve worker running
// a job); with the budget full a caller runs its whole region alone.
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
  friend class BusyDriver;

  /// One run() call. Lives on its caller's stack: the caller returns only
  /// once no pool thread is inside (`active == 0`).
  struct Region {
    const std::function<void(int)>* fn = nullptr;
    obs::ObsScope* scope = nullptr;  ///< caller's obs scope at submit time.
    /// The submitter's bound cancel flag (CancelBinding) at submit time;
    /// null when none. Each lane re-checks it before executing a chunk, so
    /// a cancel lands within one chunk regardless of which thread asked.
    const std::atomic<bool>* cancel = nullptr;
    int chunks = 0;
    int next = 0;    ///< next unclaimed chunk (under mutex_).
    int active = 0;  ///< pool threads inside (under mutex_).
    /// Lowest-index throwing chunk and its exception (under mutex_).
    int error_chunk = 0;
    std::exception_ptr error;
  };

  void worker_loop();
  /// Claims and executes chunks of `region` until none remain.
  void work_on(Region& region);
  /// The oldest posted region if the lane budget lets one more pool
  /// thread in, else null. Caller holds mutex_.
  Region* joinable() const;
  /// Wakes idle pool threads after the busy-driver count fell.
  void wake_idle();

  std::vector<std::thread> workers_;
  /// Guards regions_, inside_, stop_ and the claim, active and error
  /// fields of every posted Region.
  std::mutex mutex_;
  std::condition_variable wake_;   ///< workers wait for a region / stop.
  std::condition_variable done_;   ///< run() waits for its helpers.
  std::vector<Region*> regions_;   ///< posted, not fully claimed; FIFO.
  int inside_ = 0;                 ///< pool threads inside regions.
  bool stop_ = false;
};

/// RAII mark: while alive, counts one busy driver — a thread with a job
/// of its own to run, and so a lane the pool leaves free (see the lane
/// budget above). serve::Server holds one around each job it executes.
/// With no mark held anywhere there is one implicit driver, so a lone
/// `sndr run` keeps every pool lane.
class BusyDriver {
 public:
  BusyDriver();
  ~BusyDriver();
  BusyDriver(const BusyDriver&) = delete;
  BusyDriver& operator=(const BusyDriver&) = delete;
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
