#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "common/cancel.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"

namespace sndr::common {

namespace {

thread_local bool t_on_worker = false;
thread_local bool t_pool_worker_thread = false;  ///< set in worker_loop.

/// RAII flag marking the current thread as executing pool chunks.
struct WorkerScope {
  bool prev;
  WorkerScope() : prev(t_on_worker) { t_on_worker = true; }
  ~WorkerScope() { t_on_worker = prev; }
};

}  // namespace

bool ThreadPool::on_worker_thread() { return t_on_worker; }

ThreadPool::ThreadPool(int threads) {
  const int workers = std::max(0, threads - 1);
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  SNDR_GAUGE_SET("pool.lanes", static_cast<double>(lanes()));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::work_on(const std::shared_ptr<Job>& job) {
  WorkerScope scope;
  // Chunks this lane executed, published to job->done in one batch at the
  // end so the claim loop stays free of registry and wakeup traffic.
  int executed = 0;
  {
    // Observe into the submitting session's scope, not whatever this
    // worker last saw: metrics/spans from a chunk belong to the run that
    // issued it.
    obs::ScopeBinding obs_binding(*job->scope);
    for (;;) {
      int chunk;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (job->next >= job->chunks) break;
        chunk = job->next++;
        if (job->next >= job->chunks && job_ == job) {
          job_.reset();  // fully claimed: let idle workers sleep again.
        }
      }
      try {
        // A cancelled job still *claims* every chunk (the done accounting
        // must reach job->chunks) but stops executing bodies: each
        // remaining chunk records Cancelled and run() rethrows the
        // lowest-indexed one.
        if (job->cancel && job->cancel->load(std::memory_order_relaxed)) {
          throw Cancelled();
        }
        (*job->fn)(chunk);
      } catch (...) {
        job->errors[chunk] = std::current_exception();
      }
      ++executed;
    }
    // Flush the per-lane counter while this lane's chunks are still held
    // out of job->done: the moment done reaches job->chunks the submitter
    // may return from run() and destroy the scope this binding targets.
    if (executed > 0) {
      if (t_pool_worker_thread) {
        SNDR_COUNTER_ADD("pool.chunks_on_workers", executed);
      } else {
        SNDR_COUNTER_ADD("pool.chunks_on_caller", executed);
      }
    }
  }
  if (executed > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    job->done += executed;
    if (job->done >= job->chunks) done_.notify_all();
  }
}

void ThreadPool::worker_loop() {
  t_pool_worker_thread = true;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stop_ || job_ != nullptr; });
      if (stop_) return;
      job = job_;
    }
    work_on(job);
  }
}

void ThreadPool::run(int chunks, const std::function<void(int)>& chunk_fn) {
  if (chunks <= 0) return;
  if (workers_.empty() || on_worker_thread()) {
    // Serial / nested fallback: same chunk order, same results.
    SNDR_COUNTER_ADD("pool.nested_serial_runs", 1);
    for (int c = 0; c < chunks; ++c) chunk_fn(c);
    return;
  }
  SNDR_COUNTER_ADD("pool.jobs", 1);
  SNDR_COUNTER_ADD("pool.chunks", chunks);
  std::lock_guard<std::mutex> run_lock(run_mutex_);
  auto job = std::make_shared<Job>();
  job->fn = &chunk_fn;
  job->scope = &obs::ObsScope::current();
  job->cancel = CancelBinding::current_flag();
  job->chunks = chunks;
  job->errors.assign(static_cast<std::size_t>(chunks), nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
  }
  wake_.notify_all();
  work_on(job);
  // Take the captured exceptions under the lock: once workers have moved
  // on, their final shared_ptr<Job> release must not be the one destroying
  // an exception object the caller is still rethrowing/reading.
  std::vector<std::exception_ptr> errors;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&job] { return job->done >= job->chunks; });
    errors.swap(job->errors);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

namespace {

std::mutex g_pool_mutex;
int g_thread_count = -1;  ///< unresolved; -1 = hardware concurrency.
std::unique_ptr<ThreadPool> g_pool;
bool g_pool_built = false;

int resolve(int n) {
  if (n >= 1) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

void set_thread_count(int n) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  const int resolved = n < 0 ? -1 : std::max(1, n);
  if (resolved == g_thread_count && g_pool_built) return;
  g_thread_count = resolved;
  g_pool.reset();
  g_pool_built = false;
}

int thread_count() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  return resolve(g_thread_count);
}

ThreadPool* global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool_built) {
    const int n = resolve(g_thread_count);
    if (n > 1) g_pool = std::make_unique<ThreadPool>(n);
    g_pool_built = true;
  }
  return g_pool.get();
}

namespace {

constexpr double kDefaultParallelMinUs = 2000.0;

/// Relaxed atomics keep concurrent reads from pool workers race-free (the
/// value is a pure tuning knob — a stale read only changes *when* a loop
/// goes parallel, never its results).
std::atomic<double> g_parallel_min_us{kDefaultParallelMinUs};

}  // namespace

double parallel_min_us() {
  return g_parallel_min_us.load(std::memory_order_relaxed);
}

void set_parallel_min_us(double us) {
  g_parallel_min_us.store(us < 0.0 ? kDefaultParallelMinUs : us,
                          std::memory_order_relaxed);
}

}  // namespace sndr::common
