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

namespace {

/// Threads holding a BusyDriver mark, process-wide: the pool is too.
std::atomic<int> g_busy_drivers{0};

/// Lanes the drivers keep for themselves; with no mark held, the one
/// implicit driver (the thread calling run()).
int driver_lanes() {
  return std::max(1, g_busy_drivers.load(std::memory_order_relaxed));
}

}  // namespace

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

ThreadPool::Region* ThreadPool::joinable() const {
  if (regions_.empty() || inside_ + 1 + driver_lanes() > lanes()) {
    return nullptr;
  }
  return regions_.front();
}

void ThreadPool::wake_idle() {
  // Lock-then-notify: a worker that read the old driver count under
  // mutex_ is either already waiting (and gets this notify) or has not
  // yet evaluated its predicate (and reads the new count).
  { std::lock_guard<std::mutex> lock(mutex_); }
  wake_.notify_all();
}

void ThreadPool::work_on(Region& region) {
  WorkerScope scope;
  // Chunks this lane executed, counted once at the end so the claim loop
  // stays free of registry traffic.
  int executed = 0;
  // Observe into the submitting session's scope, not whatever this worker
  // last saw: metrics/spans from a chunk belong to the run that issued it.
  obs::ScopeBinding obs_binding(*region.scope);
  for (;;) {
    int chunk;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (region.next >= region.chunks) break;
      chunk = region.next++;
      if (region.next == region.chunks) {
        // Fully claimed: unlink it so idle workers stop joining.
        regions_.erase(std::find(regions_.begin(), regions_.end(), &region));
      }
    }
    try {
      // A cancelled region still claims every chunk but stops executing
      // bodies: each remaining chunk records Cancelled and run() rethrows
      // the lowest-indexed one.
      if (region.cancel && region.cancel->load(std::memory_order_relaxed)) {
        throw Cancelled();
      }
      (*region.fn)(chunk);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!region.error || chunk < region.error_chunk) {
        region.error_chunk = chunk;
        region.error = std::current_exception();
      }
    }
    ++executed;
  }
  // Flushed while this lane still counts as inside the region: once it
  // leaves, the submitter may return from run() and destroy the scope
  // this binding targets.
  if (executed > 0) {
    if (t_pool_worker_thread) {
      SNDR_COUNTER_ADD("pool.chunks_on_workers", executed);
    } else {
      SNDR_COUNTER_ADD("pool.chunks_on_caller", executed);
    }
  }
}

void ThreadPool::worker_loop() {
  t_pool_worker_thread = true;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    Region* region = nullptr;
    wake_.wait(lock, [&] {
      return stop_ || (region = joinable()) != nullptr;
    });
    if (stop_) return;
    ++region->active;
    ++inside_;
    lock.unlock();
    work_on(*region);
    lock.lock();
    --inside_;
    // Every chunk is claimed by now (work_on ran the claims dry), so the
    // last pool thread out releases the caller.
    if (--region->active == 0) done_.notify_all();
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
  Region region;
  region.fn = &chunk_fn;
  region.scope = &obs::ObsScope::current();
  region.cancel = CancelBinding::current_flag().get();
  region.chunks = chunks;
  bool joinable_now;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    regions_.push_back(&region);
    joinable_now = joinable() != nullptr;
  }
  // With the budget full no pool thread may join, so none is woken; a
  // released mark wakes them (wake_idle).
  if (joinable_now) wake_.notify_all();
  work_on(region);
  std::exception_ptr error;
  {
    // The caller's claim loop ended, so every chunk is claimed; the pool
    // threads still inside finish theirs. The last claimer unlinked the
    // region while inside, so once none is inside, none can join again.
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&region] { return region.active == 0; });
    error = std::move(region.error);
  }
  if (error) std::rethrow_exception(error);
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

BusyDriver::BusyDriver() {
  g_busy_drivers.fetch_add(1, std::memory_order_relaxed);
}

BusyDriver::~BusyDriver() {
  g_busy_drivers.fetch_sub(1, std::memory_order_relaxed);
  // One lane fewer reserved: idle pool threads may now join a region.
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_pool) g_pool->wake_idle();
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
