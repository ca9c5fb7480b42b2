// Bump allocator for per-net kernel scratch.
//
// The batched evaluation kernels (extract/batch.hpp) carve a dozen short
// planes per net; sizing each as a std::vector costs a resize check and a
// potential reallocation per plane per call. An Arena turns all of that
// into pointer bumps: allocation is an aligned offset increment, reset()
// rewinds the whole arena in O(1) while keeping every block's capacity, so
// a warm per-thread arena makes repeated per-net evaluation allocation-free
// after the first net of each size class.
//
// Contract: alloc<T>() returns *uninitialized* storage for trivially
// destructible T — callers fully overwrite it and nothing is ever
// destroyed. Pointers are valid until the next reset(); reset() invalidates
// everything at once. Not thread-safe; use one Arena per thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace sndr::common {

class Arena {
 public:
  explicit Arena(std::size_t first_block_bytes = 1 << 16)
      : first_block_bytes_(first_block_bytes < kMinBlock ? kMinBlock
                                                         : first_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialized storage for `n` objects of T, aligned to alignof(T).
  template <typename T>
  T* alloc(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena never runs destructors");
    return static_cast<T*>(raw_alloc(n * sizeof(T), alignof(T)));
  }

  /// Like alloc, but the storage is zero-filled.
  template <typename T>
  T* alloc_zeroed(std::size_t n) {
    static_assert(std::is_trivial_v<T>, "zero fill needs a trivial T");
    T* p = alloc<T>(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = T{};
    return p;
  }

  /// Rewinds to empty, keeping every block's capacity for reuse.
  void reset() {
    block_ = 0;
    offset_ = 0;
    used_ = 0;
  }

  /// reset() that also returns capacity to a budget: trailing blocks are
  /// released (newest first) until the retained capacity fits max_bytes.
  /// The first block always survives, so a warm arena never degrades below
  /// its initial size; under a flow-level memory budget this keeps scratch
  /// arenas from retaining a one-off peak forever. Invalidates every
  /// outstanding pointer, exactly like reset().
  void shrink_to(std::size_t max_bytes) {
    reset();
    while (blocks_.size() > 1 && capacity() > max_bytes) {
      blocks_.pop_back();
    }
  }

  /// Total bytes held across blocks (capacity, not live allocations).
  std::size_t capacity() const {
    std::size_t c = 0;
    for (const Block& b : blocks_) c += b.size;
    return c;
  }

  /// Bytes handed out since the last reset (allocation watermark,
  /// alignment padding included).
  std::size_t used() const { return used_; }

 private:
  static constexpr std::size_t kMinBlock = 1024;

  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void* raw_alloc(std::size_t bytes, std::size_t align) {
    if (bytes == 0) bytes = 1;
    while (block_ < blocks_.size()) {
      Block& b = blocks_[block_];
      const std::size_t aligned = (offset_ + align - 1) & ~(align - 1);
      if (aligned + bytes <= b.size) {
        offset_ = aligned + bytes;
        used_ += bytes;
        return b.data.get() + aligned;
      }
      ++block_;  // current block exhausted; try the next (kept) one.
      offset_ = 0;
    }
    // Geometric growth so a net bigger than everything before it settles
    // into one block after a single round of doubling.
    std::size_t grow = blocks_.empty() ? first_block_bytes_
                                       : blocks_.back().size * 2;
    if (grow < bytes + align) grow = bytes + align;
    Block b;
    b.data = std::make_unique<std::byte[]>(grow);
    b.size = grow;
    blocks_.push_back(std::move(b));
    block_ = blocks_.size() - 1;
    offset_ = bytes;  // new[] storage is maximally aligned at offset 0.
    used_ += bytes;
    return blocks_.back().data.get();
  }

  std::size_t first_block_bytes_;
  std::vector<Block> blocks_;
  std::size_t block_ = 0;   ///< block currently being bumped.
  std::size_t offset_ = 0;  ///< bump offset within that block.
  std::size_t used_ = 0;
};

// Process-wide arena high-water marks. Arenas are per-thread and ephemeral,
// so per-instance stats never reach the run manifest; the evaluation entry
// points instead publish each arena's peak here (CAS-max, relaxed — the
// values are monotone and order-free) and the manifest exports them as
// arena.{capacity,used}_bytes. Tracks batch-scratch growth per PR.

namespace detail {
inline std::atomic<std::uint64_t> arena_capacity_hw{0};
inline std::atomic<std::uint64_t> arena_used_hw{0};

inline void atomic_max(std::atomic<std::uint64_t>& hw, std::uint64_t v) {
  std::uint64_t cur = hw.load(std::memory_order_relaxed);
  while (cur < v &&
         !hw.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Folds one arena's current capacity / used watermark into the marks.
/// Call after the arena has done its work (used() reflects the last pass).
inline void note_arena_highwater(const Arena& arena) {
  detail::atomic_max(detail::arena_capacity_hw, arena.capacity());
  detail::atomic_max(detail::arena_used_hw, arena.used());
}

inline std::uint64_t arena_capacity_highwater() {
  return detail::arena_capacity_hw.load(std::memory_order_relaxed);
}
inline std::uint64_t arena_used_highwater() {
  return detail::arena_used_hw.load(std::memory_order_relaxed);
}

}  // namespace sndr::common
