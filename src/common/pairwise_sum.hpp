// Order-independent running total over a fixed set of doubles.
//
// A plain `total += new - old` drifts with the update history, and a fresh
// left-to-right re-sum costs O(n) per change. PairwiseSum instead keeps the
// values as the leaves of a fixed-shape binary sum tree: `n` leaves padded
// with zeros to a power of two, every internal node the sum of its two
// children. The total is therefore one fixed function of the leaf values —
// the same bits whether the leaves arrived through assign() or through any
// sequence of set()/set_range() calls — and a change of k adjacent leaves
// recomputes only their O(k + log n) ancestors.
#pragma once

#include <bit>
#include <cstddef>
#include <vector>

namespace sndr::common {

class PairwiseSum {
 public:
  /// Resets to `n` leaves with leaf i = value(i). O(n).
  template <typename F>
  void assign(std::size_t n, F&& value) {
    width_ = std::bit_ceil(n < 1 ? std::size_t{1} : n);
    node_.assign(2 * width_, 0.0);
    for (std::size_t i = 0; i < n; ++i) node_[width_ + i] = value(i);
    for (std::size_t p = width_ - 1; p >= 1; --p) pull(p);
  }

  /// Sets leaves [lo, hi) to value(i) and recomputes their ancestors.
  /// O(hi - lo + log n).
  template <typename F>
  void set_range(std::size_t lo, std::size_t hi, F&& value) {
    if (lo >= hi) return;
    for (std::size_t i = lo; i < hi; ++i) node_[width_ + i] = value(i);
    for (std::size_t a = (width_ + lo) / 2, b = (width_ + hi - 1) / 2; a >= 1;
         a /= 2, b /= 2) {
      for (std::size_t p = a; p <= b; ++p) pull(p);
    }
  }

  /// Sets leaf i. O(log n).
  void set(std::size_t i, double v) {
    set_range(i, i + 1, [v](std::size_t) { return v; });
  }

  double total() const { return node_.empty() ? 0.0 : node_[1]; }

 private:
  void pull(std::size_t p) { node_[p] = node_[2 * p] + node_[2 * p + 1]; }

  std::size_t width_ = 0;     ///< leaf count, a power of two >= max(n, 1).
  std::vector<double> node_;  ///< heap order: node_[1] is the root,
                              ///< node_[width_ + i] is leaf i.
};

}  // namespace sndr::common
