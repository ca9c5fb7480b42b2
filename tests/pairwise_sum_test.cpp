#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/pairwise_sum.hpp"
#include "workload/rng.hpp"

namespace sndr::common {
namespace {

PairwiseSum fresh(const std::vector<double>& v) {
  PairwiseSum s;
  s.assign(v.size(), [&](std::size_t i) { return v[i]; });
  return s;
}

/// Magnitudes spanning ~40 decades and both signs, so any change in the
/// association order would show up in the low bits of the total.
double mixed_value(workload::Rng& rng) {
  const double mag =
      std::ldexp(1.0, static_cast<int>(rng.uniform_int(130)) - 65);
  return (rng.uniform() < 0.5 ? -1.0 : 1.0) * mag * (1.0 + rng.uniform());
}

TEST(PairwiseSum, EmptyAndSingleLeaf) {
  PairwiseSum none;
  EXPECT_EQ(none.total(), 0.0);
  none.assign(0, [](std::size_t) { return 1.0; });
  EXPECT_EQ(none.total(), 0.0);

  PairwiseSum one = fresh({3.25});
  EXPECT_EQ(one.total(), 3.25);
  one.set(0, -7.5);
  EXPECT_EQ(one.total(), -7.5);
}

TEST(PairwiseSum, TotalIsTheFixedPairwiseShape) {
  // Five leaves pad to eight: ((a + b) + (c + d)) + ((e + 0) + (0 + 0)).
  // Each 1.0 is lost against 1e16 inside its pair, so the total is 0.5; a
  // left-to-right sum would give 1.5.
  const double a = 1e16, b = 1.0, c = -1e16, d = 1.0, e = 0.5;
  EXPECT_EQ(fresh({a, b, c, d, e}).total(), 0.5);
  EXPECT_EQ(fresh({1.0, 2.0}).total(), 3.0);
}

TEST(PairwiseSum, PointUpdatesEqualFreshAssignBitwise) {
  workload::Rng rng(11);
  for (const std::size_t n : {1u, 2u, 3u, 5u, 7u, 8u, 13u, 64u, 100u, 1000u}) {
    SCOPED_TRACE(n);
    std::vector<double> v(n);
    for (double& x : v) x = mixed_value(rng);
    PairwiseSum s = fresh(v);
    for (int step = 0; step < 200; ++step) {
      const std::size_t i = rng.uniform_int(n);
      v[i] = mixed_value(rng);
      s.set(i, v[i]);
      ASSERT_EQ(s.total(), fresh(v).total()) << "step " << step;
    }
  }
}

TEST(PairwiseSum, RangeUpdatesEqualFreshAssignBitwise) {
  workload::Rng rng(12);
  for (const std::size_t n : {2u, 3u, 6u, 17u, 31u, 32u, 33u, 500u}) {
    SCOPED_TRACE(n);
    std::vector<double> v(n);
    for (double& x : v) x = mixed_value(rng);
    PairwiseSum s = fresh(v);
    for (int step = 0; step < 100; ++step) {
      std::size_t lo = rng.uniform_int(n);
      std::size_t hi = rng.uniform_int(n + 1);
      if (lo > hi) std::swap(lo, hi);
      for (std::size_t i = lo; i < hi; ++i) v[i] = mixed_value(rng);
      s.set_range(lo, hi, [&](std::size_t i) { return v[i]; });
      ASSERT_EQ(s.total(), fresh(v).total()) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace sndr::common
