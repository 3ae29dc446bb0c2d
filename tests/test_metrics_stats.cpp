#include "metrics/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/random.h"

namespace flashflow::metrics {
namespace {

const std::vector<double> kSample = {4.0, 1.0, 3.0, 2.0, 5.0};

TEST(Stats, Mean) { EXPECT_DOUBLE_EQ(mean(as_span(kSample)), 3.0); }

TEST(Stats, MedianOdd) { EXPECT_DOUBLE_EQ(median(as_span(kSample)), 3.0); }

TEST(Stats, MedianEvenAveragesMiddle) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 10.0};
  EXPECT_DOUBLE_EQ(median(as_span(v)), 2.5);
}

TEST(Stats, MedianSingleton) {
  const std::vector<double> v = {7.5};
  EXPECT_DOUBLE_EQ(median(as_span(v)), 7.5);
}

TEST(Stats, StdevOfConstantIsZero) {
  const std::vector<double> v = {2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(stdev(as_span(v)), 0.0);
}

TEST(Stats, StdevKnownValue) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(stdev(as_span(v)), 2.0);  // classic example
}

TEST(Stats, RelativeStdev) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(relative_stdev(as_span(v)), 2.0 / 5.0);
}

TEST(Stats, RelativeStdevRejectsZeroMean) {
  const std::vector<double> v = {-1.0, 1.0};
  EXPECT_THROW(relative_stdev(as_span(v)), std::invalid_argument);
}

TEST(Stats, PercentileEndpoints) {
  EXPECT_DOUBLE_EQ(percentile(as_span(kSample), 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(as_span(kSample), 100.0), 5.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(as_span(v), 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(as_span(v), 50.0), 5.0);
}

TEST(Stats, PercentileRejectsBadQ) {
  EXPECT_THROW(percentile(as_span(kSample), -1.0), std::invalid_argument);
  EXPECT_THROW(percentile(as_span(kSample), 101.0), std::invalid_argument);
}

TEST(Stats, MinMax) {
  EXPECT_DOUBLE_EQ(min_value(as_span(kSample)), 1.0);
  EXPECT_DOUBLE_EQ(max_value(as_span(kSample)), 5.0);
}

TEST(Stats, EmptyThrows) {
  const std::vector<double> empty;
  EXPECT_THROW(mean(as_span(empty)), std::invalid_argument);
  EXPECT_THROW(median(as_span(empty)), std::invalid_argument);
  EXPECT_THROW(stdev(as_span(empty)), std::invalid_argument);
  EXPECT_THROW(min_value(as_span(empty)), std::invalid_argument);
  EXPECT_THROW(max_value(as_span(empty)), std::invalid_argument);
  EXPECT_THROW(box_stats(as_span(empty)), std::invalid_argument);
}

TEST(Stats, BoxStatsOrdering) {
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(static_cast<double>(i));
  const BoxStats b = box_stats(as_span(v));
  EXPECT_DOUBLE_EQ(b.p5, 5.0);
  EXPECT_DOUBLE_EQ(b.q1, 25.0);
  EXPECT_DOUBLE_EQ(b.median, 50.0);
  EXPECT_DOUBLE_EQ(b.q3, 75.0);
  EXPECT_DOUBLE_EQ(b.p95, 95.0);
  EXPECT_DOUBLE_EQ(b.mean, 50.0);
  EXPECT_LE(b.p5, b.q1);
  EXPECT_LE(b.q1, b.median);
  EXPECT_LE(b.median, b.q3);
  EXPECT_LE(b.q3, b.p95);
}

// The sort-based definition percentile() had before it switched to
// selecting two order statistics: kept as the oracle the selection must
// match bit for bit.
double sorted_percentile(std::span<const double> xs, double q) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

void expect_matches_oracle(const std::vector<double>& v, double q) {
  const double got = percentile(as_span(v), q);
  const double want = sorted_percentile(as_span(v), q);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << "n=" << v.size() << " q=" << q << " got " << got << " want "
      << want;
}

TEST(Stats, PercentileMatchesSortOracleBitForBit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Distinct values, heavy ties, signed zeros and infinities; sizes on
  // both sides of the 128-value stack buffer.
  const std::vector<double> tie_pool = {-kInf, -2.5, -0.0, 0.0, 1.0,
                                        1.0,   3.25, 1e22, kInf};
  sim::Rng rng(20240607);
  for (std::size_t n = 1; n <= 200; ++n) {
    for (int variant = 0; variant < 3; ++variant) {
      std::vector<double> v(n);
      for (double& x : v) {
        if (variant == 0)
          x = rng.normal(100.0, 30.0);
        else if (variant == 1)
          x = tie_pool[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(tie_pool.size()) - 1))];
        else
          x = static_cast<double>(rng.uniform_int(0, 3));
      }
      for (const double q : {0.0, 5.0, 25.0, 50.0, 75.0, 95.0, 100.0})
        expect_matches_oracle(v, q);
      for (int k = 0; k < 4; ++k) expect_matches_oracle(v, rng.uniform(0, 100));
    }
  }
}

TEST(Stats, PercentileKeepsInterpolationFormAtTheTop) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // q=100 interpolates the top order statistic with itself: inf + 0 *
  // (inf - inf) is NaN, as the sort-based definition always returned.
  const std::vector<double> v = {1.0, kInf};
  EXPECT_TRUE(std::isnan(percentile(as_span(v), 100.0)));
  const std::vector<double> single = {kInf};
  EXPECT_EQ(percentile(as_span(single), 100.0), kInf);
}

}  // namespace
}  // namespace flashflow::metrics
