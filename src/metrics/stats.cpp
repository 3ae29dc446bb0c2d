#include "metrics/stats.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace flashflow::metrics {

namespace {
void require_nonempty(std::span<const double> xs, const char* what) {
  if (xs.empty()) throw std::invalid_argument(std::string(what) + ": empty");
}
}  // namespace

double mean(std::span<const double> xs) {
  require_nonempty(xs, "mean");
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double stdev(std::span<const double> xs) {
  require_nonempty(xs, "stdev");
  const double m = mean(xs);
  double ss = 0.0;
  for (const double x : xs) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(xs.size()));
}

double relative_stdev(std::span<const double> xs) {
  const double m = mean(xs);
  if (m == 0.0) throw std::invalid_argument("relative_stdev: zero mean");
  return stdev(xs) / m;
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double percentile(std::span<const double> xs, double q) {
  require_nonempty(xs, "percentile");
  if (q < 0.0 || q > 100.0)
    throw std::invalid_argument("percentile: q out of [0,100]");
  const std::size_t n = xs.size();
  if (n == 1) return xs.front();
  const double rank = q / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, n - 1);
  const double frac = rank - static_cast<double>(lo);

  // Only the lo-th and hi-th order statistics are needed, so select them
  // instead of sorting a copy: nth_element places the lo-th, and the
  // hi-th (when it differs) is the smallest value after it. The copy
  // lives on the stack for the per-estimate sizes (a slot's per-second
  // samples); only larger inputs touch the heap. Values that compare
  // equal are bit-identical except +0 and -0, and a + frac * (b - a) does
  // not depend on which zero sits at either order statistic, so the
  // result is bit-identical to indexing a sorted copy (NaN inputs have no
  // order under either).
  constexpr std::size_t kStackValues = 128;
  std::array<double, kStackValues> stack_buf{};
  std::vector<double> heap_buf;
  double* values = stack_buf.data();
  if (n > kStackValues) {
    heap_buf.resize(n);
    values = heap_buf.data();
  }
  std::copy(xs.begin(), xs.end(), values);
  std::nth_element(values, values + lo, values + n);
  const double a = values[lo];
  const double b =
      hi == lo ? a : *std::min_element(values + lo + 1, values + n);
  return a + frac * (b - a);
}

double min_value(std::span<const double> xs) {
  require_nonempty(xs, "min_value");
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
  require_nonempty(xs, "max_value");
  return *std::max_element(xs.begin(), xs.end());
}

BoxStats box_stats(std::span<const double> xs) {
  require_nonempty(xs, "box_stats");
  BoxStats b;
  b.p5 = percentile(xs, 5.0);
  b.q1 = percentile(xs, 25.0);
  b.median = percentile(xs, 50.0);
  b.q3 = percentile(xs, 75.0);
  b.p95 = percentile(xs, 95.0);
  b.mean = mean(xs);
  return b;
}

}  // namespace flashflow::metrics
