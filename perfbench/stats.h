// Order statistics shared by the benchmark's reports: percentiles, medians
// and the tail percentile rule (the highest percentile, up to p99, with at least
// ten samples beyond it), all over plain sample vectors.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

// Linear-interpolated percentile (q in [0, 100]) of an already sorted vector.
inline double SortedPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double pos = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline double Percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return SortedPercentile(v, q);
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

struct Tail {
  double value = 0.0;  // the percentile's value
  double level = 0.0;  // the percentile, at most 99; 0 when n < 10
  size_t samples = 0;
};

// The highest percentile, up to p99, that leaves at least ten samples
// beyond it: p99 from 1000 samples on, p(100 - 1000/n) below that. The level
// moves smoothly with the sample count, so a run a few samples short of
// 1000 reports p98.9 rather than jumping to p90.
inline Tail TailPercentile(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  std::sort(v.begin(), v.end());
  if (v.size() < 10) {
    t.value = v.empty() ? 0.0 : v.back();
    return t;
  }
  t.level = std::min(99.0, 100.0 - 1000.0 / static_cast<double>(v.size()));
  t.value = SortedPercentile(v, t.level);
  return t;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
