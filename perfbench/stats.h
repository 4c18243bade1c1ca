// Summary statistics of the benchmark: medians, quartiles and the tail
// percentile rule. Self-tested by self_test.cc on every run.
#ifndef TIMEKD_PERFBENCH_STATS_H_
#define TIMEKD_PERFBENCH_STATS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty sample.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// First, second and third quartile.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / q2: the run-to-run spread the acceptance gate bounds.
  double Spread() const { return q2 != 0.0 ? (q3 - q1) / q2 : 0.0; }
};

/// Quartiles exactly as Python's `statistics.quantiles(v, n=4)` computes
/// them (its default "exclusive" method), so the spread printed here is
/// the one an external gate computes from the same values.
inline Quartiles ComputeQuartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const int64_t ld = static_cast<int64_t>(v.size());
  if (ld == 1) {
    q.q1 = q.q2 = q.q3 = v[0];
    return q;
  }
  constexpr int64_t kN = 4;
  const int64_t m = ld + 1;
  std::array<double, 3> out{};
  for (int64_t i = 1; i < kN; ++i) {
    const int64_t j = std::clamp<int64_t>(i * m / kN, 1, ld - 1);
    const int64_t delta = i * m - j * kN;
    out[static_cast<size_t>(i - 1)] =
        (v[static_cast<size_t>(j - 1)] * static_cast<double>(kN - delta) +
         v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
        static_cast<double>(kN);
  }
  q.q1 = out[0];
  q.q2 = out[1];
  q.q3 = out[2];
  return q;
}

/// Tail percentiles are expressed in basis points (9900 = p99) so rank
/// arithmetic stays in integers.
inline constexpr int64_t kMinTailSamples = 10;
inline constexpr std::array<int64_t, 4> kPercentileLadderBp = {5000, 9000,
                                                                 9900, 9990};

/// 1-based nearest rank of percentile `bp` in `n` samples: ceil(bp*n/1e4).
inline int64_t NearestRank(int64_t n, int64_t bp) {
  return std::max<int64_t>(1, (bp * n + 9999) / 10000);
}

/// Samples strictly beyond the nearest-rank percentile `bp`.
inline int64_t SamplesBeyond(int64_t n, int64_t bp) {
  return n - NearestRank(n, bp);
}

/// The highest ladder percentile (in bp) with at least kMinTailSamples
/// samples beyond it, or 0 when even the median has fewer.
inline int64_t HighestReportablePercentileBp(int64_t n) {
  int64_t best = 0;
  for (int64_t bp : kPercentileLadderBp) {
    if (n > 0 && SamplesBeyond(n, bp) >= kMinTailSamples) best = bp;
  }
  return best;
}

/// Nearest-rank percentile `bp` of `v`; 0 for an empty sample.
inline double Percentile(std::vector<double> v, int64_t bp) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const int64_t rank = NearestRank(static_cast<int64_t>(v.size()), bp);
  return v[static_cast<size_t>(rank - 1)];
}

/// Nearest-rank percentile `bp` of each consecutive full window of
/// `window` samples of `v`; a partial last window is left out.
inline std::vector<double> PerWindow(const std::vector<double>& v,
                                     int64_t window, int64_t bp) {
  std::vector<double> out;
  const auto first = v.begin();
  for (int64_t start = 0; start + window <= static_cast<int64_t>(v.size());
       start += window) {
    out.push_back(Percentile(
        std::vector<double>(first + start, first + start + window), bp));
  }
  return out;
}

}  // namespace perfbench

#endif  // TIMEKD_PERFBENCH_STATS_H_
