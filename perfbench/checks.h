// Output checks of the benchmark. Each failed check counts as one failed
// operation and makes the run exit non-zero. Self-tested by self_test.cc.
#ifndef TIMEKD_PERFBENCH_CHECKS_H_
#define TIMEKD_PERFBENCH_CHECKS_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

/// The documented SIMD tolerance (docs/performance.md, "Numerical
/// equivalence"): |a - b| <= 1e-5 + 1e-5 * |b|. Batched and single-window
/// forecasts must agree within it.
inline constexpr float kSimdAtol = 1e-5f;
inline constexpr float kSimdRtol = 1e-5f;

/// Index of the first element of `got` outside the SIMD tolerance of
/// `want` (or not finite), -1 when every element is within it. A length
/// mismatch reports index 0.
inline int64_t FirstMismatch(const float* got, const float* want, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float g = got[i];
    const float w = want[i];
    if (!std::isfinite(g) || !std::isfinite(w) ||
        std::fabs(g - w) > kSimdAtol + kSimdRtol * std::fabs(w)) {
      return i;
    }
  }
  return -1;
}

/// Bit-for-bit equality of two float buffers.
inline bool BitIdentical(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

/// Mean squared / absolute error accumulated as `TimeKd::Evaluate` does
/// (double accumulators, window order, element order).
class ErrorAccumulator {
 public:
  void Add(const float* pred, const float* truth, int64_t n) {
    for (int64_t j = 0; j < n; ++j) {
      const double d = static_cast<double>(pred[j]) - truth[j];
      se_ += d * d;
      ae_ += std::fabs(d);
    }
    count_ += n;
  }
  double mse() const { return count_ > 0 ? se_ / count_ : 0.0; }
  double mae() const { return count_ > 0 ? ae_ / count_ : 0.0; }

 private:
  double se_ = 0.0;
  double ae_ = 0.0;
  int64_t count_ = 0;
};

/// Two error sums over the same forecasts agree up to the rounding of a
/// double accumulation: whether the compiler fuses `se += d * d` into an
/// FMA differs between translation units. Any change to a forecast moves
/// the sum by orders of magnitude more than this.
inline constexpr double kErrorSumRtol = 1e-12;

inline bool SameError(double a, double b) {
  return std::isfinite(a) && std::isfinite(b) &&
         std::fabs(a - b) <= kErrorSumRtol * std::fabs(b);
}

/// Tally of the output checks of one run.
class CheckLog {
 public:
  /// Records one check; returns `ok`.
  bool Expect(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) failures_.push_back(what);
    return ok;
  }
  int64_t checks() const { return checks_; }
  int64_t failed() const { return static_cast<int64_t>(failures_.size()); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  int64_t checks_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace perfbench

#endif  // TIMEKD_PERFBENCH_CHECKS_H_
