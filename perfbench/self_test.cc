// Self-test of the benchmark's statistics and output checks. Runs at the
// start of every benchmark run (and alone with --self-test): a run whose
// own arithmetic is wrong publishes nothing.

#include <cmath>
#include <cstdio>
#include <vector>

#include "checks.h"
#include "host_speed.h"
#include "perfbench.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "self-test FAILED: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

void TestMedian() {
  Expect(Median({}) == 0.0, "median of nothing is 0");
  Expect(Median({3.0}) == 3.0, "median of one value");
  Expect(Median({5.0, 1.0, 3.0}) == 3.0, "median of an odd count");
  Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even count");
}

void TestQuartiles() {
  // Expected values from Python: statistics.quantiles(v, n=4).
  Quartiles q = ComputeQuartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  Expect(Near(q.q1, 2.75) && Near(q.q2, 5.5) && Near(q.q3, 8.25),
         "quartiles of 1..10 match statistics.quantiles");
  q = ComputeQuartiles({10, 2, 7, 4, 1});
  Expect(Near(q.q1, 1.5) && Near(q.q2, 4.0) && Near(q.q3, 8.5),
         "quartiles of an unsorted odd sample");
  q = ComputeQuartiles({1.0, 2.0});
  Expect(Near(q.q1, 0.75) && Near(q.q2, 1.5) && Near(q.q3, 2.25),
         "quartiles of two values extrapolate like Python");
  q = ComputeQuartiles({4.0});
  Expect(q.q1 == 4.0 && q.q3 == 4.0, "quartiles of one value");
  q = ComputeQuartiles({0.9, 1.0, 1.1, 1.0, 1.0, 0.95, 1.05, 1.0, 1.0, 1.0});
  Expect(Near(q.Spread(), (1.0125 - 0.9875) / 1.0), "spread is IQR/median");
}

void TestPercentileRule() {
  // Highest percentile with at least ten samples beyond it.
  Expect(HighestReportablePercentileBp(0) == 0, "no samples, no percentile");
  Expect(HighestReportablePercentileBp(19) == 0, "p50 needs 20 samples");
  Expect(HighestReportablePercentileBp(20) == 5000, "20 samples give p50");
  Expect(HighestReportablePercentileBp(99) == 5000, "99 samples stop at p50");
  Expect(HighestReportablePercentileBp(100) == 9000, "100 samples give p90");
  Expect(HighestReportablePercentileBp(999) == 9000, "999 samples stop at p90");
  Expect(HighestReportablePercentileBp(1000) == 9900, "1000 samples give p99");
  Expect(HighestReportablePercentileBp(9999) == 9900,
         "9999 samples stop at p99");
  Expect(HighestReportablePercentileBp(10000) == 9990,
         "10000 samples give p99.9");
  Expect(SamplesBeyond(1000, 9900) == 10, "ten samples lie beyond p99");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Expect(Percentile(v, 9900) == 990.0, "nearest-rank p99 of 1..1000");
  Expect(Percentile(v, 5000) == 500.0, "nearest-rank p50 of 1..1000");
  Expect(Percentile({7.0}, 9900) == 7.0, "percentile of one value");
  // Two windows of 1..1000 and 1001..2000; the partial third is left out.
  for (int i = 1001; i <= 2000; ++i) v.push_back(i);
  v.push_back(1e9);
  const std::vector<double> windows = PerWindow(v, 1000, 9900);
  Expect(windows.size() == 2 && windows[0] == 990.0 && windows[1] == 1990.0,
         "per-window p99 of two full windows");
  Expect(PerWindow({1.0, 2.0}, 3, 5000).empty(), "no full window, no value");
}

void TestHostSpeed() {
  // Samples every 10 ns: the kernel at nominal speed until t=100, then at
  // half speed.
  const int64_t nominal = static_cast<int64_t>(HostSpeed::kNominalKernelNs);
  std::vector<SpeedSample> samples;
  for (int64_t t = 0; t < 200; t += 10) {
    samples.push_back({t, t < 100 ? nominal : 2 * nominal});
  }
  const HostSpeed speed(samples);
  Expect(speed.size() == 20, "every sample kept");
  Expect(Near(speed.Factor(0, 90), 1.0), "nominal speed gives factor 1");
  Expect(Near(speed.Factor(100, 190), 2.0), "a half-speed host gives 2");
  Expect(Near(speed.Factor(60, 130), 1.5),
         "an interval's factor is its samples' mean");
  Expect(Near(speed.RescaledSeconds(100, 100 + 2'000'000'000), 1.0),
         "two seconds at half speed rescale to one");
  // A short interval takes the kMinSamples nearest samples.
  Expect(Near(speed.Factor(41, 42), 1.0),
         "a short interval is widened to its nearest samples");
  Expect(Near(speed.Factor(96, 97), 1.5),
         "widening takes the nearer side first, evenly around a boundary");
  Expect(Near(speed.Factor(500, 600), 2.0),
         "an interval after the last sample uses the last ones");
  // One descheduled sample is clipped to kClipFactor x the median.
  samples.clear();
  for (int64_t t = 0; t < 70; t += 10) samples.push_back({t, nominal});
  samples.push_back({70, 1000 * nominal});
  Expect(Near(HostSpeed(samples).Factor(0, 70), (7.0 + 4.0) / 8.0),
         "an outlier is clipped at four times the median");
  Expect(Near(HostSpeed({}).Factor(0, 10), 1.0), "no samples give factor 1");
}

void TestForecastChecks() {
  const std::vector<float> want = {0.5f, -1.25f, 3.0f, 0.0f};
  std::vector<float> got = want;
  Expect(FirstMismatch(got.data(), want.data(), 4) == -1,
         "identical forecasts pass");
  got[2] = want[2] + 2e-5f;  // inside 1e-5 + 1e-5 * 3
  Expect(FirstMismatch(got.data(), want.data(), 4) == -1,
         "a forecast within the SIMD tolerance passes");
  got[2] = want[2] + 1e-3f;
  Expect(FirstMismatch(got.data(), want.data(), 4) == 2,
         "a perturbed forecast fails at the perturbed element");
  got = want;
  got[3] = std::nanf("");
  Expect(FirstMismatch(got.data(), want.data(), 4) == 3,
         "a NaN forecast fails");
  got = want;
  Expect(BitIdentical(got.data(), want.data(), 4), "bit identity holds");
  got[0] = std::nextafter(got[0], 1.0f);
  Expect(!BitIdentical(got.data(), want.data(), 4),
         "a one-ulp change breaks bit identity");

  // The benchmark's own MSE must fail to match a perturbed forecast.
  const std::vector<float> truth = {0.0f, -1.0f, 2.0f, 1.0f};
  ErrorAccumulator a;
  a.Add(want.data(), truth.data(), 4);
  ErrorAccumulator b;
  got = want;
  got[1] += 1e-3f;
  b.Add(got.data(), truth.data(), 4);
  Expect(SameError(a.mse(), a.mse() * (1.0 + 1e-15)),
         "error sums equal up to accumulation rounding pass");
  Expect(!SameError(b.mse(), a.mse()) && !SameError(b.mae(), a.mae()),
         "a perturbed forecast fails the MSE/MAE check");
  Expect(Near(a.mse(), (0.25 + 0.0625 + 1.0 + 1.0) / 4.0),
         "MSE of a known forecast");
  Expect(Near(a.mae(), (0.5 + 0.25 + 1.0 + 1.0) / 4.0),
         "MAE of a known forecast");

  CheckLog log;
  log.Expect(true, "ok");
  log.Expect(false, "bad");
  Expect(log.checks() == 2 && log.failed() == 1,
         "a failed check counts as one failure");
}

void TestSelfTime() {
  SpanRecorder rec(true);
  const int32_t root = rec.Add("root", 0, 100, -1);
  rec.Add("a", 10, 30, root);
  rec.Add("b", 20, 50, root);  // overlaps a: union [10, 50]
  rec.Add("c", 90, 120, root);  // clipped to [90, 100]
  const std::vector<int64_t> self = rec.SelfNs();
  Expect(self[0] == 100 - 40 - 10, "self time subtracts the child union");
  Expect(self[1] == 20, "a leaf's self time is its duration");
  SpanRecorder off(false);
  Expect(off.Begin("x") == -1 && off.spans().empty(),
         "a disabled recorder records nothing");
}

}  // namespace

int RunSelfTest() {
  g_failures = 0;
  TestMedian();
  TestQuartiles();
  TestPercentileRule();
  TestHostSpeed();
  TestForecastChecks();
  TestSelfTime();
  return g_failures;
}

}  // namespace perfbench
