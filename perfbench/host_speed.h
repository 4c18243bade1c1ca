// Host-speed sampling: how the benchmark stays steady on a shared host.
//
// On the shared 4-vCPU KVM guest the benchmark was tuned on, each vCPU
// switches, every few hundred milliseconds to seconds, between a fast and
// a slow state (other tenants of the host come and go; no steal time is
// reported). The same code runs up to ~1.5x slower in the slow state, and
// the share of it in a run drifts over minutes: raw wall times spread by
// 0.3-0.4 (IQR / median over 10 seeds) on the serving metrics.
//
// A timer signal interrupts the benchmark's (single) thread every
// kSampleIntervalNs and runs a fixed reference kernel there, on the CPU
// and at the moment the program runs. Its duration measures the host's
// speed around that moment. HostSpeed then rescales every timed interval
// by the mean reference time of the samples taken during it: a time is
// reported as it would read on the host at nominal speed. The kernel's own
// time is taken out of every interval: NowNs() is a program clock.
#ifndef TIMEKD_PERFBENCH_HOST_SPEED_H_
#define TIMEKD_PERFBENCH_HOST_SPEED_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

namespace internal {
/// Nanoseconds the sampler's handler has run so far (written only by it).
inline std::atomic<int64_t> g_sampler_ns{0};
}  // namespace internal

/// Nanoseconds the sampler's handler has taken from this process so far.
inline int64_t SamplerNs() {
  // relaxed: only the handler, on this same thread, writes it, so program
  // order is the only order there is.
  return internal::g_sampler_ns.load(std::memory_order_relaxed);
}

/// Program clock, in nanoseconds: steady_clock minus the time spent in the
/// sampler's handler. Every time the benchmark reports is measured on it.
inline int64_t NowNs() {
  for (;;) {  // retried if the handler ran between the two reads
    const int64_t before = SamplerNs();
    const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now().time_since_epoch())
                            .count();
    if (SamplerNs() == before) return now - before;
  }
}

inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// One run of the reference kernel: when it started (program clock) and
/// how long it took.
struct SpeedSample {
  int64_t at_ns = 0;
  int64_t kernel_ns = 0;
};

/// A sample every 5 ms; the kernel takes ~30 us, 0.6% of the time.
inline constexpr int64_t kSampleIntervalNs = 5'000'000;

/// Installs the handler and starts the timer on the calling thread. Call
/// once, before anything is timed. Returns false if the timer could not be
/// created.
bool StartHostSpeedSampler();

/// Stops the timer and returns the samples in time order. `overflowed` is
/// set when the run outlasted the sample buffer (~5 minutes).
std::vector<SpeedSample> StopHostSpeedSampler(bool* overflowed);

/// Serving times calls of ~0.1 ms, into which a timer signal would fall.
/// While paused the timer is off, and the benchmark samples between its
/// calls with SampleHostSpeedIfDue() instead, at the same rate.
void PauseHostSpeedTimer();
void ResumeHostSpeedTimer();
void SampleHostSpeedIfDue();

/// RAII pause of the sampler's timer.
class HostSpeedTimerPause {
 public:
  HostSpeedTimerPause() { PauseHostSpeedTimer(); }
  ~HostSpeedTimerPause() { ResumeHostSpeedTimer(); }
  HostSpeedTimerPause(const HostSpeedTimerPause&) = delete;
  HostSpeedTimerPause& operator=(const HostSpeedTimerPause&) = delete;
};

/// Host speed over time, from the samples of one run.
class HostSpeed {
 public:
  /// The kernel's time at nominal speed: about its median over runs on the
  /// tuning host, so a rescaled time reads close to the wall time there.
  static constexpr double kNominalKernelNs = 31000.0;
  /// An interval with fewer samples is widened to this many nearest ones.
  static constexpr int64_t kMinSamples = 8;
  /// Samples above this multiple of the run's median (the handler itself
  /// descheduled) are clipped to it.
  static constexpr double kClipFactor = 4.0;

  explicit HostSpeed(std::vector<SpeedSample> samples);

  /// Mean kernel time over [start_ns, end_ns] ÷ kNominalKernelNs: above 1
  /// when the host ran slow. 1 without samples.
  double Factor(int64_t start_ns, int64_t end_ns) const;

  /// Seconds of [start_ns, end_ns] at nominal host speed.
  double RescaledSeconds(int64_t start_ns, int64_t end_ns) const {
    return Seconds(end_ns - start_ns) / Factor(start_ns, end_ns);
  }

  size_t size() const { return at_.size(); }
  /// Median kernel time of the run, in ns.
  double median_kernel_ns() const { return median_ns_; }

 private:
  double median_ns_ = 0.0;
  std::vector<int64_t> at_;
  std::vector<double> prefix_;  // prefix sums of the clipped kernel times
};

}  // namespace perfbench

#endif  // TIMEKD_PERFBENCH_HOST_SPEED_H_
