#include "host_speed.h"

#include <pthread.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>

namespace perfbench {
namespace {

constexpr size_t kCapacity = size_t{1} << 16;  // 327 s at 5 ms
constexpr int kDim = 16;
constexpr int kMatmulReps = 6;
constexpr int kMathTerms = 400;

// The reference kernel's inputs, filled once by StartHostSpeedSampler():
// the handler must not allocate.
float g_a[kDim * kDim];
float g_b[kDim * kDim];
float g_c[kDim * kDim];
float g_x[kMathTerms];
volatile float g_sink;

SpeedSample g_samples[kCapacity];
int64_t g_last_sample_ns = 0;  // raw clock
std::atomic<size_t> g_count{0};
std::atomic<bool> g_overflowed{false};
timer_t g_timer;
bool g_running = false;

int Signal() { return SIGRTMIN + 3; }

int64_t RawNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);  // steady_clock's clock
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void FillInputs() {
  for (int i = 0; i < kDim * kDim; ++i) {
    g_a[i] = 0.01f * static_cast<float>(i % 7);
    g_b[i] = 0.01f * static_cast<float>((i + 3) % 7);
  }
  for (float& x : g_x) x = 0.5f;
}

/// Small dense layers, like the model's matmuls, then a run of tanh/exp,
/// like its activations and softmax. On the tuning host the mix tracks the
/// program's slowdown in the slow state better than either part alone.
float ReferenceKernel() {
  for (int rep = 0; rep < kMatmulReps; ++rep) {
    std::fill(g_c, g_c + kDim * kDim, 0.0f);
    for (int i = 0; i < kDim; ++i) {
      for (int k = 0; k < kDim; ++k) {
        const float a = g_a[i * kDim + k];
        for (int j = 0; j < kDim; ++j) {
          g_c[i * kDim + j] += a * g_b[k * kDim + j];
        }
      }
    }
  }
  float s = g_c[kDim + 1];
  for (int i = 0; i < kMathTerms; ++i) {
    s += std::tanh(g_x[i] * 0.001f * static_cast<float>(i)) +
         std::exp(-g_x[i]);
  }
  return s;
}

void OnSample(int) {
  const int saved_errno = errno;
  const int64_t t0 = RawNs();
  g_sink = ReferenceKernel();
  const int64_t t1 = RawNs();
  // relaxed: this handler is the only writer and runs on the one thread
  // that reads these, between two of its instructions.
  const int64_t spent = internal::g_sampler_ns.load(std::memory_order_relaxed);
  const size_t n = g_count.load(std::memory_order_relaxed);
  if (n < kCapacity) {
    g_samples[n] = {t0 - spent, t1 - t0};
    g_count.store(n + 1, std::memory_order_relaxed);
  } else {
    g_overflowed.store(true, std::memory_order_relaxed);
  }
  g_last_sample_ns = t0;
  internal::g_sampler_ns.store(spent + (RawNs() - t0),
                               std::memory_order_relaxed);
  errno = saved_errno;
}

bool ArmTimer(int64_t period_ns) {
  itimerspec period = {};
  period.it_interval.tv_nsec = period_ns;
  period.it_value.tv_nsec = period_ns;
  return timer_settime(g_timer, 0, &period, nullptr) == 0;
}

void SetSignalBlocked(bool blocked) {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, Signal());
  pthread_sigmask(blocked ? SIG_BLOCK : SIG_UNBLOCK, &set, nullptr);
}

}  // namespace

bool StartHostSpeedSampler() {
  if (g_running) return true;
  FillInputs();
  struct sigaction sa = {};
  sa.sa_handler = OnSample;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(Signal(), &sa, nullptr) != 0) return false;
  // Only this thread is interrupted: the timer names its thread id.
  sigevent sev = {};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = Signal();
  sev._sigev_un._tid = gettid();  // sigev_notify_thread_id in newer glibc
  if (timer_create(CLOCK_MONOTONIC, &sev, &g_timer) != 0) return false;
  if (!ArmTimer(kSampleIntervalNs)) {
    timer_delete(g_timer);
    return false;
  }
  g_running = true;
  return true;
}

void PauseHostSpeedTimer() {
  if (!g_running) return;
  ArmTimer(0);
  // A signal generated before the disarm waits until the resume, so it
  // cannot interrupt SampleHostSpeedIfDue's own call of the handler.
  SetSignalBlocked(true);
}

void ResumeHostSpeedTimer() {
  if (!g_running) return;
  SetSignalBlocked(false);
  ArmTimer(kSampleIntervalNs);
}

void SampleHostSpeedIfDue() {
  if (g_running && RawNs() - g_last_sample_ns >= kSampleIntervalNs) {
    OnSample(0);
  }
}

std::vector<SpeedSample> StopHostSpeedSampler(bool* overflowed) {
  if (g_running) {
    timer_delete(g_timer);  // the handler stays installed for a late signal
    g_running = false;
  }
  *overflowed = g_overflowed.load(std::memory_order_relaxed);
  const size_t n = g_count.load(std::memory_order_relaxed);
  return std::vector<SpeedSample>(g_samples, g_samples + n);
}

HostSpeed::HostSpeed(std::vector<SpeedSample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const SpeedSample& a, const SpeedSample& b) {
              return a.at_ns < b.at_ns;
            });
  std::vector<double> times;
  for (const SpeedSample& s : samples) {
    times.push_back(static_cast<double>(s.kernel_ns));
  }
  std::vector<double> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  median_ns_ = sorted.empty() ? 0.0 : sorted[sorted.size() / 2];
  const double clip = kClipFactor * median_ns_;
  prefix_.push_back(0.0);
  for (size_t i = 0; i < samples.size(); ++i) {
    at_.push_back(samples[i].at_ns);
    prefix_.push_back(prefix_.back() + std::min(times[i], clip));
  }
}

double HostSpeed::Factor(int64_t start_ns, int64_t end_ns) const {
  const size_t n = at_.size();
  if (n == 0) return 1.0;
  size_t lo = static_cast<size_t>(
      std::lower_bound(at_.begin(), at_.end(), start_ns) - at_.begin());
  size_t hi = static_cast<size_t>(
      std::upper_bound(at_.begin(), at_.end(), end_ns) - at_.begin());
  const size_t want = std::min(static_cast<size_t>(kMinSamples), n);
  // Widen a short interval by its nearest samples on either side.
  while (hi - lo < want) {
    const bool take_left =
        lo > 0 && (hi == n || start_ns - at_[lo - 1] <= at_[hi] - end_ns);
    if (take_left) {
      --lo;
    } else {
      ++hi;
    }
  }
  const double mean =
      (prefix_[hi] - prefix_[lo]) / static_cast<double>(hi - lo);
  return mean / kNominalKernelNs;
}

}  // namespace perfbench
