// The TimeKD pipeline benchmark: workloads, metrics and their output.
// See README.md in this directory for why each workload exists and which
// end-to-end metric each per-layer metric should move.
#ifndef TIMEKD_PERFBENCH_PERFBENCH_H_
#define TIMEKD_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A seed held out from tuning: later gain claims are re-checked on it.
inline constexpr uint64_t kHeldOutSeed = 9173;

/// Pool size of every workload: one thread, so all of the program's work
/// runs on the thread the host-speed sampler (host_speed.h) measures. Each
/// vCPU of the tuning host changes speed on its own, and a second pool
/// thread's CPU is one the sampler cannot see: at two threads the rescaled
/// fit_s still spread by 0.08 over 6 runs of one seed, at one thread by
/// 0.02. Two threads were not faster either (median fit 13.1 s vs 12.4 s):
/// at these shapes the pool's jobs are too small to pay for the hand-off.
inline constexpr int kPoolThreads = 1;

struct Options {
  std::string workload;  // fit | distill | serve
  uint64_t seed = 1;
  double seconds = 10.0;  // length of the timed part
  bool trace = false;     // per-layer (traced) run instead of end-to-end
  std::string trace_out;  // Chrome trace path (traced runs)
  std::string scratch_dir = ".";  // where serve writes its checkpoint
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Always measured; printed as the result on untraced runs.
  std::vector<Metric> end_to_end;
  /// Test MSE/MAE, printed on every run (see README.md for why they are
  /// per-layer metrics rather than end-to-end ones).
  std::vector<Metric> accuracy;
  /// Filled on traced runs only.
  std::vector<Metric> per_layer;
  /// Human-readable report lines (sample counts, checks, self times).
  std::vector<std::string> notes;
  int pool_threads = 0;
};

/// The workloads, by the names README.md defines them under.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload in this process, on a pool of kPoolThreads.
Result RunWorkload(const Options& opt);

/// Self-test of the statistics and output checks; prints each failure to
/// stderr and returns the number of failures.
int RunSelfTest();

}  // namespace perfbench

#endif  // TIMEKD_PERFBENCH_PERFBENCH_H_
