// Command line of the TimeKD benchmark binary. perfbench/run.py builds it
// and calls it; it can also be run directly:
//
//   timekd_perfbench --workload fit|distill|serve --seed N --seconds S
//                    --trace 0|1 [--trace-out PATH] [--scratch-dir DIR]
//   timekd_perfbench --self-test
//
// The last stdout line is "RESULT " followed by one JSON object with the
// keys correct, attempted, failed and metrics. Exit codes: 0 all checks
// passed, 1 a check failed, 2 bad usage or a refused build/pool size.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif
#ifndef PERFBENCH_DEBUG_CHECKS
#define PERFBENCH_DEBUG_CHECKS 0
#endif

namespace perfbench {
namespace {

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
}

bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::string(PERFBENCH_SANITIZE).size() > 0;
#endif
}

/// Why this build must not be timed, or "" when it may.
std::string RefusedBuild() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "' is not optimized";
  }
  if (SanitizerBuild()) return "sanitizer build";
  if (PERFBENCH_DEBUG_CHECKS) return "TIMEKD_DEBUG_CHECKS build";
#ifndef NDEBUG
  return "assertions enabled (NDEBUG unset)";
#else
  return "";
#endif
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: timekd_perfbench --workload "
               "fit|distill|serve --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH] [--scratch-dir DIR]\n"
               "       timekd_perfbench --self-test\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool self_test_only = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed must be an integer");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 60.0) {
        return Usage("--seconds must be in (0, 60]");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else if (arg == "--scratch-dir") {
      opt.scratch_dir = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }

  const int self_test_failures = RunSelfTest();
  if (self_test_only || self_test_failures > 0) {
    std::printf("self-test: %d failure(s)\n", self_test_failures);
    return self_test_failures == 0 ? 0 : 1;
  }
  const auto& names = WorkloadNames();
  if (!have_workload ||
      std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    return Usage("--workload must be one of fit, distill, serve");
  }

  // Guards: only optimized, uninstrumented builds are timed, and the pool
  // never exceeds the CPUs this process may run on.
  const std::string refused = RefusedBuild();
  if (!refused.empty()) {
    std::fprintf(stderr, "refusing to benchmark: %s\n", refused.c_str());
    return 2;
  }
  const int nproc = Nproc();
  if (kPoolThreads > nproc) {
    std::fprintf(stderr, "refusing to benchmark: pool of %d > nproc %d\n",
                 kPoolThreads, nproc);
    return 2;
  }

  const Result r = RunWorkload(opt);

  std::printf(
      "provenance {\"workload\":%s,\"seed\":%llu,\"held_out_seed\":%llu,"
      "\"seconds\":%s,\"trace\":%d,\"nproc\":%d,\"pool_threads\":%d,"
      "\"compiler\":%s,\"build_type\":%s}\n",
      JsonString(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(kHeldOutSeed),
      JsonNumber(opt.seconds).c_str(), opt.trace ? 1 : 0, nproc,
      r.pool_threads, JsonString(__VERSION__).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str());
  for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
  for (const Metric& m : r.end_to_end) {
    std::printf("end_to_end%s %-28s %16.6f %s\n", opt.trace ? " (traced)" : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : r.accuracy) {
    std::printf("accuracy %-30s %16.9f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : r.per_layer) {
    std::printf("per_layer %-40s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  // The published metrics: end-to-end on untraced runs, per-layer on
  // traced ones. The traced run's end-to-end values stay in the lines
  // above, for the tracing overhead.
  const std::vector<Metric>& published = opt.trace ? r.per_layer : r.end_to_end;
  std::string json = "{\"correct\":";
  json += r.failed == 0 ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(r.attempted);
  json += ",\"failed\":" + std::to_string(r.failed);
  json += ",\"metrics\":{";
  for (size_t i = 0; i < published.size(); ++i) {
    if (i > 0) json += ",";
    json += JsonString(published[i].name) + ":{\"value\":" +
            JsonNumber(published[i].value) +
            ",\"unit\":" + JsonString(published[i].unit) + "}";
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  std::fflush(stdout);
  return r.failed == 0 ? 0 : 1;
}
