// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened only in the benchmark's own files, around the calls it
// makes into each layer's public API; nothing inside the program is
// instrumented by it. The recorder is single-threaded (the benchmark is a
// closed loop with one caller) and writes the spans out once, at the end
// of the run, in the Chrome trace_event format `timekd_cli trace` reads.
#ifndef TIMEKD_PERFBENCH_SPANS_H_
#define TIMEKD_PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "host_speed.h"

namespace perfbench {

class SpanRecorder {
 public:
  /// A recorded interval. `name` points at a string literal; `parent` is
  /// the index of the enclosing span, -1 for a root.
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a child of the innermost open span; returns its index, or -1
  /// when recording is off.
  int32_t Begin(const char* name);
  void End(int32_t id);

  /// Records a closed interval measured elsewhere (e.g. from training
  /// observer timestamps) as a child of `parent`.
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the part of it its child spans cover.
  std::vector<int64_t> SelfNs() const;

  /// Writes {"traceEvents":[...]} with one "X" event per span (ts/dur in
  /// microseconds, args: id, parent_id, depth, self_us). Returns false on
  /// an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  int64_t origin_ns_ = NowNs();
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name)
      : recorder_(recorder), id_(recorder.Begin(name)) {}
  ~ScopedSpan() { recorder_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // TIMEKD_PERFBENCH_SPANS_H_
