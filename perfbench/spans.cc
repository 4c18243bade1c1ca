#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int32_t SpanRecorder::Begin(const char* name) {
  if (!enabled_) return -1;
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back({name, NowNs(), 0, parent});
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int32_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  // Spans close in LIFO order (ScopedSpan), so `id` is the innermost one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int32_t SpanRecorder::Add(const char* name, int64_t start_ns, int64_t end_ns,
                          int32_t parent) {
  if (!enabled_) return -1;
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back({name, start_ns, end_ns, parent});
  return id;
}

std::vector<int64_t> SpanRecorder::SelfNs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to the
    // parent's own interval.
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (const auto& [begin, end] : kids) {
      const int64_t lo = std::max(begin, cursor);
      const int64_t hi = std::min(end, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = std::max<int64_t>(0, (s.end_ns - s.start_ns) - covered);
  }
  return self;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfNs();
  std::vector<int> depth(spans_.size(), 0);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0) depth[i] = depth[static_cast<size_t>(s.parent)] + 1;
    // Ids are 1-based in the file: parent_id 0 means "root".
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent_id\":%d,\"depth\":%d,\"self_us\":%.3f}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - origin_ns_) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i + 1,
                 s.parent + 1, depth[i], static_cast<double>(self[i]) * 1e-3);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
