// In-memory span log for the traced benchmark run.
//
// A span is one timed call into a library layer: name, start, end, the span
// that caused it, and the population error it served (-1 for none). Spans
// stay in memory until the run ends; write_chrome_trace() then emits them
// as Chrome trace-event JSON (chrome://tracing, Perfetto) and self_times()
// folds them into per-layer self time: a span's duration minus the part of
// it its children cover. Single-threaded by design - the benchmark runs one
// workload on one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  Clock::time_point t0, t1;
  int parent = -1;   ///< index of the causing span, -1 for a root
  long error = -1;   ///< population index of the error served, -1 for none
};

struct LayerTime {
  std::size_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

class SpanLog {
 public:
  /// Record a finished span; returns its index (a parent for later spans).
  int add(std::string name, Clock::time_point t0, Clock::time_point t1,
          int parent, long error = -1);

  /// Start a span now; close() ends it. For spans whose children are
  /// recorded while they are open.
  int open(std::string name, int parent) {
    const auto now = Clock::now();
    return add(std::move(name), now, now, parent);
  }
  void close(int span) { spans_[span].t1 = Clock::now(); }

  /// Re-parent an already recorded span (error spans are synthesised after
  /// a pass as the hull of their children).
  void set_parent(int span, int parent) { spans_[span].parent = parent; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name self time over every span.
  std::map<std::string, LayerTime> self_times() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds from the
  /// first span). Returns false if the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
