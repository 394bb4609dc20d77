#include "spans.h"

#include <cstdio>

namespace perfbench {

int SpanLog::add(std::string name, Clock::time_point t0, Clock::time_point t1,
                 int parent, long error) {
  spans_.push_back({std::move(name), t0, t1, parent, error});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, LayerTime> SpanLog::self_times() const {
  // Children never overlap each other (one thread), so a parent's covered
  // time is the plain sum of its children's durations.
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_s[s.parent] += seconds_between(s.t0, s.t1);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = seconds_between(spans_[i].t0, spans_[i].t1);
    LayerTime& lt = out[spans_[i].name];
    ++lt.count;
    lt.total_s += d;
    lt.self_s += d - child_s[i];
  }
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const Clock::time_point base =
      spans_.empty() ? Clock::time_point{} : spans_.front().t0;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - base).count();
  };
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Names are fixed identifiers chosen by the benchmark: no escaping.
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"error\":%ld}}",
                 i ? "," : "", s.name.c_str(), us(s.t0), us(s.t1) - us(s.t0),
                 i, s.parent, s.error);
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
