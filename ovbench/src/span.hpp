// Host-time spans recorded by the benchmark around its own calls into the
// ovprof layers.
//
// Spans nest strictly: the benchmark opens them from its main thread
// only, never from rank code running on simulator fibers, so a stack gives
// every span its parent.  Spans stay in memory until the run ends.
#pragma once

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace ovbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsBetween(Clock::time_point a,
                                           Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the log was created
  double end = 0.0;
  int parent = -1;  // index of the enclosing span; -1 at top level
  int pass = -1;    // pass id the span belongs to
};

class SpanLog {
 public:
  /// A disabled log records nothing; open() then costs one branch.
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  void setEnabled(bool on) { enabled_ = on; }
  void setPass(int pass) { pass_ = pass; }

  /// Opens a span nested in the innermost open one; returns its index, or
  /// -1 when the log is disabled.
  int open(std::string name);
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per span, one per line.
  void writeJsonLines(std::ostream& os) const;

 private:
  bool enabled_;
  int pass_ = -1;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name)
      : log_(log), id_(log.open(std::move(name))) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children are clipped to the parent and
/// their overlaps counted once).
[[nodiscard]] std::vector<double> selfTimes(const std::vector<Span>& spans);

/// Sum of the self times of the spans named `name` in pass `pass`.
[[nodiscard]] double selfTimeOf(const std::vector<Span>& spans,
                                const std::vector<double>& self,
                                std::string_view name, int pass);

}  // namespace ovbench
