// trace.h — the benchmark's span recorder.
//
// Spans are recorded from the benchmark's own files around the calls it
// makes into each layer's public functions; nothing inside the library
// is instrumented. Each span carries (name, start, end, parent span,
// request id). Spans go into per-thread buffers in memory and are only
// read after the traced work has finished (the thread pool's completion
// barrier orders the worker writes before the reads).
//
// Parent links: a span's parent is the innermost open span on its own
// thread. A span opened with Fanout::kYes also becomes the parent of
// spans opened on other threads that have no open span of their own —
// that is how study runs executed by pool workers hang under the sweep
// that dispatched them.
//
// When tracing is off, ScopedSpan does nothing but test one flag.
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  ///< static string: the layer entry timed
  std::uint64_t id = 0;
  std::uint64_t parent = 0;    ///< 0 = root
  std::uint64_t request = 0;   ///< spans of one request share it
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Turns recording on or off. Call only while no span is open.
void set_tracing(bool on) noexcept;
[[nodiscard]] bool tracing() noexcept;

enum class Fanout { kNo, kYes };

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0,
                      Fanout fanout = Fanout::kNo) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_ = false;
  bool fanout_ = false;
  std::uint64_t saved_ambient_ = 0;
  std::uint64_t saved_ambient_request_ = 0;
  Span span_;
};

/// Moves every recorded span out of the per-thread buffers (all threads
/// that recorded must be idle).
[[nodiscard]] std::vector<Span> drain_spans();

/// Per-name aggregate over analysed spans.
struct SpanStats {
  std::vector<double> dur_us;  ///< one entry per span
  double self_us = 0;          ///< summed self time
  double total_us = 0;         ///< summed duration
};

/// Accumulates spans pass by pass: durations, self times (duration minus
/// the part of the span covered by the union of its children) and root
/// coverage. Keeps the spans of the latest pass for write-out.
class TraceAnalysis {
 public:
  void add(std::vector<Span> spans);

  [[nodiscard]] const SpanStats& stats(const std::string& name) const;
  /// Share of root-span time covered by layer spans.
  [[nodiscard]] double coverage() const noexcept {
    return root_us_ > 0 ? 1.0 - root_self_us_ / root_us_ : 0.0;
  }
  /// Summed self time of `name` as a share of all root-span time.
  [[nodiscard]] double self_frac(const std::string& name) const;

  /// Summed duration of `name` spans per recording thread, over the
  /// latest pass.
  [[nodiscard]] std::vector<double> busy_by_thread(const std::string& name) const;

  /// Writes the latest pass's spans as tab-separated rows (at most
  /// `limit`). Returns false if the file cannot be written.
  bool write(const std::string& path, std::size_t limit) const;

 private:
  std::map<std::string, SpanStats> by_name_;
  double root_us_ = 0;
  double root_self_us_ = 0;
  std::vector<Span> last_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
