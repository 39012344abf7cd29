// bench.h — what every workload shares: options, the result record,
// and the statistics helpers.
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Input size: kFull is the benchmark; kTiny is the self-test size.
enum class Size { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  /// Deliberately corrupted input, to prove the checks can fail:
  /// "colsnap-byte" (corpus-1m) or "monitor-accept-all" (serve-*, traced).
  std::string sabotage;
  std::string trace_out;   ///< span dump path ("" = none)
  std::string tmpdir = "perfbench-tmp";  ///< scratch files, removed after
  std::size_t pool_threads = 1;
  std::size_t nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::vector<double> setup_s;        ///< one entry per set-up repetition
  std::vector<double> pass_s;         ///< measured passes (untraced)
  std::vector<Metric> workload;       ///< workload-specific end-to-end
  std::vector<Metric> layers;         ///< per-layer (traced run)
  std::uint64_t input_digest = 0;     ///< fingerprint of the generated inputs

  /// Counts one checked operation; records the message when it failed.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

[[nodiscard]] inline double seconds_since(std::int64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

[[nodiscard]] inline double median(const std::vector<double>& v) {
  return percentile(v, 0.5);
}

/// Number of set-up repetitions before the passes; the last one's
/// inputs are kept. serve-* and analyze-wide also set up once more
/// after every measured pass (see measure), so their setup_s median
/// samples the whole run rather than its first second.
inline constexpr int kSetupReps = 3;

/// Runs `pass` until `seconds` of measurement have elapsed (at least
/// `min_passes` times), returning each pass's wall time. `between` runs
/// after each pass, outside its timing.
template <typename Pass, typename Between>
std::vector<double> measure(double seconds, std::size_t min_passes,
                            Pass&& pass, Between&& between) {
  std::vector<double> times;
  const std::int64_t begin = now_ns();
  while (times.size() < min_passes || seconds_since(begin) < seconds) {
    const std::int64_t t0 = now_ns();
    pass(times.size());
    times.push_back(seconds_since(t0));
    between();
  }
  return times;
}

template <typename Pass>
std::vector<double> measure(double seconds, std::size_t min_passes,
                            Pass&& pass) {
  return measure(seconds, min_passes, pass, [] {});
}

/// A traced run's passes and spans.
struct TracedRun {
  TraceAnalysis analysis;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> efficiency;  ///< process CPU / (pool threads x wall)
};

/// Process CPU time (user + system) in seconds.
[[nodiscard]] double process_cpu_s();

/// Alternates `pass(false)` — untraced, the overhead baseline — with
/// `pass(true)` under tracing until `opt.seconds` have elapsed (at least
/// two of each), analysing each traced pass's spans.
template <typename Pass>
TracedRun alternate_traced(const Options& opt, Pass&& pass) {
  TracedRun t;
  const std::int64_t begin = now_ns();
  while (t.traced_s.size() < 2 || seconds_since(begin) < opt.seconds) {
    std::int64_t t0 = now_ns();
    pass(false);
    t.untraced_s.push_back(seconds_since(t0));

    (void)drain_spans();
    set_tracing(true);
    const double cpu0 = process_cpu_s();
    t0 = now_ns();
    pass(true);
    const double wall = seconds_since(t0);
    const double cpu = process_cpu_s() - cpu0;
    set_tracing(false);
    t.traced_s.push_back(wall);
    t.efficiency.push_back(cpu / (static_cast<double>(opt.pool_threads) * wall));
    t.analysis.add(drain_spans());
  }
  return t;
}

/// Adds the metrics every traced run reports — runtime.pool_threads, the
/// empty parallel_for dispatch latency, runtime.parallel_efficiency,
/// trace.coverage and trace.overhead_frac — checks the coverage, and
/// writes the span dump.
void finish_traced(const Options& opt, const TracedRun& t, RunResult& r);

RunResult run_serve(const Options& opt, bool attack);
RunResult run_corpus(const Options& opt);
RunResult run_analyze(const Options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H
