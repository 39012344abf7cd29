// dfsm_perfbench — runs one named workload from a seed and prints its
// end-to-end metrics (untraced) or its per-layer metrics (--trace 1).
//
//   dfsm_perfbench --workload serve-benign --seed 1 --seconds 10 --trace 0
//
// Standard output: a "context" line (host and build), a "report" line
// (every end-to-end figure of the workload, with units; untraced runs
// only), an "inputs" line (a fingerprint of the generated inputs), and
// last a JSON object {"correct", "attempted", "failed", "metrics"}. The exit
// code is 0 when the run completed, whether or not its checks passed;
// it is 2 on bad arguments or a build/host the benchmark refuses.
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <sched.h>

#include "bench.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The gated end-to-end metrics, reported by every workload.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// Every per-layer metric; a layer a workload does not exercise reads 0.
constexpr MetricDef kLayers[] = {
    {"loadgen.generate_us_p50", "us"},
    {"loadgen.generate_us_p99", "us"},
    {"loadgen.generate_self_frac", "fraction"},
    {"loadgen.request_us_p50", "us"},
    {"loadgen.request_us_p99", "us"},
    {"netsim.parse_head_us_p50", "us"},
    {"netsim.parse_head_us_p99", "us"},
    {"netsim.parse_head_self_frac", "fraction"},
    {"apps.construct_count", "count"},
    {"apps.construct_us_p50", "us"},
    {"apps.construct_us_p99", "us"},
    {"apps.construct_self_frac", "fraction"},
    {"apps.serve_us_p50", "us"},
    {"apps.serve_us_p99", "us"},
    {"apps.serve_self_frac", "fraction"},
    {"apps.nullhttpd_serve_us_p99", "us"},
    {"apps.ghttpd_serve_us_p99", "us"},
    {"apps.iis_serve_us_p99", "us"},
    {"apps.rejected", "count"},
    {"apps.compromised", "count"},
    {"apps.study_runs", "count"},
    {"apps.study_run_us_p50", "us"},
    {"apps.study_run_us_p99", "us"},
    {"apps.study_run_self_frac", "fraction"},
    {"analysis.observe_us_p50", "us"},
    {"analysis.observe_us_p99", "us"},
    {"analysis.observe_self_frac", "fraction"},
    {"analysis.violations", "count"},
    {"analysis.sweep_ms", "ms"},
    {"analysis.sweep_compose_self_frac", "fraction"},
    {"analysis.exploit_evaluations", "count"},
    {"analysis.benign_evaluations", "count"},
    {"analysis.rank_ms", "ms"},
    {"analysis.rank_memo_hit_ratio", "fraction"},
    {"analysis.sweep_all_curated_ms", "ms"},
    {"analysis.hidden_path_scan_ms", "ms"},
    {"core.evaluate_batch_ms", "ms"},
    {"core.checksum_mb_per_s", "MB/s"},
    {"bugtraq.csv_parse_ms", "ms"},
    {"bugtraq.bulk_add_batch_ms", "ms"},
    {"bugtraq.csv_parse_scaling", "ratio"},
    {"bugtraq.bulk_add_batch_scaling", "ratio"},
    {"bugtraq.colsnap_decode_ms", "ms"},
    {"bugtraq.csv_bytes_per_record", "B"},
    {"bugtraq.colsnap_bytes_per_record", "B"},
    {"bugtraq.append_batch_us_p50", "us"},
    {"bugtraq.append_batch_us_p99", "us"},
    {"bugtraq.epochs_published", "count"},
    {"bugtraq.snapshot_acquire_ns_p50", "ns"},
    {"bugtraq.snapshot_acquire_ns_p99", "ns"},
    {"bugtraq.histogram_query_us_p50", "us"},
    {"bugtraq.histogram_query_us_p99", "us"},
    {"bugtraq.scan_count_ms_p50", "ms"},
    {"bugtraq.scan_count_ms_p99", "ms"},
    {"staticlint.lint_ms", "ms"},
    {"staticlint.rules_executed", "count"},
    {"staticlint.memo_hit_ratio", "fraction"},
    {"fssim.explore_ms", "ms"},
    {"fssim.schedules_replayed", "count"},
    {"faultinject.trial_ms_p50", "ms"},
    {"faultinject.trial_ms_p99", "ms"},
    {"faultinject.trials_failed", "count"},
    {"runtime.pool_threads", "count"},
    {"runtime.dispatch_us_p50", "us"},
    {"runtime.dispatch_us_p99", "us"},
    {"runtime.agent_busy_max_over_mean", "ratio"},
    {"runtime.parallel_efficiency", "fraction"},
    {"trace.coverage", "fraction"},
    {"trace.overhead_frac", "fraction"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "dfsm_perfbench: " << why << "\n"
            << "usage: dfsm_perfbench --workload W --seed N --seconds S "
               "--trace 0|1\n"
               "  W: serve-benign | serve-attack | corpus-1m | analyze-wide\n"
               "  [--size full|tiny] [--sabotage colsnap-byte|"
               "monitor-accept-all]\n"
               "  [--trace-out FILE] [--tmpdir DIR] [--commit ID]\n";
  std::exit(2);
}

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) os << ", ";
    os << json_string(metrics[i].name) << ": {\"value\": "
       << json_number(metrics[i].value)
       << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void finish_traced(const Options& opt, const TracedRun& t, RunResult& r) {
  std::vector<double> dispatch_us;
  const int probes = opt.size == Size::kTiny ? 200 : 5000;
  const std::size_t blocks = dfsm::runtime::ThreadPool::global().parallelism();
  for (int i = 0; i < probes; ++i) {
    const std::int64_t t0 = now_ns();
    dfsm::runtime::parallel_for(blocks, [](std::size_t, std::size_t) {});
    dispatch_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  const double coverage = t.analysis.coverage();
  r.layers.push_back({"runtime.pool_threads",
                      static_cast<double>(opt.pool_threads), "count"});
  r.layers.push_back(
      {"runtime.dispatch_us_p50", percentile(dispatch_us, 0.50), "us"});
  r.layers.push_back(
      {"runtime.dispatch_us_p99", percentile(dispatch_us, 0.99), "us"});
  r.layers.push_back(
      {"runtime.parallel_efficiency", median(t.efficiency), "fraction"});
  r.layers.push_back({"trace.coverage", coverage, "fraction"});
  r.layers.push_back({"trace.overhead_frac",
                      median(t.traced_s) / median(t.untraced_s) - 1,
                      "fraction"});
  r.check(coverage >= 0.9, opt.workload + ": trace coverage " +
                               std::to_string(coverage) + " below 0.9");
  if (!opt.trace_out.empty() && !t.analysis.write(opt.trace_out, 200000)) {
    throw std::runtime_error("cannot write " + opt.trace_out);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string commit = "unknown";
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = val;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
        have_seconds = opt.seconds > 0;
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        opt.trace = val == "1";
        have_trace = true;
      } else if (arg == "--size") {
        if (val != "full" && val != "tiny") usage("--size takes full|tiny");
        opt.size = val == "tiny" ? Size::kTiny : Size::kFull;
      } else if (arg == "--sabotage") {
        if (val != "colsnap-byte" && val != "monitor-accept-all") {
          usage("unknown sabotage '" + val + "'");
        }
        opt.sabotage = val;
      } else if (arg == "--trace-out") {
        opt.trace_out = val;
      } else if (arg == "--tmpdir") {
        opt.tmpdir = val;
      } else if (arg == "--commit") {
        commit = val;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": '" + val + "'");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  static const std::set<std::string> kWorkloads = {
      "serve-benign", "serve-attack", "corpus-1m", "analyze-wide"};
  if (kWorkloads.count(opt.workload) == 0) {
    usage("unknown workload '" + opt.workload + "'");
  }

  // Freed memory stays in the process. glibc adapts its mmap threshold
  // to the first large frees a process happens to make, which leaves the
  // fresh-replica path (256 KiB heap and 128 KiB stack images per
  // exploit) in one of two states that differ 2x in speed from one
  // process to the next; and it hands large blocks back to the kernel
  // on free, so each analyze-wide pass faulted its ~150 MiB of sweep
  // rows in again (~37k page faults, a fifth of the pass, and the part
  // that varied most from run to run). Serving every block from the
  // heap and never trimming it measures the library's own work.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, -1);

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::cerr << "dfsm_perfbench: refusing to report from a '" << build_type
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  opt.nproc = host_cpus();
  opt.pool_threads = std::min<std::size_t>(4, opt.nproc);
  dfsm::runtime::ThreadPool::set_global_threads(opt.pool_threads);
  if (dfsm::runtime::ThreadPool::global().parallelism() > opt.nproc) {
    std::cerr << "dfsm_perfbench: refusing to report: pool of "
              << dfsm::runtime::ThreadPool::global().parallelism()
              << " threads exceeds nproc " << opt.nproc << "\n";
    return 2;
  }

  std::cout << "context {\"workload\": " << json_string(opt.workload)
            << ", \"seed\": " << opt.seed
            << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"size\": "
            << json_string(opt.size == Size::kTiny ? "tiny" : "full")
            << ", \"nproc\": " << opt.nproc
            << ", \"pool_threads\": " << opt.pool_threads
            << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
            << ", \"build_type\": " << json_string(build_type)
            << ", \"commit\": " << json_string(commit) << "}" << std::endl;

  RunResult r;
  try {
    set_tracing(false);
    if (opt.workload == "serve-benign") {
      r = run_serve(opt, /*attack=*/false);
    } else if (opt.workload == "serve-attack") {
      r = run_serve(opt, /*attack=*/true);
    } else if (opt.workload == "corpus-1m") {
      r = run_corpus(opt);
    } else {
      r = run_analyze(opt);
    }
  } catch (const std::exception& e) {
    std::cerr << "dfsm_perfbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  if (r.attempted == 0) {
    std::cerr << "dfsm_perfbench: no operation was attempted\n";
    return 1;
  }
  for (const auto& f : r.failures) std::cerr << "FAILED: " << f << "\n";

  const double failed_frac =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  std::vector<Metric> metrics;
  if (opt.trace) {
    for (const auto& def : kLayers) {
      double value = 0;
      for (const auto& m : r.layers) {
        if (m.name == def.name) value = m.value;
      }
      metrics.push_back({def.name, value, def.unit});
    }
  } else {
    metrics.push_back({kEndToEnd[0].name, median(r.setup_s), kEndToEnd[0].unit});
    metrics.push_back({kEndToEnd[1].name, median(r.pass_s), kEndToEnd[1].unit});
    metrics.push_back({kEndToEnd[2].name, peak_rss_mb(), kEndToEnd[2].unit});
    std::vector<Metric> report = metrics;
    report.push_back({"failed_frac", failed_frac, "fraction"});
    report.push_back({"passes", static_cast<double>(r.pass_s.size()), "count"});
    report.insert(report.end(), r.workload.begin(), r.workload.end());
    std::cout << "report " << metrics_json(report) << std::endl;
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(r.input_digest));
  std::cout << "inputs " << digest << std::endl;
  std::cout << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return 0;
}
