// bench_extensions — the layers built on top of the paper's model (its §7
// future work and the §2 related-work baselines): the automatic analysis
// tool, METF quantification, trace anomaly detection, and attack-graph
// generation. Prints the artifacts, then benchmarks each engine.
#include "bench_common.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/anomaly.h"
#include "analysis/attack_graph.h"
#include "analysis/autotool.h"
#include "analysis/chain_analyzer.h"
#include "analysis/defense_matrix.h"
#include "analysis/discovery.h"
#include "analysis/hidden_path.h"
#include "analysis/metf.h"
#include "analysis/predicates.h"
#include "apps/models.h"
#include "apps/nullhttpd.h"
#include "apps/synthetic.h"
#include "apps/xterm.h"
#include "core/chain.h"
#include "bugtraq/colsnap.h"
#include "bugtraq/corpus.h"
#include "bugtraq/csv_shards.h"
#include "bugtraq/database.h"
#include "core/table.h"
#include "fssim/explore.h"
#include "runtime/thread_pool.h"
#include "staticlint/linter.h"
#include "staticlint/memo.h"
#include "staticlint/registry.h"

namespace {

using namespace dfsm;
using namespace dfsm::analysis;

std::string metf_table() {
  core::TextTable t{{"Model", "Barriers", "Hardening", "P(attempt)",
                     "E[attempts]", "E[actions] (METF)"}};
  t.title("METF over the FSM models (Ortalo-style quantification)");
  const auto models = apps::standard_models();
  apps::XtermLogger xterm;
  const double race_fraction = xterm.run_race(1).report.violation_fraction();
  for (const auto& m : models) {
    for (const double pass : {1.0, 0.5, 0.1}) {
      std::vector<std::pair<std::string, double>> overrides;
      if (m.name().find("xterm") != std::string::npos) {
        overrides = {{"pFSM1", 1.0}, {"pFSM2", race_fraction * pass}};
      }
      const auto r = metf(barriers_from_model(m, pass, overrides));
      char p_buf[32], att[32], act[32];
      std::snprintf(p_buf, sizeof p_buf, "%.4f", r.attempt_success_probability);
      if (r.secure) {
        std::snprintf(att, sizeof att, "inf");
        std::snprintf(act, sizeof act, "inf (secure)");
      } else {
        std::snprintf(att, sizeof att, "%.1f", r.expected_attempts);
        std::snprintf(act, sizeof act, "%.1f", r.expected_actions);
      }
      char hard[48];
      std::snprintf(hard, sizeof hard, "pass prob %.1f/pFSM", pass);
      t.add_row({m.name().substr(0, 40), std::to_string(m.pfsm_count()), hard,
                 p_buf, att, act});
    }
  }
  return t.to_string();
}

std::string anomaly_table() {
  AnomalyDetector d{2};
  for (const std::size_t n : {0u, 100u, 1024u, 2048u, 5000u}) {
    apps::NullHttpd app;
    d.train(app.handle_post(static_cast<std::int32_t>(n), std::string(n, 'b')).events);
  }
  core::TextTable t{{"Run", "Events", "Anomaly score", "Verdict"}};
  t.title("Trace anomaly detection (Michael & Ghosh baseline) on NULL HTTPD");
  {
    apps::NullHttpd app;
    const auto r = app.handle_post(3000, std::string(3000, 'x'));
    char s[16];
    std::snprintf(s, sizeof s, "%.3f", d.score(r.events));
    t.add_row({"benign POST (3000 bytes)", std::to_string(r.events.size()), s,
               d.anomalous(r.events) ? "ANOMALY" : "normal"});
  }
  {
    const auto info = apps::NullHttpd::scout(-800);
    apps::NullHttpd app;
    const auto body = apps::NullHttpd::build_overflow_body(info);
    const auto r = app.handle_post(-800, std::string(body.begin(), body.end()));
    char s[16];
    std::snprintf(s, sizeof s, "%.3f", d.score(r.events));
    t.add_row({"#5774 exploit", std::to_string(r.events.size()), s,
               d.anomalous(r.events) ? "ANOMALY" : "normal"});
  }
  return t.to_string();
}

std::string attack_graph_summary() {
  const std::vector<Host> hosts = {
      {"attacker", {}, {"web"}},
      {"web", {"ghttpd", "sendmail"}, {"nfs"}},
      {"nfs", {"rpc.statd"}, {}},
  };
  const auto g = AttackGraph::build(hosts, standard_rules(),
                                    {Fact{"attacker", Privilege::kRoot}});
  std::string out = g.to_text();
  out += "\nShortest path to (nfs, root):\n";
  for (const auto& e : g.path_to(Fact{"nfs", Privilege::kRoot})) {
    out += "  " + e.from.host + " -> " + e.to.host + " via " + e.rule + "\n";
  }
  return out;
}

void print_artifacts() {
  bench::print_artifact("Automatic analysis tool (paper §7 future work)",
                        AutoTool::analyze(sendmail_spec()).to_text());
  bench::print_artifact("METF quantification", metf_table());
  bench::print_artifact("Trace anomaly detection", anomaly_table());
  bench::print_artifact("Attack-graph generation (Sheyner baseline)",
                        attack_graph_summary());
}

void BM_AutoToolAnalyze(benchmark::State& state) {
  const auto spec = sendmail_spec();
  for (auto _ : state) {
    auto report = AutoTool::analyze(spec);
    benchmark::DoNotOptimize(report.vulnerable());
  }
}
BENCHMARK(BM_AutoToolAnalyze)->Unit(benchmark::kMicrosecond);

void BM_Metf(benchmark::State& state) {
  const auto barriers =
      barriers_from_model(apps::standard_models()[1], 0.5);
  for (auto _ : state) {
    auto r = metf(barriers);
    benchmark::DoNotOptimize(r.expected_actions);
  }
}
BENCHMARK(BM_Metf);

void BM_AnomalyTrain(benchmark::State& state) {
  apps::NullHttpd app;
  const auto trace = app.handle_post(2048, std::string(2048, 'b')).events;
  for (auto _ : state) {
    AnomalyDetector d{2};
    d.train(trace);
    benchmark::DoNotOptimize(d.known_windows());
  }
}
BENCHMARK(BM_AnomalyTrain);

void BM_AnomalyScore(benchmark::State& state) {
  AnomalyDetector d{2};
  apps::NullHttpd trainer;
  d.train(trainer.handle_post(2048, std::string(2048, 'b')).events);
  apps::NullHttpd probe_app;
  const auto probe = probe_app.handle_post(1024, std::string(1024, 'x')).events;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.score(probe));
  }
}
BENCHMARK(BM_AnomalyScore);

// --- Serial-vs-parallel pairs over the runtime (src/runtime/) ----------
//
// Each benchmark takes the worker count as its argument: Arg(1) pins the
// global pool to serial fallback, Arg(kParallelThreads) uses the
// hardware. The workloads are the three wired hot paths; equivalence
// tests (tests/runtime/) assert the outputs are byte-identical, so these
// measure pure speedup. UseRealTime: the work happens on pool workers,
// so wall clock is the honest metric.

// DFSM_THREADS pins the parallel arm (the CI bench-regression job sets 4
// so runs compare like-for-like); unset falls back to the hardware.
const int kParallelThreads = static_cast<int>(
    std::max<std::size_t>(2, runtime::ThreadPool::default_threads()));

void set_pool_threads(std::int64_t threads) {
  runtime::ThreadPool::set_global_threads(static_cast<std::size_t>(threads));
}

void restore_pool() {
  runtime::ThreadPool::set_global_threads(
      runtime::ThreadPool::default_threads());
}

/// A probe-hunt campaign an order of magnitude heavier than the paper's
/// specs: `activities` boundary-checked activities, each hunted over a
/// dense integer domain of `domain` objects.
VulnerabilitySpec bench_campaign_spec(std::size_t activities,
                                      std::int64_t domain) {
  VulnerabilitySpec spec;
  spec.name = "bench probe-hunt campaign";
  spec.bugtraq_ids = {99992};  // synthetic report id for the bench spec
  spec.vulnerability_class = "Integer Overflow";
  spec.software = "bench";
  spec.consequence = "n/a";
  OperationSpec op;
  op.name = "sweep every bounds-checked input";
  op.object_description = "input integers";
  op.gate_condition = "n/a";
  for (std::size_t i = 0; i < activities; ++i) {
    const std::string pname = "pFSM" + std::to_string(i + 1);
    op.activities.push_back(ActivitySpec{
        pname, core::PfsmType::kContentAttributeCheck, "bounds-check x",
        predicates::int_in_range("x", 0, 100), ActivitySpec::Impl::kCustom,
        predicates::int_at_most("x", 100), "use x"});
    spec.probe_domains[pname] =
        int_range_domain("x", "x", -domain / 2, domain / 2);
  }
  spec.operations = {std::move(op)};
  return spec;
}

void BM_AutoToolProbeHunt(benchmark::State& state) {
  set_pool_threads(state.range(0));
  const auto spec = bench_campaign_spec(/*activities=*/16, /*domain=*/1 << 13);
  for (auto _ : state) {
    auto report = AutoTool::analyze(spec);
    benchmark::DoNotOptimize(report.vulnerable());
  }
  restore_pool();
}
BENCHMARK(BM_AutoToolProbeHunt)
    ->Arg(1)
    ->Arg(kParallelThreads)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_CorpusSweep(benchmark::State& state) {
  set_pool_threads(state.range(0));
  const auto snap = bugtraq::synthetic_corpus().snapshot();
  for (auto _ : state) {
    // The templated hot path: a content scan over all 5925 records.
    auto n = snap->count([](const bugtraq::VulnRecord& r) {
      return r.remote && r.description.find("overflow") != std::string::npos;
    });
    benchmark::DoNotOptimize(n);
  }
  restore_pool();
}
BENCHMARK(BM_CorpusSweep)
    ->Arg(1)
    ->Arg(kParallelThreads)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// --- Million-record corpus scaling (ROADMAP "corpus scaling") ----------
//
// Serial-vs-parallel ingest/sweep pairs at 10^4 / 10^5 / 10^6 records:
// Args are {workers, corpus size}. Corpora and their CSV serializations
// are generated once per size and cached for the whole binary run —
// the timed region is only the sharded reader (CSV parse + bulk
// add_batch) or the columnar sweep.

const bugtraq::Database& scaled_corpus(std::size_t n) {
  static std::map<std::size_t, bugtraq::Database> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, bugtraq::synthetic_corpus_n(n, /*seed=*/42)).first;
  }
  return it->second;
}

const std::string& scaled_corpus_csv(std::size_t n) {
  static std::map<std::size_t, std::string> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, scaled_corpus(n).snapshot()->to_csv()).first;
  }
  return it->second;
}

void BM_CorpusIngestScaled(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(1));
  const std::string& csv = scaled_corpus_csv(n);
  set_pool_threads(state.range(0));
  for (auto _ : state) {
    auto db = bugtraq::Database::from_csv_parts({csv});
    benchmark::DoNotOptimize(db.epoch());
  }
  restore_pool();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(csv.size()));
}
BENCHMARK(BM_CorpusIngestScaled)
    ->Args({1, 10'000})
    ->Args({kParallelThreads, 10'000})
    ->Args({1, 100'000})
    ->Args({kParallelThreads, 100'000})
    ->Args({1, 1'000'000})
    ->Args({kParallelThreads, 1'000'000})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_CorpusSweepScaled(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto snap = scaled_corpus(n).snapshot();
  set_pool_threads(state.range(0));
  for (auto _ : state) {
    auto hits = snap->count([](const bugtraq::VulnRecord& r) {
      return r.remote && r.title.find("overflow") != std::string::npos;
    });
    benchmark::DoNotOptimize(hits);
  }
  restore_pool();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CorpusSweepScaled)
    ->Args({1, 10'000})
    ->Args({kParallelThreads, 10'000})
    ->Args({1, 100'000})
    ->Args({kParallelThreads, 100'000})
    ->Args({1, 1'000'000})
    ->Args({kParallelThreads, 1'000'000})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- Corpus service: incremental histograms + snapshot reload ----------
//
// Two suffix-paired gates (tools/check_bench_regression.py): the
// incremental fold must beat the full histogram rebuild by >= 10x at
// 10^6 records, and binary snapshot reload must beat the sharded-CSV
// parse by >= 5x. Both arms of a pair run at matching {workers, corpus
// size} arguments so the gate compares like-for-like medians.

void BM_CorpusHistogramRebuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto snap = scaled_corpus(n).snapshot();
  set_pool_threads(state.range(0));
  for (auto _ : state) {
    // What every batch publish cost before the incremental fold: a full
    // columnar sweep over the whole epoch.
    auto hist = bugtraq::rebuild_histograms(*snap);
    benchmark::DoNotOptimize(hist.by_year.size());
  }
  restore_pool();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CorpusHistogramRebuild)
    ->Args({1, 1'000'000})
    ->Args({kParallelThreads, 1'000'000})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_CorpusHistogramIncremental(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kBatch = 100;
  // One pre-generated unique-id batch per iteration and arena headroom
  // reserved up front, so the timed region is exactly one add_batch
  // publish (append + delta fold + epoch swap) — never an arena growth
  // and never a rebuild. Iterations is pinned to keep the pre-generated
  // batch pool (and the appended tail) a bounded size.
  bugtraq::Database db{scaled_corpus(n)};
  const auto iters = static_cast<std::size_t>(state.max_iterations);
  db.reserve(n + iters * kBatch);
  std::vector<std::vector<bugtraq::VulnRecord>> batches(iters);
  int next_id = 10'000'000;  // synthetic corpus ids stop near 1.1M
  for (auto& batch : batches) {
    batch.reserve(kBatch);
    for (std::size_t k = 0; k < kBatch; ++k) {
      bugtraq::VulnRecord r;
      r.id = next_id++;
      r.software = "BenchSoft";
      r.title = "incremental ingest #" + std::to_string(r.id);
      r.year = 1999 + (r.id & 3);
      r.remote = (r.id & 1) != 0;
      r.description = "bench batch record";
      batch.push_back(std::move(r));
    }
  }
  set_pool_threads(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    db.add_batch(std::move(batches[i++]));
    benchmark::DoNotOptimize(db.snapshot()->histograms().by_year.size());
  }
  restore_pool();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_CorpusHistogramIncremental)
    ->Args({1, 1'000'000})
    ->Args({kParallelThreads, 1'000'000})
    ->Iterations(200)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Pre-written shard files for the reload pair, generated once per
// binary run into a scratch directory: the timed region is only the
// read path (open + parse/verify + bulk ingest), identical for both
// formats.
const std::vector<std::string>& reload_shards(std::size_t n, bool colsnap) {
  static std::map<std::pair<std::size_t, bool>, std::vector<std::string>>
      cache;
  const auto key = std::make_pair(n, colsnap);
  auto it = cache.find(key);
  if (it == cache.end()) {
    const auto dir = std::filesystem::temp_directory_path() /
                     ("dfsm-bench-reload-" + std::to_string(n));
    std::filesystem::create_directories(dir);
    const std::string base = (dir / "corpus").string();
    const auto snap = scaled_corpus(n).snapshot();
    it = cache
             .emplace(key, colsnap ? bugtraq::write_colsnap_shards(*snap, base, 8)
                                   : bugtraq::write_csv_shards(*snap, base, 8))
             .first;
  }
  return it->second;
}

void BM_CsvReload(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto& paths = reload_shards(n, /*colsnap=*/false);
  set_pool_threads(state.range(0));
  for (auto _ : state) {
    auto db = bugtraq::read_csv_shards(paths);
    benchmark::DoNotOptimize(db.epoch());
  }
  restore_pool();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CsvReload)
    ->Args({1, 1'000'000})
    ->Args({kParallelThreads, 1'000'000})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SnapshotReload(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto& paths = reload_shards(n, /*colsnap=*/true);
  set_pool_threads(state.range(0));
  for (auto _ : state) {
    auto db = bugtraq::read_colsnap_shards(paths);
    benchmark::DoNotOptimize(db.epoch());
  }
  restore_pool();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SnapshotReload)
    ->Args({1, 1'000'000})
    ->Args({kParallelThreads, 1'000'000})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- Chain evaluation engine (DESIGN.md §10) ---------------------------
//
// Serial-vs-parallel pairs over the memoized Lemma sweep (k = 12/16/20
// on the synthetic wide-chain fixture), the direct sweep, batch chain
// evaluation, and the model scan — plus the cross-engine pair the
// regression gate holds: BM_LemmaSweepEngineK16's "serial" arm is the
// DIRECT 2^k enumeration and its "parallel" arm is the default MEMOIZED
// engine, so its reported speedup is this engine's end-to-end gain.

const apps::CaseStudy& sweep_study(std::size_t operations,
                                   std::size_t checks_per_operation) {
  static std::map<std::pair<std::size_t, std::size_t>,
                  std::unique_ptr<apps::CaseStudy>>
      cache;
  const auto key = std::make_pair(operations, checks_per_operation);
  auto it = cache.find(key);
  if (it == cache.end()) {
    apps::SyntheticStudyConfig config;
    config.operations = operations;
    config.checks_per_operation = checks_per_operation;
    it = cache.emplace(key, apps::make_synthetic_wide_study(config)).first;
  }
  return *it->second;
}

void BM_LemmaSweepMemoized(benchmark::State& state) {
  set_pool_threads(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto& study = sweep_study(k / 4, 4);
  for (auto _ : state) {
    auto report = sweep(study);
    benchmark::DoNotOptimize(report.lemma2_holds);
  }
  restore_pool();
  state.SetItemsProcessed(state.iterations() *
                          (std::int64_t{1} << k));  // masks composed
}
BENCHMARK(BM_LemmaSweepMemoized)
    ->Args({1, 12})
    ->Args({kParallelThreads, 12})
    ->Args({1, 16})
    ->Args({kParallelThreads, 16})
    ->Args({1, 20})
    ->Args({kParallelThreads, 20})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_LemmaSweepDirect(benchmark::State& state) {
  set_pool_threads(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto& study = sweep_study(k / 4, 4);
  SweepOptions direct;
  direct.mode = SweepMode::kDirect;
  for (auto _ : state) {
    auto report = sweep(study, direct);
    benchmark::DoNotOptimize(report.lemma2_holds);
  }
  restore_pool();
  state.SetItemsProcessed(state.iterations() * (std::int64_t{1} << k));
}
BENCHMARK(BM_LemmaSweepDirect)
    ->Args({1, 16})
    ->Args({kParallelThreads, 16})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_LemmaSweepEngineK16(benchmark::State& state) {
  set_pool_threads(state.range(0));
  const auto& study = sweep_study(4, 4);
  SweepOptions opts;
  opts.mode = state.range(0) == 1 ? SweepMode::kDirect : SweepMode::kMemoized;
  for (auto _ : state) {
    auto report = sweep(study, opts);
    benchmark::DoNotOptimize(report.lemma2_holds);
  }
  restore_pool();
}
BENCHMARK(BM_LemmaSweepEngineK16)
    ->Arg(1)
    ->Arg(kParallelThreads)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

core::ExploitChain batch_bench_chain(std::size_t operations) {
  core::ExploitChain chain{"bench batch chain"};
  for (std::size_t i = 0; i < operations; ++i) {
    core::Operation op{"op" + std::to_string(i), "request field"};
    op.add(core::Pfsm::unchecked(
        "p" + std::to_string(i), core::PfsmType::kContentAttributeCheck,
        "bounds-check the field",
        core::Predicate{"ok", [](const core::Object& o) {
                          return o.attr_bool("ok").value_or(false);
                        }}));
    chain.add(std::move(op),
              core::PropagationGate{"gate " + std::to_string(i)});
  }
  return chain;
}

void BM_ChainEvaluateBatch(benchmark::State& state) {
  set_pool_threads(state.range(0));
  const auto chain = batch_bench_chain(/*operations=*/8);
  constexpr std::size_t kBatch = 4096;
  std::vector<std::vector<std::vector<core::Object>>> batch;
  batch.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    std::vector<std::vector<core::Object>> inputs;
    inputs.reserve(chain.size());
    for (std::size_t op = 0; op < chain.size(); ++op) {
      inputs.push_back({core::Object{"o"}.with("ok", (i + op) % 3 == 0)});
    }
    batch.push_back(std::move(inputs));
  }
  for (auto _ : state) {
    auto results = chain.evaluate_batch(batch);
    benchmark::DoNotOptimize(results.size());
  }
  restore_pool();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_ChainEvaluateBatch)
    ->Arg(1)
    ->Arg(kParallelThreads)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_HiddenPathScanModel(benchmark::State& state) {
  set_pool_threads(state.range(0));
  const auto model = sweep_study(5, 4).model();  // 20 pFSMs
  const auto domain = int_range_domain("x", "x", -4096, 4096);
  std::map<std::string, std::vector<core::Object>> domains;
  for (const auto& op : model.chain().operations()) {
    for (const auto& pfsm : op.pfsms()) domains[pfsm.name()] = domain;
  }
  for (auto _ : state) {
    auto reports = scan_model(model, domains);
    benchmark::DoNotOptimize(reports.size());
  }
  restore_pool();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(domains.size()));
}
BENCHMARK(BM_HiddenPathScanModel)
    ->Arg(1)
    ->Arg(kParallelThreads)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DiscoveryCampaign(benchmark::State& state) {
  set_pool_threads(state.range(0));
  for (auto _ : state) {
    auto report = probe_nullhttpd_v051();
    benchmark::DoNotOptimize(report.found_new_vulnerability);
  }
  restore_pool();
}
BENCHMARK(BM_DiscoveryCampaign)
    ->Arg(1)
    ->Arg(kParallelThreads)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_AttackGraphBuild(benchmark::State& state) {
  // A larger synthetic enterprise: a chain of n subnets.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Host> hosts;
  hosts.push_back({"attacker", {}, {"host0"}});
  for (std::size_t i = 0; i < n; ++i) {
    Host h;
    h.name = "host" + std::to_string(i);
    h.services = {"ghttpd", "sendmail"};
    if (i + 1 < n) h.reaches = {"host" + std::to_string(i + 1)};
    hosts.push_back(std::move(h));
  }
  const std::vector<Fact> start = {Fact{"attacker", Privilege::kRoot}};
  for (auto _ : state) {
    auto g = AttackGraph::build(hosts, standard_rules(), start);
    benchmark::DoNotOptimize(g.facts().size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AttackGraphBuild)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

// --- patch-candidate ranking: k candidates for the price of one sweep --
//
// A cross-name pair the regression gate holds (suffix convention:
// "...FullSweeps" is the reference arm, "...Incremental" the shared-
// store arm of the same stem). Ranking every operation of the k = 16
// synthetic study: the reference runs one full sweep per candidate plus
// the unpatched base (17 sweeps, each materialising 2^16 rows); the
// incremental path pays ONE cache fill and answers every candidate by
// combinatorial composition. Both arms pin the pool to one worker — the
// gated speedup is algorithmic, not parallelism.

void BM_DefenseRankFullSweeps(benchmark::State& state) {
  set_pool_threads(1);
  const auto& study = sweep_study(16, 1);  // k = 16, 16 candidates
  for (auto _ : state) {
    auto ranking = rank_patch_candidates(study, RankStrategy::kFullSweeps);
    benchmark::DoNotOptimize(ranking.candidates.data());
  }
  restore_pool();
  state.SetItemsProcessed(state.iterations() * 17);  // sweeps per ranking
}
BENCHMARK(BM_DefenseRankFullSweeps)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DefenseRankIncremental(benchmark::State& state) {
  set_pool_threads(1);
  const auto& study = sweep_study(16, 1);
  for (auto _ : state) {
    auto ranking = rank_patch_candidates(study, RankStrategy::kIncremental);
    benchmark::DoNotOptimize(ranking.candidates.data());
  }
  restore_pool();
  state.SetItemsProcessed(state.iterations() * 17);
}
BENCHMARK(BM_DefenseRankIncremental)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- incremental lint: re-lint for the price of a fingerprint --------
//
// Second gate-held pair (suffix convention: "...Curated" is the
// from-scratch arm, "...Memoized" the warmed-store arm of the same
// stem). Both arms lint the full curated registry; the memoized arm
// goes through a pre-warmed LintMemoStore, so every (model, rule) cell
// is a fingerprint-keyed cache hit and zero rules execute. Single
// worker in both arms — the gated speedup is the memo, not parallelism.

void BM_LintCurated(benchmark::State& state) {
  set_pool_threads(1);
  const auto models = staticlint::curated_lint_models();
  for (auto _ : state) {
    auto run = staticlint::lint(models);
    benchmark::DoNotOptimize(run.findings.data());
  }
  restore_pool();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(models.size()));
}
BENCHMARK(BM_LintCurated)->UseRealTime()->Unit(benchmark::kMicrosecond);

void BM_LintMemoized(benchmark::State& state) {
  set_pool_threads(1);
  const auto models = staticlint::curated_lint_models();
  staticlint::LintMemoStore memo;
  staticlint::LintOptions options;
  options.memo = &memo;
  benchmark::DoNotOptimize(staticlint::lint(models, options));  // warm
  for (auto _ : state) {
    auto run = staticlint::lint(models, options);
    benchmark::DoNotOptimize(run.findings.data());
  }
  restore_pool();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(models.size()));
}
BENCHMARK(BM_LintMemoized)->UseRealTime()->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------
// Interleaving exploration (fssim/explore.h): one synthetic 9x6 scenario
// (C(15,6) = 5005 schedules), explored exhaustively vs with pinned +
// strided sampling at budget 256. Gate pair (check_bench_regression.py
// SUFFIX_PAIRS): ExploreExhaustive is the reference arm, ExploreSampled
// the engine arm — sampling must keep its edge over the full walk.

fssim::RaceScenario bench_race_scenario() {
  fssim::RaceScenario s;
  s.name = "bench-9x6";
  s.world = [] {
    fssim::FileSystem fs;
    const auto root = fssim::Cred::root();
    fs.mkdir(root, "/var");
    fs.create(root, "/var/log", fssim::Mode::world_writable());
    return fs;
  };
  const auto root = fssim::Cred::root();
  const auto append = [root](const char* tag) {
    return [root, tag](fssim::FileSystem& fs, fssim::RaceContext&) {
      auto h = fs.open(root, "/var/log",
                       fssim::OpenFlags{.write = true, .append = true});
      if (h.ok()) fs.write(h.value, tag);
    };
  };
  for (int i = 0; i < 9; ++i) {
    s.victim.push_back(
        fssim::CtxStep{"victim " + std::to_string(i), append("v")});
  }
  for (int i = 0; i < 6; ++i) {
    s.attacker.push_back(
        fssim::CtxStep{"attacker " + std::to_string(i), append("a")});
  }
  // Violated iff the attacker ran entirely first — the lex-last schedule.
  s.violated = [](const fssim::FileSystem& fs, const fssim::RaceContext&) {
    auto log = fs.read("/var/log");
    return log.ok() && log.value.rfind("aaaaaa", 0) == 0;
  };
  return s;
}

void BM_ExploreExhaustive(benchmark::State& state) {
  set_pool_threads(state.range(0));
  const auto scenario = bench_race_scenario();
  fssim::ExploreOptions opts;
  opts.budget = 8192;  // C(15,6) = 5005 fits: exhaustive
  for (auto _ : state) {
    auto report = fssim::explore_scenario(scenario, opts);
    benchmark::DoNotOptimize(report.violating);
  }
  restore_pool();
  state.SetItemsProcessed(state.iterations() * 5005);
}
BENCHMARK(BM_ExploreExhaustive)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ExploreSampled(benchmark::State& state) {
  set_pool_threads(state.range(0));
  const auto scenario = bench_race_scenario();
  fssim::ExploreOptions opts;
  opts.budget = 256;  // pinned first/last + strided interior ranks
  opts.seed = 11;
  for (auto _ : state) {
    auto report = fssim::explore_scenario(scenario, opts);
    benchmark::DoNotOptimize(report.violating);
  }
  restore_pool();
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ExploreSampled)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

DFSM_BENCH_MAIN(print_artifacts)
