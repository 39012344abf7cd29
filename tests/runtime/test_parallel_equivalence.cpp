// Parallel-vs-serial equivalence: the determinism contract, checked on
// the three wired hot paths. Each test runs the same computation with
// the global pool in serial fallback and again with several workers and
// requires byte-identical results.
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/autotool.h"
#include "analysis/chain_analyzer.h"
#include "analysis/defense_matrix.h"
#include "analysis/discovery.h"
#include "analysis/hidden_path.h"
#include "analysis/report.h"
#include "analysis/sweep_memo.h"
#include "apps/case_study.h"
#include "apps/synthetic.h"
#include "bugtraq/corpus.h"
#include "bugtraq/database.h"
#include "bugtraq/stats.h"
#include "core/chain.h"
#include "runtime/thread_pool.h"

namespace dfsm {
namespace {

using runtime::ThreadPool;

/// Runs fn with the global pool at 1 worker (serial fallback) and at 4
/// workers, restores the default, and returns the two results.
template <typename Fn>
auto serial_and_parallel(Fn&& fn) {
  ThreadPool::set_global_threads(1);
  auto serial = fn();
  ThreadPool::set_global_threads(4);
  auto parallel = fn();
  ThreadPool::set_global_threads(ThreadPool::default_threads());
  return std::make_pair(std::move(serial), std::move(parallel));
}

TEST(ParallelEquivalence, AutoToolAnalyzeOnAllSpecs) {
  const auto [serial, parallel] = serial_and_parallel([] {
    std::vector<std::string> reports;
    for (const auto& spec : analysis::all_specs()) {
      reports.push_back(analysis::AutoTool::analyze(spec).to_text());
    }
    return reports;
  });
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "spec #" << i;
  }
}

TEST(ParallelEquivalence, CorpusHistogramsAndSweeps) {
  const auto db = bugtraq::synthetic_corpus();
  const auto [serial, parallel] = serial_and_parallel([&] {
    // A fresh copy per run so the histogram cache cannot leak results
    // from one thread count to the other.
    const bugtraq::Database copy{db};
    const auto snap = copy.snapshot();
    struct Out {
      std::map<bugtraq::Category, std::size_t> by_category;
      std::map<bugtraq::VulnClass, std::size_t> by_class;
      std::size_t remote_overflows;
      std::vector<std::pair<int, std::string>> hits;  // (id, title), in order
      std::string figure1;
    } out;
    out.by_category = snap->count_by_category();
    out.by_class = snap->count_by_class();
    out.remote_overflows = snap->count([](const bugtraq::VulnRecord& r) {
      return r.remote && r.vuln_class == bugtraq::VulnClass::kHeapOverflow;
    });
    for (const auto* r : snap->query([](const bugtraq::VulnRecord& r) {
           return r.year == 2001 && !r.remote;
         })) {
      out.hits.emplace_back(r->id, r->title);
    }
    out.figure1 = bugtraq::render_figure1(*snap);
    return out;
  });

  EXPECT_EQ(serial.by_category, parallel.by_category);
  EXPECT_EQ(serial.by_class, parallel.by_class);
  EXPECT_EQ(serial.remote_overflows, parallel.remote_overflows);
  EXPECT_EQ(serial.figure1, parallel.figure1);
  // Hit lists were materialized by value; order and content must match.
  EXPECT_EQ(serial.hits, parallel.hits);
}

TEST(ParallelEquivalence, TemplatedAndTypeErasedOverloadsAgree) {
  const auto snap = bugtraq::synthetic_corpus().snapshot();
  const auto is_remote = [](const bugtraq::VulnRecord& r) { return r.remote; };
  const std::function<bool(const bugtraq::VulnRecord&)> erased = is_remote;
  EXPECT_EQ(snap->count(is_remote), snap->count(erased));
  EXPECT_EQ(snap->query(is_remote), snap->query(erased));
}

TEST(ParallelEquivalence, StatsSweeps) {
  const auto snap = bugtraq::synthetic_corpus().snapshot();
  const auto [serial, parallel] = serial_and_parallel([&] {
    struct Out {
      std::size_t remote, local;
      std::vector<bugtraq::YearCount> years;
      std::vector<bugtraq::SoftwareCount> top;
    } out;
    const auto split = bugtraq::remote_local_split(*snap);
    out.remote = split.remote;
    out.local = split.local;
    out.years = bugtraq::by_year(*snap);
    out.top = bugtraq::top_software(*snap, 10);
    return out;
  });
  EXPECT_EQ(serial.remote, parallel.remote);
  EXPECT_EQ(serial.local, parallel.local);
  ASSERT_EQ(serial.years.size(), parallel.years.size());
  for (std::size_t i = 0; i < serial.years.size(); ++i) {
    EXPECT_EQ(serial.years[i].year, parallel.years[i].year);
    EXPECT_EQ(serial.years[i].count, parallel.years[i].count);
  }
  ASSERT_EQ(serial.top.size(), parallel.top.size());
  for (std::size_t i = 0; i < serial.top.size(); ++i) {
    EXPECT_EQ(serial.top[i].software, parallel.top[i].software);
    EXPECT_EQ(serial.top[i].count, parallel.top[i].count);
  }
}

TEST(ParallelEquivalence, DiscoveryCampaigns) {
  const auto [serial, parallel] = serial_and_parallel([] {
    std::vector<analysis::DiscoveryReport> reports;
    reports.push_back(analysis::probe_nullhttpd_v051());
    reports.push_back(analysis::probe_nullhttpd_fixed());
    reports.push_back(analysis::probe_nullhttpd_v05());
    return reports;
  });
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    const auto& s = serial[k];
    const auto& p = parallel[k];
    EXPECT_EQ(s.configuration, p.configuration);
    EXPECT_EQ(s.violations, p.violations);
    EXPECT_EQ(s.found_new_vulnerability, p.found_new_vulnerability);
    EXPECT_EQ(s.finding, p.finding);
    ASSERT_EQ(s.probes.size(), p.probes.size());
    for (std::size_t i = 0; i < s.probes.size(); ++i) {
      EXPECT_EQ(s.probes[i].content_len, p.probes[i].content_len) << k << ":" << i;
      EXPECT_EQ(s.probes[i].body_len, p.probes[i].body_len) << k << ":" << i;
      EXPECT_EQ(s.probes[i].buffer_size, p.probes[i].buffer_size) << k << ":" << i;
      EXPECT_EQ(s.probes[i].bytes_read, p.probes[i].bytes_read) << k << ":" << i;
      EXPECT_EQ(s.probes[i].predicate_violated, p.probes[i].predicate_violated);
      EXPECT_EQ(s.probes[i].rejected, p.probes[i].rejected);
      EXPECT_EQ(s.probes[i].note, p.probes[i].note) << k << ":" << i;
    }
  }
}

// --- Chain evaluation engine (DESIGN.md §10) ---------------------------
//
// The ISSUE contract is byte-identical outputs at DFSM_THREADS 0, 1 and
// 4 (0 = "decide from the hardware", which must not change results
// either). These run under TSan in the CI sanitizer matrix.

/// Runs fn at pool sizes 0, 1 and 4, restores the default, and returns
/// the three results in that order.
template <typename Fn>
auto at_thread_counts(Fn&& fn) {
  std::vector<decltype(fn())> out;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                    std::size_t{4}}) {
    ThreadPool::set_global_threads(threads);
    out.push_back(fn());
  }
  ThreadPool::set_global_threads(ThreadPool::default_threads());
  return out;
}

std::string render_report(const analysis::LemmaReport& r) {
  std::string out = r.study_name;
  for (const auto& row : r.rows) {
    out += '\n';
    for (std::size_t i = 0; i < r.checks.size(); ++i) {
      out += row.check_on(i) ? '1' : '0';
    }
    out += ' ' + r.exploit_of(row).detail + '|' + r.benign_of(row).detail +
           (r.exploit_of(row).exploited ? " E" : "") +
           (row.secured() ? " S" : "");
  }
  out += "\nverdicts " + std::to_string(r.baseline_exploited) +
         std::to_string(r.all_checks_foil) + std::to_string(r.lemma2_holds) +
         std::to_string(r.benign_preserved);
  for (const auto c : r.foiling_single_checks) {
    out += ' ' + std::to_string(c);
  }
  return out;
}

TEST(SweepEquivalence, MemoizedSweepIsThreadCountInvariant) {
  apps::SyntheticStudyConfig config;
  config.operations = 3;
  config.checks_per_operation = 4;
  config.work = 4;
  const auto study = apps::make_synthetic_wide_study(config);
  const auto runs =
      at_thread_counts([&] { return render_report(analysis::sweep(*study)); });
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[1], runs[2]);
}

TEST(SweepEquivalence, DirectSweepIsThreadCountInvariant) {
  const auto studies = apps::all_case_studies();
  analysis::SweepOptions direct;
  direct.mode = analysis::SweepMode::kDirect;
  const auto runs = at_thread_counts(
      [&] { return render_report(analysis::sweep(*studies[0], direct)); });
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[1], runs[2]);
}

TEST(SweepEquivalence, SweepAllIsThreadCountInvariant) {
  const auto runs = at_thread_counts([] {
    std::string out;
    for (const auto& report : analysis::sweep_all()) {
      out += render_report(report) + "\n---\n";
    }
    return out;
  });
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[1], runs[2]);
}

TEST(SweepEquivalence, ScanModelIsThreadCountInvariant) {
  apps::SyntheticStudyConfig config;
  config.operations = 4;
  config.checks_per_operation = 3;
  const auto model =
      apps::make_synthetic_wide_study(config)->model();
  const auto domain = analysis::int_range_domain("x", "x", -256, 256);
  std::map<std::string, std::vector<core::Object>> domains;
  for (const auto& op : model.chain().operations()) {
    for (const auto& pfsm : op.pfsms()) domains[pfsm.name()] = domain;
  }
  const auto runs = at_thread_counts([&] {
    std::string out;
    for (const auto& r : analysis::scan_model(model, domains)) {
      out += r.pfsm_name + ':' + std::to_string(r.domain_size) + ':' +
             std::to_string(r.spec_rejects) + ':';
      for (const auto& w : r.witnesses) out += w.describe() + ',';
      out += '\n';
    }
    return out;
  });
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[1], runs[2]);
}

TEST(SweepEquivalence, EvaluateBatchIsThreadCountInvariant) {
  core::ExploitChain chain{"equivalence chain"};
  for (int i = 0; i < 3; ++i) {
    core::Operation op{"op" + std::to_string(i), "obj"};
    op.add(core::Pfsm::unchecked(
        "p" + std::to_string(i), core::PfsmType::kContentAttributeCheck, "a",
        core::Predicate{"ok", [](const core::Object& o) {
                          return o.attr_bool("ok").value_or(false);
                        }}));
    chain.add(std::move(op), core::PropagationGate{"g" + std::to_string(i)});
  }
  std::vector<std::vector<std::vector<core::Object>>> batch;
  for (std::size_t i = 0; i < 41; ++i) {
    std::vector<std::vector<core::Object>> inputs;
    for (std::size_t op = 0; op < chain.size(); ++op) {
      inputs.push_back({core::Object{"o"}.with("ok", (i + op) % 2 == 0)});
    }
    batch.push_back(std::move(inputs));
  }
  const auto runs = at_thread_counts([&] {
    std::string out;
    for (const auto& r : chain.evaluate_batch(batch)) {
      out += std::to_string(r.hidden_path_count()) +
             (r.exploited() ? "E" : "-") + (r.completed() ? "C" : "-");
      if (r.foiled_at_operation) out += '@' + std::to_string(*r.foiled_at_operation);
      out += '\n';
    }
    return out;
  });
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[1], runs[2]);
}

// --- shared store / incremental paths (this PR's determinism gates) ----

TEST(SweepEquivalence, StoreBackedSweepIsThreadCountInvariant) {
  const auto studies = apps::all_case_studies();
  const auto runs = at_thread_counts([&] {
    // A fresh store per thread count: the cold fill and its telemetry
    // must not depend on how many workers raced through it.
    analysis::SweepMemoStore store;
    analysis::SweepOptions opts;
    opts.memo = &store;
    const auto cold = analysis::sweep(*studies[0], opts);
    const auto warm = analysis::sweep(*studies[0], opts);
    return render_report(cold) + "|cold " + std::to_string(cold.memo_hits) +
           '/' + std::to_string(cold.memo_misses) + "\n" +
           render_report(warm) + "|warm " + std::to_string(warm.memo_hits) +
           '/' + std::to_string(warm.memo_misses);
  });
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[1], runs[2]);
}

TEST(SweepEquivalence, ResweepIsThreadCountInvariant) {
  const auto studies = apps::all_case_studies();
  const auto runs = at_thread_counts([&] {
    const auto baseline = analysis::sweep(*studies[0]);
    analysis::SweepDelta delta;
    delta.secured_operations = {baseline.checks.front().operation_index};
    return render_report(analysis::resweep(*studies[0], baseline, delta));
  });
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[1], runs[2]);
}

TEST(SweepEquivalence, PatchRankingIsThreadCountInvariant) {
  const auto studies = apps::all_case_studies();
  const auto runs = at_thread_counts([&] {
    std::string out;
    for (const auto strategy : {analysis::RankStrategy::kIncremental,
                                analysis::RankStrategy::kFullSweeps}) {
      out += render_patch_ranking(
          analysis::rank_patch_candidates(*studies[0], strategy));
    }
    return out;
  });
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[1], runs[2]);
}

TEST(SweepEquivalence, TelemetryRenderingIsThreadCountInvariant) {
  const auto studies = apps::all_case_studies();
  const auto runs = at_thread_counts([&] {
    analysis::SweepMemoStore store;
    analysis::SweepOptions opts;
    opts.memo = &store;
    const std::vector<analysis::LemmaReport> reports = {
        analysis::sweep(*studies[0], opts),
        analysis::sweep(*studies[0], opts)};
    return analysis::render_sweep_telemetry(reports) +
           analysis::sweep_telemetry_json(reports);
  });
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[1], runs[2]);
}

}  // namespace
}  // namespace dfsm
