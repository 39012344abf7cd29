// analyze-wide: one analyst session.
//
// A pass runs, in order: a memoized Lemma sweep of the k = 20 (4 x 5)
// synthetic wide study, rank_patch_candidates on the same study through
// the same memo store, the curated sweep_all, a lint of the curated
// registry twice through one LintMemoStore (the second pass is served
// from the store), an exhaustive exploration of both race scenarios, a
// fault campaign of single-trial run_campaign calls over the corpus,
// model and race surfaces,
// evaluate_batch of the Figure-4 chain and a hidden-path scan of the
// wide model. Every step is checked against the paper's verdicts.
//
// Study runs are timed through TimedStudy, a CaseStudy decorator around
// run_exploit / run_benign. sweep_all takes no study list, so the traced
// run replaces it with its own body — a parallel_map of sweep() over
// the decorated curated studies.
#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/chain_analyzer.h"
#include "analysis/defense_matrix.h"
#include "analysis/hidden_path.h"
#include "analysis/monitor.h"
#include "analysis/sweep_memo.h"
#include "apps/case_study.h"
#include "apps/nullhttpd.h"
#include "apps/races.h"
#include "apps/synthetic.h"
#include "bench.h"
#include "bugtraq/corpus.h"
#include "core/fingerprint.h"
#include "faultinject/campaign.h"
#include "fssim/explore.h"
#include "runtime/parallel.h"
#include "staticlint/linter.h"
#include "staticlint/registry.h"

namespace perfbench {

namespace {

using dfsm::analysis::LemmaReport;

constexpr int kWarmupPasses = 2;

/// Forwards to a study, counting and timing every run.
class TimedStudy final : public dfsm::apps::CaseStudy {
 public:
  explicit TimedStudy(const dfsm::apps::CaseStudy& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::vector<dfsm::apps::CheckSpec> checks() const override {
    return inner_.checks();
  }
  [[nodiscard]] dfsm::apps::RunOutcome run_exploit(
      const std::vector<bool>& enabled) const override {
    exploit_runs_.fetch_add(1, std::memory_order_relaxed);
    ScopedSpan span{"apps.study_run"};
    return inner_.run_exploit(enabled);
  }
  [[nodiscard]] dfsm::apps::RunOutcome run_benign(
      const std::vector<bool>& enabled) const override {
    benign_runs_.fetch_add(1, std::memory_order_relaxed);
    ScopedSpan span{"apps.study_run"};
    return inner_.run_benign(enabled);
  }
  [[nodiscard]] dfsm::core::FsmModel model() const override {
    return inner_.model();
  }

  /// Returns and clears the (exploit, benign) run counts.
  std::pair<std::size_t, std::size_t> take_counts() {
    return {exploit_runs_.exchange(0), benign_runs_.exchange(0)};
  }

 private:
  const dfsm::apps::CaseStudy& inner_;
  mutable std::atomic<std::size_t> exploit_runs_{0};
  mutable std::atomic<std::size_t> benign_runs_{0};
};

// The campaign surfaces, one per trial in turn. The composed surface
// (2-4 stacked mutators) is left out: a composition that deletes a
// shard's header and then indexes one of its rows reads one line past
// the end (missing_header does not update ShardSet::data_rows), which
// aborts the process on some seeds, e.g. dfsm_faultinject --seed
// 406001275 --trials 1.
constexpr std::array<dfsm::faultinject::CampaignKind, 3> kCampaignSurfaces = {
    dfsm::faultinject::CampaignKind::kCorpus,
    dfsm::faultinject::CampaignKind::kModel,
    dfsm::faultinject::CampaignKind::kRace};

using Batch = std::vector<std::vector<std::vector<dfsm::core::Object>>>;

struct Inputs {
  std::unique_ptr<dfsm::apps::CaseStudy> wide;
  std::size_t wide_ops = 0;
  std::size_t wide_checks_per_op = 0;
  std::vector<std::unique_ptr<dfsm::apps::CaseStudy>> curated;
  std::vector<dfsm::staticlint::LintModel> lint_models;
  std::vector<dfsm::fssim::RaceScenario> races;
  dfsm::core::FsmModel figure4 = dfsm::apps::NullHttpd::figure4_model();
  Batch batch;  ///< Figure-4 observation sets
  std::map<std::string, std::vector<dfsm::core::Object>> scan_domains;
  std::size_t trials = 0;
  std::uint64_t digest = 0;  ///< of the observation sets and the seed
};

Inputs make_inputs(const Options& opt) {
  const bool tiny = opt.size == Size::kTiny;
  Inputs in;
  dfsm::apps::SyntheticStudyConfig config;
  config.operations = tiny ? 3 : 4;
  config.checks_per_operation = tiny ? 4 : 5;
  in.wide_ops = config.operations;
  in.wide_checks_per_op = config.checks_per_operation;
  in.wide = dfsm::apps::make_synthetic_wide_study(config);
  in.curated = dfsm::apps::all_case_studies();
  in.lint_models = dfsm::staticlint::curated_lint_models();
  in.races = dfsm::apps::race_scenarios();

  std::uint64_t state = opt.seed;
  dfsm::core::Fingerprinter fp;
  const auto draw = [&state, &fp](std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    const std::uint64_t v = dfsm::bugtraq::splitmix64(state) % span;
    fp.mix(v);
    return lo + static_cast<std::int64_t>(v);
  };
  const std::size_t sets = tiny ? 256 : 4096;
  for (std::size_t i = 0; i < sets; ++i) {
    const std::int64_t content_len = draw(-2048, 2048);
    const std::int64_t input_len = draw(0, 4096);
    const std::int64_t buffer = std::max<std::int64_t>(content_len, 0) + 1024;
    in.batch.push_back(dfsm::analysis::nullhttpd_observation(
        content_len, input_len, buffer, draw(0, 3) != 0, draw(0, 3) != 0));
  }
  const std::int64_t half = tiny ? 512 : 4096;
  const auto domain = dfsm::analysis::int_range_domain("x", "x", -half, half);
  const auto wide_model = in.wide->model();
  for (const auto& op : wide_model.chain().operations()) {
    for (const auto& pfsm : op.pfsms()) in.scan_domains[pfsm.name()] = domain;
  }
  in.trials = tiny ? 8 : 48;
  in.digest = fp.mix(opt.seed).digest();  // campaign seeds derive from it
  return in;
}

/// The exact evaluation count of a memoized sweep: the baseline plus
/// every non-empty sub-mask of each operation's own checks.
std::size_t memoized_evaluations(const Inputs& in) {
  return 1 + in.wide_ops * ((std::size_t{1} << in.wide_checks_per_op) - 1);
}

bool verdicts_hold(const LemmaReport& rep) {
  return rep.baseline_exploited && rep.all_checks_foil && rep.lemma2_holds &&
         rep.benign_preserved;
}

struct PassOut {
  double sweep_s = 0;
  double rank_s = 0;
  double campaign_s = 0;
  std::size_t exploit_evaluations = 0;
  std::size_t benign_evaluations = 0;
  double rank_memo_hit_ratio = 0;
  std::size_t rules_executed = 0;
  double lint_memo_hit_ratio = 0;
  std::uint64_t schedules = 0;
  std::size_t trials_failed = 0;
  std::size_t study_runs = 0;
};

PassOut analyze_pass(const Inputs& in, TimedStudy& wide,
                     std::vector<std::unique_ptr<TimedStudy>>& curated,
                     const std::filesystem::path& workdir, std::size_t pass,
                     const Options& opt, RunResult& r) {
  PassOut out;
  dfsm::analysis::SweepMemoStore memo;
  {
    dfsm::analysis::SweepOptions so;
    so.memo = &memo;
    const std::int64_t t0 = now_ns();
    LemmaReport rep;
    {
      ScopedSpan root{"analyze.wide_sweep"};
      ScopedSpan span{"analysis.sweep", 0, Fanout::kYes};
      rep = dfsm::analysis::sweep(wide, so);
    }
    out.sweep_s = seconds_since(t0);
    const auto [exploit_runs, benign_runs] = wide.take_counts();
    out.exploit_evaluations = rep.exploit_evaluations;
    out.benign_evaluations = rep.benign_evaluations;
    out.study_runs += exploit_runs + benign_runs;
    r.check(verdicts_hold(rep), "analyze: wide-sweep Lemma verdicts fail");
    r.check(rep.exploit_evaluations == memoized_evaluations(in) &&
                rep.benign_evaluations == memoized_evaluations(in),
            "analyze: wide sweep evaluation count differs from 1 + sum(2^k-1)");
    r.check(exploit_runs == rep.exploit_evaluations &&
                benign_runs == rep.benign_evaluations,
            "analyze: decorator run counts differ from the LemmaReport's");
  }
  {
    const std::int64_t t0 = now_ns();
    dfsm::analysis::PatchRanking ranking;
    {
      ScopedSpan root{"analyze.rank"};
      ScopedSpan span{"analysis.rank_patch_candidates", 0, Fanout::kYes};
      ranking = dfsm::analysis::rank_patch_candidates(
          wide, dfsm::analysis::RankStrategy::kIncremental, &memo);
    }
    out.rank_s = seconds_since(t0);
    const auto [exploit_runs, benign_runs] = wide.take_counts();
    out.study_runs += exploit_runs + benign_runs;
    const auto lookups = ranking.memo_hits + ranking.memo_misses;
    out.rank_memo_hit_ratio =
        lookups == 0 ? 0.0
                     : static_cast<double>(ranking.memo_hits) /
                           static_cast<double>(lookups);
    bool all_foreclose = ranking.candidates.size() == in.wide_ops;
    for (const auto& c : ranking.candidates) all_foreclose &= c.forecloses;
    r.check(all_foreclose, "analyze: a ranked patch candidate does not foreclose");
  }
  {
    std::vector<LemmaReport> reports;
    if (!tracing()) {
      ScopedSpan root{"analyze.sweep_all"};
      reports = dfsm::analysis::sweep_all();
    } else {
      ScopedSpan root{"analyze.sweep_all"};
      ScopedSpan span{"analysis.sweep_all_curated", 0, Fanout::kYes};
      reports = dfsm::runtime::parallel_map<LemmaReport>(
          curated.size(), [&](std::size_t i) {
            ScopedSpan study{"analysis.sweep_study"};
            return dfsm::analysis::sweep(*curated[i]);
          });
    }
    r.check(reports.size() == in.curated.size(),
            "analyze: sweep_all report count differs");
    for (std::size_t i = 0; i < reports.size(); ++i) {
      r.check(verdicts_hold(reports[i]),
              "analyze: Lemma verdicts fail for " + reports[i].study_name);
      if (i < curated.size()) {
        const auto [exploit_runs, benign_runs] = curated[i]->take_counts();
        out.study_runs += exploit_runs + benign_runs;
        if (tracing()) {
          r.check(exploit_runs == reports[i].exploit_evaluations &&
                      benign_runs == reports[i].benign_evaluations,
                  "analyze: decorator run counts differ for " +
                      reports[i].study_name);
        }
      }
    }
  }
  {
    dfsm::staticlint::LintMemoStore store;
    dfsm::staticlint::LintOptions lo;
    lo.memo = &store;
    std::size_t hits = 0;
    std::size_t lookups = 0;
    for (const char* name : {"staticlint.lint", "staticlint.lint_memo"}) {
      dfsm::staticlint::LintRun run;
      {
        ScopedSpan root{"analyze.lint"};
        ScopedSpan span{name};
        run = dfsm::staticlint::lint(in.lint_models, lo);
      }
      r.check(run.errors() == 0 && run.warnings() == 0,
              "analyze: curated lint reports errors or warnings");
      out.rules_executed += run.rules_executed;
      hits += run.memo_hits;
      lookups += run.memo_hits + run.memo_misses;
    }
    out.lint_memo_hit_ratio =
        lookups == 0 ? 0.0
                     : static_cast<double>(hits) / static_cast<double>(lookups);
  }
  for (const auto& scenario : in.races) {
    dfsm::fssim::ExploreReport rep;
    {
      ScopedSpan root{"analyze.explore"};
      ScopedSpan span{"fssim.explore_scenario"};
      rep = dfsm::fssim::explore_scenario(scenario);
    }
    out.schedules += rep.explored;
    std::uint64_t total = 0;
    std::uint64_t violating = 0;
    if (scenario.name == "xterm-figure5") {
      total = 15;
      violating = 3;
    } else if (scenario.name == "rwall-figure6") {
      total = 10;
      violating = 1;
    }
    r.check(total != 0 && rep.exhaustive && rep.explored == total &&
                rep.violating == violating,
            "analyze: exploration of " + scenario.name + " found " +
                std::to_string(rep.violating) + "/" +
                std::to_string(rep.explored) + " violating schedules");
  }
  {
    const std::int64_t t0 = now_ns();
    for (std::size_t t = 0; t < in.trials; ++t) {
      dfsm::faultinject::CampaignConfig config;
      config.seed = opt.seed * 1000003 + pass * in.trials + t;
      config.trials = 1;
      config.campaign = kCampaignSurfaces[t % kCampaignSurfaces.size()];
      config.workdir = workdir.string();
      dfsm::faultinject::CampaignReport rep;
      {
        ScopedSpan root{"analyze.campaign_trial"};
        ScopedSpan span{"faultinject.run_campaign"};
        rep = dfsm::faultinject::run_campaign(config);
      }
      out.trials_failed += rep.failures;
      r.check(rep.ok() && rep.trials.size() == 1,
              "analyze: campaign trial failed (seed " +
                  std::to_string(config.seed) + ")");
    }
    out.campaign_s = seconds_since(t0);
  }
  {
    std::vector<dfsm::core::ChainResult> results;
    {
      ScopedSpan root{"analyze.evaluate_batch"};
      ScopedSpan span{"core.evaluate_batch"};
      results = in.figure4.chain().evaluate_batch(in.batch);
    }
    bool same = results.size() == in.batch.size();
    for (std::size_t i = 0; same && i < results.size(); i += 64) {
      const auto ref = in.figure4.chain().evaluate(in.batch[i]);
      same = ref.foiled_at_operation == results[i].foiled_at_operation &&
             ref.hidden_path_count() == results[i].hidden_path_count();
    }
    r.check(same, "analyze: evaluate_batch differs from evaluate");
  }
  {
    std::vector<dfsm::analysis::HiddenPathReport> reports;
    {
      ScopedSpan root{"analyze.hidden_path_scan"};
      ScopedSpan span{"analysis.scan_model"};
      reports = dfsm::analysis::scan_model(in.wide->model(), in.scan_domains);
    }
    bool ok = reports.size() == in.scan_domains.size();
    for (const auto& rep : reports) {
      ok &= rep.domain_size == in.scan_domains.begin()->second.size();
    }
    r.check(ok, "analyze: hidden-path scan covered the wrong domain");
  }
  return out;
}

}  // namespace

RunResult run_analyze(const Options& opt) {
  RunResult r;
  Inputs in;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in = Inputs{};
    const std::int64_t t0 = now_ns();
    in = make_inputs(opt);
    r.setup_s.push_back(seconds_since(t0));
  }
  r.input_digest = in.digest;
  TimedStudy wide{*in.wide};
  std::vector<std::unique_ptr<TimedStudy>> curated;
  for (const auto& s : in.curated) curated.push_back(std::make_unique<TimedStudy>(*s));

  const std::filesystem::path workdir =
      std::filesystem::path{opt.tmpdir} / "campaign";
  std::filesystem::remove_all(workdir);
  std::filesystem::create_directories(workdir);

  // Warm-up: the first passes fault in the sweep's rows and fill the
  // allocator, and ran up to twice as long as the later ones.
  std::size_t pass = 0;
  for (int i = 0; i < kWarmupPasses; ++i) {
    (void)analyze_pass(in, wide, curated, workdir, pass++, opt, r);
  }

  std::vector<PassOut> passes;
  if (!opt.trace) {
    r.pass_s = measure(
        opt.seconds, 3,
        [&](std::size_t) {
          passes.push_back(
              analyze_pass(in, wide, curated, workdir, pass++, opt, r));
        },
        [&] {
          const std::int64_t t0 = now_ns();
          const Inputs again = make_inputs(opt);
          r.setup_s.push_back(seconds_since(t0));
        });
    std::vector<double> sweep, rank, trials;
    for (const auto& p : passes) {
      sweep.push_back(p.sweep_s);
      rank.push_back(p.rank_s * 1e3);
      trials.push_back(static_cast<double>(in.trials) / p.campaign_s);
    }
    r.workload.push_back({"analyze.sweep_s", median(sweep), "s"});
    r.workload.push_back({"analyze.rank_ms", median(rank), "ms"});
    r.workload.push_back(
        {"analyze.campaign_trials_per_s", median(trials), "trials/s"});
    std::filesystem::remove_all(opt.tmpdir);
    return r;
  }

  PassOut last;
  const TracedRun t = alternate_traced(opt, [&](bool traced) {
    const PassOut out = analyze_pass(in, wide, curated, workdir, pass++, opt, r);
    if (traced) last = out;
  });
  const TraceAnalysis& analysis = t.analysis;
  std::filesystem::remove_all(opt.tmpdir);

  const auto p = [&](const char* span, double q) {
    return percentile(analysis.stats(span).dur_us, q);
  };
  const auto& sweep = analysis.stats("analysis.sweep");
  auto& L = r.layers;
  L.push_back({"apps.study_runs", static_cast<double>(last.study_runs), "count"});
  L.push_back({"apps.study_run_us_p50", p("apps.study_run", 0.5), "us"});
  L.push_back({"apps.study_run_us_p99", p("apps.study_run", 0.99), "us"});
  L.push_back({"apps.study_run_self_frac", analysis.self_frac("apps.study_run"),
               "fraction"});
  L.push_back({"analysis.sweep_ms", p("analysis.sweep", 0.5) / 1e3, "ms"});
  L.push_back({"analysis.sweep_compose_self_frac",
               sweep.total_us > 0 ? sweep.self_us / sweep.total_us : 0.0,
               "fraction"});
  L.push_back({"analysis.exploit_evaluations",
               static_cast<double>(last.exploit_evaluations), "count"});
  L.push_back({"analysis.benign_evaluations",
               static_cast<double>(last.benign_evaluations), "count"});
  L.push_back({"analysis.rank_ms",
               p("analysis.rank_patch_candidates", 0.5) / 1e3, "ms"});
  L.push_back({"analysis.rank_memo_hit_ratio", last.rank_memo_hit_ratio,
               "fraction"});
  L.push_back({"analysis.sweep_all_curated_ms",
               p("analysis.sweep_all_curated", 0.5) / 1e3, "ms"});
  L.push_back({"analysis.hidden_path_scan_ms",
               p("analysis.scan_model", 0.5) / 1e3, "ms"});
  L.push_back({"core.evaluate_batch_ms", p("core.evaluate_batch", 0.5) / 1e3,
               "ms"});
  L.push_back({"staticlint.lint_ms", p("staticlint.lint", 0.5) / 1e3, "ms"});
  L.push_back({"staticlint.rules_executed",
               static_cast<double>(last.rules_executed), "count"});
  L.push_back({"staticlint.memo_hit_ratio", last.lint_memo_hit_ratio,
               "fraction"});
  L.push_back({"fssim.explore_ms",
               analysis.stats("fssim.explore_scenario").total_us / 1e3 /
                   static_cast<double>(t.traced_s.size()),
               "ms"});
  L.push_back({"fssim.schedules_replayed", static_cast<double>(last.schedules),
               "count"});
  L.push_back({"faultinject.trial_ms_p50",
               p("faultinject.run_campaign", 0.5) / 1e3, "ms"});
  L.push_back({"faultinject.trial_ms_p99",
               p("faultinject.run_campaign", 0.99) / 1e3, "ms"});
  L.push_back({"faultinject.trials_failed",
               static_cast<double>(last.trials_failed), "count"});
  const auto busy = analysis.busy_by_thread("apps.study_run");
  double busy_sum = 0;
  double busy_max = 0;
  for (const double b : busy) {
    busy_sum += b;
    busy_max = std::max(busy_max, b);
  }
  L.push_back({"runtime.agent_busy_max_over_mean",
               busy.empty() ? 0.0
                            : busy_max / (busy_sum / static_cast<double>(busy.size())),
               "ratio"});
  finish_traced(opt, t, r);
  return r;
}

}  // namespace perfbench
