// Composed fault trials (DESIGN.md §14): 2-4 mutators per trial with
// machine-checked expectations, the two always-on invariants
// (conservation, memoized-vs-direct), pinned 4-mutator compositions on
// both campaign surfaces, and byte-identical reports across thread
// counts and repeated runs.
#include "faultinject/composed.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/case_study.h"
#include "runtime/thread_pool.h"
#include "staticlint/registry.h"

namespace dfsm::faultinject {
namespace {

namespace fs = std::filesystem;
using runtime::ThreadPool;

bool caught(const TrialResult& t, const std::string& rule) {
  return std::find(t.caught_rules.begin(), t.caught_rules.end(), rule) !=
         t.caught_rules.end();
}

class ComposedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dfsm-composed-" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name()));
    fs::create_directories(dir_);
    curated_ = staticlint::curated_lint_models();
    studies_ = apps::all_case_studies();
  }
  void TearDown() override {
    ThreadPool::set_global_threads(ThreadPool::default_threads());
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] CampaignConfig config() const {
    CampaignConfig c;
    c.seed = 1;
    c.trials = 1;
    c.workdir = dir_.string();
    return c;
  }
  [[nodiscard]] ComposedDeps deps() {
    ComposedDeps d;
    d.curated = &curated_;
    d.studies = &studies_;
    d.memo = &memo_;
    d.lint_agg = &lint_agg_;
    d.models_linted = &models_linted_;
    return d;
  }

  fs::path dir_;
  std::vector<staticlint::LintModel> curated_;
  std::vector<std::unique_ptr<apps::CaseStudy>> studies_;
  staticlint::LintMemoStore memo_;
  staticlint::LintRun lint_agg_;
  std::size_t models_linted_ = 0;
};

TEST(ComposedMutatorNames, CoverTheWholePool) {
  std::set<std::string> names;
  for (const auto m : kAllComposedMutators) {
    const std::string name = to_string(m);
    EXPECT_FALSE(name.empty());
    names.insert(name);
  }
  EXPECT_EQ(names.size(), kAllComposedMutators.size());
  EXPECT_STREQ(to_string(ComposedMutator::kCorruptDiscoveryOracle),
               "corrupt-oracle");
  EXPECT_STREQ(to_string(ComposedMutator::kDesyncMonitorModel),
               "desync-monitor");
  EXPECT_STREQ(to_string(ComposedMutator::kBiasAnomalyThreshold),
               "bias-anomaly");
}

TEST(ComposedMutatorNames, CorpusClassifierAndFaultMapAgree) {
  std::size_t corpus = 0;
  for (const auto m : kAllComposedMutators) {
    if (is_corpus_mutator(m)) {
      ++corpus;
      EXPECT_NO_THROW((void)corpus_fault_of(m));
    } else {
      EXPECT_THROW((void)corpus_fault_of(m), std::invalid_argument);
    }
  }
  EXPECT_EQ(corpus, 9u);
}

TEST(ComposedDraw, YieldsTwoToFourDistinctMutators) {
  Rng rng{42, 0};
  std::set<std::size_t> sizes;
  for (int i = 0; i < 200; ++i) {
    const auto drawn = draw_composition(rng);
    ASSERT_GE(drawn.size(), 2u);
    ASSERT_LE(drawn.size(), 4u);
    sizes.insert(drawn.size());
    std::set<ComposedMutator> distinct(drawn.begin(), drawn.end());
    EXPECT_EQ(distinct.size(), drawn.size());
  }
  // All three composition widths appear over 200 draws.
  EXPECT_EQ(sizes, (std::set<std::size_t>{2, 3, 4}));
}

TEST_F(ComposedTest, PinnedFourCorpusCompositionHoldsConservation) {
  Rng rng{7, 0};
  const auto d = deps();
  const auto r = run_composed_trial_with(
      {ComposedMutator::kCorpusTruncateTail, ComposedMutator::kCorpusMissingHeader,
       ComposedMutator::kCorpusDropShard, ComposedMutator::kCorpusTransientIo},
      config(), 0, rng, d);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.kind, "composed");
  EXPECT_TRUE(r.detected);
  EXPECT_TRUE(r.conserved);
  EXPECT_TRUE(caught(r, "conservation"));
  EXPECT_TRUE(caught(r, "memoized-vs-direct"));
  // The fault label is the "+"-joined composition, in draw order.
  EXPECT_EQ(r.fault, "truncate-tail+missing-header+drop-shard+transient-io");
  // truncate-tail and missing-header plant defects, so strict ingest threw.
  EXPECT_TRUE(r.strict_threw);
  EXPECT_EQ(r.strict_error.find(dir_.string()), std::string::npos);
}

TEST_F(ComposedTest, PinnedFourAnalysisCompositionCatchesEveryLayer) {
  Rng rng{11, 0};
  const auto d = deps();
  const auto r = run_composed_trial_with(
      {ComposedMutator::kSweepCacheFault, ComposedMutator::kCorruptDiscoveryOracle,
       ComposedMutator::kDesyncMonitorModel,
       ComposedMutator::kBiasAnomalyThreshold},
      config(), 0, rng, d);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_TRUE(r.detected);
  // The clean corpus pipeline ran anyway, so conservation still holds.
  EXPECT_TRUE(r.conserved);
  EXPECT_TRUE(caught(r, "conservation"));
  EXPECT_TRUE(caught(r, "memoized-vs-direct"));
  EXPECT_TRUE(caught(r, "oracle-divergence"));
  EXPECT_TRUE(caught(r, "monitor-desync"));
  EXPECT_TRUE(caught(r, "anomaly-threshold-bias"));
  EXPECT_FALSE(r.strict_threw);  // no corpus mutator drawn
}

TEST_F(ComposedTest, BenignCorpusCompositionStaysClean) {
  Rng rng{13, 0};
  const auto d = deps();
  const auto r = run_composed_trial_with(
      {ComposedMutator::kCorpusDropShard, ComposedMutator::kCorpusReorderShards,
       ComposedMutator::kCorpusTransientIo},
      config(), 0, rng, d);
  EXPECT_TRUE(r.ok) << r.failure;
  // All-benign corpus mutations never trip strict ingest.
  EXPECT_FALSE(r.strict_threw);
  EXPECT_TRUE(r.conserved);
}

TEST_F(ComposedTest, DegenerateCompositionsAreRejected) {
  Rng rng{1, 0};
  const auto d = deps();
  EXPECT_THROW((void)run_composed_trial_with({}, config(), 0, rng, d),
               std::invalid_argument);
  EXPECT_THROW((void)run_composed_trial_with(
                   {ComposedMutator::kCorpusDropShard,
                    ComposedMutator::kCorpusDropShard},
                   config(), 0, rng, d),
               std::invalid_argument);
  ComposedDeps no_required;
  EXPECT_THROW((void)run_composed_trial_with(
                   {ComposedMutator::kCorpusDropShard,
                    ComposedMutator::kCorpusTransientIo},
                   config(), 0, rng, no_required),
               std::invalid_argument);
}

TEST_F(ComposedTest, OptionalLintDepsMayBeNull) {
  // memo/lint_agg/models_linted are optional: the trial runs its lints
  // against a local store instead of the campaign-wide aggregate.
  Rng rng{19, 0};
  ComposedDeps d;
  d.curated = &curated_;
  d.studies = &studies_;
  const auto r = run_composed_trial_with(
      {ComposedMutator::kModelIrFault, ComposedMutator::kChainLintFault},
      config(), 0, rng, d);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_TRUE(r.detected);
}

TEST_F(ComposedTest, CampaignIsByteIdenticalAcrossThreadCountsAndRuns) {
  auto cfg = config();
  cfg.trials = 8;
  cfg.campaign = CampaignKind::kComposed;
  std::vector<std::string> json;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::set_global_threads(threads);
    json.push_back(emit_json(run_campaign(cfg)));
  }
  EXPECT_EQ(json[0], json[1]);
  // Repeated run at the same thread count and seed: identical too.
  const auto again = emit_json(run_campaign(cfg));
  EXPECT_EQ(json[1], again);
}

TEST_F(ComposedTest, EveryDrawnCompositionPassesItsExpectations) {
  // A seeded sweep over the drawn-composition path (what run_campaign
  // executes per kComposed trial), including at least one 4-mutator draw.
  const auto d = deps();
  std::size_t four_wide = 0;
  for (std::size_t t = 0; t < 12; ++t) {
    Rng rng{23, t};
    const auto r = run_composed_trial(config(), t, rng, d);
    EXPECT_TRUE(r.ok) << "trial " << t << ": " << r.failure;
    EXPECT_TRUE(r.detected) << "trial " << t;
    EXPECT_TRUE(caught(r, "conservation")) << "trial " << t;
    EXPECT_TRUE(caught(r, "memoized-vs-direct")) << "trial " << t;
    four_wide += std::count(r.fault.begin(), r.fault.end(), '+') == 3 ? 1 : 0;
  }
  EXPECT_GT(four_wide, 0u);
}

TEST_F(ComposedTest, PinnedSeedMissingHeaderThenRowMutatorsStaysInBounds) {
  // Seed 406001275's only trial composes missing-header with
  // mangle-quoting and corrupt-field. A row mutator re-rolled onto the
  // header-less shard used to index one line past its end (a double
  // free that aborted the campaign).
  auto cfg = config();
  cfg.seed = 406001275;
  const auto report = run_campaign(cfg);
  ASSERT_EQ(report.trials.size(), 1u);
  EXPECT_EQ(report.composed_trials, 1u);
  EXPECT_TRUE(report.ok()) << report.trials[0].failure;
}

TEST_F(ComposedTest, EveryOrderedCorpusMutatorPairPassesItsExpectations) {
  std::vector<ComposedMutator> corpus;
  for (const ComposedMutator m : kAllComposedMutators) {
    if (is_corpus_mutator(m)) corpus.push_back(m);
  }
  ASSERT_EQ(corpus.size(), 9u);
  const auto d = deps();
  for (const ComposedMutator first : corpus) {
    for (const ComposedMutator second : corpus) {
      if (first == second) continue;
      for (std::uint64_t seed = 0; seed < 3; ++seed) {
        Rng rng{seed, static_cast<std::uint64_t>(first) * 16 +
                          static_cast<std::uint64_t>(second)};
        const auto r = run_composed_trial_with({first, second}, config(), 0,
                                               rng, d);
        EXPECT_TRUE(r.ok) << r.fault << " seed " << seed << ": " << r.failure;
        EXPECT_TRUE(r.conserved) << r.fault << " seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace dfsm::faultinject
