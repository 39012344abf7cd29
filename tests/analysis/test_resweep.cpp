// Incremental re-analysis (resweep / sweep_summary), the shared memo
// store under full sweeps, and the secured-study reference wrapper.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/chain_analyzer.h"
#include "analysis/sweep_memo.h"
#include "apps/case_study.h"
#include "apps/secured.h"
#include "apps/synthetic.h"

namespace dfsm::analysis {
namespace {

std::set<std::size_t> operation_ids(const apps::CaseStudy& study) {
  std::set<std::size_t> ops;
  for (const auto& c : study.checks()) ops.insert(c.operation_index);
  return ops;
}

std::uint64_t exploited_rows(const LemmaReport& r) {
  std::uint64_t n = 0;
  for (const auto& row : r.rows) n += r.exploit_of(row).exploited ? 1 : 0;
  return n;
}

std::uint64_t benign_broken_rows(const LemmaReport& r) {
  std::uint64_t n = 0;
  for (const auto& row : r.rows) n += r.benign_of(row).service_ok ? 0 : 1;
  return n;
}

SweepOptions direct_options() {
  SweepOptions o;
  o.mode = SweepMode::kDirect;
  return o;
}

apps::SyntheticStudyConfig small_synthetic() {
  apps::SyntheticStudyConfig cfg;
  cfg.operations = 3;
  cfg.checks_per_operation = 2;
  cfg.work = 16;
  return cfg;
}

// --- resweep ------------------------------------------------------------

TEST(Resweep, EmptyDeltaReproducesTheBaselineOnEveryCaseStudy) {
  for (const auto& study : apps::all_case_studies()) {
    const LemmaReport baseline = sweep(*study);
    const LemmaReport re = resweep(*study, baseline, {});
    EXPECT_TRUE(reports_equivalent(baseline, re)) << study->name();
    EXPECT_EQ(re.exploit_evaluations, 0u) << study->name();
    EXPECT_EQ(re.benign_evaluations, 0u) << study->name();
  }
}

TEST(Resweep, AllOperationsChangedEqualsTheDirectSweepOnEveryCaseStudy) {
  // delta == full: every operation re-evaluated. Must be byte-equivalent
  // to both engines run from scratch.
  for (const auto& study : apps::all_case_studies()) {
    const LemmaReport baseline = sweep(*study);
    SweepDelta delta;
    for (const std::size_t op : operation_ids(*study)) {
      delta.changed_operations.push_back(op);
    }
    const LemmaReport re = resweep(*study, baseline, delta);
    EXPECT_TRUE(reports_equivalent(re, sweep(*study, direct_options())))
        << study->name();
    EXPECT_TRUE(reports_equivalent(re, baseline)) << study->name();
  }
}

TEST(Resweep, SecuredDeltaEqualsSweepingTheSecuredStudyOnEveryCaseStudy) {
  // The tentpole contract: one baseline sweep + k compositions == k full
  // sweeps of the k secured variants, against BOTH reference engines.
  auto studies = apps::all_case_studies();
  studies.push_back(apps::make_synthetic_wide_study(small_synthetic()));
  for (const auto& study : studies) {
    const LemmaReport baseline = sweep(*study);
    for (const std::size_t op : operation_ids(*study)) {
      SweepDelta delta;
      delta.secured_operations = {op};
      const LemmaReport re = resweep(*study, baseline, delta);
      EXPECT_EQ(re.exploit_evaluations, 0u);

      const auto secured = apps::make_secured_study(*study, {op});
      EXPECT_TRUE(reports_equivalent(re, sweep(*secured)))
          << study->name() << " op " << op;
      EXPECT_TRUE(reports_equivalent(re, sweep(*secured, direct_options())))
          << study->name() << " op " << op;
    }
  }
}

TEST(Resweep, SecuredPairDeltaMatchesTheSecuredStudy) {
  const auto study = apps::make_synthetic_wide_study(small_synthetic());
  const LemmaReport baseline = sweep(*study);
  SweepDelta delta;
  delta.secured_operations = {0, 2};
  const LemmaReport re = resweep(*study, baseline, delta);
  const auto secured = apps::make_secured_study(*study, {0, 2});
  EXPECT_TRUE(reports_equivalent(re, sweep(*secured)));
}

TEST(Resweep, ChangedOperationReEvaluatesOnlyItsOwnCells) {
  const auto study = apps::make_synthetic_wide_study(small_synthetic());
  const LemmaReport baseline = sweep(*study);
  SweepDelta delta;
  delta.changed_operations = {1};
  const LemmaReport re = resweep(*study, baseline, delta);
  // Operation 1 has 2 checks: 2^2 - 1 = 3 non-empty sub-masks.
  EXPECT_EQ(re.exploit_evaluations, 3u);
  EXPECT_EQ(re.benign_evaluations, 3u);
  EXPECT_TRUE(reports_equivalent(re, baseline));
}

TEST(Resweep, RejectsBaselineFromAnotherStudy) {
  const auto studies = apps::all_case_studies();
  const LemmaReport other = sweep(*studies[0]);
  EXPECT_THROW((void)resweep(*studies[1], other, {}), std::invalid_argument);
}

TEST(Resweep, RejectsSampledBaseline) {
  const auto study = apps::make_synthetic_wide_study(small_synthetic());
  SweepOptions sampled;
  sampled.max_masks = 4;
  const LemmaReport baseline = sweep(*study, sampled);
  ASSERT_TRUE(baseline.sampled);
  EXPECT_THROW((void)resweep(*study, baseline, {}), std::invalid_argument);
}

TEST(Resweep, RejectsBaselineWithAMismatchedCheckLayout) {
  // A baseline recorded by an older build of the same study (same name,
  // same k, different check layout) must be rejected, not silently
  // recomposed into a wrong report.
  const auto study = apps::make_synthetic_wide_study(small_synthetic());
  LemmaReport stale = sweep(*study);
  ASSERT_GE(stale.checks.size(), 2u);
  std::swap(stale.checks[0], stale.checks[1]);
  EXPECT_THROW((void)resweep(*study, stale, {}), std::invalid_argument);
}

TEST(Resweep, RejectsUnknownOperations) {
  const auto study = apps::make_synthetic_wide_study(small_synthetic());
  const LemmaReport baseline = sweep(*study);
  SweepDelta bad_changed;
  bad_changed.changed_operations = {99};
  EXPECT_THROW((void)resweep(*study, baseline, bad_changed),
               std::invalid_argument);
  SweepDelta bad_secured;
  bad_secured.secured_operations = {99};
  EXPECT_THROW((void)resweep(*study, baseline, bad_secured),
               std::invalid_argument);
}

// --- the shared store under full sweeps ---------------------------------

TEST(SharedSweepStore, SecondSweepIsServedEntirelyFromTheStore) {
  SweepMemoStore store;
  SweepOptions opts;
  opts.memo = &store;
  for (const auto& study : apps::all_case_studies()) {
    const LemmaReport first = sweep(*study, opts);
    EXPECT_EQ(first.memo_hits, 0u) << study->name();
    EXPECT_EQ(first.memo_misses,
              first.exploit_evaluations) << study->name();

    const LemmaReport second = sweep(*study, opts);
    EXPECT_TRUE(reports_equivalent(first, second)) << study->name();
    EXPECT_EQ(second.exploit_evaluations, 0u) << study->name();
    EXPECT_EQ(second.benign_evaluations, 0u) << study->name();
    EXPECT_EQ(second.memo_misses, 0u) << study->name();
    EXPECT_EQ(second.memo_hits, first.memo_misses) << study->name();
  }
}

TEST(SharedSweepStore, StoreBackedSweepMatchesTheDirectEngine) {
  SweepMemoStore store;
  SweepOptions opts;
  opts.memo = &store;
  for (const auto& study : apps::all_case_studies()) {
    (void)sweep(*study, opts);                        // populate
    const LemmaReport recalled = sweep(*study, opts); // all hits
    EXPECT_TRUE(
        reports_equivalent(recalled, sweep(*study, direct_options())))
        << study->name();
  }
}

TEST(SharedSweepStore, SampledThenExhaustiveEscalationSharesTheFill) {
  // The escalation pattern the store exists for: a sampled scout sweep
  // fills the per-operation cells; the exhaustive confirmation re-uses
  // every one of them (cells depend on sub-masks, not on which rows get
  // composed).
  const auto study = apps::make_synthetic_wide_study(small_synthetic());
  SweepMemoStore store;
  SweepOptions scout;
  scout.memo = &store;
  scout.max_masks = 8;
  const LemmaReport sampled = sweep(*study, scout);
  ASSERT_TRUE(sampled.sampled);

  SweepOptions full;
  full.memo = &store;
  const LemmaReport exhaustive = sweep(*study, full);
  EXPECT_EQ(exhaustive.exploit_evaluations, 0u);
  EXPECT_EQ(exhaustive.memo_misses, 0u);
  EXPECT_TRUE(
      reports_equivalent(exhaustive, sweep(*study, direct_options())));
}

TEST(SharedSweepStore, StaleFingerprintEntryIsInvalidatedAndRefilled) {
  const auto study = apps::make_synthetic_wide_study(small_synthetic());
  SweepMemoStore store;
  SweepOptions opts;
  opts.memo = &store;
  const LemmaReport first = sweep(*study, opts);

  // Simulate a changed operation: overwrite one cell with a wrong
  // fingerprint, as if it had been written by an older pFSM set.
  const std::size_t op = study->checks()[0].operation_index;
  MemoEntry stale;
  stale.exploit.exploited = true;
  store.insert({study->name(), op, 1}, 0xdeadbeef, stale);

  const LemmaReport second = sweep(*study, opts);
  EXPECT_EQ(second.entries_invalidated, 1u);
  EXPECT_EQ(second.memo_misses, 1u);
  EXPECT_EQ(second.exploit_evaluations, 1u);  // only the dropped cell
  EXPECT_TRUE(reports_equivalent(first, second));
}

TEST(SharedSweepStore, ChangedPlusSecuredDeltaKeysItsCellsUnderTheBaseFamily) {
  // Regression: a resweep delta with BOTH changed and secured operations
  // evaluates its cells against the BASE study (securing happens at
  // composition time), so the memo must serve and insert them under the
  // base family name — keying them under the secured variant would poison
  // a later memoized sweep of make_secured_study with unpinned cells.
  const auto study = apps::make_synthetic_wide_study(small_synthetic());
  const LemmaReport baseline = sweep(*study);

  SweepMemoStore store;
  SweepOptions opts;
  opts.memo = &store;
  SweepDelta delta;
  delta.changed_operations = {1};
  delta.secured_operations = {0};
  const LemmaReport re = resweep(*study, baseline, delta, opts);

  const std::size_t written = store.size();
  EXPECT_GT(written, 0u);

  const auto secured = apps::make_secured_study(*study, {0});
  EXPECT_EQ(re.study_name, secured->name());
  EXPECT_TRUE(reports_equivalent(re, sweep(*secured, direct_options())));

  // The secured family was never written: its memoized sweep fills from
  // scratch (zero cross-family hits) and still matches the direct engine.
  const LemmaReport secured_memo = sweep(*secured, opts);
  EXPECT_EQ(secured_memo.memo_hits, 0u);
  EXPECT_EQ(secured_memo.entries_invalidated, 0u);
  EXPECT_TRUE(
      reports_equivalent(secured_memo, sweep(*secured, direct_options())));

  // And the base family's cells round-trip: a memoized base sweep finds
  // every entry the resweep stored, so each was keyed under the base
  // family.
  const LemmaReport base_memo = sweep(*study, opts);
  EXPECT_EQ(base_memo.memo_hits, written);
  EXPECT_EQ(base_memo.entries_invalidated, 0u);
  EXPECT_TRUE(reports_equivalent(base_memo, baseline));
}

TEST(SharedSweepStore, SweepAllSharesOneStoreAcrossTheRegistry) {
  SweepMemoStore store;
  SweepOptions opts;
  opts.memo = &store;
  const auto first = sweep_all(opts);
  const auto second = sweep_all(opts);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(reports_equivalent(first[i], second[i]));
    EXPECT_EQ(second[i].exploit_evaluations, 0u) << first[i].study_name;
  }
}

// --- sweep_summary ------------------------------------------------------

TEST(SweepSummaryTest, MatchesRowAggregatesOnEveryCaseStudy) {
  for (const auto& study : apps::all_case_studies()) {
    const LemmaReport report = sweep(*study);
    const SweepSummary summary = sweep_summary(*study);
    EXPECT_EQ(summary.study_name, report.study_name);
    EXPECT_EQ(summary.total_masks, report.total_masks);
    EXPECT_EQ(summary.exploited_masks, exploited_rows(report))
        << study->name();
    EXPECT_EQ(summary.benign_broken_masks, benign_broken_rows(report))
        << study->name();
    EXPECT_EQ(summary.baseline_exploited, report.baseline_exploited);
    EXPECT_EQ(summary.all_checks_foil, report.all_checks_foil);
    EXPECT_EQ(summary.lemma2_holds, report.lemma2_holds);
  }
}

TEST(SweepSummaryTest, SecuredSummaryMatchesTheSecuredStudyRowsEverywhere) {
  for (const auto& study : apps::all_case_studies()) {
    for (const std::size_t op : operation_ids(*study)) {
      SweepDelta delta;
      delta.secured_operations = {op};
      const SweepSummary summary = sweep_summary(*study, delta);
      const auto secured = apps::make_secured_study(*study, {op});
      const LemmaReport report = sweep(*secured);
      EXPECT_EQ(summary.study_name, report.study_name);
      EXPECT_EQ(summary.exploited_masks, exploited_rows(report))
          << study->name() << " op " << op;
      EXPECT_EQ(summary.benign_broken_masks, benign_broken_rows(report))
          << study->name() << " op " << op;
      EXPECT_EQ(summary.baseline_exploited, report.baseline_exploited);
      EXPECT_EQ(summary.all_checks_foil, report.all_checks_foil);
      EXPECT_EQ(summary.lemma2_holds, report.lemma2_holds);
    }
  }
}

TEST(SweepSummaryTest, SyntheticWideStudyMatchesRowAggregates) {
  const auto study = apps::make_synthetic_wide_study(small_synthetic());
  const LemmaReport report = sweep(*study);
  const SweepSummary summary = sweep_summary(*study);
  EXPECT_EQ(summary.exploited_masks, exploited_rows(report));
  EXPECT_EQ(summary.benign_broken_masks, benign_broken_rows(report));
  EXPECT_EQ(summary.lemma2_holds, report.lemma2_holds);
}

TEST(SweepSummaryTest, StoreMakesRepeatSummariesFree) {
  const auto study = apps::make_synthetic_wide_study(small_synthetic());
  SweepMemoStore store;
  SweepOptions opts;
  opts.memo = &store;
  const SweepSummary first = sweep_summary(*study, {}, opts);
  EXPECT_GT(first.exploit_evaluations, 0u);
  // Every candidate after the fill costs zero study runs.
  for (const std::size_t op : operation_ids(*study)) {
    SweepDelta delta;
    delta.secured_operations = {op};
    const SweepSummary s = sweep_summary(*study, delta, opts);
    EXPECT_EQ(s.exploit_evaluations, 0u) << "op " << op;
    EXPECT_EQ(s.memo_misses, 0u) << "op " << op;
  }
}

TEST(SweepSummaryTest, RejectsUnknownSecuredOperation) {
  const auto study = apps::make_synthetic_wide_study(small_synthetic());
  SweepDelta delta;
  delta.secured_operations = {99};
  EXPECT_THROW((void)sweep_summary(*study, delta), std::invalid_argument);
}

// --- the secured-study wrapper ------------------------------------------

TEST(SecuredStudy, PinsTheOperationsChecksInEveryRun) {
  const auto base = apps::make_synthetic_wide_study(small_synthetic());
  const auto secured = apps::make_secured_study(*base, {1});
  const std::size_t k = base->checks().size();

  // Secured mask m behaves like base mask m | pin.
  std::vector<bool> all_off(k, false);
  std::vector<bool> pin_only(k, false);
  for (std::size_t i = 0; i < k; ++i) {
    if (base->checks()[i].operation_index == 1) pin_only[i] = true;
  }
  EXPECT_EQ(secured->run_exploit(all_off), base->run_exploit(pin_only));
  EXPECT_EQ(secured->run_benign(all_off), base->run_benign(pin_only));
}

TEST(SecuredStudy, NameIsCanonicalSortedAndDeduplicated) {
  const auto base = apps::make_synthetic_wide_study(small_synthetic());
  EXPECT_EQ(apps::secured_study_name(*base, {2, 0, 2}),
            base->name() + " [secured: op0 op2]");
  EXPECT_EQ(apps::secured_study_name(*base, {}),
            base->name() + " [secured: none]");
  const auto secured = apps::make_secured_study(*base, {2, 0, 2});
  EXPECT_EQ(secured->name(), apps::secured_study_name(*base, {0, 2}));
}

TEST(SecuredStudy, RejectsOperationsWithoutChecks) {
  const auto base = apps::make_synthetic_wide_study(small_synthetic());
  EXPECT_THROW((void)apps::make_secured_study(*base, {99}),
               std::invalid_argument);
}

TEST(SecuredStudy, KeepsTheBaseCheckVector) {
  const auto base = apps::make_synthetic_wide_study(small_synthetic());
  const auto secured = apps::make_secured_study(*base, {0});
  EXPECT_EQ(secured->checks().size(), base->checks().size());
}

}  // namespace
}  // namespace dfsm::analysis
