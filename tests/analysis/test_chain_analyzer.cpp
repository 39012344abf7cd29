#include "analysis/chain_analyzer.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/synthetic.h"

namespace dfsm::analysis {
namespace {

apps::SyntheticStudyConfig synthetic_config(std::size_t ops,
                                            std::size_t checks) {
  apps::SyntheticStudyConfig c;
  c.operations = ops;
  c.checks_per_operation = checks;
  c.work = 4;  // tests measure semantics, not throughput
  return c;
}

/// 1 + sum over operations of (2^{k_op} - 1): the memoized engine's
/// evaluation budget (one shared baseline + every non-empty sub-mask).
std::size_t memoized_budget(const std::vector<apps::CheckSpec>& checks) {
  std::map<std::size_t, std::size_t> per_op;
  for (const auto& c : checks) ++per_op[c.operation_index];
  std::size_t total = 1;
  for (const auto& [op, k_op] : per_op) {
    total += (std::size_t{1} << k_op) - 1;
  }
  return total;
}

TEST(OperationSecured, RequiresEveryCheckOfTheOperation) {
  const std::vector<apps::CheckSpec> checks = {
      {"c0", 0, core::PfsmType::kContentAttributeCheck},
      {"c1", 0, core::PfsmType::kContentAttributeCheck},
      {"c2", 1, core::PfsmType::kReferenceConsistencyCheck},
  };
  EXPECT_TRUE(operation_secured(checks, {true, true, false}, 0));
  EXPECT_FALSE(operation_secured(checks, {true, false, false}, 0));
  EXPECT_TRUE(operation_secured(checks, {false, false, true}, 1));
  // An operation with no checks at all is not "secured" by a mask.
  EXPECT_FALSE(operation_secured(checks, {true, true, true}, 7));
}

TEST(Sweep, EnumeratesAllMasksInBinaryOrder) {
  const auto studies = apps::all_case_studies();
  const auto report = sweep(*studies[0]);  // Sendmail, 3 checks
  ASSERT_EQ(report.rows.size(), 8u);
  EXPECT_EQ(report.rows[0].mask_id(), 0u);
  EXPECT_EQ(report.rows[5].mask_id(), 5u);  // checks 0 and 2 on
  EXPECT_TRUE(report.rows[5].check_on(0));
  EXPECT_FALSE(report.rows[5].check_on(1));
  EXPECT_TRUE(report.rows[5].check_on(2));
  EXPECT_EQ(report.rows[7].mask_id(), 7u);
}

TEST(Sweep, SendmailBaselineAndFullProtection) {
  const auto studies = apps::all_case_studies();
  const auto report = sweep(*studies[0]);
  EXPECT_TRUE(report.baseline_exploited);
  EXPECT_TRUE(report.all_checks_foil);
  EXPECT_TRUE(report.lemma2_holds);
  EXPECT_TRUE(report.benign_preserved);
  // Every single check foils the Sendmail exploit (paper §3.2: "at any one
  // of which, one can foil the exploit").
  EXPECT_EQ(report.foiling_single_checks.size(), 3u);
}

TEST(Sweep, EveryCaseStudySatisfiesTheLemma) {
  for (const auto& report : sweep_all()) {
    EXPECT_TRUE(report.baseline_exploited) << report.study_name;
    EXPECT_TRUE(report.all_checks_foil) << report.study_name;
    EXPECT_TRUE(report.lemma2_holds) << report.study_name;
    EXPECT_TRUE(report.benign_preserved) << report.study_name;
  }
}

TEST(Sweep, The6255SignatureIsVisibleInTheSingleCheckColumn) {
  const auto reports = sweep_all();
  const auto* known = &reports[1];       // #5774
  const auto* discovered = &reports[2];  // #6255
  ASSERT_NE(known->study_name.find("5774"), std::string::npos);
  ASSERT_NE(discovered->study_name.find("6255"), std::string::npos);
  // #5774: the v0.5.1 patch (check 0) forestalls it.
  EXPECT_NE(std::find(known->foiling_single_checks.begin(),
                      known->foiling_single_checks.end(), 0u),
            known->foiling_single_checks.end());
  // #6255: check 0 does NOT appear — the patched server is still
  // exploitable, which is exactly why it was a new vulnerability.
  EXPECT_EQ(std::find(discovered->foiling_single_checks.begin(),
                      discovered->foiling_single_checks.end(), 0u),
            discovered->foiling_single_checks.end());
  EXPECT_FALSE(discovered->foiling_single_checks.empty());
}

TEST(Sweep, EveryStudyHasAtLeastOneFoilingSingleCheck) {
  // Observation 1: each elementary activity is an independent checking
  // opportunity; at least one of them must stop the published exploit.
  for (const auto& report : sweep_all()) {
    EXPECT_FALSE(report.foiling_single_checks.empty()) << report.study_name;
  }
}

TEST(Sweep, MasksThatSecureAnOperationNeverExploit) {
  for (const auto& report : sweep_all()) {
    for (const auto& row : report.rows) {
      if (row.secured()) {
        EXPECT_FALSE(report.exploit_of(row).exploited)
            << report.study_name << " violated Lemma 2";
      }
    }
  }
}

TEST(Sweep, ChecksNeverBreakBenignService) {
  for (const auto& report : sweep_all()) {
    for (const auto& row : report.rows) {
      EXPECT_TRUE(report.benign_of(row).service_ok)
          << report.study_name << " benign traffic failed under a mask";
    }
  }
}

// --- Memoized engine (DESIGN.md §10) -----------------------------------

TEST(MemoizedSweep, MatchesDirectOnEveryCaseStudy) {
  SweepOptions direct;
  direct.mode = SweepMode::kDirect;
  for (const auto& study : apps::all_case_studies()) {
    const auto memoized = sweep(*study);  // kMemoized is the default
    const auto reference = sweep(*study, direct);
    EXPECT_TRUE(reports_equivalent(memoized, reference)) << study->name();
  }
}

TEST(MemoizedSweep, EvaluationCountStaysWithinTheLemmaBound) {
  SweepOptions direct;
  direct.mode = SweepMode::kDirect;
  for (const auto& study : apps::all_case_studies()) {
    const auto report = sweep(*study);
    const std::size_t budget = memoized_budget(report.checks);
    // Exactly one baseline run plus one run per non-empty sub-mask —
    // and therefore at most sum_ops 2^{k_op}, never the direct 2^k.
    EXPECT_EQ(report.exploit_evaluations, budget) << study->name();
    EXPECT_EQ(report.benign_evaluations, budget) << study->name();
    std::size_t loose = 0;
    std::map<std::size_t, std::size_t> per_op;
    for (const auto& c : report.checks) ++per_op[c.operation_index];
    for (const auto& [op, k_op] : per_op) loose += std::size_t{1} << k_op;
    EXPECT_LE(report.exploit_evaluations, loose) << study->name();

    const auto reference = sweep(*study, direct);
    EXPECT_EQ(reference.exploit_evaluations, reference.rows.size())
        << study->name();
  }
}

TEST(MemoizedSweep, MatchesDirectOnTheSyntheticWideChain) {
  const auto study = apps::make_synthetic_wide_study(synthetic_config(3, 4));
  SweepOptions direct;
  direct.mode = SweepMode::kDirect;
  const auto memoized = sweep(*study);
  const auto reference = sweep(*study, direct);
  EXPECT_TRUE(reports_equivalent(memoized, reference));
  EXPECT_EQ(memoized.rows.size(), std::size_t{1} << 12);
  // 3 operations x 4 checks: 1 + 3 * 15 = 46 runs instead of 4096.
  EXPECT_EQ(memoized.exploit_evaluations, 46u);
}

TEST(Sweep, ExhaustiveSweepBeyondTheCeilingRequiresSampling) {
  const auto study = apps::make_synthetic_wide_study(synthetic_config(7, 4));
  EXPECT_THROW((void)sweep(*study), std::invalid_argument);  // k = 28
  try {
    (void)sweep(*study);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("max_masks"), std::string::npos);
  }
}

TEST(Sweep, SampledSweepPinsBaselineAndAllChecksRows) {
  const auto study = apps::make_synthetic_wide_study(synthetic_config(7, 4));
  SweepOptions options;
  options.max_masks = 512;
  const auto report = sweep(*study, options);
  EXPECT_TRUE(report.sampled);
  EXPECT_EQ(report.total_masks, std::uint64_t{1} << 28);
  ASSERT_EQ(report.rows.size(), 512u);
  EXPECT_EQ(report.rows.front().mask_id(), 0u);
  EXPECT_EQ(report.rows.back().mask_id(), (std::uint64_t{1} << 28) - 1);
  for (std::size_t i = 1; i < report.rows.size(); ++i) {
    EXPECT_LT(report.rows[i - 1].mask_id(), report.rows[i].mask_id());
  }
  EXPECT_TRUE(report.baseline_exploited);
  EXPECT_TRUE(report.all_checks_foil);
  EXPECT_TRUE(report.lemma2_holds);
  EXPECT_TRUE(report.benign_preserved);
}

TEST(Sweep, SampledSweepIsDeterministicAcrossEngines) {
  const auto study = apps::make_synthetic_wide_study(synthetic_config(5, 4));
  SweepOptions memoized;
  memoized.max_masks = 200;
  SweepOptions direct = memoized;
  direct.mode = SweepMode::kDirect;
  const auto a = sweep(*study, memoized);
  const auto b = sweep(*study, memoized);
  const auto c = sweep(*study, direct);
  EXPECT_TRUE(reports_equivalent(a, b));
  EXPECT_TRUE(reports_equivalent(a, c));
  // k = 20: the sample keeps both endpoints, and the verdicts (checked
  // against the direct engine above) hold.
  ASSERT_EQ(a.rows.size(), 200u);
  EXPECT_EQ(a.rows.front().mask_id(), 0u);
  EXPECT_EQ(a.rows.back().mask_id(), (std::uint64_t{1} << 20) - 1);
  EXPECT_TRUE(a.baseline_exploited);
  EXPECT_TRUE(a.all_checks_foil);
  EXPECT_TRUE(a.lemma2_holds);
  EXPECT_TRUE(a.benign_preserved);
}

TEST(Sweep, SweepAllHonoursOptions) {
  SweepOptions direct;
  direct.mode = SweepMode::kDirect;
  const auto memoized = sweep_all();
  const auto reference = sweep_all(direct);
  ASSERT_EQ(memoized.size(), reference.size());
  for (std::size_t i = 0; i < memoized.size(); ++i) {
    EXPECT_TRUE(reports_equivalent(memoized[i], reference[i]))
        << memoized[i].study_name;
  }
}

TEST(SweepFaults, EveryFaultIsCaughtByTheCrossCheckWhereHosted) {
  SweepOptions direct;
  direct.mode = SweepMode::kDirect;
  const auto studies = apps::all_case_studies();
  for (const SweepFault fault :
       {SweepFault::kStaleSubmaskEntry, SweepFault::kFlippedCacheOutcome,
        SweepFault::kWrongGateComposition,
        SweepFault::kStaleSharedMemoAcrossSweeps,
        SweepFault::kMissedInvalidationOnPatch}) {
    std::size_t hosted = 0;
    for (const auto& study : studies) {
      const auto faulty = sweep_with_fault(*study, fault);
      if (!faulty) continue;
      ++hosted;
      // kMissedInvalidationOnPatch ships its own reference (the direct
      // sweep of the actually-secured study); the rest diff against the
      // study's direct sweep.
      const auto reference =
          faulty->reference ? *faulty->reference : sweep(*study, direct);
      EXPECT_FALSE(reports_equivalent(reference, faulty->report))
          << to_string(fault) << " escaped on " << study->name() << " ("
          << faulty->target << ")";
    }
    // Each mutator must be exercisable somewhere in the curated registry,
    // or the fault campaign would silently skip it.
    EXPECT_GT(hosted, 0u) << to_string(fault);
  }
}

TEST(SweepFaults, CleanMemoizedSweepStaysEquivalent) {
  // Sanity for the cross-check itself: without an injected fault the two
  // engines agree, so any inequivalence in the campaign is a real catch.
  const auto studies = apps::all_case_studies();
  SweepOptions direct;
  direct.mode = SweepMode::kDirect;
  const auto& study = *studies[0];
  EXPECT_TRUE(reports_equivalent(sweep(study), sweep(study, direct)));
}

}  // namespace
}  // namespace dfsm::analysis
