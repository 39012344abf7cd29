// Compact Lemma rows (DESIGN.md §10): 16-byte rows over an interned
// outcome table, verdicts folded in the compose pass, and a table whose
// order depends only on the study — never on the engine's thread count
// or on what a memo store happened to serve.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "analysis/chain_analyzer.h"
#include "analysis/sweep_memo.h"
#include "apps/case_study.h"
#include "apps/synthetic.h"
#include "runtime/thread_pool.h"

namespace dfsm::analysis {
namespace {

static_assert(sizeof(LemmaRow) == 16);

using runtime::ThreadPool;

std::unique_ptr<apps::CaseStudy> wide_study(std::size_t ops,
                                            std::size_t checks) {
  apps::SyntheticStudyConfig c;
  c.operations = ops;
  c.checks_per_operation = checks;
  c.work = 4;  // semantics, not throughput
  return apps::make_synthetic_wide_study(c);
}

SweepOptions direct_options() {
  SweepOptions o;
  o.mode = SweepMode::kDirect;
  return o;
}

/// 1 + sum over operations of (2^{k_op} - 1).
std::size_t memoized_budget(const std::vector<apps::CheckSpec>& checks) {
  std::map<std::size_t, std::size_t> per_op;
  for (const auto& c : checks) ++per_op[c.operation_index];
  std::size_t total = 1;
  for (const auto& [op, k_op] : per_op) total += (std::size_t{1} << k_op) - 1;
  return total;
}

std::vector<bool> mask_of(const LemmaRow& row, std::size_t k) {
  std::vector<bool> mask(k);
  for (std::size_t i = 0; i < k; ++i) mask[i] = row.check_on(i);
  return mask;
}

/// Every row id in range, and the table interned: no outcome twice.
void expect_well_formed(const LemmaReport& r) {
  for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
    for (std::size_t j = i + 1; j < r.outcomes.size(); ++j) {
      EXPECT_FALSE(r.outcomes[i] == r.outcomes[j])
          << r.study_name << " entries " << i << " and " << j;
    }
  }
  for (const auto& row : r.rows) {
    ASSERT_LT(row.exploit, r.outcomes.size()) << r.study_name;
    ASSERT_LT(row.benign, r.outcomes.size()) << r.study_name;
  }
}

bool same_bytes(const LemmaReport& a, const LemmaReport& b) {
  return a.outcomes == b.outcomes && a.rows.size() == b.rows.size() &&
         std::memcmp(a.rows.data(), b.rows.data(),
                     a.rows.size() * sizeof(LemmaRow)) == 0;
}

TEST(LemmaRows, AccessorsResolveEveryRowToTheStudysOwnRun) {
  for (const auto& study : apps::all_case_studies()) {
    const auto report = sweep(*study);
    const std::size_t k = report.checks.size();
    ASSERT_EQ(report.rows.size(), std::size_t{1} << k) << study->name();
    expect_well_formed(report);
    expect_well_formed(sweep(*study, direct_options()));
    for (std::size_t i = 0; i < report.rows.size(); ++i) {
      const LemmaRow& row = report.rows[i];
      EXPECT_EQ(row.mask_id(), i) << study->name();
      const auto mask = mask_of(row, k);
      bool secured = false;
      for (const auto& c : report.checks) {
        secured = secured ||
                  operation_secured(report.checks, mask, c.operation_index);
      }
      EXPECT_EQ(row.secured(), secured) << study->name() << " mask " << i;
      EXPECT_EQ(report.exploit_of(row), study->run_exploit(mask))
          << study->name() << " mask " << i;
      EXPECT_EQ(report.benign_of(row), study->run_benign(mask))
          << study->name() << " mask " << i;
    }
  }
}

TEST(LemmaRows, WideStudyAtK20FitsTheInternedBound) {
  const auto study = wide_study(4, 5);
  const auto report = sweep(*study);
  ASSERT_EQ(report.checks.size(), 20u);
  EXPECT_EQ(report.rows.size(), std::size_t{1} << 20);
  const std::size_t budget = memoized_budget(report.checks);  // 125
  EXPECT_EQ(report.exploit_evaluations, budget);
  EXPECT_EQ(report.benign_evaluations, budget);
  EXPECT_LE(report.outcomes.size(), 2 * budget);
  expect_well_formed(report);
  EXPECT_TRUE(report.baseline_exploited);
  EXPECT_TRUE(report.all_checks_foil);
  EXPECT_TRUE(report.lemma2_holds);
  EXPECT_TRUE(report.benign_preserved);
  EXPECT_EQ(report.rows.front().mask_id(), 0u);
  EXPECT_EQ(report.rows.back().mask_id(), (std::uint64_t{1} << 20) - 1);
  EXPECT_TRUE(report.rows.back().secured());
  EXPECT_FALSE(report.rows.front().secured());
}

TEST(LemmaRows, FlippedTableEntryIsCaughtByTheCrossCheck) {
  const auto studies = apps::all_case_studies();
  const auto& study = *studies[0];
  const auto clean = sweep(study);
  const auto faulty =
      sweep_with_fault(study, SweepFault::kFlippedCacheOutcome);
  ASSERT_TRUE(faulty.has_value());
  // The corruption lives in the table: exactly one entry differs, and
  // only in its exploited bit.
  ASSERT_EQ(faulty->report.outcomes.size(), clean.outcomes.size());
  std::size_t flipped = 0;
  for (std::size_t i = 0; i < clean.outcomes.size(); ++i) {
    if (clean.outcomes[i] == faulty->report.outcomes[i]) continue;
    ++flipped;
    EXPECT_NE(i, clean.rows[0].exploit) << "the baseline entry was flipped";
    auto restored = faulty->report.outcomes[i];
    restored.exploited = !restored.exploited;
    EXPECT_EQ(restored, clean.outcomes[i]);
  }
  EXPECT_EQ(flipped, 1u);
  EXPECT_FALSE(
      reports_equivalent(sweep(study, direct_options()), faulty->report));
}

TEST(LemmaRows, TableAndRowsAreByteIdenticalAtEveryThreadCount) {
  const auto study = wide_study(3, 4);
  SweepOptions sampled;
  sampled.max_masks = 300;
  for (const SweepOptions& options : {SweepOptions{}, direct_options(),
                                      sampled}) {
    std::vector<LemmaReport> runs;
    for (const std::size_t threads :
         {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
      ThreadPool::set_global_threads(threads);
      runs.push_back(sweep(*study, options));
    }
    ThreadPool::set_global_threads(ThreadPool::default_threads());
    EXPECT_TRUE(same_bytes(runs[0], runs[1]));
    EXPECT_TRUE(same_bytes(runs[1], runs[2]));
    EXPECT_EQ(runs[0].foiling_single_checks, runs[2].foiling_single_checks);
  }
}

TEST(LemmaRows, StoreServedSweepInternsTheSameTable) {
  const auto study = wide_study(3, 3);
  SweepMemoStore store;
  SweepOptions options;
  options.memo = &store;
  const auto first = sweep(*study, options);   // fills the store
  const auto second = sweep(*study, options);  // served entirely from it
  EXPECT_EQ(second.exploit_evaluations, 0u);
  EXPECT_TRUE(same_bytes(first, second));
  EXPECT_TRUE(same_bytes(first, sweep(*study)));
}

}  // namespace
}  // namespace dfsm::analysis
