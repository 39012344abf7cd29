#include "bugtraq/corpus.h"

#include <gtest/gtest.h>

namespace dfsm::bugtraq {
namespace {

TEST(CorpusPlan, DefaultTotalsMatchThePublishedDatabaseSize) {
  const CorpusPlan plan;
  EXPECT_EQ(plan.total(), kBugtraqSize2002);
  EXPECT_EQ(plan.total(), 5925u);
}

TEST(CorpusPlan, StudiedTotalIsTwentyTwoPercent) {
  const CorpusPlan plan;
  const double share = 100.0 * static_cast<double>(plan.studied_total()) /
                       static_cast<double>(plan.total());
  EXPECT_NEAR(share, 22.0, 0.05);  // §1: "22% of all vulnerabilities"
}

TEST(Corpus, GeneratesExactlyTheDatabaseSize) {
  const auto snap = synthetic_corpus().snapshot();
  EXPECT_EQ(snap->size(), kBugtraqSize2002);
}

TEST(Corpus, CategoryCountsMatchThePlanExactly) {
  const auto snap = synthetic_corpus().snapshot();
  const auto counts = snap->count_by_category();
  const CorpusPlan plan;
  EXPECT_EQ(counts.at(Category::kInputValidationError), plan.input_validation);
  EXPECT_EQ(counts.at(Category::kBoundaryConditionError), plan.boundary_condition);
  EXPECT_EQ(counts.at(Category::kDesignError), plan.design);
  EXPECT_EQ(counts.at(Category::kFailureToHandleExceptionalConditions),
            plan.failure_to_handle);
  EXPECT_EQ(counts.at(Category::kAccessValidationError), plan.access_validation);
  EXPECT_EQ(counts.at(Category::kRaceConditionError), plan.race_condition);
  EXPECT_EQ(counts.at(Category::kConfigurationError), plan.configuration);
  EXPECT_EQ(counts.at(Category::kOriginValidationError), plan.origin_validation);
  EXPECT_EQ(counts.at(Category::kAtomicityError), plan.atomicity);
  EXPECT_EQ(counts.at(Category::kEnvironmentError), plan.environment);
  EXPECT_EQ(counts.at(Category::kSerializationError), plan.serialization);
  EXPECT_EQ(counts.at(Category::kUnknown), plan.unknown);
}

TEST(Corpus, ClassCountsMatchThePlan) {
  const auto snap = synthetic_corpus().snapshot();
  const auto by_class = snap->count_by_class();
  const CorpusPlan plan;
  EXPECT_EQ(by_class.at(VulnClass::kStackBufferOverflow), plan.stack_overflow);
  EXPECT_EQ(by_class.at(VulnClass::kHeapOverflow), plan.heap_overflow);
  EXPECT_EQ(by_class.at(VulnClass::kFormatString), plan.format_string);
  EXPECT_EQ(by_class.at(VulnClass::kFileRaceCondition), plan.file_race);
  EXPECT_EQ(by_class.at(VulnClass::kIntegerOverflow),
            plan.integer_overflow_input + plan.integer_overflow_boundary +
                plan.integer_overflow_access);
}

TEST(Corpus, IntegerOverflowSpreadsAcrossThreeCategoriesLikeTable1) {
  const auto db = synthetic_corpus();
  const auto in_cat = [&db](Category c) {
    return db.snapshot()->count([c](const VulnRecord& r) {
      return r.vuln_class == VulnClass::kIntegerOverflow && r.category == c;
    });
  };
  EXPECT_GT(in_cat(Category::kInputValidationError), 0u);
  EXPECT_GT(in_cat(Category::kBoundaryConditionError), 0u);
  EXPECT_GT(in_cat(Category::kAccessValidationError), 0u);
}

TEST(Corpus, DeterministicInSeed) {
  const auto a = synthetic_corpus(123).snapshot();
  const auto b = synthetic_corpus(123).snapshot();
  const auto c = synthetic_corpus(456).snapshot();
  EXPECT_EQ(a->to_csv(), b->to_csv());
  EXPECT_NE(a->to_csv(), c->to_csv());
  // Different seeds still produce the same marginals.
  EXPECT_EQ(c->count_by_category(), a->count_by_category());
}

TEST(Corpus, SyntheticIdsAreUniqueAndHigh) {
  const auto snap = synthetic_corpus().snapshot();
  for (const auto& r : snap->records()) {
    EXPECT_GE(r.id, 100000);  // never collides with curated real IDs
  }
  // Uniqueness is enforced by Database::add; reaching here proves it.
}

TEST(Corpus, YearsSpanTheStudyWindow) {
  const auto snap = synthetic_corpus().snapshot();
  for (const auto& r : snap->records()) {
    EXPECT_GE(r.year, 1999);
    EXPECT_LE(r.year, 2002);
  }
}

TEST(Corpus, InvalidPlanRejected) {
  CorpusPlan bad;
  bad.unknown += 1;  // total no longer 5925
  EXPECT_THROW((void)synthetic_corpus(1, bad), std::invalid_argument);

  CorpusPlan inconsistent;
  inconsistent.stack_overflow = inconsistent.boundary_condition + 1;
  EXPECT_THROW((void)synthetic_corpus(1, inconsistent), std::invalid_argument);
}

TEST(Splitmix, DeterministicSequence) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_NE(s1, 42u);  // state advances
}

}  // namespace
}  // namespace dfsm::bugtraq
