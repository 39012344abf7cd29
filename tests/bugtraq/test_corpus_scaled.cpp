// Size-parameterized corpus generation: scaled_plan apportionment,
// snapshot byte-identity, Figure-1 proportions at 10^6 records, and
// thread-count independence of the parallel generator.
#include <cmath>
#include <cstddef>

#include <gtest/gtest.h>

#include "bugtraq/corpus.h"
#include "bugtraq/stats.h"
#include "runtime/thread_pool.h"

namespace dfsm::bugtraq {
namespace {

TEST(ScaledPlan, SnapshotSizeIsTheDefaultPlanExactly) {
  EXPECT_EQ(scaled_plan(kBugtraqSize2002), CorpusPlan{});
}

TEST(ScaledPlan, TotalsMatchEveryRequestedSize) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{11},
        std::size_t{100}, std::size_t{5924}, std::size_t{5926},
        std::size_t{59250}, std::size_t{123457}, std::size_t{1000000}}) {
    const auto plan = scaled_plan(n);
    EXPECT_EQ(plan.total(), n) << "n=" << n;
    // Studied sub-counts must fit inside their host categories at any n.
    EXPECT_LE(plan.stack_overflow + plan.heap_overflow +
                  plan.integer_overflow_boundary,
              plan.boundary_condition)
        << "n=" << n;
    EXPECT_LE(plan.format_string + plan.integer_overflow_input,
              plan.input_validation)
        << "n=" << n;
    EXPECT_LE(plan.integer_overflow_access, plan.access_validation) << "n=" << n;
    EXPECT_LE(plan.file_race, plan.race_condition) << "n=" << n;
  }
}

TEST(ScaledCorpus, SnapshotSizeIsByteIdenticalToTheDefaultGenerator) {
  EXPECT_EQ(synthetic_corpus_n(kBugtraqSize2002, 77).snapshot()->to_csv(),
            synthetic_corpus(77).snapshot()->to_csv());
}

TEST(ScaledCorpus, DeterministicInSeedAndSize) {
  const auto a = synthetic_corpus_n(10000, 9).snapshot();
  const auto b = synthetic_corpus_n(10000, 9).snapshot();
  const auto c = synthetic_corpus_n(10000, 10).snapshot();
  EXPECT_EQ(a->to_csv(), b->to_csv());
  EXPECT_NE(a->to_csv(), c->to_csv());
  EXPECT_EQ(a->count_by_category(), c->count_by_category());
}

TEST(ScaledCorpus, TinySizesGenerate) {
  EXPECT_EQ(synthetic_corpus_n(0).snapshot()->size(), 0u);
  EXPECT_EQ(synthetic_corpus_n(1).snapshot()->size(), 1u);
  EXPECT_EQ(synthetic_corpus_n(37).snapshot()->size(), 37u);
}

TEST(ScaledCorpus, GenerationIsThreadCountIndependent) {
  runtime::ThreadPool::set_global_threads(1);
  const auto serial = synthetic_corpus_n(10000, 5).snapshot()->to_csv();
  runtime::ThreadPool::set_global_threads(4);
  const auto parallel = synthetic_corpus_n(10000, 5).snapshot()->to_csv();
  runtime::ThreadPool::set_global_threads(runtime::ThreadPool::default_threads());
  EXPECT_EQ(serial, parallel);
}

// The satellite acceptance check: at a million records, every Figure-1
// category share is within ±0.5 percentage points of the snapshot's.
TEST(ScaledCorpus, MillionRecordHistogramMatchesFigure1Fractions) {
  constexpr std::size_t kMillion = 1'000'000;
  const auto snap = synthetic_corpus_n(kMillion, 42).snapshot();
  ASSERT_EQ(snap->size(), kMillion);
  const auto counts = snap->count_by_category();
  const auto reference = synthetic_corpus();  // the Figure-1 snapshot
  const auto ref_counts = reference.snapshot()->count_by_category();
  for (Category c : kAllCategories) {
    const double share =
        100.0 * static_cast<double>(counts.at(c)) / static_cast<double>(kMillion);
    const double ref_share = 100.0 * static_cast<double>(ref_counts.at(c)) /
                             static_cast<double>(kBugtraqSize2002);
    EXPECT_NEAR(share, ref_share, 0.5) << to_string(c);
  }
  // The §1 coverage claim survives scaling too.
  const auto share = studied_share(*snap);
  EXPECT_NEAR(share.percent, 22.0, 0.5);
}

}  // namespace
}  // namespace dfsm::bugtraq
