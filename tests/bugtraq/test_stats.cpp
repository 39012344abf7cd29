#include "bugtraq/stats.h"

#include <gtest/gtest.h>

#include "bugtraq/corpus.h"

namespace dfsm::bugtraq {
namespace {

class StatsTest : public ::testing::Test {
 protected:
  StatsTest() : snap(synthetic_corpus().snapshot()) {}
  CorpusSnapshotPtr snap;
};

TEST_F(StatsTest, BreakdownIsSortedDescendingAndComplete) {
  const auto shares = category_breakdown(*snap);
  ASSERT_EQ(shares.size(), kCategoryCount);
  for (std::size_t i = 1; i < shares.size(); ++i) {
    EXPECT_GE(shares[i - 1].count, shares[i].count);
  }
  std::size_t total = 0;
  for (const auto& s : shares) total += s.count;
  EXPECT_EQ(total, snap->size());
}

TEST_F(StatsTest, RoundedPercentagesMatchFigure1) {
  const auto shares = category_breakdown(*snap);
  const auto rounded = [&shares](Category c) {
    for (const auto& s : shares) {
      if (s.category == c) return s.rounded_percent;
    }
    return -1;
  };
  // The pie labels of Figure 1.
  EXPECT_EQ(rounded(Category::kInputValidationError), 23);
  EXPECT_EQ(rounded(Category::kBoundaryConditionError), 21);
  EXPECT_EQ(rounded(Category::kDesignError), 18);
  EXPECT_EQ(rounded(Category::kFailureToHandleExceptionalConditions), 11);
  EXPECT_EQ(rounded(Category::kAccessValidationError), 10);
  EXPECT_EQ(rounded(Category::kRaceConditionError), 6);
  EXPECT_EQ(rounded(Category::kConfigurationError), 5);
  EXPECT_EQ(rounded(Category::kOriginValidationError), 3);
  EXPECT_EQ(rounded(Category::kAtomicityError), 2);
  EXPECT_EQ(rounded(Category::kEnvironmentError), 1);
  EXPECT_EQ(rounded(Category::kSerializationError), 0);
  EXPECT_EQ(rounded(Category::kUnknown), 0);
}

TEST_F(StatsTest, TopFiveCategoriesDominate) {
  // §3.1: "the pie-chart is dominated by five categories" (83%).
  const auto shares = category_breakdown(*snap);
  double top5 = 0;
  for (std::size_t i = 0; i < 5; ++i) top5 += shares[i].percent;
  EXPECT_GT(top5, 80.0);
}

TEST_F(StatsTest, StudiedShareIsTwentyTwoPercent) {
  const auto s = studied_share(*snap);
  EXPECT_EQ(s.total, kBugtraqSize2002);
  EXPECT_NEAR(s.percent, 22.0, 0.05);
  EXPECT_EQ(s.classes.size(), 5u);
  std::size_t sum = 0;
  for (const auto& c : s.classes) sum += c.count;
  EXPECT_EQ(sum, s.studied_count);
}

TEST_F(StatsTest, StudiedShareOnEmptyDatabase) {
  const CorpusSnapshot empty;
  const auto s = studied_share(empty);
  EXPECT_EQ(s.percent, 0.0);
  EXPECT_EQ(s.studied_count, 0u);
}

TEST_F(StatsTest, RemoteLocalSplitCoversEverything) {
  const auto split = remote_local_split(*snap);
  EXPECT_EQ(split.remote + split.local, snap->size());
  EXPECT_GT(split.remote, 0u);
  EXPECT_GT(split.local, 0u);
}

TEST_F(StatsTest, ByYearCoversTheStudyWindowAndSumsToTotal) {
  const auto years = by_year(*snap);
  ASSERT_FALSE(years.empty());
  std::size_t sum = 0;
  int last = 0;
  for (const auto& y : years) {
    EXPECT_GE(y.year, 1999);
    EXPECT_LE(y.year, 2002);
    EXPECT_GT(y.year, last);  // ascending
    last = y.year;
    sum += y.count;
  }
  EXPECT_EQ(sum, snap->size());
}

TEST_F(StatsTest, TopSoftwareIsSortedAndBounded) {
  const auto top = top_software(*snap, 5);
  ASSERT_EQ(top.size(), 5u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].count, top[i].count);
  }
  EXPECT_GT(top[0].count, 0u);
  // Asking for more than exists returns everything.
  EXPECT_LE(top_software(*snap, 1000).size(), 16u);  // 16 synthetic packages
}

TEST_F(StatsTest, TopSoftwareOfEmptyDatabase) {
  const CorpusSnapshot empty;
  EXPECT_TRUE(top_software(empty, 3).empty());
  EXPECT_TRUE(by_year(empty).empty());
}

TEST_F(StatsTest, RenderFigure1ContainsEveryCategoryAndTheTotal) {
  const std::string fig = render_figure1(*snap);
  for (Category c : kAllCategories) {
    EXPECT_NE(fig.find(to_string(c)), std::string::npos) << to_string(c);
  }
  EXPECT_NE(fig.find("5925"), std::string::npos);
  EXPECT_NE(fig.find("23%"), std::string::npos);
}

}  // namespace
}  // namespace dfsm::bugtraq
