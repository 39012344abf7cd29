#include "bugtraq/classifier.h"

#include <gtest/gtest.h>

#include "bugtraq/curated.h"

namespace dfsm::bugtraq {
namespace {

using EA = ElementaryActivity;

TEST(Classifier, ActivityToCategoryMapping) {
  EXPECT_EQ(category_for_activity(EA::kGetInput), Category::kInputValidationError);
  EXPECT_EQ(category_for_activity(EA::kUseAsArrayIndex),
            Category::kBoundaryConditionError);
  EXPECT_EQ(category_for_activity(EA::kCopyToBuffer),
            Category::kBoundaryConditionError);
  EXPECT_EQ(category_for_activity(EA::kHandleFollowingData),
            Category::kFailureToHandleExceptionalConditions);
  EXPECT_EQ(category_for_activity(EA::kExecuteViaPointer),
            Category::kAccessValidationError);
  EXPECT_EQ(category_for_activity(EA::kOpenFile), Category::kRaceConditionError);
  EXPECT_EQ(category_for_activity(EA::kDecodeName),
            Category::kInputValidationError);
}

TEST(Classifier, ReproducesTable1) {
  // The heart of Observation 1: anchoring the SAME vulnerability on a
  // different elementary activity yields a different category — and the
  // categories are exactly the ones Bugtraq's analysts assigned.
  const auto rows = table1_records();
  // #3163 anchored on "get an input integer" -> Input Validation.
  EXPECT_EQ(category_for_activity(rows[0].activities[0]),
            Category::kInputValidationError);
  // #5493 anchored on "use the integer as the index" -> Boundary Condition.
  EXPECT_EQ(category_for_activity(rows[1].activities[1]),
            Category::kBoundaryConditionError);
  // #3958 anchored on "execute code referred by a pointer" -> Access
  // Validation.
  EXPECT_EQ(category_for_activity(rows[2].activities[2]),
            Category::kAccessValidationError);
}

TEST(Classifier, Table1RecordsAreSelfConsistentAndAmbiguous) {
  for (const auto& r : table1_records()) {
    EXPECT_TRUE(classification_consistent(r)) << r.title;
    EXPECT_TRUE(classification_ambiguous(r)) << r.title;
    // All three plausible categories exist for the integer-overflow chain.
    EXPECT_EQ(plausible_categories(r).size(), 3u);
  }
}

TEST(Classifier, EveryCuratedRecordIsSelfConsistent) {
  const auto snap = curated_records().snapshot();
  for (const auto& r : snap->records()) {
    EXPECT_TRUE(classification_consistent(r)) << r.title;
  }
}

TEST(Classifier, PlausibleCategoriesDeduplicate) {
  VulnRecord r;
  r.activities = {EA::kCopyToBuffer, EA::kUseAsArrayIndex};  // both Boundary
  EXPECT_EQ(plausible_categories(r).size(), 1u);
  EXPECT_FALSE(classification_ambiguous(r));
}

TEST(Classifier, NoActivitiesMeansInconsistentAndUnambiguous) {
  VulnRecord r;  // bulk synthetic records carry no activity chain
  EXPECT_FALSE(classification_consistent(r));
  EXPECT_FALSE(classification_ambiguous(r));
  EXPECT_TRUE(plausible_categories(r).empty());
}

TEST(Classifier, OutOfRangeReferenceActivityIsInconsistent) {
  VulnRecord r;
  r.activities = {EA::kGetInput};
  r.reference_activity = 5;
  EXPECT_FALSE(classification_consistent(r));
}

}  // namespace
}  // namespace dfsm::bugtraq
