#include "bugtraq/database.h"

#include <gtest/gtest.h>

#include "bugtraq/curated.h"

namespace dfsm::bugtraq {
namespace {

VulnRecord sample(int id) {
  VulnRecord r;
  r.id = id;
  r.title = "Sample, with comma and \"quotes\"";
  r.software = "testd";
  r.year = 2001;
  r.remote = true;
  r.category = Category::kBoundaryConditionError;
  r.vuln_class = VulnClass::kStackBufferOverflow;
  r.description = "line one\nline two";
  r.activities = {ElementaryActivity::kGetInput, ElementaryActivity::kCopyToBuffer};
  r.reference_activity = 1;
  return r;
}

TEST(Database, AddAndLookupById) {
  Database db;
  db.add(sample(42));
  EXPECT_EQ(db.snapshot()->size(), 1u);
  ASSERT_TRUE(db.by_id(42).has_value());
  EXPECT_EQ(db.by_id(42)->software, "testd");
  EXPECT_FALSE(db.by_id(99).has_value());
}

TEST(Database, ByIdResultSurvivesArenaGrowth) {
  // A lookup result must own its bytes: growing the column arena
  // publishes a new epoch and frees the arena the lookup was served from.
  Database db;
  db.add(sample(42));
  auto hit = db.by_id(42);
  std::vector<VulnRecord> more;
  for (int id = 1000; id < 1300; ++id) more.push_back(sample(id));
  db.add_batch(std::move(more));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->title, "Sample, with comma and \"quotes\"");
}

TEST(Database, DuplicateNonZeroIdRejected) {
  Database db;
  db.add(sample(42));
  EXPECT_THROW(db.add(sample(42)), std::invalid_argument);
}

TEST(Database, MultipleZeroIdsAllowed) {
  // Advisories without Bugtraq IDs (xterm, rwall) share id 0.
  Database db;
  db.add(sample(0));
  db.add(sample(0));
  EXPECT_EQ(db.snapshot()->size(), 2u);
}

TEST(Database, QueryAndCount) {
  Database db;
  auto a = sample(1);
  a.remote = true;
  auto b = sample(2);
  b.remote = false;
  db.add(a);
  db.add(b);
  const auto snap = db.snapshot();
  EXPECT_EQ(snap->count([](const VulnRecord& r) { return r.remote; }), 1u);
  const auto hits = snap->query([](const VulnRecord& r) { return !r.remote; });
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->id, 2);
}

TEST(Database, CountByCategoryIncludesEmptyCategories) {
  Database db;
  db.add(sample(1));
  const auto counts = db.snapshot()->count_by_category();
  EXPECT_EQ(counts.size(), kCategoryCount);
  EXPECT_EQ(counts.at(Category::kBoundaryConditionError), 1u);
  EXPECT_EQ(counts.at(Category::kAtomicityError), 0u);
}

TEST(Database, CsvRoundTripPreservesEverything) {
  Database db;
  db.add(sample(7));
  auto r2 = sample(8);
  r2.activities.clear();
  r2.reference_activity = -1;
  db.add(r2);

  const auto restored = Database::from_csv_parts({db.snapshot()->to_csv()});
  ASSERT_EQ(restored.snapshot()->size(), 2u);
  const auto r = restored.by_id(7);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->title, "Sample, with comma and \"quotes\"");
  EXPECT_EQ(r->category, Category::kBoundaryConditionError);
  EXPECT_EQ(r->vuln_class, VulnClass::kStackBufferOverflow);
  EXPECT_EQ(r->activities.size(), 2u);
  EXPECT_EQ(r->activities[1], ElementaryActivity::kCopyToBuffer);
  EXPECT_EQ(r->reference_activity, 1);
  EXPECT_TRUE(r->remote);
  EXPECT_TRUE(restored.by_id(8)->activities.empty());
}

TEST(Database, FromCsvRejectsGarbage) {
  EXPECT_THROW((void)Database::from_csv_parts({"not a header\n"}),
               std::invalid_argument);
}

// Property: CSV round-trip is the identity for arbitrary (seeded) record
// contents, including separators, quotes and newlines in text fields.
class CsvFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(CsvFuzz, RoundTripIsIdentity) {
  std::uint64_t rng = 0x9E3779B97F4A7C15ull * (GetParam() + 1);
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  auto fuzz_string = [&next](std::size_t max_len) {
    static constexpr char alphabet[] =
        "abcXYZ012 ,\"\n%$../\\;'\t#|<>";
    std::string s;
    const std::size_t len = next() % (max_len + 1);
    for (std::size_t i = 0; i < len; ++i) {
      s.push_back(alphabet[next() % (sizeof(alphabet) - 1)]);
    }
    return s;
  };

  Database db;
  for (int i = 0; i < 40; ++i) {
    VulnRecord r;
    r.id = 1000 + i;
    r.title = fuzz_string(48);
    r.software = fuzz_string(16);
    r.year = 1995 + static_cast<int>(next() % 10);
    r.remote = (next() & 1) != 0;
    r.category = kAllCategories[next() % kCategoryCount];
    r.vuln_class = static_cast<VulnClass>(next() % kVulnClassCount);
    r.description = fuzz_string(80);
    const std::size_t acts = next() % 4;
    for (std::size_t a = 0; a < acts; ++a) {
      r.activities.push_back(static_cast<ElementaryActivity>(
          next() % (static_cast<unsigned>(ElementaryActivity::kFreeBuffer) + 1)));
    }
    r.reference_activity =
        r.activities.empty() ? -1 : static_cast<int>(next() % r.activities.size());
    db.add(std::move(r));
  }

  const auto snap = db.snapshot();
  const auto restored = Database::from_csv_parts({snap->to_csv()}).snapshot();
  ASSERT_EQ(restored->size(), snap->size());
  for (std::size_t i = 0; i < snap->size(); ++i) {
    const auto& a = snap->records()[i];
    const auto& b = restored->records()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.title, b.title);
    EXPECT_EQ(a.software, b.software);
    EXPECT_EQ(a.year, b.year);
    EXPECT_EQ(a.remote, b.remote);
    EXPECT_EQ(a.category, b.category);
    EXPECT_EQ(a.vuln_class, b.vuln_class);
    EXPECT_EQ(a.description, b.description);
    EXPECT_EQ(a.activities, b.activities);
    EXPECT_EQ(a.reference_activity, b.reference_activity);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzz, ::testing::Values(1, 2, 3, 4, 5));

TEST(Database, MergeCombinesRecords) {
  Database a;
  a.add(sample(1));
  Database b;
  b.add(sample(2));
  a.merge(b);
  EXPECT_EQ(a.snapshot()->size(), 2u);
  EXPECT_TRUE(a.by_id(2).has_value());
}

// --- Curated paper records ----------------------------------------------

TEST(Curated, ContainsEveryPaperCitedBugtraqId) {
  const auto db = curated_records();
  for (int id : {3163, 5493, 3958, 6157, 5960, 4479, 1387, 2210, 2264, 1480,
                 5774, 6255, 2708}) {
    EXPECT_TRUE(db.by_id(id).has_value()) << "missing #" << id;
  }
  EXPECT_GE(db.snapshot()->size(), 15u);  // plus the two id-0 advisories
}

TEST(Curated, RecordsSurviveCsvRoundTrip) {
  const auto snap = curated_records().snapshot();
  const auto restored = Database::from_csv_parts({snap->to_csv()});
  EXPECT_EQ(restored.snapshot()->size(), snap->size());
  EXPECT_EQ(restored.by_id(3163)->category, Category::kInputValidationError);
}

TEST(Curated, Table1RecordsAreTheThreeIntegerOverflows) {
  const auto rows = table1_records();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].id, 3163);
  EXPECT_EQ(rows[1].id, 5493);
  EXPECT_EQ(rows[2].id, 3958);
  for (const auto& r : rows) {
    EXPECT_EQ(r.vuln_class, VulnClass::kIntegerOverflow);
    EXPECT_EQ(r.activities.size(), 3u);
  }
  // Three DIFFERENT categories for the same root cause.
  EXPECT_EQ(rows[0].category, Category::kInputValidationError);
  EXPECT_EQ(rows[1].category, Category::kBoundaryConditionError);
  EXPECT_EQ(rows[2].category, Category::kAccessValidationError);
}

TEST(Curated, DiscoveredVulnerabilityIsRecorded) {
  const auto db = curated_records();
  const auto r = db.by_id(6255);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->software, "Null HTTPD");
  EXPECT_NE(r->description.find("'||'"), std::string::npos);
}

}  // namespace
}  // namespace dfsm::bugtraq
