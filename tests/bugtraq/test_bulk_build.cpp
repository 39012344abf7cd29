// The bulk builder (Database::add_batch on a database with no rows, CSV
// ingest, from_columns) against its oracle, the per-row append path: a
// database seeded with one record that then takes the rest in one
// add_batch. Every column, the interned software table, the histograms
// and the id index must match at DFSM_THREADS 0/1/4, and the duplicate
// rules (strict message, lenient rejects) must read exactly as before.
#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "bugtraq/database.h"
#include "runtime/thread_pool.h"

namespace dfsm::bugtraq {
namespace {

using runtime::ThreadPool;

/// Row `i` of an n-row batch. Ids are a permutation of 1..n (so the
/// builder's id sort has work to do) with every 13th id zero;
/// software draws from a pool that widens with i, so names first appear
/// in every block, interleaved with names already seen.
VulnRecord row(std::size_t i, std::size_t n) {
  VulnRecord r;
  r.id = i % 13 == 12 ? 0 : 1 + static_cast<int>((i * 7919) % n);
  const std::size_t pool = 1 + i * 40 / n;
  r.software = "pkg-" + std::to_string((i * 2654435761u) % pool);
  r.title = "row " + std::to_string(i) + " of " + r.software;
  r.year = 1995 + static_cast<int>(i % 9);
  r.remote = i % 3 == 0;
  r.category = kAllCategories[i % kCategoryCount];
  r.vuln_class = static_cast<VulnClass>(i % kVulnClassCount);
  r.description = "bulk-build row";
  return r;
}

std::vector<VulnRecord> rows_of(std::size_t n) {
  std::vector<VulnRecord> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) rows.push_back(row(i, n));
  return rows;
}

/// The oracle: one add() (so the batch lands on a non-empty corpus and
/// takes the per-row append path), then the rest in one add_batch.
Database per_row(const std::vector<VulnRecord>& rows) {
  Database db;
  if (rows.empty()) return db;
  db.add(rows.front());
  db.add_batch({rows.begin() + 1, rows.end()});
  return db;
}

template <typename T>
bool same(std::span<const T> a, std::span<const T> b) {
  return std::ranges::equal(a, b);
}

void expect_same_corpus(const Database& got, const Database& want) {
  const auto g = got.snapshot();
  const auto w = want.snapshot();
  ASSERT_EQ(g->size(), w->size());
  EXPECT_EQ(g->to_csv(), w->to_csv());
  EXPECT_TRUE(same(g->categories(), w->categories()));
  EXPECT_TRUE(same(g->classes(), w->classes()));
  EXPECT_TRUE(same(g->remote_flags(), w->remote_flags()));
  EXPECT_TRUE(same(g->years(), w->years()));
  EXPECT_TRUE(same(g->software_ids(), w->software_ids()));
  EXPECT_TRUE(same(g->software_names(), w->software_names()));
  EXPECT_EQ(g->histograms(), w->histograms());
  EXPECT_EQ(rebuild_histograms(*g), g->histograms());
  const auto recs = g->records();
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const int id = recs[i].id;
    if (id == 0) continue;
    // Titles are unique per row, so they pin the row each index serves.
    const auto a = got.by_id(id);
    const auto b = want.by_id(id);
    ASSERT_TRUE(a.has_value()) << "id " << id;
    ASSERT_TRUE(b.has_value()) << "id " << id;
    EXPECT_EQ(a->title, recs[i].title) << "id " << id;
    EXPECT_EQ(b->title, w->records()[i].title) << "id " << id;
  }
  EXPECT_FALSE(got.by_id(-1).has_value());
}

std::string strict_error(Database& db, std::vector<VulnRecord> batch) {
  try {
    db.add_batch(std::move(batch));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

std::vector<VulnRecord> with_ids(const std::vector<int>& ids) {
  std::vector<VulnRecord> rows;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    VulnRecord r = row(i, ids.size());
    r.id = ids[i];
    rows.push_back(std::move(r));
  }
  return rows;
}

// --- equivalence at DFSM_THREADS 0/1/4 x n = 0/1/3/257/10^4 -----------

class BulkBuild
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
 protected:
  void SetUp() override {
    ThreadPool::set_global_threads(std::get<0>(GetParam()));
  }
  void TearDown() override {
    ThreadPool::set_global_threads(ThreadPool::default_threads());
  }
  std::size_t n() const { return std::get<1>(GetParam()); }
};

TEST_P(BulkBuild, MatchesPerRowAppend) {
  const auto rows = rows_of(n());
  const Database want = per_row(rows);
  Database got;
  got.add_batch(rows);
  expect_same_corpus(got, want);
  EXPECT_EQ(got.epoch(), n() == 0 ? 0u : 1u);
}

TEST_P(BulkBuild, AppendsAfterABulkBuildMatch) {
  // The writer state a bulk build leaves (base index, intern table)
  // must serve later per-row appends exactly like the oracle's.
  const auto rows = rows_of(n());
  Database want = per_row(rows);
  Database got;
  got.add_batch(rows);
  std::vector<VulnRecord> more;
  for (std::size_t i = 0; i < 5; ++i) {
    VulnRecord r = row(i, 5);
    r.id = 1'000'000 + static_cast<int>(i);
    r.software = i % 2 == 0 ? "pkg-0" : "fresh-" + std::to_string(i);
    more.push_back(std::move(r));
  }
  want.add_batch(more);
  got.add_batch(more);
  expect_same_corpus(got, want);
  if (n() > 0) {
    EXPECT_NE(strict_error(got, {rows.back()}), "");  // id already present
  }
}

TEST_P(BulkBuild, CsvIngestMatchesPerRowAppend) {
  const auto rows = rows_of(n());
  const Database want = per_row(rows);
  const auto csv = want.snapshot()->to_csv();
  expect_same_corpus(Database::from_csv_parts({csv}), want);
}

TEST_P(BulkBuild, MergeIntoEmptyMatchesPerRowAppend) {
  const auto rows = rows_of(n());
  const Database want = per_row(rows);
  Database got;
  got.merge(want);
  expect_same_corpus(got, want);
}

TEST_P(BulkBuild, ReserveBeforeTheFirstRowsStillMatches) {
  const auto rows = rows_of(n());
  Database got;
  got.reserve(n() + 100);
  got.add_batch(rows);
  expect_same_corpus(got, per_row(rows));
}

INSTANTIATE_TEST_SUITE_P(
    PoolsAndSizes, BulkBuild,
    ::testing::Combine(::testing::Values(0, 1, 4),
                       ::testing::Values(0, 1, 3, 257, 10'000)),
    [](const auto& info) {
      return "threads" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

// --- duplicate rules, pinned at DFSM_THREADS 0/1/4 ---------------------

class BulkBuildRules : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { ThreadPool::set_global_threads(GetParam()); }
  void TearDown() override {
    ThreadPool::set_global_threads(ThreadPool::default_threads());
  }
};

TEST_P(BulkBuildRules, StrictNamesTheLowestRepeatedPosition) {
  Database db;
  EXPECT_EQ(strict_error(db, with_ids({5, 7, 7, 5})),
            "duplicate Bugtraq ID: 7");
  EXPECT_EQ(db.epoch(), 0u);
  EXPECT_EQ(db.snapshot()->size(), 0u);
  EXPECT_EQ(db.snapshot()->software_count(), 0u);
  EXPECT_FALSE(db.by_id(5).has_value());

  // The per-row path names the same ID.
  Database seeded;
  seeded.add(with_ids({1}).front());
  EXPECT_EQ(strict_error(seeded, with_ids({5, 7, 7, 5})),
            "duplicate Bugtraq ID: 7");
  EXPECT_EQ(seeded.epoch(), 1u);
}

TEST_P(BulkBuildRules, LenientRejectsMatchPerRowPath) {
  // Row 0 seeds the oracle, so its rejects sit one position lower.
  const std::vector<int> ids = {5, 7, 7, 0, 5, 0, 9, 7, 3, 9, 5};
  Database want;
  auto rows = with_ids(ids);
  want.add(rows.front());
  const auto want_rejects = want.add_batch(
      {rows.begin() + 1, rows.end()}, IngestPolicy::kLenient);

  Database got;
  const auto got_rejects = got.add_batch(rows, IngestPolicy::kLenient);
  ASSERT_EQ(got_rejects.size(), want_rejects.size());
  for (std::size_t k = 0; k < got_rejects.size(); ++k) {
    EXPECT_EQ(got_rejects[k].index, want_rejects[k].index + 1);
    EXPECT_EQ(got_rejects[k].reason, want_rejects[k].reason);
  }
  ASSERT_EQ(got_rejects.size(), 5u);
  EXPECT_EQ(got_rejects[0].index, 2u);
  EXPECT_EQ(got_rejects[0].reason, "duplicate Bugtraq ID: 7");
  EXPECT_EQ(got_rejects[4].index, 10u);
  EXPECT_EQ(got_rejects[4].reason, "duplicate Bugtraq ID: 5");
  expect_same_corpus(got, want);
  EXPECT_EQ(got.epoch(), 1u);
}

TEST_P(BulkBuildRules, LenientRejectsMatchPerRowPathAtScale) {
  // Every 10th row repeats the id of the row 97 places earlier.
  auto rows = rows_of(2'000);
  for (std::size_t i = 100; i < rows.size(); i += 10) {
    rows[i].id = rows[i - 97].id;
  }
  Database want;
  want.add(rows.front());
  const auto want_rejects = want.add_batch(
      {rows.begin() + 1, rows.end()}, IngestPolicy::kLenient);
  Database got;
  const auto got_rejects = got.add_batch(rows, IngestPolicy::kLenient);
  ASSERT_FALSE(got_rejects.empty());
  ASSERT_EQ(got_rejects.size(), want_rejects.size());
  for (std::size_t k = 0; k < got_rejects.size(); ++k) {
    EXPECT_EQ(got_rejects[k].index, want_rejects[k].index + 1);
    EXPECT_EQ(got_rejects[k].reason, want_rejects[k].reason);
  }
  expect_same_corpus(got, want);
}

TEST_P(BulkBuildRules, LenientCsvQuarantineKeepsSourceLines) {
  // A malformed row ahead of a duplicate shifts batch positions; the
  // duplicate's quarantine entry must still name its own source line.
  Database src;
  src.add_batch(with_ids({5, 7}));
  const std::string csv = src.snapshot()->to_csv();
  const auto row2 = csv.find('\n', csv.find('\n') + 1) + 1;  // row "7"
  const std::string row5 = csv.substr(csv.find('\n') + 1,
                                      row2 - csv.find('\n') - 1);
  const std::string mangled =
      csv.substr(0, row2) + "not,a,row\n" + csv.substr(row2) + row5;

  IngestReport report;
  const Database got = Database::from_csv_parts(
      {mangled}, {"part"}, IngestPolicy::kLenient, &report);
  EXPECT_EQ(got.snapshot()->to_csv(), csv);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.rows[0].line, 3u);
  EXPECT_EQ(report.rows[1].line, 5u);
  EXPECT_EQ(report.rows[1].reason, "duplicate Bugtraq ID: 5");
  EXPECT_EQ(report.ingested, 2u);
}

TEST_P(BulkBuildRules, FromColumnsNamesTheLowestRepeatedPosition) {
  // Before the shared rule, from_columns named the smallest repeated id
  // (5 here); it now names the id at the lowest repeated position, as
  // add_batch does.
  Database::BulkColumns cols;
  cols.records = with_ids({5, 7, 7, 5});
  for (const auto& r : cols.records) {
    cols.categories.push_back(r.category);
    cols.classes.push_back(r.vuln_class);
    cols.remote.push_back(r.remote ? 1 : 0);
    cols.years.push_back(r.year);
    cols.software.push_back(0);
  }
  cols.software_names = {"pkg-0"};
  try {
    (void)Database::from_columns(std::move(cols));
    FAIL() << "duplicate ids accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "duplicate Bugtraq ID: 7");
  }
}

INSTANTIATE_TEST_SUITE_P(Pools, BulkBuildRules, ::testing::Values(0, 1, 4),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace dfsm::bugtraq
