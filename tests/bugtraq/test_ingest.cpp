// Bulk ingest (Database::add_batch), the year/software columnar
// histograms, and DFSM_THREADS edge cases over the sharded ingest path:
// 0 and 1 (serial fallback), more threads than shards, empty corpus,
// single-record corpus.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bugtraq/corpus.h"
#include "bugtraq/csv_shards.h"
#include "bugtraq/database.h"
#include "runtime/thread_pool.h"

namespace dfsm::bugtraq {
namespace {

using runtime::ThreadPool;

VulnRecord sample(int id, int year = 2001, const std::string& software = "testd") {
  VulnRecord r;
  r.id = id;
  r.title = "Sample #" + std::to_string(id);
  r.software = software;
  r.year = year;
  r.remote = (id % 2) == 0;
  r.category = Category::kBoundaryConditionError;
  r.vuln_class = VulnClass::kStackBufferOverflow;
  r.description = "sample";
  return r;
}

TEST(AddBatch, EquivalentToPerRecordAdds) {
  const auto corpus = synthetic_corpus_n(500, 11).snapshot();

  Database incremental;
  for (const auto& r : corpus->records()) incremental.add(r);

  Database bulk;
  const auto recs = corpus->records();
  bulk.add_batch({recs.begin(), recs.end()});

  const auto got = bulk.snapshot();
  const auto want = incremental.snapshot();
  EXPECT_EQ(got->to_csv(), want->to_csv());
  EXPECT_EQ(got->count_by_category(), want->count_by_category());
  EXPECT_EQ(got->count_by_class(), want->count_by_class());
  EXPECT_EQ(got->count_by_year(), want->count_by_year());
  EXPECT_EQ(got->count_by_software(), want->count_by_software());
}

TEST(AddBatch, EmptyBatchIsANoOp) {
  Database db;
  db.add(sample(1));
  db.add_batch({});
  EXPECT_EQ(db.snapshot()->size(), 1u);
}

TEST(AddBatch, DuplicateWithinBatchLeavesDatabaseUntouched) {
  Database db;
  db.add(sample(1));
  std::vector<VulnRecord> batch = {sample(2), sample(3), sample(2)};
  EXPECT_THROW(db.add_batch(batch), std::invalid_argument);
  EXPECT_EQ(db.snapshot()->size(), 1u);
  EXPECT_FALSE(db.by_id(2).has_value());
}

TEST(AddBatch, DuplicateAgainstDatabaseLeavesDatabaseUntouched) {
  Database db;
  db.add(sample(1));
  std::vector<VulnRecord> batch = {sample(5), sample(1)};
  EXPECT_THROW(db.add_batch(batch), std::invalid_argument);
  EXPECT_EQ(db.snapshot()->size(), 1u);
  EXPECT_FALSE(db.by_id(5).has_value());
}

TEST(AddBatch, ZeroIdsMayRepeatWithinABatch) {
  Database db;
  db.add_batch({sample(0), sample(0), sample(7)});
  EXPECT_EQ(db.snapshot()->size(), 3u);
  EXPECT_TRUE(db.by_id(7).has_value());
}

TEST(AddBatch, LenientKeepsFirstOccurrenceAndReportsRejects) {
  Database db;
  db.add(sample(1));
  const auto rejects = db.add_batch(
      {sample(2), sample(1), sample(3), sample(2)}, IngestPolicy::kLenient);
  EXPECT_EQ(db.snapshot()->size(), 3u);
  EXPECT_TRUE(db.by_id(2).has_value());
  EXPECT_TRUE(db.by_id(3).has_value());
  ASSERT_EQ(rejects.size(), 2u);
  EXPECT_EQ(rejects[0].index, 1u);
  EXPECT_EQ(rejects[0].reason, "duplicate Bugtraq ID: 1");
  EXPECT_EQ(rejects[1].index, 3u);
  EXPECT_EQ(rejects[1].reason, "duplicate Bugtraq ID: 2");
}

TEST(AddBatch, LenientAcceptsZeroIdsWithoutRejects) {
  Database db;
  const auto rejects =
      db.add_batch({sample(0), sample(0), sample(9)}, IngestPolicy::kLenient);
  EXPECT_TRUE(rejects.empty());
  EXPECT_EQ(db.snapshot()->size(), 3u);
}

TEST(AddBatch, StrictPolicyMatchesPlainAddBatch) {
  Database db;
  db.add(sample(1));
  EXPECT_THROW((void)db.add_batch({sample(2), sample(1)}, IngestPolicy::kStrict),
               std::invalid_argument);
  EXPECT_EQ(db.snapshot()->size(), 1u);
  EXPECT_FALSE(db.by_id(2).has_value());
}

TEST(AddBatch, LenientPreservesInsertionOrderOfAccepted) {
  Database db;
  (void)db.add_batch({sample(5), sample(4), sample(5), sample(6)},
                     IngestPolicy::kLenient);
  const auto snap = db.snapshot();
  ASSERT_EQ(snap->size(), 3u);
  EXPECT_EQ(snap->records()[0].id, 5);
  EXPECT_EQ(snap->records()[1].id, 4);
  EXPECT_EQ(snap->records()[2].id, 6);
}

TEST(IngestPolicyNames, RoundTrip) {
  EXPECT_STREQ(to_string(IngestPolicy::kStrict), "strict");
  EXPECT_STREQ(to_string(IngestPolicy::kLenient), "lenient");
}

TEST(Histograms, YearAndSoftwareColumnsServeTheCounts) {
  Database db;
  db.add_batch({sample(1, 1999, "BIND"), sample(2, 1999, "BIND"),
                sample(3, 2002, "Sendmail")});
  const auto years = db.snapshot()->count_by_year();
  ASSERT_EQ(years.size(), 2u);
  EXPECT_EQ(years.at(1999), 2u);
  EXPECT_EQ(years.at(2002), 1u);

  const auto software = db.snapshot()->count_by_software();
  ASSERT_EQ(software.size(), 2u);
  EXPECT_EQ(software.at("BIND"), 2u);
  EXPECT_EQ(software.at("Sendmail"), 1u);
}

TEST(Histograms, CacheInvalidatesOnMutation) {
  Database db;
  db.add(sample(1, 1999));
  EXPECT_EQ(db.snapshot()->count_by_year().at(1999), 1u);
  db.add(sample(2, 1999));
  EXPECT_EQ(db.snapshot()->count_by_year().at(1999), 2u);
  db.add_batch({sample(3, 2000), sample(4, 2000)});
  const auto years = db.snapshot()->count_by_year();
  EXPECT_EQ(years.at(1999), 2u);
  EXPECT_EQ(years.at(2000), 2u);
}

// --- DFSM_THREADS edge cases over the ingest path -----------------------

class IngestThreads : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    // One directory per test and process: parallel ctest runs the
    // parameterized tests concurrently, and one test's TearDown must not
    // delete another's shards.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '-');
    dir_ = std::filesystem::temp_directory_path() /
           ("dfsm-ingest-" + name + "-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    ThreadPool::set_global_threads(ThreadPool::default_threads());
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_P(IngestThreads, ShardedIngestMatchesAtEveryPoolSize) {
  // Corpus sizes covering the edges: empty, single-record, fewer records
  // than shards, and a multi-block corpus.
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{257}}) {
    const auto snap = synthetic_corpus_n(n, 13).snapshot();
    const auto expected = snap->to_csv();
    const auto paths = write_csv_shards(
        *snap, (dir_ / ("c" + std::to_string(n))).string(), 4);

    // GetParam() threads vs the shard count of 4: 0/1 are the serial
    // fallback, 16 is "more threads than shards".
    ThreadPool::set_global_threads(GetParam());
    const auto restored = read_csv_shards(paths).snapshot();
    EXPECT_EQ(restored->to_csv(), expected) << "n=" << n;
    EXPECT_EQ(restored->size(), n) << "n=" << n;

    const auto direct = Database::from_csv_parts({expected});
    EXPECT_EQ(direct.snapshot()->to_csv(), expected) << "n=" << n;
  }
}

TEST_P(IngestThreads, GenerationAndHistogramsMatchAtEveryPoolSize) {
  ThreadPool::set_global_threads(GetParam());
  const auto snap = synthetic_corpus_n(1000, 21).snapshot();
  ThreadPool::set_global_threads(ThreadPool::default_threads());
  const auto reference = synthetic_corpus_n(1000, 21).snapshot();
  EXPECT_EQ(snap->to_csv(), reference->to_csv());
  EXPECT_EQ(snap->count_by_year(), reference->count_by_year());
  EXPECT_EQ(snap->count_by_software(), reference->count_by_software());
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, IngestThreads,
                         ::testing::Values(0, 1, 2, 4, 16));

}  // namespace
}  // namespace dfsm::bugtraq
