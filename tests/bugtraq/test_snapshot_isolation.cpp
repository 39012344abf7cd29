// The concurrent corpus service: snapshot-isolated reads during ingest,
// incremental histogram maintenance proven equal to a full rebuild,
// true-no-op batches, copy-on-write, and a reader/writer hammer that the
// TSan CI leg runs race-detection over.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <iterator>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bugtraq/corpus.h"
#include "bugtraq/database.h"
#include "runtime/thread_pool.h"

// Clang spells the TSan feature test differently from GCC.
#ifndef __SANITIZE_THREAD__
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define __SANITIZE_THREAD__ 1
#endif
#endif
#endif

namespace dfsm::bugtraq {
namespace {

using runtime::ThreadPool;

/// The corpus records as an owning vector (snapshots hand out spans).
std::vector<VulnRecord> materialize(const Database& db) {
  const auto recs = db.snapshot()->records();
  return {recs.begin(), recs.end()};
}

std::size_t total_of(const CorpusHistograms& h) {
  return std::accumulate(h.by_category.begin(), h.by_category.end(),
                         std::size_t{0});
}

TEST(SnapshotIsolation, HeldSnapshotFreezesAnEpochDuringIngest) {
  Database db = synthetic_corpus_n(300, 3);
  const auto old_snap = db.snapshot();
  const auto old_epoch = old_snap->epoch();
  const auto old_csv = old_snap->to_csv();
  const auto old_hist = old_snap->histograms();

  Database more = synthetic_corpus_n(500, 4);
  auto extra = materialize(more);
  for (auto& r : extra) r.id += 1'000'000;  // keep ids disjoint
  db.add_batch(extra);

  // The pinned snapshot is byte-stable: same size, same rows, same
  // histograms, same epoch — the ingest happened "next to" it.
  EXPECT_EQ(old_snap->epoch(), old_epoch);
  EXPECT_EQ(old_snap->size(), 300u);
  EXPECT_EQ(old_snap->histograms(), old_hist);
  EXPECT_EQ(old_snap->to_csv(), old_csv);

  // The database moved on: one more epoch, old + delta visible.
  const auto now = db.snapshot();
  EXPECT_EQ(now->epoch(), old_epoch + 1);
  EXPECT_EQ(now->size(), 800u);
  EXPECT_EQ(total_of(now->histograms()), 800u);
  EXPECT_EQ(rebuild_histograms(*now), now->histograms());
}

TEST(SnapshotIsolation, EmptyBatchIsATrueNoOp) {
  Database db = synthetic_corpus_n(50, 1);
  const auto before = db.snapshot();
  db.add_batch({});
  // No new epoch, not even a re-publication of the same contents: the
  // snapshot pointer itself is unchanged.
  EXPECT_EQ(db.snapshot().get(), before.get());
  EXPECT_EQ(db.epoch(), before->epoch());
}

TEST(SnapshotIsolation, AllRejectedLenientBatchIsATrueNoOp) {
  Database db = synthetic_corpus_n(50, 1);
  const auto before = db.snapshot();
  auto dup = materialize(db);
  dup.resize(5);  // five records whose ids all already exist
  const auto rejects = db.add_batch(std::move(dup), IngestPolicy::kLenient);
  EXPECT_EQ(rejects.size(), 5u);
  EXPECT_EQ(db.snapshot().get(), before.get());
  EXPECT_EQ(db.epoch(), before->epoch());
}

TEST(SnapshotIsolation, FailedStrictBatchPublishesNothing) {
  Database db = synthetic_corpus_n(50, 1);
  const auto before = db.snapshot();
  auto batch = materialize(db);
  batch.resize(3);
  batch[0].id += 1'000'000;  // one fresh record, then a duplicate
  EXPECT_THROW(db.add_batch(std::move(batch)), std::invalid_argument);
  EXPECT_EQ(db.snapshot().get(), before.get());
  // The writer recovered: a clean batch still lands and the incremental
  // histograms stay exact.
  VulnRecord fresh = materialize(db)[0];
  fresh.id = 2'000'000;
  db.add(fresh);
  EXPECT_EQ(db.snapshot()->size(), 51u);
  EXPECT_EQ(rebuild_histograms(*db.snapshot()), db.snapshot()->histograms());
}

TEST(SnapshotIsolation, SoftwareInterningIsStableAcrossEpochs) {
  Database db = synthetic_corpus_n(200, 9);
  const auto s1 = db.snapshot();
  Database more = synthetic_corpus_n(400, 10);
  auto extra = materialize(more);
  for (auto& r : extra) r.id += 1'000'000;
  db.add_batch(extra);
  const auto s2 = db.snapshot();

  // Later epochs only append names; every id from s1 decodes the same.
  ASSERT_GE(s2->software_count(), s1->software_count());
  for (std::uint32_t id = 0; id < s1->software_count(); ++id) {
    EXPECT_EQ(s2->software_name(id), s1->software_name(id));
  }
  // And both epochs' software columns stay in range of their own tables.
  for (const auto sid : s1->software_ids()) ASSERT_LT(sid, s1->software_count());
  for (const auto sid : s2->software_ids()) ASSERT_LT(sid, s2->software_count());
}

TEST(SnapshotIsolation, CopySharesTheEpochThenCopiesOnWrite) {
  Database a = synthetic_corpus_n(100, 2);
  Database b = a;
  // The copy shares the source's published epoch outright.
  EXPECT_EQ(b.snapshot().get(), a.snapshot().get());

  VulnRecord fresh = materialize(a)[0];
  fresh.id = 1'000'000;
  b.add(fresh);
  EXPECT_EQ(b.snapshot()->size(), 101u);
  EXPECT_EQ(a.snapshot()->size(), 100u);  // source untouched by the write
  EXPECT_NE(b.snapshot().get(), a.snapshot().get());
  EXPECT_EQ(rebuild_histograms(*b.snapshot()), b.snapshot()->histograms());
}

TEST(SnapshotIsolation, ReservePublishesNothingAndKeepsReadersValid) {
  Database db = synthetic_corpus_n(100, 6);
  const auto before = db.snapshot();
  const auto csv = before->to_csv();
  db.reserve(10'000);
  EXPECT_EQ(db.epoch(), before->epoch());
  EXPECT_EQ(before->to_csv(), csv);  // pinned spans survived the growth
  EXPECT_EQ(db.snapshot()->to_csv(), csv);
}

// --- incremental == rebuild equivalence --------------------------------

/// Feeds `db` the corpus of `n` records in varied batch sizes, checking
/// the incrementally-maintained histograms against a full rebuild along
/// the way and at the end.
void feed_and_check(std::size_t n, unsigned seed, std::size_t checks) {
  const Database source = synthetic_corpus_n(n, seed);
  const auto rows = materialize(source);

  Database db;
  db.reserve(n);
  // Batch sizes cycle 1, 7, 100, 1000, 9999 — exercising single-row
  // publishes, mid-size folds, and large parallel folds.
  static constexpr std::size_t kSizes[] = {1, 7, 100, 1000, 9999};
  std::size_t pos = 0, batch_no = 0, published = 0;
  const std::size_t check_every =
      checks == 0 ? n + 1 : std::max<std::size_t>(1, n / checks);
  std::size_t next_check = check_every;
  while (pos < rows.size()) {
    const std::size_t take =
        std::min(kSizes[batch_no++ % std::size(kSizes)], rows.size() - pos);
    db.add_batch({rows.begin() + static_cast<std::ptrdiff_t>(pos),
                  rows.begin() + static_cast<std::ptrdiff_t>(pos + take)});
    pos += take;
    ++published;
    if (pos >= next_check) {
      const auto snap = db.snapshot();
      ASSERT_EQ(snap->histograms(), rebuild_histograms(*snap))
          << "after " << pos << " records";
      next_check += check_every;
    }
  }

  const auto snap = db.snapshot();
  EXPECT_EQ(snap->epoch(), published);
  EXPECT_EQ(snap->size(), n);
  EXPECT_EQ(snap->histograms(), rebuild_histograms(*snap));
  const auto want = source.snapshot();
  EXPECT_EQ(snap->count_by_category(), want->count_by_category());
  EXPECT_EQ(snap->count_by_class(), want->count_by_class());
  EXPECT_EQ(snap->count_by_year(), want->count_by_year());
  EXPECT_EQ(snap->count_by_software(), want->count_by_software());
}

TEST(IncrementalHistograms, EqualRebuildAtTenThousand) {
  feed_and_check(10'000, 17, 8);
}

TEST(IncrementalHistograms, EqualRebuildAtAMillion) {
#ifdef __SANITIZE_THREAD__
  feed_and_check(100'000, 23, 2);  // TSan: ~10x runtime, scale down
#else
  feed_and_check(1'000'000, 23, 2);
#endif
}

class SnapshotThreads : public ::testing::TestWithParam<std::size_t> {
 protected:
  void TearDown() override {
    ThreadPool::set_global_threads(ThreadPool::default_threads());
  }
};

TEST_P(SnapshotThreads, IncrementalFoldIsThreadCountIndependent) {
  const Database source = synthetic_corpus_n(5000, 31);
  const auto rows = materialize(source);

  ThreadPool::set_global_threads(GetParam());
  Database db;
  for (std::size_t pos = 0; pos < rows.size(); pos += 1250) {
    db.add_batch({rows.begin() + static_cast<std::ptrdiff_t>(pos),
                  rows.begin() + static_cast<std::ptrdiff_t>(pos + 1250)});
  }
  const auto snap = db.snapshot();
  const auto rebuilt = rebuild_histograms(*snap);
  ThreadPool::set_global_threads(ThreadPool::default_threads());

  // Same histograms, same bytes, as the reference built at the default
  // pool size in one batch.
  EXPECT_EQ(snap->histograms(), rebuilt);
  EXPECT_EQ(snap->histograms(), rebuild_histograms(*source.snapshot()));
  EXPECT_EQ(db.snapshot()->to_csv(), source.snapshot()->to_csv());
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, SnapshotThreads,
                         ::testing::Values(0, 1, 4));

// --- the reader/writer hammer (raced under TSan in CI) -----------------

TEST(SnapshotIsolation, ConcurrentReadersSeeOnlyConsistentEpochs) {
#ifdef __SANITIZE_THREAD__
  constexpr std::size_t kTotal = 4'000;
#else
  constexpr std::size_t kTotal = 20'000;
#endif
  constexpr std::size_t kBatch = 500;
  const Database source = synthetic_corpus_n(kTotal, 41);
  const auto rows = materialize(source);

  Database db;
  std::atomic<bool> done{false};
  std::atomic<std::size_t> violations{0};

  // Readers use only snapshot-local state (histograms, spans) with
  // serial walks: the check must not depend on the shared pool, so any
  // TSan report here is a genuine isolation bug.
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      std::size_t last_size = 0;
      while (!done.load(std::memory_order_relaxed)) {
        const auto snap = db.snapshot();
        // Epoch and size are monotone across acquires.
        if (snap->epoch() < last_epoch) violations.fetch_add(1);
        if (snap->size() < last_size) violations.fetch_add(1);
        last_epoch = snap->epoch();
        last_size = snap->size();
        // The carried histograms are exact for the frozen range.
        const auto& h = snap->histograms();
        if (total_of(h) != snap->size()) violations.fetch_add(1);
        std::size_t years = 0;
        for (const auto& [year, n] : h.by_year) years += n;
        if (years != snap->size()) violations.fetch_add(1);
        // Row/column projections agree within the epoch.
        const auto recs = snap->records();
        const auto cats = snap->categories();
        const auto yrs = snap->years();
        for (std::size_t i = 0; i < recs.size();
             i += 97) {  // sampled, keeps readers fast
          if (recs[i].category != cats[i]) violations.fetch_add(1);
          if (recs[i].year != yrs[i]) violations.fetch_add(1);
          if (snap->software_name(snap->software_ids()[i]) !=
              recs[i].software) {
            violations.fetch_add(1);
          }
        }
      }
    });
  }

  for (std::size_t pos = 0; pos < rows.size(); pos += kBatch) {
    db.add_batch({rows.begin() + static_cast<std::ptrdiff_t>(pos),
                  rows.begin() + static_cast<std::ptrdiff_t>(pos + kBatch)});
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(db.snapshot()->size(), kTotal);
  EXPECT_EQ(db.epoch(), kTotal / kBatch);
  EXPECT_EQ(db.snapshot()->to_csv(), source.snapshot()->to_csv());
  EXPECT_EQ(rebuild_histograms(*db.snapshot()), db.snapshot()->histograms());
}

}  // namespace
}  // namespace dfsm::bugtraq
