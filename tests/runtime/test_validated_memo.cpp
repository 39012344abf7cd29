// ValidatedMemo and memo_fill: full-key equality, fingerprint
// validation with the stale drop under the one lock, thread safety, and
// the three-phase fill's index order and thread-count-invariant counts.
#include "runtime/validated_memo.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "runtime/thread_pool.h"

namespace dfsm::runtime {
namespace {

using Memo = ValidatedMemo<int, std::string>;

TEST(ValidatedMemo, LookupReturnsWhatInsertStored) {
  Memo m;
  EXPECT_FALSE(m.lookup(1, 7).has_value());
  m.insert(1, 7, "one");
  const auto v = m.lookup(1, 7);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "one");
  EXPECT_EQ(m.size(), 1u);
}

TEST(ValidatedMemo, InsertOverwritesInPlace) {
  Memo m;
  m.insert(1, 7, "one");
  m.insert(1, 8, "uno");
  EXPECT_EQ(*m.lookup(1, 8), "uno");
  EXPECT_EQ(m.size(), 1u);
}

TEST(ValidatedMemo, FingerprintMismatchInvalidatesExactlyThatEntry) {
  Memo m;
  m.insert(1, 100, "a");
  m.insert(2, 200, "b");

  // Entry 1's source "changed": its fingerprint is now 101.
  bool invalidated = false;
  EXPECT_FALSE(m.lookup(1, 101, &invalidated).has_value());
  EXPECT_TRUE(invalidated);
  EXPECT_EQ(m.size(), 1u);  // the stale entry is gone

  // The neighbour's entry is untouched.
  EXPECT_EQ(*m.lookup(2, 200), "b");
}

TEST(ValidatedMemo, ClearEmptiesTheMemo) {
  Memo m;
  m.insert(1, 0, "a");
  m.insert(2, 0, "b");
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.lookup(2, 0).has_value());
}

struct Key {
  std::string name;
  int id = 0;
  [[nodiscard]] bool operator==(const Key&) const = default;
};

TEST(ValidatedMemo, HashCollisionsCannotAliasEntriesByConstruction) {
  // The memo compares FULL keys; the hash only buckets. Force every key
  // into one bucket and check the entries stay distinct — the property
  // that makes a fingerprint or hash collision harmless by construction.
  struct CollidingHash {
    std::size_t operator()(const Key&) const noexcept { return 17; }
  };
  ValidatedMemo<Key, int, CollidingHash> m;
  m.insert({"s", 1}, 0, 10);
  m.insert({"s", 2}, 0, 20);
  m.insert({"t", 1}, 0, 30);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(*m.lookup({"s", 1}, 0), 10);
  EXPECT_EQ(*m.lookup({"s", 2}, 0), 20);
  EXPECT_EQ(*m.lookup({"t", 1}, 0), 30);
}

TEST(ValidatedMemo, ConcurrentStaleLookupsDropEachEntryOnce) {
  // Readers holding an older fingerprint race a writer that inserts
  // every key once. Each stale lookup checks and drops under the same
  // lock, so an entry is dropped — and counted — at most once, a stale
  // lookup never serves a value, and every entry no reader dropped
  // still serves the writer's fingerprint.
  constexpr int kKeys = 400;
  constexpr std::uint64_t kFresh = 2;
  constexpr std::uint64_t kStale = 1;
  Memo m;
  std::atomic<std::size_t> dropped{0};
  std::atomic<std::size_t> served_stale{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&m] {
    for (int k = 0; k < kKeys; ++k) m.insert(k, kFresh, std::to_string(k));
  });
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      for (int pass = 0; pass < 3; ++pass) {
        for (int k = 0; k < kKeys; ++k) {
          bool invalidated = false;
          if (m.lookup(k, kStale, &invalidated)) ++served_stale;
          if (invalidated) ++dropped;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(served_stale.load(), 0u);
  EXPECT_EQ(dropped.load() + m.size(), static_cast<std::size_t>(kKeys));
  std::size_t fresh = 0;
  for (int k = 0; k < kKeys; ++k) {
    if (const auto v = m.lookup(k, kFresh)) {
      EXPECT_EQ(*v, std::to_string(k));
      ++fresh;
    }
  }
  EXPECT_EQ(fresh + dropped.load(), static_cast<std::size_t>(kKeys));
}

TEST(ValidatedMemo, ConcurrentMixedUseKeepsEveryInsertedValueReadable) {
  // Thread-safety smoke (TSan hunts the races): concurrent insert/lookup
  // on disjoint keys must lose nothing.
  Memo m;
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&m, w] {
      for (int i = 0; i < 250; ++i) {
        const int key = w * 1000 + i;
        m.insert(key, 1, std::to_string(key));
        const auto v = m.lookup(key, 1);
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, std::to_string(key));
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(m.size(), 1000u);
}

/// Fills cells 0..n-1 with value "v<i>"; cell i carries fingerprint
/// fp_of[i].
MemoFill<std::string> fill_cells(Memo* m,
                                 const std::vector<std::uint64_t>& fp_of,
                                 ThreadPool& pool) {
  return memo_fill(
      m, fp_of.size(), [](std::size_t i) { return static_cast<int>(i); },
      [&](std::size_t i) { return fp_of[i]; },
      [](std::size_t i) { return "v" + std::to_string(i); }, pool);
}

TEST(ValidatedMemo, MemoFillKeepsIndexOrderAndCountsAtEveryThreadCount) {
  for (const std::size_t threads : {0u, 1u, 4u}) {
    ThreadPool pool{threads};
    Memo m;
    m.insert(1, 5, "v1");     // fresh: served
    m.insert(3, 9, "stale");  // stale: dropped and re-evaluated
    std::vector<std::uint64_t> fps(40, 5);
    const auto cold = fill_cells(&m, fps, pool);
    ASSERT_EQ(cold.values.size(), 40u) << "threads=" << threads;
    for (std::size_t i = 0; i < 40; ++i) {
      EXPECT_EQ(cold.values[i], "v" + std::to_string(i))
          << "threads=" << threads;
    }
    EXPECT_EQ(cold.hits, 1u) << "threads=" << threads;
    EXPECT_EQ(cold.misses, 39u) << "threads=" << threads;
    EXPECT_EQ(cold.invalidated, 1u) << "threads=" << threads;
    EXPECT_EQ(cold.evaluated, 39u) << "threads=" << threads;
    EXPECT_EQ(m.size(), 40u) << "threads=" << threads;

    // Every miss was inserted: the second fill is served entirely.
    const auto warm = fill_cells(&m, fps, pool);
    EXPECT_EQ(warm.values, cold.values) << "threads=" << threads;
    EXPECT_EQ(warm.hits, 40u) << "threads=" << threads;
    EXPECT_EQ(warm.misses, 0u) << "threads=" << threads;
    EXPECT_EQ(warm.evaluated, 0u) << "threads=" << threads;
  }
}

TEST(ValidatedMemo, MemoFillWithoutAMemoEvaluatesEveryCell) {
  ThreadPool pool{4};
  const auto fill =
      fill_cells(nullptr, std::vector<std::uint64_t>(10, 0), pool);
  ASSERT_EQ(fill.values.size(), 10u);
  EXPECT_EQ(fill.values[9], "v9");
  EXPECT_EQ(fill.evaluated, 10u);
  EXPECT_EQ(fill.hits + fill.misses + fill.invalidated, 0u);
}

}  // namespace
}  // namespace dfsm::runtime
