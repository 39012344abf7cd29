// SweepMemoStore: keying and fingerprint invalidation of the sweep's
// cells (the generic memo's own contract is in test_validated_memo.cpp).
#include "analysis/sweep_memo.h"

#include <gtest/gtest.h>

#include <string>

namespace dfsm::analysis {
namespace {

MemoEntry entry_with(bool exploited) {
  MemoEntry e;
  e.exploit.exploited = exploited;
  e.exploit.detail = exploited ? "Mcode ran" : "foiled";
  e.benign.service_ok = true;
  e.exploit_blocks = !exploited;
  return e;
}

TEST(SweepMemo, LookupMissesThenHitsAfterInsert) {
  SweepMemoStore store;
  const MemoKey key{"study-a", 0, 3};
  EXPECT_FALSE(store.lookup(key, 42).has_value());
  store.insert(key, 42, entry_with(/*exploited=*/false));
  const auto hit = store.lookup(key, 42);
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->exploit.exploited);
  EXPECT_TRUE(hit->exploit_blocks);
  EXPECT_EQ(store.size(), 1u);
}

TEST(SweepMemo, InvalidatedLookupDoesNotResurrect) {
  SweepMemoStore store;
  store.insert({"s", 2, 5}, 7, entry_with(true));
  EXPECT_FALSE(store.lookup({"s", 2, 5}, 8).has_value());  // invalidates
  // Even the ORIGINAL fingerprint now misses: the entry was dropped, not
  // hidden.
  bool invalidated = true;
  EXPECT_FALSE(store.lookup({"s", 2, 5}, 7, &invalidated).has_value());
  EXPECT_FALSE(invalidated);
}

TEST(SweepMemo, KeysDifferingInAnyFieldAreDistinctEntries) {
  SweepMemoStore store;
  store.insert({"s", 0, 1}, 1, entry_with(false));
  store.insert({"s", 0, 2}, 1, entry_with(true));
  store.insert({"s", 1, 1}, 1, entry_with(true));
  store.insert({"t", 0, 1}, 1, entry_with(true));
  store.insert({"s", kBaselineOperation, 0}, 0, entry_with(true));
  EXPECT_EQ(store.size(), 5u);
  const auto e = store.lookup({"s", 0, 1}, 1);
  ASSERT_TRUE(e.has_value());
  EXPECT_FALSE(e->exploit.exploited);  // not aliased by any neighbour
}

TEST(SweepMemo, ClearEmptiesTheStore) {
  SweepMemoStore store;
  store.insert({"s", 0, 1}, 1, entry_with(false));
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.lookup({"s", 0, 1}, 1).has_value());
}

}  // namespace
}  // namespace dfsm::analysis
