// Corpus mutators (DESIGN.md §9): every parse-breaking fault really does
// break strict parsing, every benign fault really does not, mutations
// are deterministic in the rng, and the zero-silent-loss accounting
// holds through a lenient in-memory ingest.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bugtraq/corpus.h"
#include "bugtraq/database.h"
#include "faultinject/corpus_faults.h"
#include "runtime/parallel.h"

namespace dfsm::faultinject {
namespace {

using bugtraq::Database;
using bugtraq::IngestPolicy;
using bugtraq::IngestReport;

ShardSet make_set(std::size_t records, std::size_t shards,
                  std::uint64_t seed) {
  const auto snap = bugtraq::synthetic_corpus_n(records, seed).snapshot();
  auto blocks = runtime::static_blocks(records, shards);
  while (blocks.size() < shards) blocks.push_back({records, records});
  ShardSet set;
  for (std::size_t i = 0; i < shards; ++i) {
    set.paths.push_back("shard-" + std::to_string(i) + ".csv");
    set.contents.push_back(snap->to_csv(blocks[i].begin, blocks[i].end));
    set.data_rows.push_back(blocks[i].end - blocks[i].begin);
  }
  return set;
}

TEST(CorpusFaults, NamesAreStable) {
  EXPECT_STREQ(to_string(CorpusFault::kTruncateTail), "truncate-tail");
  EXPECT_STREQ(to_string(CorpusFault::kMangleQuoting), "mangle-quoting");
  EXPECT_STREQ(to_string(CorpusFault::kCorruptField), "corrupt-field");
  EXPECT_STREQ(to_string(CorpusFault::kMissingHeader), "missing-header");
  EXPECT_STREQ(to_string(CorpusFault::kDuplicateHeader), "duplicate-header");
  EXPECT_STREQ(to_string(CorpusFault::kDropShard), "drop-shard");
  EXPECT_STREQ(to_string(CorpusFault::kReorderShards), "reorder-shards");
  EXPECT_STREQ(to_string(CorpusFault::kTransientIo), "transient-io");
  EXPECT_STREQ(to_string(CorpusFault::kUnreadableShard), "unreadable-shard");
}

TEST(CorpusFaults, MutationsAreDeterministicInTheRng) {
  for (const CorpusFault fault : kAllCorpusFaults) {
    ShardSet a = make_set(60, 3, 7);
    ShardSet b = make_set(60, 3, 7);
    Rng ra{42, 5}, rb{42, 5};
    const auto ma = apply_corpus_fault(fault, a, ra);
    const auto mb = apply_corpus_fault(fault, b, rb);
    EXPECT_EQ(ma.shard, mb.shard) << to_string(fault);
    EXPECT_EQ(ma.line, mb.line) << to_string(fault);
    EXPECT_EQ(ma.detail, mb.detail) << to_string(fault);
    EXPECT_EQ(a.paths, b.paths) << to_string(fault);
    EXPECT_EQ(a.contents, b.contents) << to_string(fault);
  }
}

TEST(CorpusFaults, ParseBreakingFaultsAlwaysBreakStrictParsing) {
  const CorpusFault breaking[] = {
      CorpusFault::kTruncateTail, CorpusFault::kMangleQuoting,
      CorpusFault::kCorruptField, CorpusFault::kMissingHeader,
      CorpusFault::kDuplicateHeader};
  for (const CorpusFault fault : breaking) {
    for (std::uint64_t stream = 0; stream < 20; ++stream) {
      ShardSet set = make_set(40, 3, 11);
      Rng rng{9, stream};
      const auto mut = apply_corpus_fault(fault, set, rng);
      EXPECT_TRUE(mut.expect_strict_throw);
      EXPECT_THROW((void)Database::from_csv_parts(set.contents, set.paths,
                                                  IngestPolicy::kStrict),
                   std::invalid_argument)
          << to_string(fault) << " stream " << stream;
    }
  }
}

TEST(CorpusFaults, BenignFaultsKeepStrictParsingAlive) {
  for (const CorpusFault fault :
       {CorpusFault::kDropShard, CorpusFault::kReorderShards,
        CorpusFault::kTransientIo}) {
    ShardSet set = make_set(40, 3, 11);
    Rng rng{9, 1};
    const auto mut = apply_corpus_fault(fault, set, rng);
    EXPECT_FALSE(mut.expect_strict_throw) << to_string(fault);
    const auto snap = Database::from_csv_parts(set.contents, set.paths,
                                             IngestPolicy::kStrict).snapshot();
    EXPECT_EQ(snap->size(), set.total_rows()) << to_string(fault);
  }
}

TEST(CorpusFaults, ZeroSilentLossThroughLenientIngest) {
  // The content-editing faults: every generated line stays accounted for
  // (ingested + quarantined row lines), after the injected-lines
  // correction.
  const CorpusFault editing[] = {
      CorpusFault::kTruncateTail, CorpusFault::kMangleQuoting,
      CorpusFault::kCorruptField, CorpusFault::kDuplicateHeader};
  for (const CorpusFault fault : editing) {
    for (std::uint64_t stream = 0; stream < 10; ++stream) {
      ShardSet set = make_set(50, 3, 13);
      const std::size_t generated = set.total_rows();
      Rng rng{3, stream};
      const auto mut = apply_corpus_fault(fault, set, rng);
      IngestReport report;
      const auto snap = Database::from_csv_parts(set.contents, set.paths,
                                                 IngestPolicy::kLenient, &report)
                            .snapshot();
      const long long expected =
          static_cast<long long>(generated) + mut.injected_lines;
      long long actual = static_cast<long long>(snap->size()) +
                         static_cast<long long>(report.quarantined_lines());
      for (const auto& shard : report.shards) {
        actual += static_cast<long long>(shard.lines_seen);
      }
      EXPECT_EQ(expected, actual)
          << to_string(fault) << " stream " << stream;
    }
  }
}

TEST(CorpusFaults, MissingHeaderQuarantinesTheWholeShard) {
  ShardSet set = make_set(50, 3, 13);
  Rng rng{4, 0};
  const auto mut = apply_corpus_fault(CorpusFault::kMissingHeader, set, rng);
  IngestReport report;
  const auto snap = Database::from_csv_parts(set.contents, set.paths,
                                             IngestPolicy::kLenient, &report)
                        .snapshot();
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_EQ(report.shards[0].shard, mut.shard);
  EXPECT_EQ(report.shards[0].reason, "bad CSV header");
  EXPECT_EQ(snap->size() + report.shards[0].lines_seen, 50u);
}

TEST(CorpusFaults, DuplicateThenMissingHeaderStillBreaksStrictIngest) {
  // Deleting only line 0 after a duplicated header would promote the
  // duplicate to a valid header and let strict ingest accept every row.
  ShardSet set = make_set(10, 1, 13);
  Rng rng{8, 0};
  const auto dup = apply_corpus_fault(CorpusFault::kDuplicateHeader, set, rng);
  const auto miss = apply_corpus_fault(CorpusFault::kMissingHeader, set, rng);
  ASSERT_TRUE(dup.expect_strict_throw && miss.expect_strict_throw);
  try {
    const auto db = Database::from_csv_parts(set.contents, set.paths,
                                             IngestPolicy::kStrict);
    ADD_FAILURE() << "strict accepted " << db.snapshot()->size() << " rows";
  } catch (const std::invalid_argument&) {
  }
  // The conservation identity still holds: the duplicate line the
  // second fault deleted is given back through injected_lines.
  IngestReport report;
  const auto db = Database::from_csv_parts(set.contents, set.paths,
                                           IngestPolicy::kLenient, &report);
  long long accounted = static_cast<long long>(db.snapshot()->size()) +
                        static_cast<long long>(report.quarantined_lines());
  for (const auto& shard : report.shards) {
    accounted += static_cast<long long>(shard.lines_seen);
  }
  EXPECT_EQ(10 + dup.injected_lines + miss.injected_lines, accounted);
  EXPECT_EQ(db.snapshot()->size(), 0u);
}

TEST(CorpusFaults, DropShardRemovesExactlyOneShard) {
  ShardSet set = make_set(50, 4, 13);
  const std::size_t before = set.total_rows();
  Rng rng{5, 0};
  const auto mut = apply_corpus_fault(CorpusFault::kDropShard, set, rng);
  EXPECT_EQ(set.paths.size(), 3u);
  ASSERT_EQ(mut.lost_shards.size(), 1u);
  EXPECT_EQ(mut.lost_shards[0], mut.shard);
  EXPECT_LT(set.total_rows(), before);
}

TEST(CorpusFaults, TransientFaultPlansRecovery) {
  ShardSet set = make_set(50, 3, 13);
  Rng rng{6, 0};
  const auto mut =
      apply_corpus_fault(CorpusFault::kTransientIo, set, rng, /*max_attempts=*/4);
  EXPECT_GE(mut.fail_attempts, 1u);
  EXPECT_LT(mut.fail_attempts, 4u);  // recovers before the budget runs out
  EXPECT_FALSE(mut.expect_strict_throw);
}

TEST(CorpusFaults, UnreadableShardExhaustsTheRetryBudget) {
  ShardSet set = make_set(50, 3, 13);
  Rng rng{6, 1};
  const auto mut = apply_corpus_fault(CorpusFault::kUnreadableShard, set, rng,
                                      /*max_attempts=*/4);
  EXPECT_EQ(mut.fail_attempts, 4u);
  EXPECT_TRUE(mut.expect_strict_throw);
  ASSERT_EQ(mut.lost_shards.size(), 1u);
  EXPECT_EQ(mut.lost_shards[0], mut.shard);
}

std::size_t line_count(const std::string& contents) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < contents.size(); ++i) {
    if (contents[i] == '\n' || i + 1 == contents.size()) ++n;
  }
  return n;
}

TEST(CorpusFaults, EveryOrderedPairOnOneShardSetKeepsRowsInBounds) {
  // No claim discipline here: both mutators may land on the same shard
  // (three shards of four rows make that common). Row mutators must still
  // edit one of the shard's generated rows — its last data_rows lines —
  // whatever the header faults did to the lines above them.
  for (const CorpusFault first : kAllCorpusFaults) {
    for (const CorpusFault second : kAllCorpusFaults) {
      for (std::uint64_t stream = 0; stream < 8; ++stream) {
        ShardSet set = make_set(12, 3, 17);
        Rng rng{31, stream};
        for (const CorpusFault fault : {first, second}) {
          const auto mut = apply_corpus_fault(fault, set, rng);
          const std::string where = std::string(to_string(first)) + "+" +
                                    to_string(second) + " stream " +
                                    std::to_string(stream);
          ASSERT_EQ(set.contents.size(), set.paths.size()) << where;
          ASSERT_EQ(set.data_rows.size(), set.paths.size()) << where;
          for (std::size_t s = 0; s < set.paths.size(); ++s) {
            EXPECT_GE(line_count(set.contents[s]), set.data_rows[s]) << where;
          }
          if (fault != CorpusFault::kMangleQuoting &&
              fault != CorpusFault::kCorruptField) {
            continue;
          }
          const auto it =
              std::find(set.paths.begin(), set.paths.end(), mut.shard);
          ASSERT_NE(it, set.paths.end()) << where;
          const auto s = static_cast<std::size_t>(it - set.paths.begin());
          const std::size_t lines = line_count(set.contents[s]);
          EXPECT_GT(mut.line, lines - set.data_rows[s]) << where;
          EXPECT_LE(mut.line, lines) << where;
        }
      }
    }
  }
}

TEST(CorpusFaults, RejectsDegenerateInputs) {
  ShardSet empty;
  Rng rng{1, 1};
  EXPECT_THROW((void)apply_corpus_fault(CorpusFault::kDropShard, empty, rng),
               std::invalid_argument);
  ShardSet set = make_set(10, 2, 1);
  EXPECT_THROW(
      (void)apply_corpus_fault(CorpusFault::kTransientIo, set, rng, 1),
      std::invalid_argument);
}

}  // namespace
}  // namespace dfsm::faultinject
