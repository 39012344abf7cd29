// Snapshot-layer fault mutators (faultinject/snapshot_faults.h): every
// mutation must be refused by the colsnap loader with a
// "<file>:<column>: <reason>" naming the planted defect, the refusal is
// all-or-nothing, and the pristine shard set conserves every record.
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bugtraq/colsnap.h"
#include "bugtraq/corpus.h"
#include "faultinject/campaign.h"
#include "faultinject/snapshot_faults.h"

namespace dfsm::faultinject {
namespace {

SnapshotSet make_set(std::size_t records, std::size_t shards,
                     std::uint64_t seed) {
  const auto db = bugtraq::synthetic_corpus_n(records, seed);
  SnapshotSet set;
  set.names = bugtraq::colsnap_shard_paths("t", shards);
  set.contents = bugtraq::encode_colsnap_shards(*db.snapshot(), shards);
  return set;
}

void expect_refused_with(const SnapshotSet& set, const std::string& needle) {
  try {
    const auto db = bugtraq::decode_colsnap_shards(set.contents, set.names);
    FAIL() << "loader accepted a mutated snapshot (" << db.snapshot()->size()
           << " records); wanted '" << needle << "'";
  } catch (const std::invalid_argument& ex) {
    EXPECT_NE(std::string(ex.what()).find(needle), std::string::npos)
        << "actual: " << ex.what();
  }
}

TEST(SnapshotFaults, Names) {
  EXPECT_STREQ(to_string(SnapshotFault::kCorruptChecksum), "corrupt-checksum");
  EXPECT_STREQ(to_string(SnapshotFault::kTruncateColumn), "truncate-column");
  EXPECT_STREQ(to_string(SnapshotFault::kTornPublish), "torn-publish");
}

class SnapshotFaultCase
    : public ::testing::TestWithParam<SnapshotFault> {};

TEST_P(SnapshotFaultCase, LoaderRefusesWithFileColumnReason) {
  for (std::uint64_t stream = 0; stream < 8; ++stream) {
    Rng rng{99, stream};
    auto set = make_set(150, 3, stream);
    const std::vector<std::string> pristine = set.contents;

    const auto mut = apply_snapshot_fault(GetParam(), set, rng);
    EXPECT_EQ(mut.fault, GetParam());
    EXPECT_FALSE(mut.shard.empty());
    EXPECT_FALSE(mut.column.empty());
    ASSERT_FALSE(mut.expect_substr.empty());
    // The promised message names the shard label AND the column.
    EXPECT_NE(mut.expect_substr.find(mut.shard), std::string::npos);
    EXPECT_NE(mut.expect_substr.find(mut.column), std::string::npos);
    expect_refused_with(set, mut.expect_substr);

    // Conservation: the untouched bytes still decode to all 150 records.
    const auto clean = bugtraq::decode_colsnap_shards(pristine, set.names);
    EXPECT_EQ(clean.snapshot()->size(), 150u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFaults, SnapshotFaultCase,
                         ::testing::ValuesIn(kAllSnapshotFaults));

TEST(SnapshotFaults, DeterministicInTheRng) {
  for (const auto fault : kAllSnapshotFaults) {
    Rng a{7, 3};
    Rng b{7, 3};
    auto set_a = make_set(120, 4, 1);
    auto set_b = make_set(120, 4, 1);
    const auto mut_a = apply_snapshot_fault(fault, set_a, a);
    const auto mut_b = apply_snapshot_fault(fault, set_b, b);
    EXPECT_EQ(mut_a.detail, mut_b.detail);
    EXPECT_EQ(mut_a.expect_substr, mut_b.expect_substr);
    EXPECT_EQ(set_a.contents, set_b.contents);
  }
}

TEST(SnapshotFaults, TornPublishNeedsTwoShards) {
  Rng rng{1, 1};
  auto set = make_set(60, 1, 2);
  EXPECT_THROW((void)apply_snapshot_fault(SnapshotFault::kTornPublish, set, rng),
               std::invalid_argument);
}

TEST(SnapshotFaults, EmptySetIsRejected) {
  Rng rng{1, 2};
  SnapshotSet set;
  EXPECT_THROW(
      (void)apply_snapshot_fault(SnapshotFault::kCorruptChecksum, set, rng),
      std::invalid_argument);
}

TEST(SnapshotFaults, CorpusCampaignRunsSnapshotTrials) {
  CampaignConfig cfg;
  cfg.seed = 11;
  cfg.trials = 24;
  cfg.campaign = CampaignKind::kCorpus;
  cfg.workdir = ::testing::TempDir();
  const auto report = run_campaign(cfg);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.corpus_trials, 24u);

  std::size_t snapshot_trials = 0;
  for (const auto& t : report.trials) {
    if (t.kind != "snapshot") continue;
    ++snapshot_trials;
    EXPECT_TRUE(t.ok) << t.failure;
    EXPECT_TRUE(t.strict_threw);
    EXPECT_TRUE(t.conserved);
    EXPECT_EQ(t.ingested, t.generated);
    EXPECT_NE(t.strict_error.find(":"), std::string::npos);
  }
  // The seeded dispatch sends ~1/4 of corpus draws at the snapshot
  // loader; with 24 trials at this seed some must land there.
  EXPECT_GT(snapshot_trials, 0u);
  EXPECT_LT(snapshot_trials, 24u);

  // Snapshot trials appear in both emitters.
  EXPECT_NE(emit_text(report).find("snapshot/"), std::string::npos);
  EXPECT_NE(emit_json(report).find("\"kind\": \"snapshot\""),
            std::string::npos);
}

}  // namespace
}  // namespace dfsm::faultinject
