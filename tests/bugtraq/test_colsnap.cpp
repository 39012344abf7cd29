// Binary columnar snapshots (colsnap.h): round-trip byte-identity
// against the CSV path, encode determinism across thread counts, and
// the loader's "<file>:<column>: <reason>" refusal on every defect
// class — corrupt checksum, truncation, bad codes, reordered shards,
// torn (mixed-epoch) publishes, trailing bytes.
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bugtraq/colsnap.h"
#include "bugtraq/corpus.h"
#include "bugtraq/csv_shards.h"
#include "bugtraq/curated.h"
#include "runtime/thread_pool.h"

namespace dfsm::bugtraq {
namespace {

namespace fs = std::filesystem;

class ColsnapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dfsm-colsnap-" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string base(const char* name) const {
    return (dir_ / name).string();
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    return {std::istreambuf_iterator<char>{in},
            std::istreambuf_iterator<char>{}};
  }

  static void spit(const std::string& path, const std::string& bytes) {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << bytes;
  }

  fs::path dir_;
};

TEST_F(ColsnapTest, ShardPathNaming) {
  EXPECT_EQ(colsnap_shard_path("/tmp/c", 3, 8), "/tmp/c-00003-of-00008.colsnap");
  const auto paths = colsnap_shard_paths("x", 2);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], "x-00000-of-00002.colsnap");
  EXPECT_EQ(paths[1], "x-00001-of-00002.colsnap");
}

TEST_F(ColsnapTest, RoundTripMatchesCsvShardsByteForByte) {
  const auto snap = synthetic_corpus_n(2000, 7).snapshot();
  const auto csv_paths = write_csv_shards(*snap, base("c"), 4);
  const auto snap_paths = write_colsnap_shards(*snap, base("s"), 4);
  ASSERT_EQ(snap_paths.size(), 4u);

  const auto via_csv = read_csv_shards(csv_paths).snapshot();
  const auto via_snap = read_colsnap_shards(snap_paths).snapshot();
  EXPECT_EQ(via_snap->to_csv(), via_csv->to_csv());
  EXPECT_EQ(via_snap->to_csv(), snap->to_csv());
  EXPECT_EQ(via_snap->count_by_category(), snap->count_by_category());
  EXPECT_EQ(via_snap->count_by_class(), snap->count_by_class());
  EXPECT_EQ(via_snap->count_by_year(), snap->count_by_year());
  EXPECT_EQ(via_snap->count_by_software(), snap->count_by_software());
  EXPECT_EQ(via_snap->epoch(), 1u);
  // A reloaded corpus re-encodes to the same bytes (same partition, same
  // interning order) apart from the header epoch, which records the
  // source database's publication count.
  const auto again = encode_colsnap_shards(*via_snap, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    std::string orig = slurp(snap_paths[i]);
    std::string re = again[i];
    ASSERT_GE(orig.size(), kColsnapHeaderSize);
    orig.replace(colsnap_epoch_offset(), 8, 8, '\0');
    re.replace(colsnap_epoch_offset(), 8, 8, '\0');
    EXPECT_EQ(re, orig) << "shard " << i;
  }
}

TEST_F(ColsnapTest, CuratedCorpusWithActivitiesRoundTrips) {
  const auto orig = curated_records().snapshot();
  ASSERT_GT(orig->size(), 0u);
  const auto paths = write_colsnap_shards(*orig, base("cur"), 3);
  const auto got = read_colsnap_shards(paths).snapshot();
  EXPECT_EQ(got->to_csv(), orig->to_csv());
  // Activities and reference indices survive the binary encoding.
  ASSERT_EQ(got->size(), orig->size());
  for (std::size_t i = 0; i < orig->size(); ++i) {
    EXPECT_EQ(got->records()[i].activities, orig->records()[i].activities);
    EXPECT_EQ(got->records()[i].reference_activity,
              orig->records()[i].reference_activity);
  }
}

TEST_F(ColsnapTest, EncodeIsThreadCountIndependent) {
  const auto snap = synthetic_corpus_n(3000, 11).snapshot();
  runtime::ThreadPool::set_global_threads(1);
  const auto serial = encode_colsnap_shards(*snap, 5);
  runtime::ThreadPool::set_global_threads(4);
  const auto parallel = encode_colsnap_shards(*snap, 5);
  runtime::ThreadPool::set_global_threads(
      runtime::ThreadPool::default_threads());
  EXPECT_EQ(serial, parallel);
}

TEST_F(ColsnapTest, EmptyCorpusRoundTrips) {
  const CorpusSnapshot empty;
  const auto paths = write_colsnap_shards(empty, base("e"), 3);
  ASSERT_EQ(paths.size(), 3u);
  const auto back = read_colsnap_shards(paths).snapshot();
  EXPECT_EQ(back->size(), 0u);
  EXPECT_EQ(back->to_csv(), empty.to_csv());
}

TEST_F(ColsnapTest, SingleShardRoundTrips) {
  const auto snap = synthetic_corpus_n(100, 3).snapshot();
  const auto paths = write_colsnap_shards(*snap, base("one"), 1);
  EXPECT_EQ(read_colsnap_shards(paths).snapshot()->to_csv(), snap->to_csv());
}

TEST_F(ColsnapTest, BlockRefsListColumnsInOrder) {
  const auto bodies =
      encode_colsnap_shards(*synthetic_corpus_n(50, 1).snapshot(), 1);
  const auto refs = colsnap_block_refs(bodies[0]);
  ASSERT_EQ(refs.size(), 11u);
  EXPECT_EQ(refs[0].name, "software_table");
  EXPECT_EQ(refs[1].name, "id");
  EXPECT_EQ(refs[10].name, "activities");
  // Blocks tile the file exactly: last payload ends at EOF.
  EXPECT_EQ(refs.back().payload_offset + refs.back().payload_len,
            bodies[0].size());
}

class ColsnapCorruptionTest : public ColsnapTest {
 protected:
  /// Writes a 2-shard snapshot of a small corpus and returns its paths.
  std::vector<std::string> write_two_shards() {
    return write_colsnap_shards(*synthetic_corpus_n(200, 5).snapshot(),
                                base("x"), 2);
  }

  static void expect_refusal(const std::vector<std::string>& paths,
                             const std::string& needle) {
    try {
      const auto snap = read_colsnap_shards(paths).snapshot();
      FAIL() << "loader accepted a defective snapshot (" << snap->size()
             << " records); wanted error containing '" << needle << "'";
    } catch (const std::invalid_argument& ex) {
      EXPECT_NE(std::string(ex.what()).find(needle), std::string::npos)
          << "actual error: " << ex.what();
    }
  }
};

TEST_F(ColsnapCorruptionTest, CorruptPayloadByteIsAChecksumMismatch) {
  const auto paths = write_two_shards();
  std::string bytes = slurp(paths[1]);
  const auto refs = colsnap_block_refs(bytes);
  // Flip a byte inside the year column's payload.
  const auto& year = refs[2];
  ASSERT_EQ(year.name, "year");
  ASSERT_GT(year.payload_len, 0u);
  bytes[year.payload_offset + year.payload_len / 2] ^= 0x40;
  spit(paths[1], bytes);
  expect_refusal(paths, paths[1] + ":year: checksum mismatch");
}

TEST_F(ColsnapCorruptionTest, TruncatedColumnBlockIsRefused) {
  const auto paths = write_two_shards();
  std::string bytes = slurp(paths[0]);
  const auto refs = colsnap_block_refs(bytes);
  const auto& title = refs[8];
  ASSERT_EQ(title.name, "title");
  bytes.resize(title.payload_offset + title.payload_len / 2);
  spit(paths[0], bytes);
  expect_refusal(paths, paths[0] + ":title: truncated column block");
}

TEST_F(ColsnapCorruptionTest, TornPublishMixedEpochsIsRefused) {
  const auto paths = write_two_shards();
  std::string bytes = slurp(paths[1]);
  // Pretend shard 1 was written by an older publication.
  bytes[colsnap_epoch_offset()] =
      static_cast<char>(bytes[colsnap_epoch_offset()] + 1);
  spit(paths[1], bytes);
  expect_refusal(paths, paths[1] + ":header: snapshot epoch");
  expect_refusal(paths, "torn publish");
}

TEST_F(ColsnapCorruptionTest, BadMagicIsRefused) {
  const auto paths = write_two_shards();
  std::string bytes = slurp(paths[0]);
  bytes[0] = 'X';
  spit(paths[0], bytes);
  expect_refusal(paths, paths[0] + ":header: bad magic");
}

TEST_F(ColsnapCorruptionTest, UnsupportedVersionIsRefused) {
  const auto paths = write_two_shards();
  std::string bytes = slurp(paths[0]);
  bytes[8] = 99;
  spit(paths[0], bytes);
  expect_refusal(paths, paths[0] + ":header: unsupported snapshot version 99");
}

TEST_F(ColsnapCorruptionTest, ReorderedShardFilesAreRefused) {
  auto paths = write_two_shards();
  std::swap(paths[0], paths[1]);
  expect_refusal(paths, ":header: shard index");
}

TEST_F(ColsnapCorruptionTest, MissingShardIsRefused) {
  auto paths = write_two_shards();
  paths.pop_back();
  expect_refusal(paths, ":header: shard count 2 does not match 1 files");
}

TEST_F(ColsnapCorruptionTest, TrailingBytesAreRefused) {
  const auto paths = write_two_shards();
  std::string bytes = slurp(paths[1]);
  bytes += "junk";
  spit(paths[1], bytes);
  expect_refusal(paths, paths[1] + ":trailer: 4 trailing bytes");
}

TEST_F(ColsnapCorruptionTest, UnreadableShardThrowsRuntimeError) {
  auto paths = write_two_shards();
  paths[1] = base("missing.colsnap");
  EXPECT_THROW((void)read_colsnap_shards(paths), std::runtime_error);
}

}  // namespace
}  // namespace dfsm::bugtraq
