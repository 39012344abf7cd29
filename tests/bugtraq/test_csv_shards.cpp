// Sharded CSV equivalence: write -> read -> write is byte-identical,
// parallel reads equal serial reads at 10^5 records, and shard file
// layout is a pure function of (size, shard count).
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bugtraq/corpus.h"
#include "bugtraq/csv_shards.h"
#include "runtime/thread_pool.h"

namespace dfsm::bugtraq {
namespace {

namespace fs = std::filesystem;

class CsvShardsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dfsm-shards-" +
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
    return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  }

  fs::path dir_;
};

TEST_F(CsvShardsTest, ShardPathNaming) {
  EXPECT_EQ(shard_path("/tmp/c", 3, 8), "/tmp/c-00003-of-00008.csv");
  const auto paths = shard_paths("x", 2);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], "x-00000-of-00002.csv");
  EXPECT_EQ(paths[1], "x-00001-of-00002.csv");
}

TEST_F(CsvShardsTest, WriteReadWriteIsByteIdentical) {
  const auto snap = synthetic_corpus_n(2000, 7).snapshot();
  const auto first = write_csv_shards(*snap, base("a"), 4);
  ASSERT_EQ(first.size(), 4u);

  const auto restored = read_csv_shards(first).snapshot();
  EXPECT_EQ(restored->to_csv(), snap->to_csv());

  const auto second = write_csv_shards(*restored, base("b"), 4);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(slurp(first[i]), slurp(second[i])) << "shard " << i;
  }
}

TEST_F(CsvShardsTest, ShardContentsAreThreadCountIndependent) {
  const auto snap = synthetic_corpus_n(3000, 3).snapshot();
  runtime::ThreadPool::set_global_threads(1);
  const auto serial = write_csv_shards(*snap, base("serial"), 5);
  runtime::ThreadPool::set_global_threads(4);
  const auto parallel = write_csv_shards(*snap, base("parallel"), 5);
  runtime::ThreadPool::set_global_threads(runtime::ThreadPool::default_threads());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(slurp(serial[i]), slurp(parallel[i])) << "shard " << i;
  }
}

TEST_F(CsvShardsTest, ParallelReadEqualsSerialReadAtHundredThousand) {
  const auto snap = synthetic_corpus_n(100'000, 42).snapshot();
  const auto paths = write_csv_shards(*snap, base("big"), 8);
  const auto expected = snap->to_csv();

  runtime::ThreadPool::set_global_threads(1);
  const auto serial = read_csv_shards(paths).snapshot();
  runtime::ThreadPool::set_global_threads(4);
  const auto parallel = read_csv_shards(paths).snapshot();
  runtime::ThreadPool::set_global_threads(runtime::ThreadPool::default_threads());

  EXPECT_EQ(serial->to_csv(), expected);
  EXPECT_EQ(parallel->to_csv(), expected);
  EXPECT_EQ(serial->count_by_category(), parallel->count_by_category());
}

TEST_F(CsvShardsTest, MoreShardsThanRecordsPadsWithHeaderOnlyFiles) {
  const auto snap = synthetic_corpus_n(3, 1).snapshot();
  const auto paths = write_csv_shards(*snap, base("tiny"), 8);
  ASSERT_EQ(paths.size(), 8u);
  for (std::size_t i = 3; i < 8; ++i) {
    const auto text = slurp(paths[i]);
    EXPECT_EQ(text.find('\n'), text.size() - 1) << "shard " << i
        << " should be header-only";
  }
  EXPECT_EQ(read_csv_shards(paths).snapshot()->to_csv(), snap->to_csv());
}

TEST_F(CsvShardsTest, EmptyDatabaseRoundTrips) {
  const CorpusSnapshot empty;
  const auto paths = write_csv_shards(empty, base("empty"), 3);
  ASSERT_EQ(paths.size(), 3u);
  const auto restored = read_csv_shards(paths).snapshot();
  EXPECT_EQ(restored->size(), 0u);
  EXPECT_EQ(restored->to_csv(), empty.to_csv());
}

TEST_F(CsvShardsTest, ZeroShardCountMeansOne) {
  const auto snap = synthetic_corpus_n(10, 2).snapshot();
  const auto paths = write_csv_shards(*snap, base("one"), 0);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(read_csv_shards(paths).snapshot()->to_csv(), snap->to_csv());
}

TEST_F(CsvShardsTest, MissingShardFileThrows) {
  EXPECT_THROW((void)read_csv_shards({base("nope") + ".csv"}), std::runtime_error);
}

TEST_F(CsvShardsTest, MalformedShardThrows) {
  const auto path = base("bad") + ".csv";
  std::ofstream{path} << "not,a,valid,header\n";
  EXPECT_THROW((void)read_csv_shards({path}), std::invalid_argument);
}

// --- strict error context (DESIGN.md §9) --------------------------------

TEST_F(CsvShardsTest, ParseErrorCarriesShardPathAndLine) {
  const auto snap = synthetic_corpus_n(4, 9).snapshot();
  auto csv = snap->to_csv();
  // Corrupt the id of the SECOND data row — line 3 of the shard (header
  // is line 1) — and demand the exact "<path>:<line>: <reason>" message.
  std::size_t pos = csv.find('\n');            // end of header
  pos = csv.find('\n', pos + 1);               // end of row 1
  const std::size_t row_begin = pos + 1;
  const std::string id = csv.substr(row_begin, csv.find(',', row_begin) - row_begin);
  csv.insert(row_begin, 1, 'x');
  const auto path = base("ctx") + ".csv";
  std::ofstream{path, std::ios::binary} << csv;
  try {
    (void)read_csv_shards({path});
    FAIL() << "malformed row must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), path + ":3: bad id 'x" + id + "'");
  }
}

TEST_F(CsvShardsTest, FieldCountErrorCarriesShardPathAndLine) {
  const auto snap = synthetic_corpus_n(2, 9).snapshot();
  const auto csv = snap->to_csv();
  const auto path = base("short") + ".csv";
  std::ofstream{path, std::ios::binary}
      << csv.substr(0, csv.find('\n') + 1) << "only,three,fields\n";
  try {
    (void)read_csv_shards({path});
    FAIL() << "short row must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              path + ":2: bad CSV row: expected 10 fields, got 3");
  }
}

// --- CSV edge cases ------------------------------------------------------

TEST_F(CsvShardsTest, CrlfLineEndingsParse) {
  const auto snap = synthetic_corpus_n(50, 5).snapshot();
  auto csv = snap->to_csv();
  std::string crlf;
  for (char c : csv) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  const auto path = base("crlf") + ".csv";
  std::ofstream{path, std::ios::binary} << crlf;
  EXPECT_EQ(read_csv_shards({path}).snapshot()->to_csv(), csv);
}

TEST_F(CsvShardsTest, MissingTrailingNewlineParses) {
  const auto snap = synthetic_corpus_n(20, 5).snapshot();
  auto csv = snap->to_csv();
  ASSERT_EQ(csv.back(), '\n');
  const auto path = base("torn") + ".csv";
  std::ofstream{path, std::ios::binary} << csv.substr(0, csv.size() - 1);
  EXPECT_EQ(read_csv_shards({path}).snapshot()->to_csv(), csv);
}

TEST_F(CsvShardsTest, Utf8BomIsSkipped) {
  const auto snap = synthetic_corpus_n(20, 5).snapshot();
  const auto csv = snap->to_csv();
  const auto path = base("bom") + ".csv";
  std::ofstream{path, std::ios::binary} << "\xEF\xBB\xBF" << csv;
  EXPECT_EQ(read_csv_shards({path}).snapshot()->to_csv(), csv);
}

TEST_F(CsvShardsTest, HeaderOnlyShardFollowedByPopulatedShard) {
  const auto snap = synthetic_corpus_n(30, 5).snapshot();
  const auto csv = snap->to_csv();
  const auto empty_path = base("h0") + ".csv";
  const auto full_path = base("h1") + ".csv";
  std::ofstream{empty_path, std::ios::binary} << csv.substr(0, csv.find('\n') + 1);
  std::ofstream{full_path, std::ios::binary} << csv;
  EXPECT_EQ(read_csv_shards({empty_path, full_path}).snapshot()->to_csv(), csv);
}

TEST_F(CsvShardsTest, EmptyPathsVectorYieldsEmptyDatabase) {
  const auto snap = read_csv_shards(std::vector<std::string>{}).snapshot();
  EXPECT_EQ(snap->size(), 0u);
}

// --- policy-aware reader (IngestOptions) ---------------------------------

TEST_F(CsvShardsTest, LenientQuarantinesBadRowAndKeepsRest) {
  const auto snap = synthetic_corpus_n(40, 5).snapshot();
  const auto paths = write_csv_shards(*snap, base("len"), 2);
  auto text = slurp(paths[0]);
  const std::size_t row_begin = text.find('\n') + 1;
  text.insert(row_begin, 1, 'x');  // first data row's id goes bad
  const std::string raw_row = text.substr(row_begin, text.find('\n', row_begin) - row_begin);
  std::ofstream{paths[0], std::ios::binary | std::ios::trunc} << text;

  IngestOptions options;
  options.policy = IngestPolicy::kLenient;
  const auto result = read_csv_shards(paths, options);
  EXPECT_EQ(result.db.snapshot()->size(), 39u);
  EXPECT_EQ(result.report.ingested, 39u);
  ASSERT_EQ(result.report.rows.size(), 1u);
  const auto& row = result.report.rows[0];
  EXPECT_EQ(row.shard, paths[0]);
  EXPECT_EQ(row.line, 2u);
  EXPECT_EQ(row.raw, raw_row);
  EXPECT_NE(row.reason.find("bad id"), std::string::npos);
  EXPECT_TRUE(result.report.shards.empty());
}

TEST_F(CsvShardsTest, LenientQuarantinesBadHeaderShardWhole) {
  const auto snap = synthetic_corpus_n(40, 5).snapshot();
  const auto paths = write_csv_shards(*snap, base("hdr"), 2);
  const auto original = slurp(paths[1]);
  const std::size_t shard1_rows = [&] {
    std::size_t n = 0;
    for (char c : original) n += c == '\n';
    return n - 1;  // minus the header
  }();
  std::ofstream{paths[1], std::ios::binary | std::ios::trunc}
      << "not,the header\n" << original.substr(original.find('\n') + 1);

  IngestOptions options;
  options.policy = IngestPolicy::kLenient;
  const auto result = read_csv_shards(paths, options);
  EXPECT_EQ(result.db.snapshot()->size(), 40u - shard1_rows);
  ASSERT_EQ(result.report.shards.size(), 1u);
  EXPECT_EQ(result.report.shards[0].shard, paths[1]);
  EXPECT_EQ(result.report.shards[0].reason, "bad CSV header");
  EXPECT_EQ(result.report.shards[0].lines_seen, shard1_rows + 1);
}

TEST_F(CsvShardsTest, TransientFaultRecoversAndCountsRetries) {
  const auto snap = synthetic_corpus_n(30, 5).snapshot();
  const auto paths = write_csv_shards(*snap, base("transient"), 2);
  IngestOptions options;
  options.policy = IngestPolicy::kLenient;
  options.max_attempts = 3;
  options.fault_hook = [&](const std::string& path, std::size_t attempt) {
    return path == paths[0] && attempt <= 2;
  };
  const auto result = read_csv_shards(paths, options);
  EXPECT_EQ(result.db.snapshot()->to_csv(), snap->to_csv());
  EXPECT_TRUE(result.report.clean());
  EXPECT_EQ(result.report.retries, 2u);
}

TEST_F(CsvShardsTest, LenientQuarantinesUnreadableShardAfterRetries) {
  const auto snap = synthetic_corpus_n(30, 5).snapshot();
  const auto paths = write_csv_shards(*snap, base("unread"), 2);
  const std::size_t shard1_rows = [&] {
    const auto text = slurp(paths[1]);
    std::size_t n = 0;
    for (char c : text) n += c == '\n';
    return n - 1;
  }();
  IngestOptions options;
  options.policy = IngestPolicy::kLenient;
  options.max_attempts = 3;
  options.fault_hook = [&](const std::string& path, std::size_t) {
    return path == paths[1];
  };
  const auto result = read_csv_shards(paths, options);
  EXPECT_EQ(result.db.snapshot()->size(), 30u - shard1_rows);
  ASSERT_EQ(result.report.shards.size(), 1u);
  EXPECT_EQ(result.report.shards[0].shard, paths[1]);
  EXPECT_EQ(result.report.shards[0].attempts, 3u);
  EXPECT_EQ(result.report.shards[0].lines_seen, 0u);
  EXPECT_NE(result.report.shards[0].reason.find("injected fault"),
            std::string::npos);
  EXPECT_EQ(result.report.retries, 2u);
}

TEST_F(CsvShardsTest, StrictUnreadableThrowsWithAttemptCount) {
  const auto snap = synthetic_corpus_n(10, 5).snapshot();
  const auto paths = write_csv_shards(*snap, base("strictio"), 1);
  IngestOptions options;
  options.max_attempts = 3;
  options.fault_hook = [](const std::string&, std::size_t) { return true; };
  try {
    (void)read_csv_shards(paths, options);
    FAIL() << "unreadable shard must throw under strict";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(paths[0]), std::string::npos);
    EXPECT_NE(what.find("after 3 attempts"), std::string::npos);
  }
}

TEST_F(CsvShardsTest, PolicyReaderMatchesLegacyOnCleanInput) {
  const auto snap = synthetic_corpus_n(500, 5).snapshot();
  const auto paths = write_csv_shards(*snap, base("clean"), 3);
  const auto legacy = read_csv_shards(paths);
  const auto strict = read_csv_shards(paths, IngestOptions{});
  EXPECT_EQ(strict.db.snapshot()->to_csv(), legacy.snapshot()->to_csv());
  EXPECT_TRUE(strict.report.clean());
  EXPECT_EQ(strict.report.ingested, 500u);
}

TEST_F(CsvShardsTest, LenientReportIsThreadCountIndependent) {
  const auto snap = synthetic_corpus_n(300, 5).snapshot();
  const auto paths = write_csv_shards(*snap, base("det"), 3);
  auto text = slurp(paths[1]);
  text.insert(text.find('\n') + 1, 1, 'x');
  std::ofstream{paths[1], std::ios::binary | std::ios::trunc} << text;

  IngestOptions options;
  options.policy = IngestPolicy::kLenient;
  runtime::ThreadPool::set_global_threads(1);
  const auto serial = read_csv_shards(paths, options);
  runtime::ThreadPool::set_global_threads(4);
  const auto parallel = read_csv_shards(paths, options);
  runtime::ThreadPool::set_global_threads(runtime::ThreadPool::default_threads());

  EXPECT_EQ(serial.db.snapshot()->to_csv(), parallel.db.snapshot()->to_csv());
  ASSERT_EQ(serial.report.rows.size(), 1u);
  ASSERT_EQ(parallel.report.rows.size(), 1u);
  EXPECT_EQ(serial.report.rows[0].shard, parallel.report.rows[0].shard);
  EXPECT_EQ(serial.report.rows[0].line, parallel.report.rows[0].line);
  EXPECT_EQ(serial.report.rows[0].raw, parallel.report.rows[0].raw);
  EXPECT_EQ(serial.report.rows[0].reason, parallel.report.rows[0].reason);
}

}  // namespace
}  // namespace dfsm::bugtraq
