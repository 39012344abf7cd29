// csv_shards.h — the on-disk sharded corpus format: a database split into
// K CSV files, each carrying the standard header plus one contiguous
// record range. Shard boundaries are the static_blocks partition of
// (record count, shard count) — a pure function of those two numbers,
// never of DFSM_THREADS — so the files a corpus serializes to are
// byte-identical on every machine. Reading concatenates shards in path
// order and parses rows on the runtime pool; the resulting database
// equals a serial read exactly at any thread count.
//
// This is the ingest path for 10^6+-record corpora: `dfsm_corpus gen`
// emits shards, and benches and sweeps read them back through
// Database::from_csv_parts in one bulk ingest.
#ifndef DFSM_BUGTRAQ_CSV_SHARDS_H
#define DFSM_BUGTRAQ_CSV_SHARDS_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "bugtraq/database.h"

namespace dfsm::bugtraq {

/// Canonical shard file name: "<base>-00003-of-00008.csv".
[[nodiscard]] std::string shard_path(const std::string& base, std::size_t index,
                                     std::size_t count);

/// All `count` shard paths for `base`, in shard order.
[[nodiscard]] std::vector<std::string> shard_paths(const std::string& base,
                                                   std::size_t count);

/// Writes the snapshot as `shards` CSV files under `base` (0 is treated
/// as 1). Every file exists even when the snapshot has fewer records
/// than shards — the tail shards are header-only. Returns the paths in
/// shard order. Throws std::runtime_error if a file cannot be written.
std::vector<std::string> write_csv_shards(const CorpusSnapshot& snap,
                                          const std::string& base,
                                          std::size_t shards);

/// Reads shard files in path order into one database (one bulk
/// add_batch). Each file must carry the standard header; header-only
/// files contribute zero records. Throws std::runtime_error on an
/// unreadable file, std::invalid_argument on malformed CSV (the message
/// carries "<shard path>:<line>: <reason>").
[[nodiscard]] Database read_csv_shards(const std::vector<std::string>& paths);

/// Knobs for the policy-aware shard reader (DESIGN.md §9).
struct IngestOptions {
  IngestPolicy policy = IngestPolicy::kStrict;

  /// Open/read attempts per shard before giving up (≥1). Transient I/O
  /// failures (NFS hiccups, torn writes) commonly clear on re-open.
  std::size_t max_attempts = 3;

  /// Backoff before retry k (1-based) is min(backoff_base_ms << (k-1),
  /// backoff_cap_ms) — bounded exponential. 0 disables sleeping (tests
  /// and fault campaigns exercise the retry loop without wall-clock
  /// cost).
  std::size_t backoff_base_ms = 0;
  std::size_t backoff_cap_ms = 100;

  /// Test/fault-injection seam: when set, attempt k (1-based) on `path`
  /// fails as if the file were unreadable whenever it returns true. The
  /// hook must be deterministic for reproducible campaigns.
  std::function<bool(const std::string& path, std::size_t attempt)> fault_hook;
};

/// Outcome of a policy-aware shard read: the (possibly partial) database
/// plus the structured ingest report.
struct ShardIngestResult {
  Database db;
  IngestReport report;
};

/// Policy-aware shard reader. Strict behaves like read_csv_shards but
/// retries transient open/read failures per IngestOptions before
/// throwing; lenient quarantines shards that stay unreadable after
/// max_attempts (and malformed rows/headers, via from_csv_parts) into
/// the report and returns the partial database. Deterministic: the
/// database bytes and the report are identical at any DFSM_THREADS.
[[nodiscard]] ShardIngestResult read_csv_shards(
    const std::vector<std::string>& paths, const IngestOptions& options);

}  // namespace dfsm::bugtraq

#endif  // DFSM_BUGTRAQ_CSV_SHARDS_H
