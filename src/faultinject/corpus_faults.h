// corpus_faults.h — seeded mutators that corrupt a sharded CSV corpus
// the way real storage does (DESIGN.md §9): torn writes, stray bytes,
// missing files, flaky reads. Each mutator edits an in-memory ShardSet
// and returns a CorpusMutation describing exactly what it did plus the
// bookkeeping the campaign needs to prove zero silent data loss:
//
//   generated + injected_lines - rows(lost_shards)
//     == ingested + quarantined row lines + quarantined shard lines
//
// Mutators are deterministic in the Rng and never consult the clock or
// the filesystem — the campaign owns all I/O.
#ifndef DFSM_FAULTINJECT_CORPUS_FAULTS_H
#define DFSM_FAULTINJECT_CORPUS_FAULTS_H

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "faultinject/rng.h"

namespace dfsm::faultinject {

/// The corpus fault taxonomy (one mutator each).
enum class CorpusFault {
  kTruncateTail,     ///< cut the last row mid-field (torn write)
  kMangleQuoting,    ///< insert a stray '"' into a data row
  kCorruptField,     ///< make a row's id field non-numeric
  kMissingHeader,    ///< delete a shard's header line
  kDuplicateHeader,  ///< repeat the header as a bogus data row
  kDropShard,        ///< remove a shard from the read list entirely
  kReorderShards,    ///< rotate the shard read order
  kTransientIo,      ///< reads fail then recover (retry path)
  kUnreadableShard,  ///< reads fail on every attempt
};

inline constexpr std::array<CorpusFault, 9> kAllCorpusFaults = {
    CorpusFault::kTruncateTail,    CorpusFault::kMangleQuoting,
    CorpusFault::kCorruptField,    CorpusFault::kMissingHeader,
    CorpusFault::kDuplicateHeader, CorpusFault::kDropShard,
    CorpusFault::kReorderShards,   CorpusFault::kTransientIo,
    CorpusFault::kUnreadableShard,
};

[[nodiscard]] const char* to_string(CorpusFault f) noexcept;

/// An in-memory shard set: paths in read order, each path's file
/// contents, and how many generated data rows each shard carries. Every
/// mutator keeps a shard's generated rows as its LAST data_rows[s] lines
/// (header faults only add or remove lines above them), so row mutators
/// stay in bounds however mutations compose on one shard.
struct ShardSet {
  std::vector<std::string> paths;
  std::vector<std::string> contents;   ///< parallel to paths
  std::vector<std::size_t> data_rows;  ///< parallel to paths

  [[nodiscard]] std::size_t total_rows() const;
};

/// What a mutator did, and what the ingest layer is expected to make of
/// it. `fail_attempts` drives the campaign's IngestOptions::fault_hook
/// (attempts 1..fail_attempts on `shard` fail as unreadable).
struct CorpusMutation {
  CorpusFault fault = CorpusFault::kTruncateTail;
  std::string shard;    ///< primary affected path ("" when none)
  std::size_t line = 0; ///< 1-based affected line (0 when n/a)
  std::string detail;   ///< human-readable description

  long long injected_lines = 0;          ///< data-line candidates added
                                         ///< (negative: removed)
  std::vector<std::string> lost_shards;  ///< shards whose rows never reach ingest
  std::size_t fail_attempts = 0;         ///< simulated unreadable attempts
  bool expect_strict_throw = false;      ///< strict ingest must throw
};

/// Applies `fault` to the shard set. `max_attempts` is the retry budget
/// the campaign will hand the reader (IngestOptions::max_attempts, >= 2):
/// kTransientIo fails fewer attempts than that, kUnreadableShard fails
/// all of them. Deterministic in `rng`.
[[nodiscard]] CorpusMutation apply_corpus_fault(CorpusFault fault,
                                                ShardSet& shards, Rng& rng,
                                                std::size_t max_attempts = 3);

}  // namespace dfsm::faultinject

#endif  // DFSM_FAULTINJECT_CORPUS_FAULTS_H
