// colsnap.h — the binary columnar snapshot format: a corpus epoch
// serialized as K shard files of length-delimited, per-column
// checksummed blocks, so reload is I/O-bound instead of parse-bound
// (DESIGN.md §15 has the wire-format table).
//
// Each shard carries one contiguous record range — the same
// static_blocks(size, count) partition csv_shards.h uses, so the two
// formats shard identically and a corpus round-trips byte-for-byte
// between them. Shard bodies encode and decode concurrently on the
// runtime pool (per-shard buffers, no shared mutable state), and the
// bytes are a pure function of (snapshot contents, shard count): the
// same corpus writes the same files at any DFSM_THREADS.
//
// Wire format, all integers little-endian:
//
//   header (48 bytes): magic "DFSMCSNP" | u32 version | u32 shard_index
//     | u32 shard_count | u32 reserved | u64 shard_records
//     | u64 total_records | u64 epoch
//   then 11 column blocks in fixed order, each:
//     u32 name_len | name | u64 payload_len | u64 fnv_checksum | payload
//
// The checksum is core::Fingerprinter::mix_striped over the payload
// bytes: eight interleaved FNV-1a lanes folded with the payload length
// (fingerprint.h) — chosen over plain mix() because a serial FNV chain
// is latency-bound at ~1.5 ns/byte, which alone would eat half the
// reload budget at 10^6 records. The loader refuses any defect with
// "<file>:<column>: <reason>" — checksum mismatch, truncated block, bad
// code, ragged sizes — and cross-checks shard headers (index, count,
// record total, epoch) so a torn publish (shards from different epochs)
// is refused as "<file>:header: ...". Loading is all-or-nothing: a
// refused shard set contributes zero records.
//
// The string columns (title, description, software table) are interned/
// length-prefixed per shard; software ids are shard-local and remapped
// to one global table at merge, which keeps shard encoding embarrassingly
// parallel (per-core buffers, Corey-style share-nothing).
#ifndef DFSM_BUGTRAQ_COLSNAP_H
#define DFSM_BUGTRAQ_COLSNAP_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bugtraq/database.h"

namespace dfsm::bugtraq {

inline constexpr std::uint32_t kColsnapVersion = 1;
inline constexpr std::size_t kColsnapHeaderSize = 48;

/// Byte offset of the u64 epoch field inside a shard header (the
/// stale-epoch fault mutator edits it in place).
[[nodiscard]] constexpr std::size_t colsnap_epoch_offset() noexcept {
  return 40;
}

/// Canonical shard file name: "<base>-00003-of-00008.colsnap".
[[nodiscard]] std::string colsnap_shard_path(const std::string& base,
                                             std::size_t index,
                                             std::size_t count);

/// All `count` shard paths for `base`, in shard order.
[[nodiscard]] std::vector<std::string> colsnap_shard_paths(
    const std::string& base, std::size_t count);

/// Encodes shard `index` of `count` for the snapshot (the record range
/// is the static_blocks partition of (size, count)). Pure: same inputs,
/// same bytes, at any thread count.
[[nodiscard]] std::string encode_colsnap_shard(const CorpusSnapshot& snap,
                                               std::size_t index,
                                               std::size_t count);

/// All `count` shard bodies (0 is treated as 1), encoded concurrently
/// on the runtime pool.
[[nodiscard]] std::vector<std::string> encode_colsnap_shards(
    const CorpusSnapshot& snap, std::size_t count);

/// Writes the snapshot as `shards` snapshot files under `base`. Every
/// file exists even when the corpus has fewer records than shards (tail
/// shards carry zero records). Returns the paths in shard order. Throws
/// std::runtime_error if a file cannot be written.
std::vector<std::string> write_colsnap_shards(const CorpusSnapshot& snap,
                                              const std::string& base,
                                              std::size_t shards);

/// Decodes in-memory shard bodies (`names[i]` labels `contents[i]` in
/// error messages). Shards decode concurrently; headers are cross-checked
/// (index order, shard count, record total, one epoch) and local software
/// tables merge into one global interning. Throws std::invalid_argument
/// as "<name>:<column>: <reason>" on any defect — all-or-nothing.
[[nodiscard]] Database decode_colsnap_shards(
    const std::vector<std::string>& contents,
    const std::vector<std::string>& names);

/// Reads shard files in path order and decodes them. Throws
/// std::runtime_error on an unreadable file, std::invalid_argument
/// ("<path>:<column>: <reason>") on malformed or corrupt contents.
[[nodiscard]] Database read_colsnap_shards(
    const std::vector<std::string>& paths);

/// Structural index of one shard's column blocks — offsets only, no
/// checksum verification (the fault mutators edit bytes through this).
/// Throws std::invalid_argument if the overall block framing is broken.
struct ColsnapBlockRef {
  std::string name;
  std::size_t block_offset = 0;     ///< offset of the u32 name_len field
  std::size_t checksum_offset = 0;  ///< offset of the u64 checksum field
  std::size_t payload_offset = 0;
  std::size_t payload_len = 0;
};

[[nodiscard]] std::vector<ColsnapBlockRef> colsnap_block_refs(
    const std::string& bytes);

}  // namespace dfsm::bugtraq

#endif  // DFSM_BUGTRAQ_COLSNAP_H
