// database.h — the concurrent corpus service: an in-memory vulnerability
// database with snapshot-isolated reads, incremental histogram
// maintenance, and CSV round-trip. Stands in for the Bugtraq list at
// securityfocus.com, which the paper chose "because its vulnerability
// reports are better organized and more amenable to automatic processing
// and statistical study".
//
// Concurrency model (DESIGN.md §15). All read state lives in an
// immutable, versioned CorpusSnapshot published through a
// runtime::SnapshotCell (RCU-style atomic shared_ptr swap). snapshot()
// is the only read path: a reader holds one CorpusSnapshot and sees ONE
// consistent epoch — a frozen record range, frozen columns, and
// histograms that are always exact for that range, no matter how many
// add_batch() ingests land concurrently; Database itself keeps only the
// writes plus snapshot(), epoch() and a copying by_id(). Writers
// serialize on a private mutex, append into a capacity-shared column
// arena (appends past the published size never move the bytes a live
// snapshot points at; growth copies into a fresh arena, and old arenas
// stay alive until their last snapshot drops), fold the batch's
// histogram deltas into a copy of the published histograms —
// incremental maintenance, no invalidate-and-rebuild — and publish the
// next epoch with one atomic swap.
//
// Storage is row-major (records) plus columnar category/class/remote/
// year/software projections (software interned to dense ids): statistics
// sweeps touch narrow columns instead of ~200-byte records, and the
// histogram/query sweeps shard across the parallel runtime
// (runtime/parallel.h) with per-shard accumulators merged in index
// order — results are byte-identical to a serial walk at any thread
// count.
#ifndef DFSM_BUGTRAQ_DATABASE_H
#define DFSM_BUGTRAQ_DATABASE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bugtraq/record.h"
#include "runtime/parallel.h"
#include "runtime/snapshot_cell.h"

namespace dfsm::bugtraq {

/// How ingest treats malformed input (DESIGN.md §9). kStrict throws on
/// the first defect, with shard path + 1-based line context; kLenient
/// quarantines defective rows/shards into an IngestReport and keeps the
/// rest — graceful degradation for million-record shard sets where one
/// bad row must not abort the whole ingest.
enum class IngestPolicy {
  kStrict,
  kLenient,
};

[[nodiscard]] const char* to_string(IngestPolicy p) noexcept;

/// One CSV row a lenient ingest refused, with enough context to replay
/// or repair it: the source shard, the 1-based line its span starts on,
/// the parse/dedup reason, and the raw row text.
struct QuarantinedRow {
  std::string shard;
  std::size_t line = 0;
  std::string reason;
  std::string raw;

  /// Source lines the row span consumed (a mangled quote can merge many
  /// physical lines into one span): newline count in `raw` plus one.
  [[nodiscard]] std::size_t lines_consumed() const;
};

/// One whole shard a lenient ingest refused (unreadable after retries,
/// or its header did not parse).
struct QuarantinedShard {
  std::string shard;
  std::string reason;
  std::size_t attempts = 1;    ///< open/read attempts made
  std::size_t lines_seen = 0;  ///< non-empty lines observed (0 if unreadable)
};

/// Structured outcome of a lenient ingest: what landed, what was
/// quarantined, and how many transient-I/O retries were spent. Entry
/// order is deterministic at any thread count: rows ascend by (shard
/// order, line), shards follow path order.
struct IngestReport {
  std::size_t ingested = 0;
  std::size_t retries = 0;  ///< extra open/read attempts beyond the first
  std::vector<QuarantinedRow> rows;
  std::vector<QuarantinedShard> shards;

  [[nodiscard]] bool clean() const noexcept {
    return rows.empty() && shards.empty();
  }
  /// Total source lines consumed by quarantined rows (zero-loss
  /// accounting: generated == ingested + quarantined_lines() + lines of
  /// quarantined shards).
  [[nodiscard]] std::size_t quarantined_lines() const;
};

/// One record a lenient add_batch refused (duplicate Bugtraq ID).
struct BatchReject {
  std::size_t index = 0;  ///< position within the batch
  std::string reason;
};

/// The always-exact histograms a snapshot carries. Maintained
/// incrementally: each publish folds the batch's deltas into a copy of
/// the previous epoch's histograms, and rebuild_histograms() proves the
/// fold equals a full columnar sweep.
struct CorpusHistograms {
  std::array<std::size_t, kCategoryCount> by_category{};
  std::array<std::size_t, kVulnClassCount> by_class{};
  std::map<int, std::size_t> by_year;
  std::vector<std::size_t> by_software;  ///< indexed by interned software id

  friend bool operator==(const CorpusHistograms&,
                         const CorpusHistograms&) = default;
};

namespace detail {
struct ColumnArena;  // append-only backing storage (database.cpp)
/// (Bugtraq id, row position) pairs sorted by id — the base id index a
/// bulk build adopts.
using IdIndex = std::vector<std::pair<int, std::size_t>>;
}  // namespace detail

/// One immutable epoch of the corpus: a frozen record range, frozen
/// columnar projections, the interned software table as of that epoch,
/// and exact histograms. Acquired via Database::snapshot(); stays alive
/// and byte-stable for as long as the caller holds the shared_ptr, no
/// matter what the writer publishes meanwhile.
///
/// The spans point into a shared column arena. The writer may append
/// PAST this snapshot's size in place (the arena never reallocates while
/// any snapshot pins it), so the spans' bytes never move and never
/// change — readers index only [0, size()) and touch no vector
/// internals, which is what keeps concurrent reads TSan-clean.
class CorpusSnapshot {
 public:
  CorpusSnapshot() = default;  // the empty corpus, epoch 0

  /// Publication count when this snapshot was built (0 = empty corpus).
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] std::span<const VulnRecord> records() const noexcept {
    return {records_, size_};
  }
  [[nodiscard]] std::span<const Category> categories() const noexcept {
    return {categories_, size_};
  }
  [[nodiscard]] std::span<const VulnClass> classes() const noexcept {
    return {classes_, size_};
  }
  [[nodiscard]] std::span<const unsigned char> remote_flags() const noexcept {
    return {remote_, size_};
  }
  [[nodiscard]] std::span<const int> years() const noexcept {
    return {years_, size_};
  }
  /// Software column as dense interned ids; software_name(id) decodes.
  [[nodiscard]] std::span<const std::uint32_t> software_ids() const noexcept {
    return {software_, size_};
  }
  /// Interned software table as of this epoch (ids are stable: later
  /// epochs only ever append names).
  [[nodiscard]] std::span<const std::string> software_names() const noexcept {
    return {names_, software_count_};
  }
  [[nodiscard]] std::size_t software_count() const noexcept {
    return software_count_;
  }
  [[nodiscard]] const std::string& software_name(std::uint32_t id) const {
    return names_[id];
  }

  /// Exact histograms for [0, size()) — no sweep, no lock, always fresh.
  [[nodiscard]] const CorpusHistograms& histograms() const noexcept {
    return hist_;
  }

  /// Histogram over categories (every category present, possibly 0).
  [[nodiscard]] std::map<Category, std::size_t> count_by_category() const;
  /// Histogram over vulnerability classes (only non-zero counts appear,
  /// matching the historical row-walk behavior).
  [[nodiscard]] std::map<VulnClass, std::size_t> count_by_class() const;
  /// Histogram over discovery years (only years present appear).
  [[nodiscard]] std::map<int, std::size_t> count_by_year() const;
  /// Histogram over software packages (only packages present appear).
  [[nodiscard]] std::map<std::string, std::size_t> count_by_software() const;

  /// All records matching a predicate, in insertion order. The sweep is
  /// sharded across the runtime pool; per-shard hit lists concatenate in
  /// shard order, so the result equals the serial scan exactly. The
  /// returned pointers stay valid while this snapshot is held.
  template <typename Pred>
  [[nodiscard]] std::vector<const VulnRecord*> query(Pred&& pred) const {
    const auto recs = records();
    return runtime::parallel_reduce(
        recs.size(), std::vector<const VulnRecord*>{},
        [&](std::size_t begin, std::size_t end) {
          std::vector<const VulnRecord*> hits;
          for (std::size_t i = begin; i < end; ++i) {
            if (pred(recs[i])) hits.push_back(&recs[i]);
          }
          return hits;
        },
        [](std::vector<const VulnRecord*>& acc,
           std::vector<const VulnRecord*>&& part) {
          acc.insert(acc.end(), part.begin(), part.end());
        });
  }

  template <typename Pred>
  [[nodiscard]] std::size_t count(Pred&& pred) const {
    const auto recs = records();
    return runtime::parallel_reduce(
        recs.size(), std::size_t{0},
        [&](std::size_t begin, std::size_t end) {
          std::size_t n = 0;
          for (std::size_t i = begin; i < end; ++i) {
            if (pred(recs[i])) ++n;
          }
          return n;
        },
        [](std::size_t& acc, std::size_t part) { acc += part; });
  }

  /// CSV serialization: header + one line per record (activities joined
  /// with ';'). Fields containing separators are quoted. The row bodies
  /// are built in index-sharded blocks on the runtime pool and
  /// concatenated in block order — byte-identical at any thread count.
  [[nodiscard]] std::string to_csv() const;
  /// CSV for the record range [begin, end) only (same header). The unit
  /// of sharded corpus files (csv_shards.h / colsnap.h).
  [[nodiscard]] std::string to_csv(std::size_t begin, std::size_t end) const;

 private:
  friend class Database;

  std::shared_ptr<const void> arena_;  ///< pins the backing ColumnArena
  std::uint64_t epoch_ = 0;
  std::size_t size_ = 0;
  std::size_t software_count_ = 0;
  const VulnRecord* records_ = nullptr;
  const Category* categories_ = nullptr;
  const VulnClass* classes_ = nullptr;
  const unsigned char* remote_ = nullptr;
  const int* years_ = nullptr;
  const std::uint32_t* software_ = nullptr;
  const std::string* names_ = nullptr;
  CorpusHistograms hist_;
};

using CorpusSnapshotPtr = std::shared_ptr<const CorpusSnapshot>;

/// Recomputes the snapshot's histograms with a full columnar sweep on
/// the runtime pool — the pre-incremental semantics, kept as the
/// equivalence oracle (tests assert rebuild == snapshot->histograms()
/// after any batch sequence) and as the reference arm of the
/// BM_CorpusHistogramRebuild/BM_CorpusHistogramIncremental bench pair.
[[nodiscard]] CorpusHistograms rebuild_histograms(const CorpusSnapshot& snap);

/// The corpus service. Reads are lock-free and snapshot-isolated;
/// writes serialize on an internal mutex and publish new epochs
/// atomically. One Database instance safely serves concurrent readers
/// and writers; copying/moving the Database object itself still
/// requires external synchronization on the source, like any value.
class Database {
 public:
  Database();
  ~Database();

  /// Copies share the source's current snapshot (O(#ids) map copy, no
  /// record copy) and go copy-on-write on the first mutation.
  Database(const Database& other);
  Database& operator=(const Database& other);
  Database(Database&& other) noexcept;
  Database& operator=(Database&& other) noexcept;

  /// Adds a record and publishes a new epoch. Throws
  /// std::invalid_argument on a duplicate non-zero Bugtraq ID (real IDs
  /// are unique).
  void add(VulnRecord record);

  /// Bulk ingest: appends every record of `batch` (insertion order
  /// preserved), extending the column arena once and folding the
  /// batch's histogram deltas into one new published epoch. An empty
  /// batch is a true no-op: no epoch is published. A database with no
  /// rows yet is bulk-built instead: every column fills on the runtime
  /// pool and `batch` becomes the records column without per-record
  /// moves — same result, byte for byte, as the per-row append.
  ///
  /// kStrict throws std::invalid_argument on a duplicate non-zero ID
  /// (against the database or within the batch) naming the ID at the
  /// lowest repeated batch position, before anything is appended or
  /// published, and otherwise returns an empty vector. kLenient appends
  /// every acceptable record (first occurrence of an ID wins) and
  /// returns the rejected batch positions with reasons, in ascending
  /// index order; a batch with nothing acceptable publishes nothing.
  std::vector<BatchReject> add_batch(
      std::vector<VulnRecord> batch,
      IngestPolicy policy = IngestPolicy::kStrict);

  /// The current epoch's immutable snapshot — the unit of isolation.
  /// Holding it pins that epoch's records, columns, and histograms.
  [[nodiscard]] CorpusSnapshotPtr snapshot() const { return cell_.acquire(); }

  /// Publication count: 0 for a fresh database, +1 per published batch.
  [[nodiscard]] std::uint64_t epoch() const { return cell_.acquire()->epoch(); }

  /// Pre-grows the column arena so the next `capacity` total records
  /// append without a copy-on-write growth pause (readers are never
  /// paused either way).
  void reserve(std::size_t capacity);

  /// A copy of the record with Bugtraq ID `id` (non-zero IDs only) as
  /// of the current epoch, or nullopt. Copied under the writer lock (the
  /// id index is writer-side state, not snapshot state), so the result
  /// owns its bytes no matter what the writer publishes afterwards.
  [[nodiscard]] std::optional<VulnRecord> by_id(int id) const;

  /// Parses CSV documents (each with the header CorpusSnapshot::to_csv
  /// writes) into one database, rows concatenated in part order, in one
  /// add_batch — the in-memory half of the sharded corpus reader
  /// (csv_shards.h). `names[i]` labels part i in error messages and
  /// report entries; when `names` is empty the parts are labeled
  /// "part <k>". Row parsing is sharded across the runtime pool and the
  /// result — report included — is byte-identical at any thread count.
  /// Tolerates CRLF line endings and a UTF-8 BOM.
  ///
  /// kStrict throws std::invalid_argument as "<name>:<line>: <reason>"
  /// (1-based line; on malformed input parsing cancels cooperatively and
  /// the lowest row's error is the one thrown). kLenient quarantines
  /// malformed rows, whole parts with bad headers, and duplicate IDs
  /// into `report` (required non-null for kLenient) and returns the
  /// partial database. Throws std::invalid_argument if `names` is
  /// non-empty and differs from `parts` in length.
  [[nodiscard]] static Database from_csv_parts(
      const std::vector<std::string>& parts,
      const std::vector<std::string>& names = {},
      IngestPolicy policy = IngestPolicy::kStrict,
      IngestReport* report = nullptr);

  /// Pre-separated columns for trusted bulk adoption (the binary
  /// snapshot loader, colsnap.h). All vectors must be index-parallel;
  /// `software` holds ids into `software_names`.
  struct BulkColumns {
    std::vector<VulnRecord> records;
    std::vector<Category> categories;
    std::vector<VulnClass> classes;
    std::vector<unsigned char> remote;
    std::vector<int> years;
    std::vector<std::uint32_t> software;
    std::vector<std::string> software_names;
  };

  /// Adopts pre-separated columns wholesale (no per-record re-derivation;
  /// histograms come from one parallel sweep, the id index from the bulk
  /// builder's one sort). Throws std::invalid_argument on ragged
  /// column lengths, an out-of-range software id, a duplicate software
  /// name, or a duplicate non-zero Bugtraq ID (the ID at the lowest
  /// repeated position, as add_batch reports it). The result sits at
  /// epoch 1.
  [[nodiscard]] static Database from_columns(BulkColumns&& columns);

  /// Merges another database into this one (duplicate-ID rules apply).
  void merge(const Database& other);

 private:
  using SoftwareIds = std::map<std::string, std::uint32_t, std::less<>>;

  /// Appends pre-validated rows to a non-empty corpus, folds their
  /// histogram deltas, and publishes the next epoch. Caller holds
  /// writer_mu_.
  void append_batch_locked(std::vector<VulnRecord>&& rows);
  /// The bulk builder, for a database with no rows: fills every column
  /// over static blocks on the pool, interns software per block and
  /// remaps in block order (the ids serial first-use interning gives),
  /// adopts `rows` as the records column and publishes. `index` is the
  /// rows' duplicate-free sorted id index. Caller holds writer_mu_.
  void build_locked(std::vector<VulnRecord>&& rows, detail::IdIndex&& index);
  /// Publishes a bulk-built arena as the next epoch: histograms from one
  /// fold_columns sweep, `index` adopted as the base id index (no map
  /// nodes), `ids` as the writer's intern table. Caller holds writer_mu_.
  void publish_bulk_locked(std::shared_ptr<detail::ColumnArena> arena,
                           detail::IdIndex&& index, SoftwareIds&& ids);
  /// Makes arena_ writable with capacity for `need_rows` records and
  /// `need_names` interned names (copy-on-write growth off the published
  /// snapshot when shared or exhausted). Caller holds writer_mu_.
  void ensure_arena_locked(const CorpusSnapshot& cur, std::size_t need_rows,
                           std::size_t need_names);
  /// Restores writer state to the published snapshot after a failed
  /// append (strong exception guarantee). Caller holds writer_mu_.
  void rollback_writer_state_locked(const CorpusSnapshot& cur);
  /// Builds the next epoch's snapshot over `arena`'s current contents.
  [[nodiscard]] static std::shared_ptr<CorpusSnapshot> make_snapshot(
      std::shared_ptr<detail::ColumnArena> arena, std::uint64_t epoch,
      std::size_t size, std::size_t software_count, CorpusHistograms hist);
  /// Position of `id` in the two-level index, or nullptr. Caller holds
  /// writer_mu_.
  [[nodiscard]] const std::size_t* find_id_locked(int id) const;

  mutable std::mutex writer_mu_;
  runtime::SnapshotCell<CorpusSnapshot> cell_;
  /// The arena backing (a superset of) the published snapshot; null when
  /// this Database was copied and has not yet written (copy-on-write).
  std::shared_ptr<detail::ColumnArena> arena_;
  /// Two-level Bugtraq-id index. A bulk build keeps the id/position
  /// pairs it already sorted for duplicate detection as the immutable
  /// BASE — positions index the arena prefix, which never moves — and
  /// incremental appends land in the map OVERLAY, so a bulk load pays
  /// no per-record node inserts and a small batch pays no index-wide
  /// merge. Lookups probe the overlay, then binary-search the base.
  detail::IdIndex base_index_;
  std::map<int, std::size_t> index_;  ///< overlay: ids appended post-base
  std::size_t base_rows_ = 0;  ///< records covered by base_index_
  SoftwareIds software_ids_;  ///< name -> id
};

}  // namespace dfsm::bugtraq

#endif  // DFSM_BUGTRAQ_DATABASE_H
