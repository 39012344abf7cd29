#include "bugtraq/database.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace dfsm::bugtraq {

namespace detail {

/// The append-only backing storage snapshots point into. The writer may
/// push_back past the published size — capacity is guaranteed up front,
/// so the vectors never reallocate while a snapshot pins them and the
/// bytes in [0, published size) never move. Readers go through the raw
/// pointers a snapshot captured at publish time and never touch the
/// vector objects themselves (whose end pointers the writer mutates).
struct ColumnArena {
  std::vector<VulnRecord> records;
  std::vector<Category> category_col;
  std::vector<VulnClass> class_col;
  std::vector<unsigned char> remote_col;
  std::vector<int> year_col;
  std::vector<std::uint32_t> software_col;
  std::vector<std::string> software_names;  // id -> name

  /// The row count every column can hold without reallocating.
  [[nodiscard]] std::size_t row_capacity() const noexcept {
    return std::min({records.capacity(), category_col.capacity(),
                     class_col.capacity(), remote_col.capacity(),
                     year_col.capacity(), software_col.capacity()});
  }

  void reserve_rows(std::size_t n) {
    records.reserve(n);
    category_col.reserve(n);
    class_col.reserve(n);
    remote_col.reserve(n);
    year_col.reserve(n);
    software_col.reserve(n);
  }
};

}  // namespace detail

namespace {

/// The shared epoch-0 snapshot every fresh Database starts from.
const CorpusSnapshotPtr& empty_snapshot() {
  static const CorpusSnapshotPtr snap = std::make_shared<const CorpusSnapshot>();
  return snap;
}

/// Histogram sweep over index-parallel column spans, sharded on the
/// runtime pool. All merges are commutative sums, so the result is
/// identical at any thread count. `software_count` sizes by_software.
CorpusHistograms fold_columns(std::span<const Category> cat,
                              std::span<const VulnClass> cls,
                              std::span<const int> year,
                              std::span<const std::uint32_t> soft,
                              std::size_t software_count) {
  CorpusHistograms identity;
  identity.by_software.assign(software_count, 0);
  return runtime::parallel_reduce(
      cat.size(), std::move(identity),
      [&](std::size_t begin, std::size_t end) {
        CorpusHistograms local;
        local.by_software.assign(software_count, 0);
        for (std::size_t i = begin; i < end; ++i) {
          ++local.by_category[static_cast<std::size_t>(cat[i])];
          ++local.by_class[static_cast<std::size_t>(cls[i])];
          ++local.by_year[year[i]];
          ++local.by_software[soft[i]];
        }
        return local;
      },
      [](CorpusHistograms& acc, const CorpusHistograms& part) {
        for (std::size_t k = 0; k < kCategoryCount; ++k)
          acc.by_category[k] += part.by_category[k];
        for (std::size_t k = 0; k < kVulnClassCount; ++k)
          acc.by_class[k] += part.by_class[k];
        for (const auto& [y, c] : part.by_year) acc.by_year[y] += c;
        for (std::size_t k = 0; k < part.by_software.size(); ++k)
          acc.by_software[k] += part.by_software[k];
      });
}

/// Folds `delta` into `acc` (the incremental-maintenance merge). The
/// delta's by_software is sized to the NEW software count, so acc grows
/// to match before the add.
void merge_histograms(CorpusHistograms& acc, const CorpusHistograms& delta) {
  for (std::size_t k = 0; k < kCategoryCount; ++k)
    acc.by_category[k] += delta.by_category[k];
  for (std::size_t k = 0; k < kVulnClassCount; ++k)
    acc.by_class[k] += delta.by_class[k];
  for (const auto& [y, c] : delta.by_year) acc.by_year[y] += c;
  if (acc.by_software.size() < delta.by_software.size()) {
    acc.by_software.resize(delta.by_software.size(), 0);
  }
  for (std::size_t k = 0; k < delta.by_software.size(); ++k)
    acc.by_software[k] += delta.by_software[k];
}

std::string duplicate_id_reason(int id) {
  return "duplicate Bugtraq ID: " + std::to_string(id);
}

/// The (id, position) pairs of every non-zero id in `recs`, sorted. The
/// sort is skipped when the gather is already in order, as it is for
/// corpora written in id order (generated ones and their shards).
detail::IdIndex sorted_id_index(std::span<const VulnRecord> recs) {
  detail::IdIndex index;
  index.reserve(recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].id != 0) index.emplace_back(recs[i].id, i);
  }
  if (!std::is_sorted(index.begin(), index.end())) {
    std::sort(index.begin(), index.end());
  }
  return index;
}

/// Positions of every repeated id in a sorted id index — each id's
/// occurrences after its first — in ascending position order.
std::vector<std::size_t> duplicate_positions(const detail::IdIndex& index) {
  std::vector<std::size_t> dups;
  for (std::size_t k = 1; k < index.size(); ++k) {
    if (index[k].first == index[k - 1].first) dups.push_back(index[k].second);
  }
  std::sort(dups.begin(), dups.end());
  return dups;
}

/// Removes the rows at `positions` (ascending) from `rows`, keeping the
/// order of the rest.
void erase_positions(std::vector<VulnRecord>& rows,
                     const std::vector<std::size_t>& positions) {
  if (positions.empty()) return;
  std::size_t out = 0;
  std::size_t next = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (next < positions.size() && positions[next] == i) {
      ++next;
      continue;
    }
    if (out != i) rows[out] = std::move(rows[i]);
    ++out;
  }
  rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(out), rows.end());
}

std::string csv_quote(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

constexpr const char* kHeader =
    "id,title,software,year,remote,category,class,description,activities,"
    "reference_activity";

/// One non-empty CSV row of a document: its byte span and the 1-based
/// line number the span starts on (error messages and quarantine entries
/// report lines, not row ordinals, so multi-line quoted rows stay
/// locatable in an editor).
struct RowSpan {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t line = 1;
};

/// Spans of each non-empty CSV row of `text`: rows split at newlines
/// outside quotes, so quoted fields keep their embedded newlines
/// (descriptions may be multi-line). A UTF-8 BOM before the header and a
/// '\r' before each row-terminating '\n' (CRLF files) are excluded from
/// the spans. This boundary scan is the only serial pass of the reader;
/// field/record parsing fans out per row.
std::vector<RowSpan> row_spans(const std::string& text) {
  std::vector<RowSpan> spans;
  bool in_quotes = false;
  std::size_t start = text.rfind("\xEF\xBB\xBF", 0) == 0 ? 3 : 0;
  std::size_t line = 1;
  std::size_t start_line = 1;
  const auto emit = [&](std::size_t end) {
    // An unterminated quote swallows the file's final newline into the
    // last span; strip it (and a CRLF '\r') so quarantine line counts
    // reflect the source lines the span actually covers.
    if (end > start && text[end - 1] == '\n') --end;
    if (end > start && text[end - 1] == '\r') --end;
    if (end > start) spans.push_back({start, end, start_line});
  };
  for (std::size_t i = start; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') {
      in_quotes = !in_quotes;
    } else if (c == '\n') {
      if (!in_quotes) {
        emit(i);
        start = i + 1;
        start_line = line + 1;
      }
      ++line;
    }
  }
  emit(text.size());
  return spans;
}

/// Splits one row span into its fields, honoring quotes ("" escapes a
/// literal quote inside a quoted field).
std::vector<std::string> parse_fields(const std::string& text, std::size_t begin,
                                      std::size_t end) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (std::size_t i = begin; i < end; ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < end && text[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

bool header_ok(const std::string& text, const std::vector<RowSpan>& spans) {
  if (spans.empty()) return false;
  const auto fields = parse_fields(text, spans[0].begin, spans[0].end);
  if (fields.size() != 10) return false;
  std::string joined;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) joined += ',';
    joined += fields[i];
  }
  return joined == kHeader;
}

/// Strict integer field: the whole field must be one base-10 integer
/// (std::stoi alone would accept "123abc", hiding corruption).
int parse_int_field(const std::string& s, const char* what) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(s, &pos);
    if (pos == s.size()) return v;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument(std::string("bad ") + what + " '" + s + "'");
}

/// Parses one data row's fields into a record. Reasons carry no location
/// — the caller prefixes "<shard>:<line>: " so the same parse serves
/// strict throws and lenient quarantine entries.
VulnRecord parse_record(const std::vector<std::string>& fields) {
  if (fields.size() != 10) {
    throw std::invalid_argument("bad CSV row: expected 10 fields, got " +
                                std::to_string(fields.size()));
  }
  VulnRecord r;
  r.id = parse_int_field(fields[0], "id");
  r.title = fields[1];
  r.software = fields[2];
  r.year = parse_int_field(fields[3], "year");
  r.remote = fields[4] == "1";
  auto cat = category_from_string(fields[5]);
  if (!cat) throw std::invalid_argument("bad category '" + fields[5] + "'");
  auto cls = vuln_class_from_string(fields[6]);
  if (!cls) {
    throw std::invalid_argument("bad vulnerability class '" + fields[6] + "'");
  }
  r.category = *cat;
  r.vuln_class = *cls;
  r.description = fields[7];
  if (!fields[8].empty()) {
    std::istringstream as{fields[8]};
    std::string a;
    while (std::getline(as, a, ';')) {
      // Linear match against the enum's printable names.
      bool found = false;
      for (int k = 0; k <= static_cast<int>(ElementaryActivity::kFreeBuffer); ++k) {
        const auto act = static_cast<ElementaryActivity>(k);
        if (a == to_string(act)) {
          r.activities.push_back(act);
          found = true;
          break;
        }
      }
      if (!found) throw std::invalid_argument("bad activity '" + a + "'");
    }
  }
  r.reference_activity = parse_int_field(fields[9], "reference_activity");
  return r;
}

void append_csv_row(std::string& out, const VulnRecord& r) {
  std::string acts;
  for (std::size_t i = 0; i < r.activities.size(); ++i) {
    if (i) acts += ';';
    acts += to_string(r.activities[i]);
  }
  out += std::to_string(r.id);
  out += ',';
  out += csv_quote(r.title);
  out += ',';
  out += csv_quote(r.software);
  out += ',';
  out += std::to_string(r.year);
  out += ',';
  out += r.remote ? '1' : '0';
  out += ',';
  out += csv_quote(to_string(r.category));
  out += ',';
  out += csv_quote(to_string(r.vuln_class));
  out += ',';
  out += csv_quote(r.description);
  out += ',';
  out += csv_quote(acts);
  out += ',';
  out += std::to_string(r.reference_activity);
  out += '\n';
}

/// One data row of one CSV document: where it lives, which document it
/// came from, and the 1-based line its span starts on (for error
/// messages and quarantine entries).
struct RowRef {
  const std::string* text = nullptr;
  const std::string* name = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t line = 0;
};

std::string located(const RowRef& row, const std::string& reason) {
  return *row.name + ":" + std::to_string(row.line) + ": " + reason;
}

Database parse_csv_docs(const std::vector<const std::string*>& docs,
                        const std::vector<std::string>& names,
                        IngestPolicy policy, IngestReport* report) {
  // Serial boundary pass: flatten every document's data rows into one
  // array so parsing shards evenly even when shard sizes are skewed.
  std::vector<RowRef> rows;
  for (std::size_t d = 0; d < docs.size(); ++d) {
    const std::string& doc = *docs[d];
    const auto spans = row_spans(doc);
    if (!header_ok(doc, spans)) {
      const std::size_t line = spans.empty() ? 1 : spans[0].line;
      if (policy == IngestPolicy::kStrict) {
        throw std::invalid_argument(names[d] + ":" + std::to_string(line) +
                                    ": bad CSV header");
      }
      report->shards.push_back({names[d], "bad CSV header", 1, spans.size()});
      continue;
    }
    rows.reserve(rows.size() + spans.size() - 1);
    for (std::size_t i = 1; i < spans.size(); ++i) {
      rows.push_back({&doc, &names[d], spans[i].begin, spans[i].end,
                      spans[i].line});
    }
  }

  // Per-row result slots keep the outcome order-stable at any thread
  // count: slot i is written exactly once by whichever block owns row i.
  std::vector<VulnRecord> parsed(rows.size());
  std::vector<std::string> reasons(rows.size());  // empty => parsed OK
  const auto parse_rows = [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const RowRef& row = rows[i];
      try {
        parsed[i] = parse_record(parse_fields(*row.text, row.begin, row.end));
      } catch (const std::exception& ex) {
        if (policy == IngestPolicy::kStrict) {
          // Contextualize and rethrow: cancellation keeps the remaining
          // blocks from parsing doomed work, and the lowest failing
          // block's first failure is the overall first bad row — the same
          // error a serial scan reports.
          throw std::invalid_argument(located(row, ex.what()));
        }
        reasons[i] = ex.what();
      }
    }
  };
  if (policy == IngestPolicy::kStrict) {
    const runtime::TaskErrors errs = runtime::parallel_for_collect(
        rows.size(), parse_rows, runtime::CancelPolicy::kCancelAfterError);
    if (!errs.ok()) std::rethrow_exception(errs.errors.front().error);
  } else {
    runtime::parallel_for(rows.size(), parse_rows);
  }

  // The parsed vector itself becomes the batch: failed slots (none
  // under kStrict, which has thrown) are squeezed out in place.
  std::vector<std::size_t> failed;
  std::vector<std::size_t> origin;  // batch position -> source row
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!reasons[i].empty()) failed.push_back(i);
  }
  erase_positions(parsed, failed);
  Database db;
  if (policy == IngestPolicy::kStrict) {
    db.add_batch(std::move(parsed));
    return db;
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (reasons[i].empty()) origin.push_back(i);
  }
  // Lenient dedup: add_batch reports rejected batch positions; map them
  // back to source rows so the quarantine entry carries shard + line.
  for (const BatchReject& rej : db.add_batch(std::move(parsed), policy)) {
    reasons[origin[rej.index]] = rej.reason;
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (reasons[i].empty()) continue;
    const RowRef& row = rows[i];
    report->rows.push_back(
        {*row.name, row.line, reasons[i],
         row.text->substr(row.begin, row.end - row.begin)});
  }
  report->ingested = db.snapshot()->size();
  return db;
}

}  // namespace

const char* to_string(IngestPolicy p) noexcept {
  switch (p) {
    case IngestPolicy::kStrict:
      return "strict";
    case IngestPolicy::kLenient:
      return "lenient";
  }
  return "unknown";
}

std::size_t QuarantinedRow::lines_consumed() const {
  std::size_t lines = 1;
  for (char c : raw) {
    if (c == '\n') ++lines;
  }
  return lines;
}

std::size_t IngestReport::quarantined_lines() const {
  std::size_t total = 0;
  for (const auto& row : rows) total += row.lines_consumed();
  return total;
}

// ---------------------------------------------------------------------------
// CorpusSnapshot

std::map<Category, std::size_t> CorpusSnapshot::count_by_category() const {
  std::map<Category, std::size_t> out;
  for (Category c : kAllCategories) {
    out[c] = hist_.by_category[static_cast<std::size_t>(c)];
  }
  return out;
}

std::map<VulnClass, std::size_t> CorpusSnapshot::count_by_class() const {
  std::map<VulnClass, std::size_t> out;
  for (std::size_t k = 0; k < kVulnClassCount; ++k) {
    if (hist_.by_class[k] != 0) out[static_cast<VulnClass>(k)] = hist_.by_class[k];
  }
  return out;
}

std::map<int, std::size_t> CorpusSnapshot::count_by_year() const {
  return hist_.by_year;
}

std::map<std::string, std::size_t> CorpusSnapshot::count_by_software() const {
  std::map<std::string, std::size_t> out;
  for (std::size_t id = 0; id < hist_.by_software.size(); ++id) {
    if (hist_.by_software[id] != 0) out[names_[id]] = hist_.by_software[id];
  }
  return out;
}

std::string CorpusSnapshot::to_csv() const { return to_csv(0, size_); }

std::string CorpusSnapshot::to_csv(std::size_t begin, std::size_t end) const {
  if (begin > end || end > size_) {
    throw std::out_of_range("bad record range for to_csv");
  }
  const auto recs = records();
  std::string out = std::string(kHeader) + '\n';
  // Per-block row strings concatenate in block order (runtime/parallel.h),
  // so the bytes equal a serial row walk at any thread count.
  out += runtime::parallel_reduce(
      end - begin, std::string{},
      [&](std::size_t b, std::size_t e) {
        std::string part;
        for (std::size_t i = b; i < e; ++i) {
          append_csv_row(part, recs[begin + i]);
        }
        return part;
      },
      [](std::string& acc, std::string&& part) { acc += part; });
  return out;
}

CorpusHistograms rebuild_histograms(const CorpusSnapshot& snap) {
  return fold_columns(snap.categories(), snap.classes(), snap.years(),
                      snap.software_ids(), snap.software_count());
}

// ---------------------------------------------------------------------------
// Database

Database::Database() : cell_(empty_snapshot()) {}

Database::~Database() = default;

Database::Database(const Database& other) : cell_(empty_snapshot()) {
  std::lock_guard<std::mutex> lock{other.writer_mu_};
  cell_.publish(other.cell_.acquire());
  base_index_ = other.base_index_;
  index_ = other.index_;
  base_rows_ = other.base_rows_;
  software_ids_ = other.software_ids_;
  // arena_ stays null: the first write copies-on-write off the shared
  // snapshot, so the source's arena is never appended to through a copy.
}

Database& Database::operator=(const Database& other) {
  if (this == &other) return *this;
  CorpusSnapshotPtr snap;
  detail::IdIndex base;
  std::map<int, std::size_t> index;
  std::size_t base_rows = 0;
  SoftwareIds ids;
  {
    std::lock_guard<std::mutex> lock{other.writer_mu_};
    snap = other.cell_.acquire();
    base = other.base_index_;
    index = other.index_;
    base_rows = other.base_rows_;
    ids = other.software_ids_;
  }
  std::lock_guard<std::mutex> lock{writer_mu_};
  arena_.reset();
  base_index_ = std::move(base);
  index_ = std::move(index);
  base_rows_ = base_rows;
  software_ids_ = std::move(ids);
  cell_.publish(std::move(snap));
  return *this;
}

Database::Database(Database&& other) noexcept
    : cell_(other.cell_.acquire()),
      arena_(std::move(other.arena_)),
      base_index_(std::move(other.base_index_)),
      index_(std::move(other.index_)),
      base_rows_(other.base_rows_),
      software_ids_(std::move(other.software_ids_)) {
  other.cell_.publish(empty_snapshot());
  other.base_index_.clear();
  other.index_.clear();
  other.base_rows_ = 0;
  other.software_ids_.clear();
}

Database& Database::operator=(Database&& other) noexcept {
  if (this == &other) return *this;
  cell_.publish(other.cell_.acquire());
  arena_ = std::move(other.arena_);
  base_index_ = std::move(other.base_index_);
  index_ = std::move(other.index_);
  base_rows_ = other.base_rows_;
  software_ids_ = std::move(other.software_ids_);
  other.cell_.publish(empty_snapshot());
  other.arena_.reset();
  other.base_index_.clear();
  other.index_.clear();
  other.base_rows_ = 0;
  other.software_ids_.clear();
  return *this;
}

std::shared_ptr<CorpusSnapshot> Database::make_snapshot(
    std::shared_ptr<detail::ColumnArena> arena, std::uint64_t epoch,
    std::size_t size, std::size_t software_count, CorpusHistograms hist) {
  auto next = std::make_shared<CorpusSnapshot>();
  const detail::ColumnArena& a = *arena;
  next->epoch_ = epoch;
  next->size_ = size;
  next->software_count_ = software_count;
  next->records_ = a.records.data();
  next->categories_ = a.category_col.data();
  next->classes_ = a.class_col.data();
  next->remote_ = a.remote_col.data();
  next->years_ = a.year_col.data();
  next->software_ = a.software_col.data();
  next->names_ = a.software_names.data();
  next->hist_ = std::move(hist);
  next->arena_ = std::move(arena);
  return next;
}

void Database::ensure_arena_locked(const CorpusSnapshot& cur,
                                   std::size_t need_rows,
                                   std::size_t need_names) {
  if (arena_ != nullptr && arena_->row_capacity() >= need_rows &&
      arena_->software_names.capacity() >= need_names) {
    return;  // capacity-sharing in-place append
  }
  // Copy-on-write growth: copy the published prefix into a fresh arena
  // with geometric headroom. Live snapshots keep the old arena alive;
  // nothing a reader can see moves or changes.
  const std::size_t row_cap = std::max(need_rows, 2 * cur.size());
  const std::size_t name_cap = std::max(need_names, 2 * cur.software_count());
  auto next = std::make_shared<detail::ColumnArena>();
  next->reserve_rows(row_cap);
  next->software_names.reserve(name_cap);
  const auto recs = cur.records();
  next->records.assign(recs.begin(), recs.end());
  const auto cats = cur.categories();
  next->category_col.assign(cats.begin(), cats.end());
  const auto clss = cur.classes();
  next->class_col.assign(clss.begin(), clss.end());
  const auto rem = cur.remote_flags();
  next->remote_col.assign(rem.begin(), rem.end());
  const auto yrs = cur.years();
  next->year_col.assign(yrs.begin(), yrs.end());
  const auto soft = cur.software_ids();
  next->software_col.assign(soft.begin(), soft.end());
  const auto names = cur.software_names();
  next->software_names.assign(names.begin(), names.end());
  arena_ = std::move(next);
}

void Database::rollback_writer_state_locked(const CorpusSnapshot& cur) {
  if (arena_ != nullptr && arena_->records.size() > cur.size()) {
    // Shrinking back to the published size never touches bytes a reader
    // can see: [0, cur.size()) stays in place.
    arena_->records.resize(cur.size());
    arena_->category_col.resize(cur.size());
    arena_->class_col.resize(cur.size());
    arena_->remote_col.resize(cur.size());
    arena_->year_col.resize(cur.size());
    arena_->software_col.resize(cur.size());
  }
  if (arena_ != nullptr &&
      arena_->software_names.size() > cur.software_count()) {
    arena_->software_names.resize(cur.software_count());
  }
  // Rebuild the writer-side maps from the published epoch (rare path:
  // only an allocation failure mid-append lands here). The base index
  // covers the immutable prefix [0, base_rows_) — positions there never
  // move — so only the overlay needs rebuilding.
  index_.clear();
  const auto recs = cur.records();
  for (std::size_t i = base_rows_; i < recs.size(); ++i) {
    if (recs[i].id != 0) index_[recs[i].id] = i;
  }
  software_ids_.clear();
  const auto names = cur.software_names();
  for (std::size_t id = 0; id < names.size(); ++id) {
    software_ids_.try_emplace(names[id], static_cast<std::uint32_t>(id));
  }
}

void Database::append_batch_locked(std::vector<VulnRecord>&& rows) {
  const CorpusSnapshotPtr cur = cell_.acquire();
  const std::size_t old_size = cur->size();
  const std::size_t old_names = cur->software_count();

  // Intern against the writer map first so the exact number of new names
  // is known before any arena capacity is committed.
  std::vector<std::uint32_t> sids(rows.size());
  std::vector<const std::string*> fresh;  // new names, in id order
  std::uint32_t next_id = static_cast<std::uint32_t>(old_names);
  try {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      auto it = software_ids_.find(rows[i].software);
      if (it == software_ids_.end()) {
        it = software_ids_.try_emplace(rows[i].software, next_id++).first;
        fresh.push_back(&it->first);
      }
      sids[i] = it->second;
    }
    const std::size_t new_names = old_names + fresh.size();
    const std::size_t new_size = old_size + rows.size();

    ensure_arena_locked(*cur, new_size, new_names);
    detail::ColumnArena& a = *arena_;
    for (const std::string* name : fresh) a.software_names.push_back(*name);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      VulnRecord& r = rows[i];
      if (r.id != 0) index_[r.id] = old_size + i;
      a.category_col.push_back(r.category);
      a.class_col.push_back(r.vuln_class);
      a.remote_col.push_back(r.remote ? 1 : 0);
      a.year_col.push_back(r.year);
      a.software_col.push_back(sids[i]);
      a.records.push_back(std::move(r));
    }

    // Incremental histogram maintenance: fold ONLY the batch's rows
    // (sharded on the pool) into a copy of the published histograms —
    // rebuild_histograms() is the equivalence oracle for this fold.
    CorpusHistograms delta =
        fold_columns(std::span<const Category>(a.category_col).subspan(old_size),
                     std::span<const VulnClass>(a.class_col).subspan(old_size),
                     std::span<const int>(a.year_col).subspan(old_size),
                     std::span<const std::uint32_t>(a.software_col)
                         .subspan(old_size),
                     new_names);
    CorpusHistograms hist = cur->histograms();
    merge_histograms(hist, delta);

    cell_.publish(make_snapshot(arena_, cur->epoch() + 1, new_size, new_names,
                                std::move(hist)));
  } catch (...) {
    rollback_writer_state_locked(*cur);
    throw;
  }
}

void Database::build_locked(std::vector<VulnRecord>&& rows,
                            detail::IdIndex&& index) {
  const std::size_t n = rows.size();
  auto arena = std::make_shared<detail::ColumnArena>();
  detail::ColumnArena& a = *arena;
  a.records = std::move(rows);
  // Honor a reserve() made before the first rows landed.
  a.reserve_rows(arena_ == nullptr ? n : std::max(n, arena_->row_capacity()));
  a.category_col.resize(n);
  a.class_col.resize(n);
  a.remote_col.resize(n);
  a.year_col.resize(n);
  a.software_col.resize(n);

  // Each block fills its slice of the columns and interns software
  // names locally in first-use order; software_col holds block-local ids
  // until the remap below.
  runtime::ThreadPool& pool = runtime::ThreadPool::global();
  const auto blocks = runtime::static_blocks(n, pool.parallelism());
  std::vector<std::vector<std::string_view>> block_names(blocks.size());
  pool.run_indexed(blocks.size(), [&](std::size_t b) {
    std::unordered_map<std::string_view, std::uint32_t> local;
    std::vector<std::string_view>& names = block_names[b];
    for (std::size_t i = blocks[b].begin; i < blocks[b].end; ++i) {
      const VulnRecord& r = a.records[i];
      a.category_col[i] = r.category;
      a.class_col[i] = r.vuln_class;
      a.remote_col[i] = r.remote ? 1 : 0;
      a.year_col[i] = r.year;
      const auto [it, inserted] = local.try_emplace(
          r.software, static_cast<std::uint32_t>(names.size()));
      if (inserted) names.push_back(r.software);
      a.software_col[i] = it->second;
    }
  });
  // Serial remap in block order: a name's first block, and its first use
  // there, is its first use overall — so global ids come out exactly as
  // serial first-use interning assigns them.
  SoftwareIds ids;
  std::vector<std::vector<std::uint32_t>> remap(blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (const std::string_view name : block_names[b]) {
      auto it = ids.find(name);
      if (it == ids.end()) {
        const auto id = static_cast<std::uint32_t>(a.software_names.size());
        it = ids.try_emplace(std::string(name), id).first;
        a.software_names.push_back(it->first);
      }
      remap[b].push_back(it->second);
    }
  }
  pool.run_indexed(blocks.size(), [&](std::size_t b) {
    for (std::size_t i = blocks[b].begin; i < blocks[b].end; ++i) {
      a.software_col[i] = remap[b][a.software_col[i]];
    }
  });
  publish_bulk_locked(std::move(arena), std::move(index), std::move(ids));
}

void Database::publish_bulk_locked(std::shared_ptr<detail::ColumnArena> arena,
                                   detail::IdIndex&& index, SoftwareIds&& ids) {
  const detail::ColumnArena& a = *arena;
  const std::size_t n = a.records.size();
  const std::size_t names = a.software_names.size();
  CorpusHistograms hist = fold_columns(
      std::span<const Category>(a.category_col),
      std::span<const VulnClass>(a.class_col), std::span<const int>(a.year_col),
      std::span<const std::uint32_t>(a.software_col), names);
  // Everything that can throw happens before the writer state changes.
  auto next = make_snapshot(arena, cell_.acquire()->epoch() + 1, n, names,
                            std::move(hist));
  arena_ = std::move(arena);
  base_index_ = std::move(index);
  base_rows_ = n;
  index_.clear();
  software_ids_ = std::move(ids);
  cell_.publish(std::move(next));
}

const std::size_t* Database::find_id_locked(int id) const {
  const auto it = index_.find(id);
  if (it != index_.end()) return &it->second;
  const auto b = std::lower_bound(
      base_index_.begin(), base_index_.end(), id,
      [](const std::pair<int, std::size_t>& e, int v) { return e.first < v; });
  if (b != base_index_.end() && b->first == id) return &b->second;
  return nullptr;
}

void Database::add(VulnRecord record) {
  std::lock_guard<std::mutex> lock{writer_mu_};
  if (record.id != 0 && find_id_locked(record.id) != nullptr) {
    throw std::invalid_argument(duplicate_id_reason(record.id));
  }
  std::vector<VulnRecord> one;
  one.push_back(std::move(record));
  append_batch_locked(std::move(one));
}

std::vector<BatchReject> Database::add_batch(std::vector<VulnRecord> batch,
                                             IngestPolicy policy) {
  if (batch.empty()) return {};  // true no-op: nothing published
  std::lock_guard<std::mutex> lock{writer_mu_};
  const CorpusSnapshotPtr cur = cell_.acquire();
  const bool bulk = cur->empty() && cur->software_count() == 0;
  // Decide every ID before mutating anything: the repeated positions
  // (each non-zero ID's occurrences after its first, or ones already in
  // the database) in ascending order. A bulk build finds them in the id
  // index it is about to adopt.
  detail::IdIndex index;
  std::vector<std::size_t> dups;
  if (bulk) {
    index = sorted_id_index(batch);
    dups = duplicate_positions(index);
  } else {
    std::unordered_set<int> batch_ids;
    batch_ids.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const int id = batch[i].id;
      if (id != 0 &&
          (find_id_locked(id) != nullptr || !batch_ids.insert(id).second)) {
        dups.push_back(i);
        if (policy == IngestPolicy::kStrict) break;
      }
    }
  }
  std::vector<BatchReject> rejects;
  if (!dups.empty()) {
    // Strict: the lowest repeated position names the ID, nothing lands.
    if (policy == IngestPolicy::kStrict) {
      throw std::invalid_argument(duplicate_id_reason(batch[dups.front()].id));
    }
    // Lenient: the first occurrence of an ID wins.
    rejects.reserve(dups.size());
    for (const std::size_t i : dups) {
      rejects.push_back({i, duplicate_id_reason(batch[i].id)});
    }
    erase_positions(batch, dups);
    // An all-rejected batch is a true no-op: no epoch is published.
    if (batch.empty()) return rejects;
    if (bulk) index = sorted_id_index(batch);
  }
  if (bulk) {
    build_locked(std::move(batch), std::move(index));
  } else {
    append_batch_locked(std::move(batch));
  }
  return rejects;
}

std::optional<VulnRecord> Database::by_id(int id) const {
  std::lock_guard<std::mutex> lock{writer_mu_};
  const std::size_t* pos = find_id_locked(id);
  if (pos == nullptr) return std::nullopt;
  // Index positions never exceed the published size (appends publish
  // before releasing the writer lock, and failed appends roll back).
  return cell_.acquire()->records()[*pos];
}

void Database::reserve(std::size_t capacity) {
  std::lock_guard<std::mutex> lock{writer_mu_};
  const CorpusSnapshotPtr cur = cell_.acquire();
  ensure_arena_locked(*cur, std::max(capacity, cur->size()),
                      cur->software_count());
}

Database Database::from_csv_parts(const std::vector<std::string>& parts,
                                  const std::vector<std::string>& names,
                                  IngestPolicy policy, IngestReport* report) {
  std::vector<std::string> labels = names;
  if (labels.empty()) {
    labels.reserve(parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
      labels.push_back("part " + std::to_string(i));
    }
  } else if (parts.size() != labels.size()) {
    throw std::invalid_argument("from_csv_parts: " + std::to_string(parts.size()) +
                                " parts but " + std::to_string(labels.size()) +
                                " names");
  }
  if (policy == IngestPolicy::kLenient && report == nullptr) {
    throw std::invalid_argument("from_csv_parts: lenient ingest requires a report");
  }
  std::vector<const std::string*> docs;
  docs.reserve(parts.size());
  for (const auto& p : parts) docs.push_back(&p);
  return parse_csv_docs(docs, labels, policy, report);
}

Database Database::from_columns(BulkColumns&& columns) {
  const std::size_t n = columns.records.size();
  if (columns.categories.size() != n || columns.classes.size() != n ||
      columns.remote.size() != n || columns.years.size() != n ||
      columns.software.size() != n) {
    throw std::invalid_argument("from_columns: ragged column lengths");
  }
  const std::size_t name_count = columns.software_names.size();
  for (const std::uint32_t sid : columns.software) {
    if (sid >= name_count) {
      throw std::invalid_argument("from_columns: software id " +
                                  std::to_string(sid) + " out of range (" +
                                  std::to_string(name_count) + " names)");
    }
  }

  auto arena = std::make_shared<detail::ColumnArena>();
  arena->records = std::move(columns.records);
  arena->category_col = std::move(columns.categories);
  arena->class_col = std::move(columns.classes);
  arena->remote_col = std::move(columns.remote);
  arena->year_col = std::move(columns.years);
  arena->software_col = std::move(columns.software);
  arena->software_names = std::move(columns.software_names);
  const detail::ColumnArena& a = *arena;

  SoftwareIds ids;
  for (std::size_t id = 0; id < a.software_names.size(); ++id) {
    if (!ids.try_emplace(a.software_names[id], static_cast<std::uint32_t>(id))
             .second) {
      throw std::invalid_argument("from_columns: duplicate software name '" +
                                  a.software_names[id] + "'");
    }
  }
  detail::IdIndex index = sorted_id_index(a.records);
  if (const auto dups = duplicate_positions(index); !dups.empty()) {
    throw std::invalid_argument(
        duplicate_id_reason(a.records[dups.front()].id));
  }
  Database db;
  {
    std::lock_guard<std::mutex> lock{db.writer_mu_};
    db.publish_bulk_locked(std::move(arena), std::move(index), std::move(ids));
  }
  return db;
}

void Database::merge(const Database& other) {
  const CorpusSnapshotPtr snap = other.snapshot();
  const auto recs = snap->records();
  add_batch(std::vector<VulnRecord>(recs.begin(), recs.end()));
}

}  // namespace dfsm::bugtraq
