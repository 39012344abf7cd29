#include "faultinject/corpus_faults.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dfsm::faultinject {

namespace {

/// Splits file contents on '\n' (the trailing newline, if any, yields no
/// empty tail element). Mutators work line-wise: synthetic corpus rows
/// are single-line by construction (no embedded newlines).
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\n') continue;
    lines.push_back(text.substr(start, i - start));
    start = i + 1;
  }
  if (start < text.size()) lines.push_back(text.substr(start));
  return lines;
}

/// Joins lines back into file contents. `terminate_last` controls the
/// final newline — a torn write leaves none.
std::string join_lines(const std::vector<std::string>& lines,
                       bool terminate_last = true) {
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out += lines[i];
    if (i + 1 < lines.size() || terminate_last) out += '\n';
  }
  return out;
}

/// Byte offsets of the row's field separators (commas outside quotes).
std::vector<std::size_t> comma_offsets(const std::string& row) {
  std::vector<std::size_t> offsets;
  bool in_quotes = false;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i] == '"') in_quotes = !in_quotes;
    else if (row[i] == ',' && !in_quotes) offsets.push_back(i);
  }
  return offsets;
}

/// 0-based line index of a shard's first generated data row. The rows
/// are always the shard's LAST data_rows lines: the header mutators add
/// or remove lines only above them, and no mutator adds or removes a
/// line below them.
std::size_t first_data_line(const std::vector<std::string>& lines,
                            std::size_t data_rows) {
  return lines.size() - data_rows;
}

/// Index of a shard with at least one data row. The campaign always
/// generates more records than shards, so one exists.
std::size_t pick_data_shard(const ShardSet& shards, Rng& rng) {
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < shards.paths.size(); ++i) {
    if (shards.data_rows[i] > 0) candidates.push_back(i);
  }
  if (candidates.empty()) {
    throw std::invalid_argument("corpus fault needs a shard with data rows");
  }
  return candidates[rng.below(candidates.size())];
}

CorpusMutation truncate_tail(ShardSet& shards, Rng& rng) {
  const std::size_t s = pick_data_shard(shards, rng);
  auto lines = split_lines(shards.contents[s]);
  std::string& last = lines.back();
  const auto commas = comma_offsets(last);
  // Cut strictly before the 9th separator so at most 9 fields survive —
  // the truncated row can never still parse as a valid 10-field record
  // (a cut inside the final integer field would).
  const std::size_t limit = commas.size() >= 9 ? commas[8] : last.size() - 1;
  const std::size_t keep = 1 + rng.below(limit);
  last.resize(keep);
  shards.contents[s] = join_lines(lines, /*terminate_last=*/false);
  CorpusMutation m;
  m.fault = CorpusFault::kTruncateTail;
  m.shard = shards.paths[s];
  m.line = lines.size();
  m.detail = "truncated the last row to " + std::to_string(keep) + " bytes";
  m.expect_strict_throw = true;
  return m;
}

CorpusMutation mangle_quoting(ShardSet& shards, Rng& rng) {
  const std::size_t s = pick_data_shard(shards, rng);
  auto lines = split_lines(shards.contents[s]);
  const std::size_t row = first_data_line(lines, shards.data_rows[s]) +
                          rng.below(shards.data_rows[s]);
  std::string& text = lines[row];
  const auto commas = comma_offsets(text);
  // Insert at or before the 9th separator: the unterminated quote then
  // swallows at least one separator, so the merged span cannot reach 10
  // fields and parsing fails deterministically.
  const std::size_t pos =
      rng.below((commas.size() >= 9 ? commas[8] : text.size()) + 1);
  text.insert(pos, 1, '"');
  shards.contents[s] = join_lines(lines);
  CorpusMutation m;
  m.fault = CorpusFault::kMangleQuoting;
  m.shard = shards.paths[s];
  m.line = row + 1;
  m.detail = "inserted a stray '\"' at byte " + std::to_string(pos);
  m.expect_strict_throw = true;
  return m;
}

CorpusMutation corrupt_field(ShardSet& shards, Rng& rng) {
  const std::size_t s = pick_data_shard(shards, rng);
  auto lines = split_lines(shards.contents[s]);
  const std::size_t row = first_data_line(lines, shards.data_rows[s]) +
                          rng.below(shards.data_rows[s]);
  lines[row].insert(0, 1, 'x');  // id field becomes non-numeric
  shards.contents[s] = join_lines(lines);
  CorpusMutation m;
  m.fault = CorpusFault::kCorruptField;
  m.shard = shards.paths[s];
  m.line = row + 1;
  m.detail = "made the row's id field non-numeric";
  m.expect_strict_throw = true;
  return m;
}

CorpusMutation missing_header(ShardSet& shards, Rng& rng) {
  const std::size_t s = rng.below(shards.paths.size());
  auto lines = split_lines(shards.contents[s]);
  // Delete every line above the rows, not just line 0: after a
  // duplicate-header fault the second header copy would otherwise
  // become a valid header. Lines beyond the header were injected data-
  // line candidates, so their count is given back.
  const std::size_t above = first_data_line(lines, shards.data_rows[s]);
  lines.erase(lines.begin(),
              lines.begin() + static_cast<std::ptrdiff_t>(above));
  shards.contents[s] = join_lines(lines);
  CorpusMutation m;
  m.fault = CorpusFault::kMissingHeader;
  m.shard = shards.paths[s];
  m.line = 1;
  m.detail = "deleted the header line";
  m.injected_lines = above > 1 ? -static_cast<long long>(above - 1) : 0;
  m.expect_strict_throw = true;
  return m;
}

CorpusMutation duplicate_header(ShardSet& shards, Rng& rng) {
  const std::size_t s = rng.below(shards.paths.size());
  auto lines = split_lines(shards.contents[s]);
  if (lines.empty()) {  // a header-only shard that lost its header
    throw std::invalid_argument(
        "duplicate-header fault needs a non-empty shard");
  }
  lines.insert(lines.begin() + 1, lines.front());
  shards.contents[s] = join_lines(lines);
  CorpusMutation m;
  m.fault = CorpusFault::kDuplicateHeader;
  m.shard = shards.paths[s];
  m.line = 2;
  m.detail = "repeated the header as a data row";
  m.injected_lines = 1;  // the extra header line is a data-line candidate
  m.expect_strict_throw = true;
  return m;
}

CorpusMutation drop_shard(ShardSet& shards, Rng& rng) {
  const std::size_t s = rng.below(shards.paths.size());
  CorpusMutation m;
  m.fault = CorpusFault::kDropShard;
  m.shard = shards.paths[s];
  m.detail = "removed the shard from the read list (" +
             std::to_string(shards.data_rows[s]) + " rows unreachable)";
  m.lost_shards.push_back(shards.paths[s]);
  shards.paths.erase(shards.paths.begin() + static_cast<std::ptrdiff_t>(s));
  shards.contents.erase(shards.contents.begin() +
                        static_cast<std::ptrdiff_t>(s));
  shards.data_rows.erase(shards.data_rows.begin() +
                         static_cast<std::ptrdiff_t>(s));
  return m;
}

CorpusMutation reorder_shards(ShardSet& shards, Rng& rng) {
  const std::size_t n = shards.paths.size();
  if (n < 2) {
    throw std::invalid_argument("reorder fault needs at least two shards");
  }
  const std::size_t k = 1 + rng.below(n - 1);
  std::rotate(shards.paths.begin(),
              shards.paths.begin() + static_cast<std::ptrdiff_t>(k),
              shards.paths.end());
  std::rotate(shards.contents.begin(),
              shards.contents.begin() + static_cast<std::ptrdiff_t>(k),
              shards.contents.end());
  std::rotate(shards.data_rows.begin(),
              shards.data_rows.begin() + static_cast<std::ptrdiff_t>(k),
              shards.data_rows.end());
  CorpusMutation m;
  m.fault = CorpusFault::kReorderShards;
  m.detail = "rotated the shard read order by " + std::to_string(k);
  return m;
}

CorpusMutation transient_io(ShardSet& shards, Rng& rng,
                            std::size_t max_attempts) {
  const std::size_t s = rng.below(shards.paths.size());
  CorpusMutation m;
  m.fault = CorpusFault::kTransientIo;
  m.shard = shards.paths[s];
  m.fail_attempts = 1 + rng.below(max_attempts - 1);  // < max: recovers
  m.detail = "reads fail " + std::to_string(m.fail_attempts) +
             " time(s), then recover";
  return m;
}

CorpusMutation unreadable_shard(ShardSet& shards, Rng& rng,
                                std::size_t max_attempts) {
  const std::size_t s = rng.below(shards.paths.size());
  CorpusMutation m;
  m.fault = CorpusFault::kUnreadableShard;
  m.shard = shards.paths[s];
  m.fail_attempts = max_attempts;  // every attempt fails
  m.detail = "reads fail on all " + std::to_string(max_attempts) +
             " attempts (" + std::to_string(shards.data_rows[s]) +
             " rows unreachable)";
  m.lost_shards.push_back(shards.paths[s]);
  m.expect_strict_throw = true;
  return m;
}

}  // namespace

const char* to_string(CorpusFault f) noexcept {
  switch (f) {
    case CorpusFault::kTruncateTail: return "truncate-tail";
    case CorpusFault::kMangleQuoting: return "mangle-quoting";
    case CorpusFault::kCorruptField: return "corrupt-field";
    case CorpusFault::kMissingHeader: return "missing-header";
    case CorpusFault::kDuplicateHeader: return "duplicate-header";
    case CorpusFault::kDropShard: return "drop-shard";
    case CorpusFault::kReorderShards: return "reorder-shards";
    case CorpusFault::kTransientIo: return "transient-io";
    case CorpusFault::kUnreadableShard: return "unreadable-shard";
  }
  return "unknown";
}

std::size_t ShardSet::total_rows() const {
  std::size_t total = 0;
  for (std::size_t rows : data_rows) total += rows;
  return total;
}

CorpusMutation apply_corpus_fault(CorpusFault fault, ShardSet& shards,
                                  Rng& rng, std::size_t max_attempts) {
  if (shards.paths.empty()) {
    throw std::invalid_argument("corpus fault needs a non-empty shard set");
  }
  if (max_attempts < 2) {
    throw std::invalid_argument("corpus faults need max_attempts >= 2");
  }
  switch (fault) {
    case CorpusFault::kTruncateTail: return truncate_tail(shards, rng);
    case CorpusFault::kMangleQuoting: return mangle_quoting(shards, rng);
    case CorpusFault::kCorruptField: return corrupt_field(shards, rng);
    case CorpusFault::kMissingHeader: return missing_header(shards, rng);
    case CorpusFault::kDuplicateHeader: return duplicate_header(shards, rng);
    case CorpusFault::kDropShard: return drop_shard(shards, rng);
    case CorpusFault::kReorderShards: return reorder_shards(shards, rng);
    case CorpusFault::kTransientIo:
      return transient_io(shards, rng, max_attempts);
    case CorpusFault::kUnreadableShard:
      return unreadable_shard(shards, rng, max_attempts);
  }
  throw std::invalid_argument("unknown corpus fault");
}

}  // namespace dfsm::faultinject
