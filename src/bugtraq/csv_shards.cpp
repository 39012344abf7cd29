#include "bugtraq/csv_shards.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "runtime/parallel.h"

namespace dfsm::bugtraq {

std::string shard_path(const std::string& base, std::size_t index,
                       std::size_t count) {
  char suffix[32];
  std::snprintf(suffix, sizeof suffix, "-%05zu-of-%05zu.csv", index, count);
  return base + suffix;
}

std::vector<std::string> shard_paths(const std::string& base, std::size_t count) {
  std::vector<std::string> paths;
  paths.reserve(count);
  for (std::size_t i = 0; i < count; ++i) paths.push_back(shard_path(base, i, count));
  return paths;
}

std::vector<std::string> write_csv_shards(const CorpusSnapshot& snap,
                                          const std::string& base,
                                          std::size_t shards) {
  if (shards == 0) shards = 1;
  // The record ranges are the static partition of (size, shards): at most
  // `shards` non-empty blocks, padded with empty tail ranges so exactly
  // `shards` files always exist.
  auto blocks = runtime::static_blocks(snap.size(), shards);
  while (blocks.size() < shards) blocks.push_back({snap.size(), snap.size()});
  // Shard bodies serialize concurrently (each one a contiguous range);
  // their contents depend only on the partition, not the thread count.
  const auto bodies = runtime::parallel_map<std::string>(
      shards, [&](std::size_t i) { return snap.to_csv(blocks[i].begin, blocks[i].end); });
  const auto paths = shard_paths(base, shards);
  for (std::size_t i = 0; i < shards; ++i) {
    std::ofstream out{paths[i], std::ios::binary | std::ios::trunc};
    if (!out || !(out << bodies[i]) || !out.flush()) {
      throw std::runtime_error("cannot write corpus shard: " + paths[i]);
    }
  }
  return paths;
}

namespace {

/// One shard's read attempt loop: up to max_attempts opens with bounded
/// exponential backoff between them. Never throws — the caller decides
/// whether a persistent failure throws (strict) or quarantines (lenient).
struct ReadOutcome {
  bool ok = false;
  std::string text;
  std::size_t attempts = 0;
  std::string reason;
};

ReadOutcome read_shard(const std::string& path, const IngestOptions& opt) {
  const std::size_t max_attempts = opt.max_attempts == 0 ? 1 : opt.max_attempts;
  ReadOutcome out;
  for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    out.attempts = attempt;
    if (attempt > 1 && opt.backoff_base_ms != 0) {
      // Retry k (1-based) waits min(base << (k-1), cap) milliseconds.
      const std::size_t shift = attempt - 2;
      std::size_t delay = shift < 32 ? opt.backoff_base_ms << shift
                                     : opt.backoff_cap_ms;
      if (delay > opt.backoff_cap_ms) delay = opt.backoff_cap_ms;
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    if (opt.fault_hook && opt.fault_hook(path, attempt)) {
      out.reason = "cannot read corpus shard (injected fault)";
      continue;
    }
    std::ifstream in{path, std::ios::binary};
    if (!in) {
      out.reason = "cannot open corpus shard";
      continue;
    }
    std::string text{std::istreambuf_iterator<char>{in},
                     std::istreambuf_iterator<char>{}};
    if (in.bad()) {
      out.reason = "read error on corpus shard";
      continue;
    }
    out.ok = true;
    out.text = std::move(text);
    return out;
  }
  return out;
}

}  // namespace

Database read_csv_shards(const std::vector<std::string>& paths) {
  return read_csv_shards(paths, IngestOptions{}).db;
}

ShardIngestResult read_csv_shards(const std::vector<std::string>& paths,
                                  const IngestOptions& options) {
  ShardIngestResult result;
  std::vector<std::string> parts;
  std::vector<std::string> names;
  parts.reserve(paths.size());
  names.reserve(paths.size());
  std::vector<QuarantinedShard> unreadable;  // path-traversal order
  for (const auto& path : paths) {
    ReadOutcome got = read_shard(path, options);
    result.report.retries += got.attempts - 1;
    if (!got.ok) {
      if (options.policy == IngestPolicy::kStrict) {
        throw std::runtime_error(got.reason + ": " + path + " (after " +
                                 std::to_string(got.attempts) + " attempts)");
      }
      unreadable.push_back({path, got.reason, got.attempts, 0});
      continue;
    }
    parts.push_back(std::move(got.text));
    names.push_back(path);
  }
  if (options.policy == IngestPolicy::kStrict) {
    result.db = Database::from_csv_parts(parts, names, options.policy);
    result.report.ingested = result.db.snapshot()->size();
    return result;
  }
  IngestReport parse_report;
  result.db =
      Database::from_csv_parts(parts, names, options.policy, &parse_report);
  result.report.ingested = parse_report.ingested;
  result.report.rows = std::move(parse_report.rows);
  // Interleave unreadable-shard and bad-header quarantines back into the
  // order the paths were given (each list is already a subsequence of it).
  std::size_t io_i = 0;
  std::size_t hdr_i = 0;
  for (const auto& path : paths) {
    if (io_i < unreadable.size() && unreadable[io_i].shard == path) {
      result.report.shards.push_back(std::move(unreadable[io_i++]));
    } else if (hdr_i < parse_report.shards.size() &&
               parse_report.shards[hdr_i].shard == path) {
      result.report.shards.push_back(std::move(parse_report.shards[hdr_i++]));
    }
  }
  return result;
}

}  // namespace dfsm::bugtraq
