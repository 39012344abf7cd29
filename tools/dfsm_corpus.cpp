// dfsm_corpus — the corpus service's disk-format workbench: generate a
// synthetic corpus in CSV and/or binary columnar snapshot (colsnap)
// form, convert between the two formats, emit deterministic JSON
// statistics, verify a shard set end to end (round trips plus a serial
// vs. parallel reload), and (for negative tests) corrupt a snapshot in a
// controlled way.
//
//   dfsm_corpus gen --n 100000 --seed 42 --out /tmp/c --shards 8 --format both
//   dfsm_corpus stats --in /tmp/c.colsnap --threads 4 --out stats.json
//   dfsm_corpus convert --in /tmp/c.csv --out /tmp/c2
//   dfsm_corpus verify --in /tmp/c.csv --threads 4
//   dfsm_corpus corrupt --in /tmp/c.colsnap --shard 1 --mode checksum
//
// `--in` names the shard base plus format extension ("<base>.csv" or
// "<base>.colsnap"); the shard count is discovered from the
// "<base>-00000-of-NNNNN.<ext>" file. Stats JSON is a pure function of
// corpus contents — same bytes at any DFSM_THREADS and from either
// format — which is what the CI corpus-snapshot job byte-compares. A
// refused load (checksum mismatch, torn publish, malformed CSV) prints
// the loader's "<file>:<column>: <reason>" and exits 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bugtraq/colsnap.h"
#include "bugtraq/corpus.h"
#include "bugtraq/csv_shards.h"
#include "bugtraq/database.h"
#include "bugtraq/stats.h"
#include "runtime/thread_pool.h"

namespace {

using namespace dfsm;
namespace fs = std::filesystem;

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <command> [options]\n"
      "commands:\n"
      "  gen      --out BASE [--n N] [--seed S] [--shards K]\n"
      "           [--format csv|colsnap|both] [--quiet]\n"
      "  convert  --in BASE.EXT --out BASE2 [--shards K] [--to csv|colsnap]\n"
      "  stats    --in BASE.EXT [--out FILE] [--threads T]\n"
      "  verify   --in BASE.EXT [--threads T]\n"
      "  corrupt  --in BASE.EXT [--shard I] [--column NAME]\n"
      "           [--mode checksum|truncate|epoch]\n"
      "EXT selects the format: .csv or .colsnap. The shard count is\n"
      "discovered from the '<base>-00000-of-NNNNN.EXT' file.\n",
      argv0);
}

[[noreturn]] void die_usage(const std::string& msg, const char* argv0) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  usage(argv0);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
  if (end == s.c_str() || *end != '\0') {
    std::fprintf(stderr, "error: bad number '%s'\n", s.c_str());
    std::exit(2);
  }
  return v;
}

/// Minimal flag parser: --key value pairs after the subcommand.
std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int begin) {
  std::map<std::string, std::string> flags;
  for (int i = begin; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) die_usage("unexpected argument '" + arg + "'", argv[0]);
    const std::string key = arg.substr(2);
    if (key == "quiet") {
      flags[key] = "1";
      continue;
    }
    if (i + 1 >= argc) die_usage("--" + key + " needs a value", argv[0]);
    flags[key] = argv[++i];
  }
  return flags;
}

std::string take(std::map<std::string, std::string>& flags,
                 const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  std::string v = it->second;
  flags.erase(it);
  return v;
}

void reject_unknown(const std::map<std::string, std::string>& flags,
                    const char* argv0) {
  if (!flags.empty()) die_usage("unknown flag '--" + flags.begin()->first + "'", argv0);
}

enum class Format { kCsv, kColsnap };

/// Splits "<base>.csv" / "<base>.colsnap" into (base, format).
std::pair<std::string, Format> split_input(const std::string& in,
                                           const char* argv0) {
  const auto dot = in.rfind('.');
  const std::string ext = dot == std::string::npos ? "" : in.substr(dot + 1);
  if (ext == "csv") return {in.substr(0, dot), Format::kCsv};
  if (ext == "colsnap") return {in.substr(0, dot), Format::kColsnap};
  die_usage("--in must end in .csv or .colsnap, got '" + in + "'", argv0);
}

/// Discovers the shard count from the first shard's "-of-NNNNN" suffix.
std::vector<std::string> discover_shards(const std::string& base, Format fmt) {
  const char* ext = fmt == Format::kCsv ? "csv" : "colsnap";
  // Probe "<base>-00000-of-<k>.<ext>" for the k that exists on disk by
  // scanning the base's directory for the marker prefix.
  const fs::path base_path{base};
  const fs::path dir =
      base_path.has_parent_path() ? base_path.parent_path() : fs::path{"."};
  const std::string prefix = base_path.filename().string() + "-00000-of-";
  const std::string suffix = std::string{"."} + ext;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator{dir, ec}) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0 || name.size() <= prefix.size() + suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    char* end = nullptr;
    const unsigned long long count = std::strtoull(digits.c_str(), &end, 10);
    if (end == digits.c_str() || *end != '\0' || count == 0) continue;
    return fmt == Format::kCsv
               ? bugtraq::shard_paths(base, static_cast<std::size_t>(count))
               : bugtraq::colsnap_shard_paths(base,
                                              static_cast<std::size_t>(count));
  }
  std::fprintf(stderr, "error: no shard files found for '%s' (.%s)\n",
               base.c_str(), ext);
  std::exit(1);
}

bugtraq::Database load(const std::string& base, Format fmt) {
  const auto paths = discover_shards(base, fmt);
  return fmt == Format::kCsv ? bugtraq::read_csv_shards(paths)
                             : bugtraq::read_colsnap_shards(paths);
}

void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Deterministic stats JSON: map iteration order is sorted, every count
/// is exact, and nothing here depends on the thread pool or the source
/// format — the property the CI job byte-compares.
std::string stats_json(const bugtraq::CorpusSnapshot& snap) {
  std::string out = "{\n";
  out += "  \"records\": " + std::to_string(snap.size()) + ",\n";
  out += "  \"software_packages\": " + std::to_string(snap.software_count()) +
         ",\n";
  const auto object = [&out](const char* name, const auto& counts,
                             auto&& key_of, bool last = false) {
    out += std::string{"  \""} + name + "\": {";
    bool first = true;
    for (const auto& [key, n] : counts) {
      if (!first) out += ",";
      first = false;
      out += "\n    \"";
      append_json_escaped(out, key_of(key));
      out += "\": " + std::to_string(n);
    }
    out += first ? "},\n" : "\n  },\n";
    if (last) {
      out.erase(out.size() - 2, 1);  // drop the trailing comma
    }
  };
  object("by_category", snap.count_by_category(),
         [](bugtraq::Category c) { return std::string{to_string(c)}; });
  object("by_class", snap.count_by_class(),
         [](bugtraq::VulnClass c) { return std::string{to_string(c)}; });
  object("by_year", snap.count_by_year(),
         [](int year) { return std::to_string(year); });
  object("by_software", snap.count_by_software(),
         [](const std::string& name) { return name; }, /*last=*/true);
  out += "}\n";
  return out;
}

void pin_threads(const std::string& threads) {
  if (threads.empty()) return;
  runtime::ThreadPool::set_global_threads(
      static_cast<std::size_t>(parse_u64(threads)));
}

int cmd_gen(std::map<std::string, std::string> flags, const char* argv0) {
  const std::string out = take(flags, "out", "");
  const std::size_t n =
      static_cast<std::size_t>(parse_u64(take(flags, "n", "100000")));
  const std::uint64_t seed = parse_u64(take(flags, "seed", "42"));
  const std::size_t shards =
      static_cast<std::size_t>(parse_u64(take(flags, "shards", "8")));
  const std::string format = take(flags, "format", "both");
  const bool quiet = !take(flags, "quiet", "").empty();
  reject_unknown(flags, argv0);
  if (out.empty()) die_usage("gen needs --out BASE", argv0);
  if (format != "csv" && format != "colsnap" && format != "both") {
    die_usage("--format must be csv, colsnap, or both", argv0);
  }

  const auto snap = bugtraq::synthetic_corpus_n(n, seed).snapshot();
  std::size_t files = 0;
  if (format != "colsnap") files += bugtraq::write_csv_shards(*snap, out, shards).size();
  if (format != "csv") files += bugtraq::write_colsnap_shards(*snap, out, shards).size();
  if (!quiet) {
    std::printf("wrote %zu records as %zu %s shard files under %s\n", snap->size(),
                files, format.c_str(), out.c_str());
  }
  return 0;
}

int cmd_convert(std::map<std::string, std::string> flags, const char* argv0) {
  const std::string in = take(flags, "in", "");
  const std::string out = take(flags, "out", "");
  const std::string shards_flag = take(flags, "shards", "");
  const std::string to = take(flags, "to", "");
  reject_unknown(flags, argv0);
  if (in.empty() || out.empty()) die_usage("convert needs --in and --out", argv0);

  const auto [base, fmt] = split_input(in, argv0);
  const auto in_paths = discover_shards(base, fmt);
  const std::size_t shards =
      shards_flag.empty() ? in_paths.size()
                          : static_cast<std::size_t>(parse_u64(shards_flag));
  Format target = fmt == Format::kCsv ? Format::kColsnap : Format::kCsv;
  if (to == "csv") target = Format::kCsv;
  else if (to == "colsnap") target = Format::kColsnap;
  else if (!to.empty()) die_usage("--to must be csv or colsnap", argv0);

  const auto snap = (fmt == Format::kCsv ? bugtraq::read_csv_shards(in_paths)
                                         : bugtraq::read_colsnap_shards(in_paths))
                        .snapshot();
  const auto out_paths = target == Format::kCsv
                             ? bugtraq::write_csv_shards(*snap, out, shards)
                             : bugtraq::write_colsnap_shards(*snap, out, shards);
  std::printf("converted %zu records: %zu %s shards -> %zu %s shards\n",
              snap->size(), in_paths.size(),
              fmt == Format::kCsv ? "csv" : "colsnap", out_paths.size(),
              target == Format::kCsv ? "csv" : "colsnap");
  return 0;
}

int cmd_stats(std::map<std::string, std::string> flags, const char* argv0) {
  const std::string in = take(flags, "in", "");
  const std::string out = take(flags, "out", "");
  pin_threads(take(flags, "threads", ""));
  reject_unknown(flags, argv0);
  if (in.empty()) die_usage("stats needs --in", argv0);

  const auto [base, fmt] = split_input(in, argv0);
  const auto json = stats_json(*load(base, fmt).snapshot());
  if (out.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::ofstream f{out, std::ios::binary | std::ios::trunc};
    if (!f) {
      std::fprintf(stderr, "error: cannot write '%s'\n", out.c_str());
      return 1;
    }
    f << json;
  }
  return 0;
}

int cmd_verify(std::map<std::string, std::string> flags, const char* argv0) {
  const std::string in = take(flags, "in", "");
  pin_threads(take(flags, "threads", ""));
  reject_unknown(flags, argv0);
  if (in.empty()) die_usage("verify needs --in", argv0);

  const auto [base, fmt] = split_input(in, argv0);
  const auto snap = load(base, fmt).snapshot();

  // The carried histograms must equal a full columnar rebuild...
  if (bugtraq::rebuild_histograms(*snap) != snap->histograms()) {
    std::fprintf(stderr, "FAIL: carried histograms != full rebuild\n");
    return 1;
  }
  // ...and the corpus must round-trip through BOTH formats in memory.
  const auto expected = snap->to_csv();
  const auto bodies = bugtraq::encode_colsnap_shards(*snap, 4);
  const std::vector<std::string> labels(bodies.size(), "<memory>");
  if (bugtraq::decode_colsnap_shards(bodies, labels).snapshot()->to_csv() !=
      expected) {
    std::fprintf(stderr, "FAIL: colsnap round-trip changed the corpus\n");
    return 1;
  }
  if (bugtraq::Database::from_csv_parts({expected}).snapshot()->to_csv() !=
      expected) {
    std::fprintf(stderr, "FAIL: csv round-trip changed the corpus\n");
    return 1;
  }
  // ...and a reload with the pool pinned to one worker must equal the
  // load at the configured pool size.
  runtime::ThreadPool::set_global_threads(1);
  if (load(base, fmt).snapshot()->to_csv() != expected) {
    std::fprintf(stderr, "FAIL: serial reload differs from the parallel load\n");
    return 1;
  }
  std::printf(
      "ok: %zu records, histograms exact, csv and colsnap round-trips and "
      "serial reload byte-identical\n",
      snap->size());
  return 0;
}

int cmd_corrupt(std::map<std::string, std::string> flags, const char* argv0) {
  const std::string in = take(flags, "in", "");
  const std::size_t shard =
      static_cast<std::size_t>(parse_u64(take(flags, "shard", "0")));
  const std::string column = take(flags, "column", "year");
  const std::string mode = take(flags, "mode", "checksum");
  reject_unknown(flags, argv0);
  if (in.empty()) die_usage("corrupt needs --in", argv0);
  const auto [base, fmt] = split_input(in, argv0);
  if (fmt != Format::kColsnap) die_usage("corrupt only edits .colsnap inputs", argv0);

  const auto paths = discover_shards(base, Format::kColsnap);
  if (shard >= paths.size()) {
    std::fprintf(stderr, "error: shard %zu out of range (%zu shards)\n", shard,
                 paths.size());
    return 2;
  }
  // Refuse, leaving the file untouched, anything too short to carry a
  // header: every mode below edits bytes at header or block offsets.
  std::ifstream inf{paths[shard], std::ios::binary};
  std::string bytes{std::istreambuf_iterator<char>{inf},
                    std::istreambuf_iterator<char>{}};
  if (!inf.is_open() || inf.bad()) {
    std::fprintf(stderr, "error: cannot read %s\n", paths[shard].c_str());
    return 2;
  }
  inf.close();
  if (bytes.size() < bugtraq::kColsnapHeaderSize) {
    std::fprintf(stderr, "error: %s is %zu bytes, shorter than the %zu-byte header\n",
                 paths[shard].c_str(), bytes.size(), bugtraq::kColsnapHeaderSize);
    return 2;
  }

  if (mode == "epoch") {
    bytes[bugtraq::colsnap_epoch_offset()] = static_cast<char>(
        bytes[bugtraq::colsnap_epoch_offset()] + 1);
  } else {
    const auto refs = bugtraq::colsnap_block_refs(bytes);
    const bugtraq::ColsnapBlockRef* target = nullptr;
    for (const auto& r : refs) {
      if (r.name == column) target = &r;
    }
    if (target == nullptr || target->payload_len == 0) {
      std::fprintf(stderr, "error: no non-empty column '%s' in %s\n",
                   column.c_str(), paths[shard].c_str());
      return 2;
    }
    if (mode == "checksum") {
      bytes[target->payload_offset + target->payload_len / 2] ^= 0x40;
    } else if (mode == "truncate") {
      bytes.resize(target->payload_offset + target->payload_len / 2);
    } else {
      die_usage("--mode must be checksum, truncate, or epoch", argv0);
    }
  }

  std::ofstream outf{paths[shard], std::ios::binary | std::ios::trunc};
  outf << bytes;
  std::printf("corrupted %s (%s, column %s)\n", paths[shard].c_str(),
              mode.c_str(), mode == "epoch" ? "header" : column.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    usage(argv[0]);
    return 0;
  }
  auto flags = parse_flags(argc, argv, 2);
  try {
    if (cmd == "gen") return cmd_gen(std::move(flags), argv[0]);
    if (cmd == "convert") return cmd_convert(std::move(flags), argv[0]);
    if (cmd == "stats") return cmd_stats(std::move(flags), argv[0]);
    if (cmd == "verify") return cmd_verify(std::move(flags), argv[0]);
    if (cmd == "corrupt") return cmd_corrupt(std::move(flags), argv[0]);
  } catch (const std::exception& ex) {
    // Loader refusals ("<file>:<column>: <reason>") and I/O errors.
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
  die_usage("unknown command '" + cmd + "'", argv[0]);
}
