#include "bugtraq/colsnap.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/fingerprint.h"
#include "runtime/parallel.h"

namespace dfsm::bugtraq {

namespace {

constexpr char kMagic[8] = {'D', 'F', 'S', 'M', 'C', 'S', 'N', 'P'};

/// The fixed column order. The loader requires exactly this sequence,
/// which pins the byte layout and lets every defect be attributed to a
/// named column.
constexpr const char* kColumns[] = {
    "software_table", "id",        "year",
    "remote",         "category",  "class",
    "software",       "reference_activity",
    "title",          "description", "activities",
};
constexpr std::size_t kColumnCount = sizeof(kColumns) / sizeof(kColumns[0]);

constexpr std::size_t kActivityCodeCount =
    static_cast<std::size_t>(ElementaryActivity::kFreeBuffer) + 1;

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int k = 0; k < 8; ++k) {
    out.push_back(static_cast<char>((v >> (8 * k)) & 0xFF));
  }
}

void put_i32(std::string& out, int v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

std::uint64_t checksum_of(std::string_view payload) {
  // Striped FNV-1a: column payloads run to tens of MB at 10^6 records,
  // and the single-chain mix() would serialize one multiply per byte —
  // the checksum, not the parse, would dominate reload.
  core::Fingerprinter f;
  f.mix_striped(payload);
  return f.digest();
}

void append_block(std::string& out, std::string_view name,
                  const std::string& payload) {
  put_u32(out, static_cast<std::uint32_t>(name.size()));
  out.append(name);
  put_u64(out, payload.size());
  put_u64(out, checksum_of(payload));
  out.append(payload);
}

/// Bounds-checked little-endian reader over one shard's bytes. Every
/// failure throws "<file>:<column>: <reason>" — `column` is whatever
/// the caller says is being decoded ("header", a column name, or
/// "trailer").
struct Cursor {
  const std::string& bytes;
  const std::string& file;
  std::size_t pos = 0;
  std::string column = "header";

  [[noreturn]] void fail(const std::string& reason) const {
    throw std::invalid_argument(file + ":" + column + ": " + reason);
  }

  [[nodiscard]] std::size_t remaining() const { return bytes.size() - pos; }

  void need(std::size_t n, const char* what) {
    if (remaining() < n) {
      fail(std::string("truncated ") + what + " (need " + std::to_string(n) +
           " bytes, have " + std::to_string(remaining()) + ")");
    }
  }

  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int k = 3; k >= 0; --k) {
      v = (v << 8) | static_cast<unsigned char>(bytes[pos + static_cast<std::size_t>(k)]);
    }
    pos += 4;
    return v;
  }

  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int k = 7; k >= 0; --k) {
      v = (v << 8) | static_cast<unsigned char>(bytes[pos + static_cast<std::size_t>(k)]);
    }
    pos += 8;
    return v;
  }

  int i32(const char* what) { return static_cast<int>(u32(what)); }

  std::string_view raw(std::size_t n, const char* what) {
    need(n, what);
    std::string_view v{bytes.data() + pos, n};
    pos += n;
    return v;
  }
};

/// Little-endian u32 at `p` — written as explicit byte assembly (the
/// compiler load-combines it) so the bulk column loops stay
/// endian-correct without per-element Cursor bounds checks.
inline std::uint32_t le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Phase-one output per shard: the parsed header, the shard-LOCAL
/// software name table, and the byte position of the first record
/// column. Phase two decodes the record columns of every shard straight
/// into its slice of the merged bulk columns — no per-shard staging
/// vectors, no post-hoc merge pass.
struct ShardPrelude {
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 0;
  std::uint64_t records = 0;
  std::uint64_t total = 0;
  std::uint64_t epoch = 0;
  std::vector<std::string> software_names;
  std::size_t body_pos = 0;  ///< first record-column block
};

/// Reads one column block, verifying name, framing, and checksum.
/// Returns the payload bytes.
std::string_view read_block(Cursor& cur, const char* expect) {
  cur.column = expect;
  const std::uint32_t name_len = cur.u32("block header");
  if (name_len > 64 || name_len > cur.remaining()) {
    cur.fail("bad column name length " + std::to_string(name_len));
  }
  const std::string_view name = cur.raw(name_len, "column name");
  if (name != expect) {
    cur.fail("unexpected column '" + std::string(name) + "'");
  }
  const std::uint64_t payload_len = cur.u64("block header");
  const std::uint64_t stored = cur.u64("block header");
  if (payload_len > cur.remaining()) {
    cur.fail("truncated column block (need " + std::to_string(payload_len) +
             " bytes, have " + std::to_string(cur.remaining()) + ")");
  }
  const std::string_view payload =
      cur.raw(static_cast<std::size_t>(payload_len), "column payload");
  const std::uint64_t computed = checksum_of(payload);
  if (computed != stored) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "stored %016llx, computed %016llx",
                  static_cast<unsigned long long>(stored),
                  static_cast<unsigned long long>(computed));
    cur.fail(std::string("checksum mismatch (") + buf + ")");
  }
  return payload;
}

ShardPrelude decode_prelude(const std::string& bytes, const std::string& file) {
  Cursor cur{bytes, file};
  cur.need(kColsnapHeaderSize, "header");
  if (std::string_view(bytes.data(), 8) != std::string_view(kMagic, 8)) {
    cur.fail("bad magic (not a corpus snapshot)");
  }
  cur.pos = 8;
  const std::uint32_t version = cur.u32("header");
  if (version != kColsnapVersion) {
    cur.fail("unsupported snapshot version " + std::to_string(version));
  }
  ShardPrelude pre;
  pre.shard_index = cur.u32("header");
  pre.shard_count = cur.u32("header");
  (void)cur.u32("header");  // reserved
  pre.records = cur.u64("header");
  pre.total = cur.u64("header");
  pre.epoch = cur.u64("header");

  // software_table: u32 count, then u32 len + bytes per name.
  {
    std::string_view p = read_block(cur, "software_table");
    Cursor pc{bytes, file, static_cast<std::size_t>(p.data() - bytes.data()),
              "software_table"};
    const std::size_t limit = pc.pos + p.size();
    const std::uint32_t count = pc.u32("software table");
    pre.software_names.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      if (pc.pos >= limit) pc.fail("truncated software table");
      const std::uint32_t len = pc.u32("software table");
      if (pc.pos + len > limit) pc.fail("truncated software table entry");
      pre.software_names.emplace_back(pc.raw(len, "software name"));
    }
    if (pc.pos != limit) {
      pc.fail("software table has " +
              std::to_string(limit - pc.pos) + " trailing bytes");
    }
  }
  pre.body_pos = cur.pos;
  return pre;
}

/// Decodes one shard's record columns into rows [off, off + records) of
/// the merged bulk columns. `remap` carries shard-local software ids to
/// global ids; `all` is pre-sized, and shards write disjoint slices, so
/// this runs concurrently across shards with no shared mutable state.
void decode_columns_into(const std::string& bytes, const std::string& file,
                         const ShardPrelude& pre,
                         const std::vector<std::uint32_t>& remap,
                         Database::BulkColumns& all, std::size_t off) {
  const std::size_t n = static_cast<std::size_t>(pre.records);
  Cursor cur{bytes, file, pre.body_pos};
  VulnRecord* recs = all.records.data() + off;

  const auto fixed_column = [&](const char* name, std::size_t elem) {
    std::string_view p = read_block(cur, name);
    if (p.size() != n * elem) {
      cur.fail("payload length " + std::to_string(p.size()) + " != " +
               std::to_string(elem) + " x " + std::to_string(n) + " records");
    }
    return reinterpret_cast<const unsigned char*>(p.data());
  };

  // id / year: n x i32.
  {
    const unsigned char* b = fixed_column("id", 4);
    for (std::size_t i = 0; i < n; ++i) {
      recs[i].id = static_cast<int>(le32(b + 4 * i));
    }
  }
  {
    const unsigned char* b = fixed_column("year", 4);
    int* years = all.years.data() + off;
    for (std::size_t i = 0; i < n; ++i) {
      years[i] = static_cast<int>(le32(b + 4 * i));
      recs[i].year = years[i];
    }
  }
  // remote / category / class: n x u8 with range checks.
  {
    const unsigned char* b = fixed_column("remote", 1);
    unsigned char* rm = all.remote.data() + off;
    for (std::size_t i = 0; i < n; ++i) {
      const unsigned char v = b[i];
      if (v > 1) {
        cur.column = "remote";
        cur.fail("bad remote flag " + std::to_string(v) + " at record " +
                 std::to_string(i));
      }
      rm[i] = v;
      recs[i].remote = v != 0;
    }
  }
  {
    const unsigned char* b = fixed_column("category", 1);
    Category* cats = all.categories.data() + off;
    for (std::size_t i = 0; i < n; ++i) {
      const unsigned char v = b[i];
      if (v >= kCategoryCount) {
        cur.column = "category";
        cur.fail("bad category code " + std::to_string(v) + " at record " +
                 std::to_string(i));
      }
      cats[i] = static_cast<Category>(v);
      recs[i].category = cats[i];
    }
  }
  {
    const unsigned char* b = fixed_column("class", 1);
    VulnClass* clss = all.classes.data() + off;
    for (std::size_t i = 0; i < n; ++i) {
      const unsigned char v = b[i];
      if (v >= kVulnClassCount) {
        cur.column = "class";
        cur.fail("bad class code " + std::to_string(v) + " at record " +
                 std::to_string(i));
      }
      clss[i] = static_cast<VulnClass>(v);
      recs[i].vuln_class = clss[i];
    }
  }
  // software: n x u32 local ids, remapped to the global table.
  {
    const unsigned char* b = fixed_column("software", 4);
    std::uint32_t* sw = all.software.data() + off;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t sid = le32(b + 4 * i);
      if (sid >= remap.size()) {
        cur.column = "software";
        cur.fail("software id " + std::to_string(sid) + " out of range (" +
                 std::to_string(remap.size()) + " names) at record " +
                 std::to_string(i));
      }
      sw[i] = remap[sid];
      recs[i].software = all.software_names[sw[i]];
    }
  }
  {
    const unsigned char* b = fixed_column("reference_activity", 4);
    for (std::size_t i = 0; i < n; ++i) {
      recs[i].reference_activity = static_cast<int>(le32(b + 4 * i));
    }
  }
  // title / description: n x u32 sizes, then the concatenated blob. The
  // size sum is validated against the payload up front, so the assign
  // pass can walk a raw pointer.
  const auto string_column = [&](const char* name, auto assign) {
    std::string_view p = read_block(cur, name);
    Cursor pc{bytes, file, static_cast<std::size_t>(p.data() - bytes.data()),
              name};
    if (p.size() < 4 * n) {
      pc.fail("payload too short for " + std::to_string(n) + " size entries");
    }
    const auto* b = reinterpret_cast<const unsigned char*>(p.data());
    std::uint64_t blob = 0;
    for (std::size_t i = 0; i < n; ++i) blob += le32(b + 4 * i);
    if (4 * n + blob != p.size()) {
      pc.pos += 4 * n;
      pc.fail("string sizes sum to " + std::to_string(blob) + " but blob has " +
              std::to_string(p.size() - 4 * n) + " bytes");
    }
    const char* s = p.data() + 4 * n;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t len = le32(b + 4 * i);
      assign(i, std::string_view{s, len});
      s += len;
    }
  };
  string_column("title", [&](std::size_t i, std::string_view s) {
    recs[i].title.assign(s);
  });
  string_column("description", [&](std::size_t i, std::string_view s) {
    recs[i].description.assign(s);
  });
  // activities: n x u16 counts, then one u8 code per activity.
  {
    std::string_view p = read_block(cur, "activities");
    Cursor pc{bytes, file, static_cast<std::size_t>(p.data() - bytes.data()),
              "activities"};
    const std::size_t limit = pc.pos + p.size();
    if (p.size() < 2 * n) {
      pc.fail("payload too short for " + std::to_string(n) + " count entries");
    }
    std::uint64_t codes = 0;
    const auto* b = reinterpret_cast<const unsigned char*>(p.data());
    for (std::size_t i = 0; i < n; ++i) {
      codes += static_cast<std::uint16_t>(b[2 * i] | (b[2 * i + 1] << 8));
    }
    pc.pos += 2 * n;
    if (pc.pos + codes != limit) {
      pc.fail("activity counts sum to " + std::to_string(codes) +
              " but code blob has " + std::to_string(limit - pc.pos) + " bytes");
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto count = static_cast<std::uint16_t>(b[2 * i] | (b[2 * i + 1] << 8));
      auto& acts = recs[i].activities;
      acts.reserve(count);
      for (std::uint16_t k = 0; k < count; ++k) {
        const unsigned char code = static_cast<unsigned char>(bytes[pc.pos++]);
        if (code >= kActivityCodeCount) {
          pc.fail("bad activity code " + std::to_string(code) + " at record " +
                  std::to_string(i));
        }
        acts.push_back(static_cast<ElementaryActivity>(code));
      }
    }
  }

  if (cur.pos != bytes.size()) {
    cur.column = "trailer";
    cur.fail(std::to_string(bytes.size() - cur.pos) + " trailing bytes");
  }
}

}  // namespace

std::string colsnap_shard_path(const std::string& base, std::size_t index,
                               std::size_t count) {
  char suffix[64];
  std::snprintf(suffix, sizeof suffix, "-%05zu-of-%05zu.colsnap", index, count);
  return base + suffix;
}

std::vector<std::string> colsnap_shard_paths(const std::string& base,
                                             std::size_t count) {
  std::vector<std::string> paths;
  paths.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    paths.push_back(colsnap_shard_path(base, i, count));
  }
  return paths;
}

std::string encode_colsnap_shard(const CorpusSnapshot& snap, std::size_t index,
                                 std::size_t count) {
  if (count == 0) count = 1;
  if (index >= count) {
    throw std::invalid_argument("encode_colsnap_shard: shard " +
                                std::to_string(index) + " of " +
                                std::to_string(count));
  }
  auto blocks = runtime::static_blocks(snap.size(), count);
  while (blocks.size() < count) blocks.push_back({snap.size(), snap.size()});
  const std::size_t begin = blocks[index].begin;
  const std::size_t end = blocks[index].end;
  const std::size_t n = end - begin;

  const auto recs = snap.records();
  const auto soft = snap.software_ids();

  // Shard-local software interning: global ids remap to dense local ids
  // in first-use order, so each shard is self-contained (share-nothing
  // encode) and small shards carry small tables.
  constexpr std::uint32_t kUnmapped = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> remap(snap.software_count(), kUnmapped);
  std::vector<std::uint32_t> local_ids(n);
  std::vector<std::uint32_t> local_names;  // local id -> global id
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t gid = soft[begin + i];
    if (remap[gid] == kUnmapped) {
      remap[gid] = static_cast<std::uint32_t>(local_names.size());
      local_names.push_back(gid);
    }
    local_ids[i] = remap[gid];
  }

  std::string out;
  out.reserve(kColsnapHeaderSize + 64 * n);
  out.append(kMagic, sizeof kMagic);
  put_u32(out, kColsnapVersion);
  put_u32(out, static_cast<std::uint32_t>(index));
  put_u32(out, static_cast<std::uint32_t>(count));
  put_u32(out, 0);  // reserved
  put_u64(out, n);
  put_u64(out, snap.size());
  put_u64(out, snap.epoch());

  std::string payload;
  // software_table
  put_u32(payload, static_cast<std::uint32_t>(local_names.size()));
  for (const std::uint32_t gid : local_names) {
    const std::string& name = snap.software_name(gid);
    put_u32(payload, static_cast<std::uint32_t>(name.size()));
    payload.append(name);
  }
  append_block(out, "software_table", payload);
  // id
  payload.clear();
  for (std::size_t i = 0; i < n; ++i) put_i32(payload, recs[begin + i].id);
  append_block(out, "id", payload);
  // year
  payload.clear();
  for (std::size_t i = 0; i < n; ++i) put_i32(payload, recs[begin + i].year);
  append_block(out, "year", payload);
  // remote
  payload.clear();
  const auto rem = snap.remote_flags();
  payload.assign(reinterpret_cast<const char*>(rem.data() + begin), n);
  append_block(out, "remote", payload);
  // category
  payload.clear();
  const auto cats = snap.categories();
  for (std::size_t i = 0; i < n; ++i) {
    payload.push_back(static_cast<char>(cats[begin + i]));
  }
  append_block(out, "category", payload);
  // class
  payload.clear();
  const auto clss = snap.classes();
  for (std::size_t i = 0; i < n; ++i) {
    payload.push_back(static_cast<char>(clss[begin + i]));
  }
  append_block(out, "class", payload);
  // software (local ids)
  payload.clear();
  for (std::size_t i = 0; i < n; ++i) put_u32(payload, local_ids[i]);
  append_block(out, "software", payload);
  // reference_activity
  payload.clear();
  for (std::size_t i = 0; i < n; ++i) {
    put_i32(payload, recs[begin + i].reference_activity);
  }
  append_block(out, "reference_activity", payload);
  // title / description: sizes then blob.
  const auto string_column = [&](auto field) {
    payload.clear();
    for (std::size_t i = 0; i < n; ++i) {
      put_u32(payload,
              static_cast<std::uint32_t>(field(recs[begin + i]).size()));
    }
    for (std::size_t i = 0; i < n; ++i) payload.append(field(recs[begin + i]));
  };
  string_column([](const VulnRecord& r) -> const std::string& { return r.title; });
  append_block(out, "title", payload);
  string_column(
      [](const VulnRecord& r) -> const std::string& { return r.description; });
  append_block(out, "description", payload);
  // activities: u16 counts then u8 codes.
  payload.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t count_i = recs[begin + i].activities.size();
    if (count_i > std::numeric_limits<std::uint16_t>::max()) {
      throw std::invalid_argument(
          "encode_colsnap_shard: record has too many activities");
    }
    payload.push_back(static_cast<char>(count_i & 0xFF));
    payload.push_back(static_cast<char>((count_i >> 8) & 0xFF));
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (const ElementaryActivity a : recs[begin + i].activities) {
      payload.push_back(static_cast<char>(static_cast<int>(a)));
    }
  }
  append_block(out, "activities", payload);

  return out;
}

std::vector<std::string> encode_colsnap_shards(const CorpusSnapshot& snap,
                                               std::size_t count) {
  if (count == 0) count = 1;
  return runtime::parallel_map<std::string>(count, [&](std::size_t i) {
    return encode_colsnap_shard(snap, i, count);
  });
}

std::vector<std::string> write_colsnap_shards(const CorpusSnapshot& snap,
                                              const std::string& base,
                                              std::size_t shards) {
  if (shards == 0) shards = 1;
  const auto bodies = encode_colsnap_shards(snap, shards);
  const auto paths = colsnap_shard_paths(base, shards);
  for (std::size_t i = 0; i < shards; ++i) {
    std::ofstream out{paths[i], std::ios::binary | std::ios::trunc};
    if (!out || !(out << bodies[i]) || !out.flush()) {
      throw std::runtime_error("cannot write corpus snapshot shard: " +
                               paths[i]);
    }
  }
  return paths;
}

Database decode_colsnap_shards(const std::vector<std::string>& contents,
                               const std::vector<std::string>& names) {
  if (contents.size() != names.size()) {
    throw std::invalid_argument("decode_colsnap_shards: " +
                                std::to_string(contents.size()) +
                                " shards but " + std::to_string(names.size()) +
                                " names");
  }
  if (contents.empty()) {
    throw std::invalid_argument("decode_colsnap_shards: no shards");
  }

  // Phase one (serial, cheap): headers and shard-local software tables.
  // Cross-shard consistency — one snapshot, one epoch, one total, files
  // in shard order — is checked BEFORE any record column is touched, so
  // a torn publish is refused without decoding megabytes of payload.
  std::vector<ShardPrelude> pre(contents.size());
  for (std::size_t i = 0; i < contents.size(); ++i) {
    pre[i] = decode_prelude(contents[i], names[i]);
  }
  const auto header_fail = [&](std::size_t i, const std::string& reason) {
    throw std::invalid_argument(names[i] + ":header: " + reason);
  };
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < pre.size(); ++i) {
    const ShardPrelude& s = pre[i];
    if (s.shard_count != pre.size()) {
      header_fail(i, "shard count " + std::to_string(s.shard_count) +
                         " does not match " + std::to_string(pre.size()) +
                         " files");
    }
    if (s.shard_index != i) {
      header_fail(i, "shard index " + std::to_string(s.shard_index) +
                         " at position " + std::to_string(i) +
                         " (reordered or mixed snapshot)");
    }
    if (s.epoch != pre[0].epoch) {
      header_fail(i, "snapshot epoch " + std::to_string(s.epoch) +
                         " does not match shard 0's " +
                         std::to_string(pre[0].epoch) + " (torn publish)");
    }
    if (s.total != pre[0].total) {
      header_fail(i, "record total " + std::to_string(s.total) +
                         " does not match shard 0's " +
                         std::to_string(pre[0].total));
    }
    sum += s.records;
  }
  if (sum != pre[0].total) {
    header_fail(0, "shard record counts sum to " + std::to_string(sum) +
                       ", header total is " + std::to_string(pre[0].total));
  }

  // Shard-local software tables intern into one global table in shard
  // order (first use wins), exactly as a sequential merge would.
  Database::BulkColumns all;
  std::map<std::string, std::uint32_t> global_ids;
  std::vector<std::vector<std::uint32_t>> remap(pre.size());
  for (std::size_t i = 0; i < pre.size(); ++i) {
    remap[i].resize(pre[i].software_names.size());
    for (std::size_t lid = 0; lid < pre[i].software_names.size(); ++lid) {
      const auto [it, inserted] = global_ids.emplace(
          std::move(pre[i].software_names[lid]),
          static_cast<std::uint32_t>(all.software_names.size()));
      if (inserted) all.software_names.push_back(it->first);
      remap[i][lid] = it->second;
    }
  }

  // Phase two: every shard decodes its record columns straight into its
  // slice of the merged columns, concurrently; on a defect the lowest
  // shard's error is the one thrown (cancel-after-error, like the CSV
  // reader).
  const std::size_t total = static_cast<std::size_t>(pre[0].total);
  all.records.resize(total);
  all.categories.resize(total);
  all.classes.resize(total);
  all.remote.resize(total);
  all.years.resize(total);
  all.software.resize(total);
  std::vector<std::size_t> off(pre.size());
  for (std::size_t i = 0, at = 0; i < pre.size(); ++i) {
    off[i] = at;
    at += static_cast<std::size_t>(pre[i].records);
  }
  const runtime::TaskErrors errs = runtime::parallel_for_collect(
      contents.size(),
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          decode_columns_into(contents[i], names[i], pre[i], remap[i], all,
                              off[i]);
        }
      },
      runtime::CancelPolicy::kCancelAfterError);
  if (!errs.ok()) std::rethrow_exception(errs.errors.front().error);

  return Database::from_columns(std::move(all));
}

Database read_colsnap_shards(const std::vector<std::string>& paths) {
  std::vector<std::string> contents(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    // Size the buffer from the stream and read in one block — a
    // byte-at-a-time istreambuf slurp costs more than the whole decode
    // at 10^6 records.
    std::ifstream in{paths[i], std::ios::binary | std::ios::ate};
    const std::streamoff size = in ? static_cast<std::streamoff>(in.tellg())
                                   : std::streamoff{-1};
    if (!in || size < 0) {
      throw std::runtime_error("cannot read corpus snapshot shard: " +
                               paths[i]);
    }
    std::string text(static_cast<std::size_t>(size), '\0');
    in.seekg(0);
    if (size > 0 && !in.read(text.data(), size)) {
      throw std::runtime_error("cannot read corpus snapshot shard: " +
                               paths[i]);
    }
    contents[i] = std::move(text);
  }
  return decode_colsnap_shards(contents, paths);
}

std::vector<ColsnapBlockRef> colsnap_block_refs(const std::string& bytes) {
  // In-memory bytes have no path; structural errors use a generic label.
  static const std::string kLabel = "<colsnap>";
  Cursor c{bytes, kLabel, 0, "header"};
  c.need(kColsnapHeaderSize, "header");
  c.pos = kColsnapHeaderSize;
  std::vector<ColsnapBlockRef> refs;
  for (std::size_t k = 0; k < kColumnCount; ++k) {
    ColsnapBlockRef ref;
    ref.block_offset = c.pos;
    c.column = kColumns[k];
    const std::uint32_t name_len = c.u32("block header");
    if (name_len > 64 || name_len > c.remaining()) {
      c.fail("bad column name length");
    }
    ref.name = std::string(c.raw(name_len, "column name"));
    const std::uint64_t payload_len = c.u64("block header");
    ref.checksum_offset = c.pos;
    (void)c.u64("block header");
    if (payload_len > c.remaining()) c.fail("truncated column block");
    ref.payload_offset = c.pos;
    ref.payload_len = static_cast<std::size_t>(payload_len);
    c.pos += ref.payload_len;
    refs.push_back(std::move(ref));
  }
  return refs;
}

}  // namespace dfsm::bugtraq
