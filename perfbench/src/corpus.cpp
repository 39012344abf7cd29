// corpus-1m: the corpus service at 10^6 records, all in memory.
//
// Set-up generates a Figure-1 synthetic corpus of 10^6 + 5*10^4
// records, encodes the first 10^6 as 4 CSV parts and 4 colsnap shards,
// keeps the remaining slice as pre-built add_batch batches, and computes
// the expected histograms by walking the generated records. A pass then
// runs, in order: a bulk CSV ingest (Database::from_csv_parts), a
// colsnap reload (decode_colsnap_shards), an incremental ingest of the
// slice into the reloaded corpus in fixed batches while reader threads
// loop snapshot() -> count_by_year / count_by_category -> invariant
// check, and a few predicate scans (CorpusSnapshot::count) over the
// final snapshot. No disk is touched.
#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "bugtraq/colsnap.h"
#include "bugtraq/corpus.h"
#include "bugtraq/database.h"
#include "core/fingerprint.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"

namespace perfbench {

namespace {

using dfsm::bugtraq::Category;
using dfsm::bugtraq::Database;
using dfsm::bugtraq::VulnRecord;

constexpr std::size_t kParts = 4;

struct Expected {
  std::size_t size = 0;
  std::map<Category, std::size_t> by_category;
  std::map<int, std::size_t> by_year;
  std::map<std::string, std::size_t> by_software;
  std::size_t scan_hits = 0;  ///< records matching scan_pred
};

bool scan_pred(const VulnRecord& r) {
  return r.remote && r.year >= 2000 && r.studied();
}

void tally(Expected& e, const VulnRecord& r) {
  ++e.size;
  ++e.by_category[r.category];
  ++e.by_year[r.year];
  ++e.by_software[r.software];
  if (scan_pred(r)) ++e.scan_hits;
}

Expected expected_of(const std::vector<VulnRecord>& records) {
  Expected e;
  for (const Category c : dfsm::bugtraq::kAllCategories) e.by_category[c] = 0;
  for (const auto& r : records) tally(e, r);
  return e;
}

struct Inputs {
  std::vector<std::string> csv_parts;
  std::vector<std::string> colsnap_shards;
  std::vector<std::string> shard_names;
  std::vector<VulnRecord> base;   ///< the 10^6 records, pre-parsed
  std::vector<VulnRecord> slice;  ///< the incremental ingest
  std::size_t batch = 0;
  std::size_t scans = 0;
  Expected base_expected;
  Expected final_expected;
  std::uint64_t digest = 0;  ///< of the CSV parts
};

Inputs make_inputs(const Options& opt) {
  const bool tiny = opt.size == Size::kTiny;
  const std::size_t n = tiny ? 20000 : 1000000;
  const std::size_t slice = tiny ? 2000 : 50000;
  Inputs in;
  in.batch = tiny ? 100 : 500;
  in.scans = tiny ? 2 : 8;
  {
    const Database full = dfsm::bugtraq::synthetic_corpus_n(n + slice, opt.seed);
    const auto recs = full.snapshot()->records();
    in.base.assign(recs.begin(), recs.begin() + static_cast<std::ptrdiff_t>(n));
    in.slice.assign(recs.begin() + static_cast<std::ptrdiff_t>(n), recs.end());
  }
  Database base_db;
  base_db.add_batch(in.base);
  const auto snap = base_db.snapshot();
  for (const auto& b : dfsm::runtime::static_blocks(n, kParts)) {
    in.csv_parts.push_back(snap->to_csv(b.begin, b.end));
  }
  in.colsnap_shards = dfsm::bugtraq::encode_colsnap_shards(*snap, kParts);
  for (std::size_t i = 0; i < kParts; ++i) {
    in.shard_names.push_back(
        dfsm::bugtraq::colsnap_shard_path("corpus", i, kParts));
  }
  if (opt.sabotage == "colsnap-byte") {
    // Flip one byte inside the first shard's title column payload.
    for (const auto& ref :
         dfsm::bugtraq::colsnap_block_refs(in.colsnap_shards[0])) {
      if (ref.name == "title" && ref.payload_len > 0) {
        in.colsnap_shards[0][ref.payload_offset + ref.payload_len / 2] ^= 0x20;
      }
    }
  }
  dfsm::core::Fingerprinter fp;
  for (const auto& part : in.csv_parts) fp.mix_striped(part);
  in.digest = fp.digest();
  in.base_expected = expected_of(in.base);
  in.final_expected = in.base_expected;
  for (const auto& r : in.slice) tally(in.final_expected, r);
  return in;
}

/// Size and histogram check of a loaded corpus against the generator.
bool matches(const Database& db, const Expected& e) {
  const auto snap = db.snapshot();
  return snap->size() == e.size && snap->count_by_category() == e.by_category &&
         snap->count_by_year() == e.by_year &&
         snap->count_by_software() == e.by_software;
}

std::vector<std::vector<VulnRecord>> make_batches(const Inputs& in) {
  std::vector<std::vector<VulnRecord>> batches;
  for (std::size_t i = 0; i < in.slice.size(); i += in.batch) {
    const auto end = std::min(in.slice.size(), i + in.batch);
    batches.emplace_back(in.slice.begin() + static_cast<std::ptrdiff_t>(i),
                         in.slice.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return batches;
}

struct ReaderLog {
  std::vector<double> op_us;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double busy_s = 0;
};

/// One reader: loops until `stop`, each op one snapshot and two histogram
/// queries, each followed by the invariant check (histogram totals equal
/// the snapshot size; the epoch never decreases).
void reader_loop(const Database& db, const std::atomic<bool>& stop,
                 std::uint64_t reader, ReaderLog& log) noexcept {
  std::uint64_t last_epoch = 0;
  std::uint64_t op = 0;
  while (!stop.load(std::memory_order_acquire)) try {
    // The op is the service work; the invariant check runs after it.
    const std::int64_t t0 = now_ns();
    dfsm::bugtraq::CorpusSnapshotPtr snap;
    std::map<int, std::size_t> by_year;
    std::map<Category, std::size_t> by_category;
    {
      ScopedSpan root{"corpus.read", (reader << 32) | ++op};
      {
        ScopedSpan span{"bugtraq.snapshot"};
        snap = db.snapshot();
      }
      ScopedSpan span{"bugtraq.histogram_query"};
      by_year = snap->count_by_year();
      by_category = snap->count_by_category();
    }
    const double us = static_cast<double>(now_ns() - t0) / 1e3;
    std::size_t years = 0;
    for (const auto& [y, c] : by_year) years += c;
    std::size_t cats = 0;
    for (const auto& [k, c] : by_category) cats += c;
    const bool ok = years == snap->size() && cats == snap->size() &&
                    snap->epoch() >= last_epoch;
    last_epoch = snap->epoch();
    log.op_us.push_back(us);
    log.busy_s += us / 1e6;
    ++log.ops;
    if (!ok) ++log.failed;
  } catch (...) {
    // A read that throws is a failed operation; the reader stops.
    ++log.ops;
    ++log.failed;
    return;
  }
}

struct PassTimes {
  double csv_s = 0;
  double colsnap_s = 0;
  double append_s = 0;
  std::vector<double> reader_busy_s;
  std::uint64_t epochs = 0;
};

/// One pass. `readers` reader threads run during the append phase, with
/// the pool shrunk to `append_pool` so the two together stay within the
/// thread budget.
PassTimes corpus_pass(const Inputs& in, const Options& opt,
                      std::size_t readers, std::size_t append_pool,
                      RunResult& r, std::vector<double>& read_us) {
  PassTimes t;
  const std::size_t n = in.base.size();
  {
    std::int64_t t0 = now_ns();
    Database db = [&] {
      ScopedSpan root{"corpus.csv_ingest"};
      ScopedSpan span{"bugtraq.from_csv_parts"};
      return Database::from_csv_parts(in.csv_parts);
    }();
    t.csv_s = seconds_since(t0);
    r.check(matches(db, in.base_expected), "corpus: CSV ingest differs");
  }

  Database service;
  {
    const std::int64_t t0 = now_ns();
    try {
      service = [&] {
        ScopedSpan root{"corpus.colsnap_reload"};
        ScopedSpan span{"bugtraq.decode_colsnap_shards"};
        return dfsm::bugtraq::decode_colsnap_shards(in.colsnap_shards,
                                                    in.shard_names);
      }();
      t.colsnap_s = seconds_since(t0);
      r.check(matches(service, in.base_expected),
              "corpus: colsnap reload differs");
    } catch (const std::invalid_argument& e) {
      t.colsnap_s = seconds_since(t0);
      r.check(false, std::string{"corpus: colsnap reload refused: "} + e.what());
      service = Database::from_csv_parts(in.csv_parts);
    }
  }

  service.reserve(n + in.slice.size());
  auto batches = make_batches(in);
  const std::uint64_t epoch0 = service.epoch();
  dfsm::runtime::ThreadPool::set_global_threads(append_pool);
  {
    std::atomic<bool> stop{false};
    std::vector<ReaderLog> logs(readers);
    std::vector<std::thread> threads;
    threads.reserve(readers);
    for (std::size_t i = 0; i < readers; ++i) {
      threads.emplace_back(reader_loop, std::cref(service), std::cref(stop),
                           static_cast<std::uint64_t>(i + 1),
                           std::ref(logs[i]));
    }
    const std::int64_t t0 = now_ns();
    try {
      ScopedSpan root{"corpus.append"};
      for (auto& b : batches) {
        ScopedSpan span{"bugtraq.add_batch"};
        service.add_batch(std::move(b));
      }
    } catch (...) {
      stop.store(true, std::memory_order_release);
      for (auto& th : threads) th.join();
      dfsm::runtime::ThreadPool::set_global_threads(opt.pool_threads);
      throw;
    }
    t.append_s = seconds_since(t0);
    stop.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    for (auto& log : logs) {
      r.attempted += log.ops;
      r.failed += log.failed;
      if (log.failed != 0 && r.failures.size() < 8) {
        r.failures.push_back("corpus: " + std::to_string(log.failed) +
                             " reader snapshot(s) broke the invariants");
      }
      read_us.insert(read_us.end(), log.op_us.begin(), log.op_us.end());
      t.reader_busy_s.push_back(log.busy_s);
    }
  }
  dfsm::runtime::ThreadPool::set_global_threads(opt.pool_threads);
  t.epochs = service.epoch() - epoch0;

  const auto final_snap = service.snapshot();
  for (std::size_t i = 0; i < in.scans; ++i) {
    std::size_t hits = 0;
    {
      ScopedSpan root{"corpus.scan"};
      ScopedSpan span{"bugtraq.scan_count"};
      hits = final_snap->count(scan_pred);
    }
    r.check(hits == in.final_expected.scan_hits, "corpus: scan count differs");
  }
  // Outside the timed phases: the incremental histograms must equal a
  // full rebuild, and the final corpus must equal the generator's.
  r.check(dfsm::bugtraq::rebuild_histograms(*final_snap) ==
              final_snap->histograms(),
          "corpus: incremental histograms differ from rebuild_histograms");
  r.check(matches(service, in.final_expected),
          "corpus: final corpus differs from the generated one");
  return t;
}

/// Wall time of `fn` at a pool of `threads`, restoring the pinned pool.
template <typename Fn>
double timed_at_pool(const Options& opt, std::size_t threads, Fn&& fn) {
  dfsm::runtime::ThreadPool::set_global_threads(threads);
  const std::int64_t t0 = now_ns();
  fn();
  const double s = seconds_since(t0);
  dfsm::runtime::ThreadPool::set_global_threads(opt.pool_threads);
  return s;
}

}  // namespace

RunResult run_corpus(const Options& opt) {
  RunResult r;
  Inputs in;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in = Inputs{};  // release the previous repetition before rebuilding
    const std::int64_t t0 = now_ns();
    in = make_inputs(opt);
    r.setup_s.push_back(seconds_since(t0));
  }
  r.input_digest = in.digest;
  const double n = static_cast<double>(in.base.size());
  const double slice = static_cast<double>(in.slice.size());
  // Readers and the pool share the thread budget during the append.
  const std::size_t readers = opt.pool_threads / 2;
  const std::size_t append_pool = std::max<std::size_t>(1, opt.pool_threads - readers);

  std::vector<double> read_us;
  std::vector<PassTimes> passes;
  if (!opt.trace) {
    r.pass_s = measure(opt.seconds, 3, [&](std::size_t) {
      passes.push_back(corpus_pass(in, opt, readers, append_pool, r, read_us));
    });
    std::vector<double> csv, colsnap, append;
    for (const auto& p : passes) {
      csv.push_back(n / p.csv_s);
      colsnap.push_back(n / p.colsnap_s);
      append.push_back(slice / p.append_s);
    }
    r.workload.push_back(
        {"corpus.csv_ingest_rec_per_s", median(csv), "records/s"});
    r.workload.push_back(
        {"corpus.colsnap_reload_rec_per_s", median(colsnap), "records/s"});
    r.workload.push_back(
        {"corpus.append_rec_per_s", median(append), "records/s"});
    r.workload.push_back({"corpus.read_p50_us", percentile(read_us, 0.5), "us"});
    r.workload.push_back({"corpus.read_p99_us", percentile(read_us, 0.99), "us"});
    r.workload.push_back(
        {"corpus.read_samples", static_cast<double>(read_us.size()), "count"});
    r.workload.push_back({"corpus.readers", static_cast<double>(readers), "count"});
    return r;
  }

  std::vector<double> straggler;
  std::uint64_t epochs = 0;
  const TracedRun t = alternate_traced(opt, [&](bool traced) {
    const PassTimes p = corpus_pass(in, opt, readers, append_pool, r, read_us);
    if (!traced) return;
    epochs = p.epochs;
    // The writer is busy for the whole append phase.
    double busy = p.append_s;
    double busy_max = p.append_s;
    for (const double b : p.reader_busy_s) {
      busy += b;
      busy_max = std::max(busy_max, b);
    }
    straggler.push_back(busy_max /
                        (busy / static_cast<double>(1 + p.reader_busy_s.size())));
  });
  const TraceAnalysis& analysis = t.analysis;

  // Layer probes, outside every span.
  std::vector<double> bulk_add_ms, checksum_mb_per_s;
  for (int i = 0; i < 3; ++i) {
    // add_batch of the pre-parsed records: everything but the parse.
    auto records = in.base;
    {
      Database db;
      const std::int64_t t0 = now_ns();
      db.add_batch(std::move(records));
      bulk_add_ms.push_back(seconds_since(t0) * 1e3);
    }
    // The colsnap block checksum over every column payload.
    std::size_t bytes = 0;
    std::uint64_t digest = 0;
    const std::int64_t t0 = now_ns();
    for (const auto& shard : in.colsnap_shards) {
      for (const auto& ref : dfsm::bugtraq::colsnap_block_refs(shard)) {
        dfsm::core::Fingerprinter fp;
        fp.mix_striped(std::string_view{shard}.substr(ref.payload_offset,
                                                      ref.payload_len));
        digest ^= fp.digest();
        bytes += ref.payload_len;
      }
    }
    checksum_mb_per_s.push_back(static_cast<double>(bytes) / 1e6 /
                                seconds_since(t0));
    r.check(digest != 0, "corpus: checksum probe produced no digest");
  }

  // Serial-stage probes: the bulk stages at a pool of one thread.
  const double csv_pool1 = timed_at_pool(opt, 1, [&] {
    (void)Database::from_csv_parts(in.csv_parts);
  });
  const double add_pool1 = timed_at_pool(opt, 1, [&] {
    Database db;
    db.add_batch(in.base);
  });
  const double csv_pinned = timed_at_pool(opt, opt.pool_threads, [&] {
    (void)Database::from_csv_parts(in.csv_parts);
  });
  const double add_pinned = timed_at_pool(opt, opt.pool_threads, [&] {
    Database db;
    db.add_batch(in.base);
  });

  const auto p = [&](const char* span, double q) {
    return percentile(analysis.stats(span).dur_us, q);
  };
  const double csv_ms = p("bugtraq.from_csv_parts", 0.5) / 1e3;
  const double add_ms = median(bulk_add_ms);
  std::size_t csv_bytes = 0;
  for (const auto& part : in.csv_parts) csv_bytes += part.size();
  std::size_t colsnap_bytes = 0;
  for (const auto& shard : in.colsnap_shards) colsnap_bytes += shard.size();

  auto& L = r.layers;
  L.push_back({"core.checksum_mb_per_s", median(checksum_mb_per_s), "MB/s"});
  L.push_back({"bugtraq.csv_parse_ms", csv_ms - add_ms, "ms"});
  L.push_back({"bugtraq.bulk_add_batch_ms", add_ms, "ms"});
  L.push_back({"bugtraq.csv_parse_scaling",
               (csv_pool1 - add_pool1) / (csv_pinned - add_pinned), "ratio"});
  L.push_back({"bugtraq.bulk_add_batch_scaling", add_pool1 / add_pinned, "ratio"});
  L.push_back({"bugtraq.colsnap_decode_ms",
               p("bugtraq.decode_colsnap_shards", 0.5) / 1e3, "ms"});
  L.push_back({"bugtraq.csv_bytes_per_record",
               static_cast<double>(csv_bytes) / n, "B"});
  L.push_back({"bugtraq.colsnap_bytes_per_record",
               static_cast<double>(colsnap_bytes) / n, "B"});
  L.push_back({"bugtraq.append_batch_us_p50", p("bugtraq.add_batch", 0.5), "us"});
  L.push_back({"bugtraq.append_batch_us_p99", p("bugtraq.add_batch", 0.99), "us"});
  L.push_back({"bugtraq.epochs_published", static_cast<double>(epochs), "count"});
  L.push_back({"bugtraq.snapshot_acquire_ns_p50",
               p("bugtraq.snapshot", 0.5) * 1e3, "ns"});
  L.push_back({"bugtraq.snapshot_acquire_ns_p99",
               p("bugtraq.snapshot", 0.99) * 1e3, "ns"});
  L.push_back({"bugtraq.histogram_query_us_p50",
               p("bugtraq.histogram_query", 0.5), "us"});
  L.push_back({"bugtraq.histogram_query_us_p99",
               p("bugtraq.histogram_query", 0.99), "us"});
  L.push_back({"bugtraq.scan_count_ms_p50", p("bugtraq.scan_count", 0.5) / 1e3,
               "ms"});
  L.push_back({"bugtraq.scan_count_ms_p99", p("bugtraq.scan_count", 0.99) / 1e3,
               "ms"});
  L.push_back({"runtime.agent_busy_max_over_mean", median(straggler), "ratio"});
  finish_traced(opt, t, r);
  return r;
}

}  // namespace perfbench
