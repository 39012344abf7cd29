#include "loadgen/corpus_traffic.h"

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bugtraq/corpus.h"
#include "bugtraq/database.h"

namespace dfsm::loadgen {

namespace {

std::size_t histogram_total(const bugtraq::CorpusHistograms& h) {
  std::size_t n = 0;
  for (const auto c : h.by_category) n += c;
  return n;
}

/// One reader thread's loop: acquire, validate the epoch's invariants
/// with serial snapshot-local walks (never the shared pool — a violation
/// or TSan report here is the corpus service's fault, not the checker's),
/// repeat until the writer finishes.
void read_loop(const bugtraq::Database& db, const std::atomic<bool>& done,
               std::atomic<std::size_t>& violations,
               std::atomic<std::size_t>& acquires) {
  std::uint64_t last_epoch = 0;
  std::size_t last_size = 0;
  while (!done.load(std::memory_order_relaxed)) {
    const auto snap = db.snapshot();
    acquires.fetch_add(1, std::memory_order_relaxed);

    // Publishes are ordered: epoch and size never run backwards.
    if (snap->epoch() < last_epoch) violations.fetch_add(1);
    if (snap->size() < last_size) violations.fetch_add(1);
    last_epoch = snap->epoch();
    last_size = snap->size();

    // The carried histograms cover exactly the frozen range.
    const auto& h = snap->histograms();
    if (histogram_total(h) != snap->size()) violations.fetch_add(1);
    std::size_t year_total = 0;
    for (const auto& [year, n] : h.by_year) year_total += n;
    if (year_total != snap->size()) violations.fetch_add(1);

    // Row and column projections agree within the epoch (sampled).
    const auto recs = snap->records();
    const auto cats = snap->categories();
    const auto years = snap->years();
    const auto software = snap->software_ids();
    for (std::size_t i = 0; i < recs.size(); i += 101) {
      if (recs[i].category != cats[i]) violations.fetch_add(1);
      if (recs[i].year != years[i]) violations.fetch_add(1);
      if (software[i] >= snap->software_count() ||
          snap->software_name(software[i]) != recs[i].software) {
        violations.fetch_add(1);
      }
    }
  }
}

}  // namespace

CorpusTrafficReport run_corpus_traffic(const CorpusTrafficSpec& spec) {
  if (spec.records == 0 || spec.batch == 0 || spec.readers == 0) {
    throw std::invalid_argument(
        "corpus traffic needs records, batch, and readers all >= 1");
  }

  CorpusTrafficReport report;
  report.spec = spec;

  // Ground truth, built in one shot; the raced service must end up
  // byte-identical to it.
  const auto reference =
      bugtraq::synthetic_corpus_n(spec.records, spec.seed).snapshot();
  const auto ref_span = reference->records();
  const std::vector<bugtraq::VulnRecord> rows{ref_span.begin(), ref_span.end()};

  bugtraq::Database db;
  db.reserve(spec.records);
  std::atomic<bool> done{false};
  std::atomic<std::size_t> violations{0};
  std::atomic<std::size_t> acquires{0};

  std::vector<std::thread> readers;
  readers.reserve(spec.readers);
  for (std::size_t t = 0; t < spec.readers; ++t) {
    readers.emplace_back(
        [&] { read_loop(db, done, violations, acquires); });
  }

  for (std::size_t pos = 0; pos < rows.size(); pos += spec.batch) {
    const std::size_t end = std::min(pos + spec.batch, rows.size());
    db.add_batch({rows.begin() + static_cast<std::ptrdiff_t>(pos),
                  rows.begin() + static_cast<std::ptrdiff_t>(end)});
    ++report.batches;
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  const auto snap = db.snapshot();
  report.records = snap->size();
  report.epoch = snap->epoch();
  report.violations = violations.load();
  report.acquires = acquires.load();
  report.histograms_exact =
      bugtraq::rebuild_histograms(*snap) == snap->histograms();
  report.bytes_identical = snap->to_csv() == reference->to_csv();
  return report;
}

std::string render_corpus_traffic(const CorpusTrafficReport& report) {
  std::ostringstream os;
  os << "corpus traffic: seed " << report.spec.seed << ", "
     << report.spec.records << " record(s) in batches of " << report.spec.batch
     << ", " << report.spec.readers << " reader(s)\n";
  os << "  published " << report.batches << " batch(es); final epoch "
     << report.epoch << ", " << report.records << " record(s)\n";
  os << "  isolation violations: " << report.violations << "\n";
  os << "  incremental histograms == full rebuild: "
     << (report.histograms_exact ? "yes" : "NO") << "\n";
  os << "  corpus bytes == one-shot reference: "
     << (report.bytes_identical ? "yes" : "NO") << "\n";
  os << "timing: readers acquired " << report.acquires
     << " snapshot(s) (wall-clock-dependent)\n";
  os << (report.ok() ? "PASS" : "FAIL") << ": concurrent corpus service "
     << (report.ok() ? "held every invariant" : "broke an invariant") << "\n";
  return os.str();
}

}  // namespace dfsm::loadgen
