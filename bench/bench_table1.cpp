// bench_table1 — regenerates Table 1 (the category-ambiguity table for
// the three signed-integer-overflow reports) plus an ambiguity census
// over the curated records, then benchmarks the classifier.
#include "bench_common.h"

#include "analysis/report.h"
#include "bugtraq/classifier.h"
#include "bugtraq/corpus.h"
#include "bugtraq/curated.h"
#include "core/table.h"

namespace {

using namespace dfsm;

void print_artifacts() {
  bench::print_artifact("Table 1: Ambiguity among vulnerability categories",
                        analysis::render_table1());

  // Extension: ambiguity census across every curated record.
  const auto snap = bugtraq::curated_records().snapshot();
  core::TextTable t{{"Record", "Plausible categories", "Ambiguous"}};
  t.title("Activity-level ambiguity across the curated paper records");
  for (const auto& r : snap->records()) {
    std::string cats;
    for (const auto c : bugtraq::plausible_categories(r)) {
      if (!cats.empty()) cats += "; ";
      cats += to_string(c);
    }
    t.add_row({(r.id != 0 ? "#" + std::to_string(r.id) + " " : "") + r.software,
               cats.empty() ? "-" : cats,
               bugtraq::classification_ambiguous(r) ? "yes" : "no"});
  }
  bench::print_artifact("Ambiguity census", t.to_string());
}

void BM_ClassifyActivity(benchmark::State& state) {
  const auto rows = bugtraq::table1_records();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& r = rows[i++ % rows.size()];
    benchmark::DoNotOptimize(bugtraq::category_for_activity(
        r.activities[static_cast<std::size_t>(r.reference_activity)]));
  }
}
BENCHMARK(BM_ClassifyActivity);

void BM_PlausibleCategories(benchmark::State& state) {
  const auto snap = bugtraq::curated_records().snapshot();
  for (auto _ : state) {
    for (const auto& r : snap->records()) {
      auto cats = bugtraq::plausible_categories(r);
      benchmark::DoNotOptimize(cats.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(snap->size()));
}
BENCHMARK(BM_PlausibleCategories)->Unit(benchmark::kMicrosecond);

void BM_ConsistencyCheckOverCorpus(benchmark::State& state) {
  auto db = bugtraq::synthetic_corpus();
  db.merge(bugtraq::curated_records());
  const auto snap = db.snapshot();
  for (auto _ : state) {
    std::size_t consistent = 0;
    for (const auto& r : snap->records()) {
      if (bugtraq::classification_consistent(r)) ++consistent;
    }
    benchmark::DoNotOptimize(consistent);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(snap->size()));
}
BENCHMARK(BM_ConsistencyCheckOverCorpus)->Unit(benchmark::kMicrosecond);

}  // namespace

DFSM_BENCH_MAIN(print_artifacts)
