// bench_figure1 — regenerates Figure 1 (the breakdown of the 5925 Bugtraq
// vulnerabilities over the 12 categories) and the §1 "studied classes are
// 22% of the database" claim, then benchmarks the corpus generator and
// the statistics engine.
#include "bench_common.h"

#include "bugtraq/corpus.h"
#include "bugtraq/stats.h"
#include "core/table.h"

namespace {

using namespace dfsm;

void print_artifacts() {
  const auto snap = bugtraq::synthetic_corpus().snapshot();
  bench::print_artifact(
      "Figure 1: Breakdown of Vulnerabilities (Bugtraq, 2002-11-30)",
      bugtraq::render_figure1(*snap));

  const auto share = bugtraq::studied_share(*snap);
  core::TextTable t{{"Studied class", "Count", "Share of database"}};
  t.title("Coverage of the studied vulnerability classes (paper claim: 22%)");
  for (const auto& c : share.classes) {
    t.add_row({to_string(c.vuln_class), std::to_string(c.count),
               core::pct(static_cast<double>(c.count),
                         static_cast<double>(share.total))});
  }
  t.add_row({"TOTAL (studied)", std::to_string(share.studied_count),
             core::pct(static_cast<double>(share.studied_count),
                       static_cast<double>(share.total))});
  bench::print_artifact("Studied-class coverage", t.to_string());

  const auto split = bugtraq::remote_local_split(*snap);
  std::printf("Remote/local split: %zu remote, %zu local\n\n", split.remote,
              split.local);

  // Longitudinal + per-software cuts (the follow-on analyses §7 suggests).
  core::TextTable years{{"Year", "Reports"}};
  years.title("Reports per discovery year");
  for (const auto& y : bugtraq::by_year(*snap)) {
    years.add_row({std::to_string(y.year), std::to_string(y.count)});
  }
  bench::print_artifact("By-year cut", years.to_string());

  core::TextTable top{{"Software", "Reports"}};
  top.title("Most-reported software (top 8)");
  for (const auto& s : bugtraq::top_software(*snap, 8)) {
    top.add_row({s.software, std::to_string(s.count)});
  }
  bench::print_artifact("Per-software cut", top.to_string());
}

void BM_CorpusGeneration(benchmark::State& state) {
  for (auto _ : state) {
    auto db = bugtraq::synthetic_corpus(static_cast<std::uint64_t>(state.iterations()));
    benchmark::DoNotOptimize(db.epoch());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bugtraq::kBugtraqSize2002));
}
BENCHMARK(BM_CorpusGeneration)->Unit(benchmark::kMillisecond);

void BM_CategoryBreakdown(benchmark::State& state) {
  const auto snap = bugtraq::synthetic_corpus().snapshot();
  for (auto _ : state) {
    auto shares = bugtraq::category_breakdown(*snap);
    benchmark::DoNotOptimize(shares.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(snap->size()));
}
BENCHMARK(BM_CategoryBreakdown)->Unit(benchmark::kMicrosecond);

void BM_StudiedShare(benchmark::State& state) {
  const auto snap = bugtraq::synthetic_corpus().snapshot();
  for (auto _ : state) {
    auto share = bugtraq::studied_share(*snap);
    benchmark::DoNotOptimize(share.percent);
  }
}
BENCHMARK(BM_StudiedShare)->Unit(benchmark::kMicrosecond);

void BM_CsvRoundTrip(benchmark::State& state) {
  const auto csv = bugtraq::synthetic_corpus().snapshot()->to_csv();
  for (auto _ : state) {
    auto restored = bugtraq::Database::from_csv_parts({csv});
    benchmark::DoNotOptimize(restored.epoch());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(csv.size()));
}
BENCHMARK(BM_CsvRoundTrip)->Unit(benchmark::kMillisecond);

}  // namespace

DFSM_BENCH_MAIN(print_artifacts)
