// bench_lemma — the §6 Lemma, machine-checked: the full 2^k check-mask
// sweep over every case study (60 configurations), the per-study mask
// tables, and the ablation DESIGN.md §6 calls out (per-activity checks vs
// a single perimeter check); then benchmarks the sweep engine.
#include "bench_common.h"

#include <bit>

#include "analysis/chain_analyzer.h"
#include "analysis/defense_matrix.h"
#include "analysis/report.h"
#include "core/table.h"

namespace {

using namespace dfsm;

std::string single_check_ablation(const std::vector<analysis::LemmaReport>& reports) {
  // How many of the k single-check placements already foil the exploit?
  // The paper's Observation 1 says every elementary activity is a
  // checking opportunity; this quantifies how many actually suffice.
  core::TextTable t{{"Case study", "Checks", "Single checks that foil",
                     "Cheapest sufficient set"}};
  t.title("Ablation: per-activity single checks vs the exploit");
  for (const auto& r : reports) {
    // Find the smallest mask (by popcount) that foils.
    std::size_t best_popcount = r.checks.size() + 1;
    std::string best_mask = "-";
    for (const auto& row : r.rows) {
      if (r.exploit_of(row).exploited) continue;
      const auto pop = static_cast<std::size_t>(std::popcount(row.mask_id()));
      std::string mask;
      for (std::size_t i = 0; i < r.checks.size(); ++i) {
        mask += row.check_on(i) ? '1' : '0';
      }
      if (pop < best_popcount) {
        best_popcount = pop;
        best_mask = mask;
      }
    }
    t.add_row({r.study_name, std::to_string(r.checks.size()),
               std::to_string(r.foiling_single_checks.size()) + "/" +
                   std::to_string(r.checks.size()),
               best_mask + " (" + std::to_string(best_popcount) + " checks)"});
  }
  return t.to_string();
}

void print_artifacts() {
  const auto reports = analysis::sweep_all();
  bench::print_artifact("Lemma verification (all case studies)",
                        analysis::render_lemma(reports));
  bench::print_artifact("Ablation: minimal sufficient check sets",
                        single_check_ablation(reports));
  bench::print_artifact(
      "Defense matrix (§6: StackGuard covers one reference-inconsistency "
      "family; consistency checks cover them all)",
      analysis::render_defense_matrix(analysis::defense_matrix()));
  for (const auto& r : reports) {
    bench::print_artifact("Mask table: " + r.study_name,
                          analysis::render_mask_table(r));
  }
}

void BM_SweepOneStudy(benchmark::State& state) {
  const auto studies = apps::all_case_studies();
  const auto& study = *studies[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    auto report = analysis::sweep(study);
    benchmark::DoNotOptimize(report.lemma2_holds);
  }
  state.SetLabel(study.name());
}
BENCHMARK(BM_SweepOneStudy)->DenseRange(0, 10)->Unit(benchmark::kMillisecond);

void BM_SweepAll(benchmark::State& state) {
  for (auto _ : state) {
    auto reports = analysis::sweep_all();
    benchmark::DoNotOptimize(reports.size());
  }
  state.SetItemsProcessed(state.iterations() * 72);  // 72 mask configurations
}
BENCHMARK(BM_SweepAll)->Unit(benchmark::kMillisecond);

}  // namespace

DFSM_BENCH_MAIN(print_artifacts)
