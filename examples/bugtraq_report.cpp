// bugtraq_report — the paper's data-analysis pipeline as a CLI: generate
// the synthetic Bugtraq corpus (Figure 1 marginals), merge the curated
// paper records, print the statistics, the Table 1 ambiguity analysis,
// the Table 2 classification, and the Lemma verification summary.
//
//   $ ./bugtraq_report [--csv]    (--csv dumps the corpus to stdout)
#include <cstdio>
#include <cstring>

#include "analysis/chain_analyzer.h"
#include "analysis/report.h"
#include "apps/models.h"
#include "bugtraq/classifier.h"
#include "bugtraq/corpus.h"
#include "bugtraq/curated.h"
#include "bugtraq/stats.h"

using namespace dfsm;

int main(int argc, char** argv) {
  auto db = bugtraq::synthetic_corpus();
  db.merge(bugtraq::curated_records());
  const auto snap = db.snapshot();

  if (argc > 1 && std::strcmp(argv[1], "--csv") == 0) {
    std::fputs(snap->to_csv().c_str(), stdout);
    return 0;
  }

  std::printf("Database: %zu reports (synthetic corpus matching the 2002-11-30 "
              "marginals + %zu curated paper records)\n\n",
              snap->size(), bugtraq::curated_records().snapshot()->size());

  std::printf("%s\n", bugtraq::render_figure1(*snap).c_str());

  const auto share = bugtraq::studied_share(*snap);
  std::printf("Studied classes: %zu reports = %.1f%% of the database "
              "(paper: 22%%)\n\n",
              share.studied_count, share.percent);

  std::printf("%s\n", analysis::render_table1().c_str());

  // In-depth census: how many records in the database are ambiguous under
  // activity-anchored classification?
  std::size_t annotated = 0;
  std::size_t ambiguous = 0;
  for (const auto& r : snap->records()) {
    if (r.activities.empty()) continue;
    ++annotated;
    if (bugtraq::classification_ambiguous(r)) ++ambiguous;
  }
  std::printf("Of %zu activity-annotated records, %zu admit more than one "
              "category — the ambiguity that motivates activity-level pFSM "
              "modeling.\n\n",
              annotated, ambiguous);

  std::printf("%s\n", analysis::render_table2(apps::standard_models()).c_str());
  std::printf("%s\n", analysis::render_figure8(apps::standard_models()).c_str());
  std::printf("%s\n", analysis::render_lemma(analysis::sweep_all()).c_str());
  return 0;
}
