// End-to-end integration: the byte-level sandbox exploits, the predicate-
// level FSM models, the runtime monitor, and the Bugtraq records must all
// tell one consistent story for each case study.
#include <gtest/gtest.h>

#include "analysis/chain_analyzer.h"
#include "analysis/discovery.h"
#include "analysis/monitor.h"
#include "apps/case_study.h"
#include "apps/models.h"
#include "apps/nullhttpd.h"
#include "apps/sendmail.h"
#include "bugtraq/classifier.h"
#include "bugtraq/corpus.h"
#include "bugtraq/curated.h"
#include "bugtraq/stats.h"
#include "core/render.h"
#include "memsim/snapshot.h"

namespace dfsm {
namespace {

TEST(EndToEnd, EveryCaseStudyBaselineExploitsAndFullMaskFoils) {
  for (const auto& study : apps::all_case_studies()) {
    const std::size_t k = study->checks().size();
    const std::vector<bool> none(k, false);
    const std::vector<bool> all(k, true);
    EXPECT_TRUE(study->run_exploit(none).exploited) << study->name();
    const auto protected_run = study->run_exploit(all);
    EXPECT_FALSE(protected_run.exploited) << study->name();
    EXPECT_TRUE(study->run_benign(all).service_ok) << study->name();
  }
}

TEST(EndToEnd, ModelsAndCaseStudiesAgreeOnCheckCounts) {
  for (const auto& study : apps::all_case_studies()) {
    const auto model = study->model();
    // One toggleable check per pFSM — except IIS, whose single pFSM has
    // TWO alternative implementations of the same predicate (decode once
    // vs re-check after the second decode).
    if (study->name().find("IIS") != std::string::npos) {
      EXPECT_GE(study->checks().size(), model.pfsm_count()) << study->name();
    } else {
      EXPECT_EQ(study->checks().size(), model.pfsm_count()) << study->name();
    }
    // Check operation indices stay within the model's chain.
    for (const auto& c : study->checks()) {
      EXPECT_LT(c.operation_index, model.chain().size()) << study->name();
    }
  }
}

TEST(EndToEnd, CheckTypesMatchTheModelPfsmTypes) {
  for (const auto& study : apps::all_case_studies()) {
    const auto model = study->model();
    const auto summaries = model.summaries();
    const auto checks = study->checks();
    if (checks.size() != summaries.size()) {
      // IIS: both checks implement the model's single pFSM (see above);
      // their type must still match it.
      ASSERT_NE(study->name().find("IIS"), std::string::npos) << study->name();
      for (const auto& c : checks) {
        EXPECT_EQ(c.type, summaries[0].type) << study->name();
      }
      continue;
    }
    for (std::size_t i = 0; i < checks.size(); ++i) {
      EXPECT_EQ(checks[i].type, summaries[i].type)
          << study->name() << " check " << i;
    }
  }
}

TEST(EndToEnd, SendmailSandboxMonitorAndModelAgreeAcrossInputs) {
  const struct {
    const char* str_x;
    const char* str_i;
  } cases[] = {
      {"7", "3"},            // benign
      {"100", "1"},          // boundary benign
      {"4294958848", "99"},  // wrapped negative, harmless i
  };
  for (const auto& c : cases) {
    apps::SendmailTTflag app;
    const auto concrete = app.run_debug_command(c.str_x, c.str_i);
    analysis::RuntimeMonitor monitor{apps::SendmailTTflag::figure3_model()};
    const auto modeled = monitor.observe(analysis::sendmail_observation(
        c.str_x, c.str_i, app.process().got().unchanged("setuid")));
    if (concrete.crashed) continue;  // wild writes have no model analogue
    EXPECT_EQ(concrete.mcode_executed, modeled.exploited())
        << c.str_x << "." << c.str_i;
  }
}

TEST(EndToEnd, NullHttpdRunFeedsTheMonitorFaithfully) {
  const auto info = apps::NullHttpd::scout(-800);
  apps::NullHttpd app;
  const auto body = apps::NullHttpd::build_overflow_body(info);
  const auto r = app.handle_post(-800, std::string(body.begin(), body.end()));
  ASSERT_TRUE(r.mcode_executed);

  analysis::RuntimeMonitor monitor{apps::NullHttpd::figure4_model()};
  const auto modeled = monitor.observe(analysis::nullhttpd_observation(
      r.content_len, static_cast<std::int64_t>(r.bytes_read),
      static_cast<std::int64_t>(r.postdata_usable),
      /*links_unchanged=*/false,
      app.process().got().unchanged("free")));
  EXPECT_TRUE(modeled.exploited());
  EXPECT_EQ(monitor.violations().size(), 4u);
}

TEST(EndToEnd, DiscoveredVulnerabilityIsFiledInTheDatabase) {
  // Discovery -> report -> database: the 6255 record exists and its class
  // and category match what the probe campaign demonstrates.
  const auto discovery = analysis::probe_nullhttpd_v051();
  ASSERT_TRUE(discovery.found_new_vulnerability);
  const auto db = bugtraq::curated_records();
  const auto rec = db.by_id(6255);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->vuln_class, bugtraq::VulnClass::kHeapOverflow);
  EXPECT_EQ(rec->category, bugtraq::Category::kBoundaryConditionError);
}

TEST(EndToEnd, CorpusPlusCuratedStillMatchesFigure1Shares) {
  // Merging the handful of curated real records into the synthetic corpus
  // must not move any rounded percentage — the analysis pipeline tolerates
  // database growth.
  auto db = bugtraq::synthetic_corpus();
  db.merge(bugtraq::curated_records());
  const auto shares = bugtraq::category_breakdown(*db.snapshot());
  for (const auto& s : shares) {
    if (s.category == bugtraq::Category::kInputValidationError) {
      EXPECT_EQ(s.rounded_percent, 23);
    }
    if (s.category == bugtraq::Category::kBoundaryConditionError) {
      EXPECT_EQ(s.rounded_percent, 21);
    }
  }
}

TEST(EndToEnd, EveryModelRendersToDotAndAscii) {
  for (const auto& m : apps::standard_models()) {
    EXPECT_FALSE(core::to_dot(m).empty());
    EXPECT_FALSE(core::to_ascii(m).empty());
  }
}

TEST(EndToEnd, LemmaSweepCoversEveryRegisteredStudy) {
  const auto reports = analysis::sweep_all();
  EXPECT_EQ(reports.size(), apps::all_case_studies().size());
  std::size_t total_masks = 0;
  for (const auto& r : reports) total_masks += r.rows.size();
  // 8 + 16 + 16 + 4 + 4 + 4 + 4 + 4 (paper studies) + 3 * 4 (the
  // format-string family) = 72 configurations, all executed.
  EXPECT_EQ(total_masks, 72u);
}

TEST(EndToEnd, SnapshotForensicsLocalizesTheGotCorruption) {
  // The generalized reference-consistency check: snapshot the GOT at
  // "load time", run the exploit, and the diff pinpoints exactly the
  // corrupted slot — no per-slot predicate needed.
  const auto info = apps::NullHttpd::scout(-800);
  apps::NullHttpd app;
  const auto snap =
      memsim::MemorySnapshot::capture(app.process().mem(), {"got"});
  const auto body = apps::NullHttpd::build_overflow_body(info);
  const auto r = app.handle_post(-800, std::string(body.begin(), body.end()));
  ASSERT_TRUE(r.mcode_executed);

  const auto regions = snap.diff(app.process().mem());
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].segment, "got");
  // The changed bytes sit inside the free() slot.
  const auto slot = app.process().got().slot_address("free");
  EXPECT_GE(regions[0].start, slot);
  EXPECT_LT(regions[0].start, slot + 8);
  EXPECT_TRUE(snap.changed_within(app.process().mem(), slot, slot + 8));
}

TEST(EndToEnd, SnapshotForensicsStaysQuietOnBenignTraffic) {
  apps::NullHttpd app;
  const auto snap =
      memsim::MemorySnapshot::capture(app.process().mem(), {"got"});
  const auto r = app.handle_post(300, std::string(300, 'b'));
  ASSERT_TRUE(r.served);
  EXPECT_TRUE(snap.unchanged(app.process().mem()));
}

TEST(EndToEnd, CuratedActivitiesClassifyIntoTheirAssignedCategories) {
  // Ties Table 1's mechanism to every curated record: the classifier,
  // anchored on each record's reference activity, reproduces Bugtraq's
  // category assignment.
  const auto snap = bugtraq::curated_records().snapshot();
  for (const auto& r : snap->records()) {
    EXPECT_TRUE(bugtraq::classification_consistent(r)) << r.title;
  }
}

}  // namespace
}  // namespace dfsm
