// linter.h — runs the rule set over a set of models, in parallel, with
// a deterministic finding order.
//
// Determinism contract (DESIGN.md §7): the (model, rule) grid is
// fanned out through runtime::parallel_map — each cell is a pure
// function of its model and rule — and the per-cell finding vectors are
// concatenated in (model index, rule registry index) order. The output
// is therefore byte-identical at every DFSM_THREADS setting, matching
// the serial walk exactly.
//
// Incremental mode (DESIGN.md §13): hand LintOptions a LintMemoStore
// and the grid fills through it with runtime::memo_fill — serial lookup,
// parallel execution of the MISSED cells only, serial insert. Findings
// are byte-identical with and without the store (cells re-enter the
// output at their grid position), only LintRun's telemetry
// distinguishes the two; re-linting an unchanged model executes zero
// rules.
#ifndef DFSM_STATICLINT_LINTER_H
#define DFSM_STATICLINT_LINTER_H

#include <cstddef>
#include <string>
#include <vector>

#include "core/chain.h"
#include "runtime/thread_pool.h"
#include "staticlint/diagnostic.h"
#include "staticlint/memo.h"
#include "staticlint/model_ir.h"
#include "staticlint/rules.h"

namespace dfsm::staticlint {

/// Which rules to run. Empty rule_ids = the whole registry.
struct LintOptions {
  std::vector<std::string> rule_ids;

  /// Optional cross-lint memo store (not owned). When set, (model, rule)
  /// cells whose model fingerprint matches a cached cell are served from
  /// the store instead of executing the rule; see memo.h for soundness.
  LintMemoStore* memo = nullptr;
};

/// Outcome of one lint run.
struct LintRun {
  std::vector<Diagnostic> findings;  ///< deterministic order (see header)
  std::size_t models_checked = 0;
  std::size_t rules_run = 0;  ///< rules applied per model

  // Incremental-mode telemetry for THIS run (zeros when memo is off).
  bool memoized = false;              ///< ran through a LintMemoStore
  std::size_t rules_executed = 0;     ///< cells actually executed
  std::size_t memo_hits = 0;          ///< cells served from the store
  std::size_t memo_misses = 0;        ///< cells absent from the store
  std::size_t memo_invalidated = 0;   ///< stale cells dropped on lookup

  [[nodiscard]] std::size_t count(Severity s) const;
  [[nodiscard]] std::size_t errors() const { return count(Severity::kError); }
  [[nodiscard]] std::size_t warnings() const {
    return count(Severity::kWarning);
  }
};

/// Lints every model with the selected rules. Throws
/// std::invalid_argument if an option names an unknown rule id.
[[nodiscard]] LintRun lint(const std::vector<LintModel>& models,
                           const LintOptions& options = {},
                           runtime::ThreadPool& pool =
                               runtime::ThreadPool::global());

/// Lints one already-snapshotted IR model. Convenience single-model
/// front of lint() — same grid, same determinism, same memo routing.
[[nodiscard]] LintRun lint_model_ir(const LintModel& model,
                                    const LintOptions& options = {},
                                    runtime::ThreadPool& pool =
                                        runtime::ThreadPool::global());

/// Snapshots a runtime-built chain into the callable-free IR and lints
/// it. THE universal entry point: discovery probes, fault-campaign
/// trials, attack_graph compositions and loadgen monitor models all
/// funnel their chains through here. `source_hint`, when known, flows
/// onto every finding (and into SARIF physical locations).
[[nodiscard]] LintRun lint_chain(const core::ExploitChain& chain,
                                 const LintOptions& options = {},
                                 std::string source_hint = "",
                                 runtime::ThreadPool& pool =
                                     runtime::ThreadPool::global());

}  // namespace dfsm::staticlint

#endif  // DFSM_STATICLINT_LINTER_H
