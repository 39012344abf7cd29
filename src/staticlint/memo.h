// memo.h — the fingerprint-keyed lint memo store (DESIGN.md §13).
//
// lint_chain() turns every runtime-built chain — discovery probes,
// fault-campaign trials, attack_graph compound compositions, loadgen
// monitor models — into a lint pass, and most of those chains are
// IDENTICAL from lint's point of view from one invocation to the next.
// A LintMemoStore keeps per-(model, rule) findings alive across lint()
// calls, so re-linting an unchanged model executes ZERO rules: every
// cell is a pure cache hit (telemetry-asserted in tests).
//
// Keying and soundness (same contract as analysis::SweepMemoStore):
//   * the FULL key is (model name, rule id), compared by exact equality;
//     the 64-bit hash only buckets, so a hash collision cannot alias
//     entries by construction;
//   * every cell is validated by the model's structural fingerprint
//     (staticlint::fingerprint over EVERY IR field a rule can read). A
//     lookup whose caller-side fingerprint differs finds a STALE cell:
//     the model changed since the cell was written. The cell is dropped
//     and the lookup misses — so editing one model invalidates exactly
//     that model's cells and nothing else;
//   * rules are pure functions of the IR (rules.h contract), so a cell
//     keyed by (name, rule) and validated by the full-IR fingerprint can
//     never serve findings the current model would not produce. Reusing
//     one model NAME for structurally different chains is fine — the
//     fingerprint catches it; that is the invalidation path the fault
//     campaign's fingerprint-thrash trials exercise.
#ifndef DFSM_STATICLINT_MEMO_H
#define DFSM_STATICLINT_MEMO_H

#include <cstddef>
#include <string>
#include <vector>

#include "core/fingerprint.h"
#include "runtime/validated_memo.h"
#include "staticlint/diagnostic.h"

namespace dfsm::staticlint {

/// Full structural key of one memoized lint cell.
struct LintMemoKey {
  std::string model;  ///< LintModel::name
  std::string rule;   ///< rule id, e.g. "DR001"

  [[nodiscard]] bool operator==(const LintMemoKey&) const = default;
};

struct LintMemoKeyHash {
  [[nodiscard]] std::size_t operator()(const LintMemoKey& k) const noexcept {
    core::Fingerprinter fp;
    fp.mix(k.model).mix(k.rule);
    return static_cast<std::size_t>(fp.digest());
  }
};

/// One cached cell: the rule's findings on the model.
struct LintMemoEntry {
  std::vector<Diagnostic> findings;
};

/// Thread-safe cross-lint memo store; lint() fills through
/// runtime::memo_fill, so its counts are deterministic.
using LintMemoStore =
    runtime::ValidatedMemo<LintMemoKey, LintMemoEntry, LintMemoKeyHash>;

}  // namespace dfsm::staticlint

#endif  // DFSM_STATICLINT_MEMO_H
