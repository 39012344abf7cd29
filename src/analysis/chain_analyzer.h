// chain_analyzer.h — the Lemma, machine-checked (paper §6).
//
//   Lemma. (1) To ensure the security of an operation requires [all] the
//   predicates (represented by pFSMs) constituting the operation to be
//   correctly implemented. (2) To foil an exploit consisting of a
//   sequence of vulnerable operations, it is sufficient to ensure
//   security of ONE of the operations in the sequence.
//
// ChainAnalyzer enumerates every 2^k combination of a case study's
// elementary-activity checks, runs the published exploit and a benign
// workload under each, and verifies:
//   * baseline (no checks)  -> exploited,
//   * any mask securing at least one whole operation -> NOT exploited
//     (Lemma 2),
//   * all checks on -> not exploited AND benign service intact (Lemma 1's
//     "sufficient" direction plus no functional regression),
//   * benign traffic is served under EVERY mask (checks are free).
//
// Two engines produce the same report (DESIGN.md §10):
//   * kDirect runs the study once per mask — 2^k full app runs, the
//     reference semantics;
//   * kMemoized exploits the Lemma's predicate independence: an
//     operation's behaviour depends only on the sub-mask of its OWN
//     checks, so each operation is evaluated at most 2^{k_op} times (a
//     per-operation outcome cache keyed by sub-mask) and the 2^k rows are
//     composed through the propagation-gate order — the first operation
//     whose sub-mask perturbs the run determines the row.
//
// On top of the memoized engine sit the cross-sweep layers (DESIGN.md
// §11): SweepOptions::memo plugs a shared SweepMemoStore under the cache
// fill (runtime::memo_fill) so repeated sweeps of the same study family
// (sampled → exhaustive escalation, fault-campaign trials, sweep_all)
// re-evaluate nothing, and
// resweep / sweep_summary recompose a baseline sweep under a SweepDelta
// (changed and/or secured operations) — k patch-candidate evaluations
// cost one sweep plus k compositions instead of k sweeps.
//
// All engines fan out over the deterministic parallel runtime; reports
// are byte-identical at every DFSM_THREADS setting and across engines
// (tests + the fault-injection cross-check gate on it).
#ifndef DFSM_ANALYSIS_CHAIN_ANALYZER_H
#define DFSM_ANALYSIS_CHAIN_ANALYZER_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/sweep_memo.h"
#include "apps/case_study.h"

namespace dfsm::analysis {

/// One row of the sweep, 16 bytes: bits 0..k-1 of `mask` are the check
/// mask (bit i == check i enabled), bit 63 flags that at least one
/// operation has every one of its checks on (k <= 62, so the bit is
/// free), and `exploit` / `benign` index LemmaReport::outcomes.
struct LemmaRow {
  static constexpr std::uint64_t kSecuredBit = std::uint64_t{1} << 63;

  std::uint64_t mask = 0;
  std::uint32_t exploit = 0;
  std::uint32_t benign = 0;

  /// The mask id with the secured flag stripped.
  [[nodiscard]] std::uint64_t mask_id() const { return mask & ~kSecuredBit; }
  /// Whether check `i` is enabled under this row.
  [[nodiscard]] bool check_on(std::size_t i) const { return (mask >> i) & 1; }
  /// Whether >= 1 operation has all of its checks on.
  [[nodiscard]] bool secured() const { return (mask & kSecuredBit) != 0; }
};
static_assert(sizeof(LemmaRow) == 16, "LemmaRow must stay a 16-byte row");

/// Full sweep over one case study.
struct LemmaReport {
  std::string study_name;
  std::vector<apps::CheckSpec> checks;
  /// Distinct outcomes, interned in an order that depends only on the
  /// study and options (never on DFSM_THREADS); rows index into it.
  std::vector<apps::RunOutcome> outcomes;
  std::vector<LemmaRow> rows;  ///< mask rows in ascending mask order

  [[nodiscard]] const apps::RunOutcome& exploit_of(const LemmaRow& r) const {
    return outcomes[r.exploit];
  }
  [[nodiscard]] const apps::RunOutcome& benign_of(const LemmaRow& r) const {
    return outcomes[r.benign];
  }

  bool baseline_exploited = false;   ///< mask 0...0 exploited
  bool all_checks_foil = false;      ///< mask 1...1 not exploited
  bool lemma2_holds = false;         ///< every secured-operation mask foils
  bool benign_preserved = false;     ///< benign served under every mask
  /// Single-check masks that already foil the exploit (the paper's "each
  /// elementary activity provides a security checking opportunity").
  std::vector<std::size_t> foiling_single_checks;

  // --- sweep accounting --------------------------------------------------
  std::uint64_t total_masks = 0;  ///< 2^k (even when rows were sampled)
  bool sampled = false;           ///< rows hold a max_masks subset
  /// How many times study.run_exploit / run_benign actually ran. Direct:
  /// one each per row. Memoized: at most 1 + sum_ops (2^{k_op} - 1) each
  /// regardless of 2^k (tests assert the bound); with a memo store
  /// attached, only the cells the store could not serve.
  std::size_t exploit_evaluations = 0;
  std::size_t benign_evaluations = 0;

  // --- shared-store telemetry (all zero without SweepOptions::memo) ------
  std::size_t memo_hits = 0;           ///< cache cells served by the store
  std::size_t memo_misses = 0;         ///< cells evaluated then inserted
  std::size_t entries_invalidated = 0; ///< stale entries dropped (fingerprint)
};

/// Which evaluation engine drives the sweep.
enum class SweepMode {
  kMemoized,  ///< per-operation sub-mask cache + gate composition (default)
  kDirect,    ///< one full study run per mask (reference semantics)
};

/// Checks-count ceiling for exhaustive sweeps: 2^26 16-byte rows is
/// already 1 GiB of report; beyond it a sweep must sample.
inline constexpr std::size_t kMaxExhaustiveSweepChecks = 26;

struct SweepOptions {
  SweepMode mode = SweepMode::kMemoized;
  /// 0 = enumerate all 2^k masks. Otherwise an evenly-strided,
  /// deterministic sample of at most max_masks masks that always
  /// includes mask 0...0 and mask 1...1 (so the baseline/all-checks
  /// verdicts stay meaningful); required once k >= 26.
  std::uint64_t max_masks = 0;
  /// Optional cross-sweep memo store (memoized engine only; the direct
  /// engine never touches it). The fill runs through runtime::memo_fill
  /// — serial lookup, parallel evaluation of the misses, serial
  /// insertion — so hit/miss/invalidation accounting is byte-identical at
  /// every DFSM_THREADS setting.
  SweepMemoStore* memo = nullptr;
};

/// Sweeps one study's masks. Throws std::invalid_argument when the study
/// has kMaxExhaustiveSweepChecks or more checks and no max_masks cap.
[[nodiscard]] LemmaReport sweep(const apps::CaseStudy& study,
                                const SweepOptions& options);

/// Exhaustive sweep with default options (memoized engine).
[[nodiscard]] LemmaReport sweep(const apps::CaseStudy& study);

/// Sweeps every registered case study, sharding the (study x mask) work
/// over the parallel runtime; reports come back in registry order. An
/// options.memo store is shared by all studies (their keys are disjoint,
/// so per-study accounting stays deterministic).
[[nodiscard]] std::vector<LemmaReport> sweep_all();
[[nodiscard]] std::vector<LemmaReport> sweep_all(const SweepOptions& options);

// --- incremental re-analysis (DESIGN.md §11) ----------------------------

/// What changed relative to a baseline sweep.
struct SweepDelta {
  /// Operations whose pFSM/check set changed: their sub-mask cells are
  /// re-evaluated against the (new) study; everything else is reused
  /// from the baseline report.
  std::vector<std::size_t> changed_operations;
  /// Operations to secure (the patch candidate): every one of their
  /// checks is pinned on, by composition only — securing costs ZERO
  /// re-evaluations. The result equals a full sweep of
  /// apps::make_secured_study(study, secured_operations).
  std::vector<std::size_t> secured_operations;
};

/// Incremental re-analysis: recomposes `baseline` (an exhaustive,
/// unsampled sweep of `study`) under `delta`, re-evaluating only the
/// changed operations' sub-masks and recomposing every row through the
/// existing gate-order composition. Equivalent (reports_equivalent) to a
/// full memoized or direct sweep of the delta'd study at every
/// DFSM_THREADS setting. Throws std::invalid_argument when the baseline
/// is sampled, belongs to a different study, or the delta names an
/// operation without checks.
[[nodiscard]] LemmaReport resweep(const apps::CaseStudy& study,
                                  const LemmaReport& baseline,
                                  const SweepDelta& delta,
                                  const SweepOptions& options = {});

/// Aggregate sweep verdicts computed combinatorially from the
/// per-operation caches WITHOUT materializing the 2^k rows: the mask
/// space factors into per-operation sub-mask spaces, so every count is a
/// product-sum over at most sum_ops 2^{k_op} cells. This is the
/// k-candidates-for-one-sweep hot path: with a shared memo store the
/// marginal cost of a patch candidate is pure composition.
struct SweepSummary {
  std::string study_name;             ///< secured name when delta pins ops
  std::uint64_t total_masks = 0;
  std::uint64_t exploited_masks = 0;  ///< masks under which the exploit lands
  std::uint64_t benign_broken_masks = 0;  ///< masks breaking benign service
  bool baseline_exploited = false;    ///< mask 0...0 (after pinning)
  bool all_checks_foil = false;
  bool lemma2_holds = false;
  std::size_t exploit_evaluations = 0;
  std::size_t benign_evaluations = 0;
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;
  std::size_t entries_invalidated = 0;
};

/// Computes the summary for `study` with delta.secured_operations pinned
/// on (delta.changed_operations is irrelevant here: the fill always
/// evaluates against the current study, and a memo store revalidates by
/// fingerprint). Works for any k <= 62. Throws std::invalid_argument on
/// an operation without checks.
[[nodiscard]] SweepSummary sweep_summary(const apps::CaseStudy& study,
                                         const SweepDelta& delta = {},
                                         const SweepOptions& options = {});

/// True iff, under this mask, operation `op` of the study has every one of
/// its checks enabled.
[[nodiscard]] bool operation_secured(const std::vector<apps::CheckSpec>& checks,
                                     const std::vector<bool>& mask, std::size_t op);

/// Result equality modulo accounting: same rows (masks, resolved
/// outcomes, secured flags) and same verdicts, ignoring outcome-table
/// order, evaluation counters and memo telemetry. This is the
/// memoized-vs-direct cross-check contract.
[[nodiscard]] bool reports_equivalent(const LemmaReport& a,
                                      const LemmaReport& b);

// --- fault-injection surface (src/faultinject/) -------------------------

/// Seeded defects aimed at the memoized engine's cache and the
/// cross-sweep store. Each must be caught by the memoized-vs-direct
/// cross-check (reports_equivalent returning false against the
/// reference) — that cross-check is the safety net that licenses
/// shipping the memoized engine and the shared store as the default.
enum class SweepFault {
  /// A blocking sub-mask entry is overwritten with the baseline outcome,
  /// as if the cache were stale from a previous (all-checks-off) fill.
  kStaleSubmaskEntry,
  /// The outcome-table entry of the first cell whose exploit run blocks
  /// has its `exploited` bit flipped (never the baseline's entry;
  /// memoized rows holding that outcome inherit the corrupted verdict).
  kFlippedCacheOutcome,
  /// Rows are composed from the LAST blocking operation instead of the
  /// first — the propagation-gate order is applied backwards.
  kWrongGateComposition,
  /// The shared store serves an entry written for a DIFFERENT cell (a
  /// previous sweep generation) without consulting the invalidation
  /// fingerprint: one blocking cell inherits another cell's outcome.
  kStaleSharedMemoAcrossSweeps,
  /// Incremental re-analysis of a patch misses the invalidation/pinning
  /// of the secured operation: the "patched" report is composed from the
  /// unpatched entries. The cross-check reference is the direct sweep of
  /// the secured study (SweepFaultReport::reference).
  kMissedInvalidationOnPatch,
};

[[nodiscard]] const char* to_string(SweepFault f) noexcept;

/// What a sweep fault hit.
struct SweepFaultReport {
  LemmaReport report;  ///< the (corrupted) memoized sweep
  std::string target;  ///< "op <i> submask <s>" or "gate composition"
  /// The report the cross-check must diff against, when it is NOT the
  /// direct sweep of the study itself (kMissedInvalidationOnPatch
  /// compares against the secured study's direct sweep).
  std::optional<LemmaReport> reference;
};

/// Runs the memoized sweep with the given fault injected. Returns
/// nullopt when the study cannot host the fault (no blocking cache entry
/// to corrupt, no second differing cell to alias, or — for
/// kWrongGateComposition — no two operations whose blocking outcomes
/// differ, so first-vs-last is indistinguishable).
[[nodiscard]] std::optional<SweepFaultReport> sweep_with_fault(
    const apps::CaseStudy& study, SweepFault fault,
    const SweepOptions& options = {});

}  // namespace dfsm::analysis

#endif  // DFSM_ANALYSIS_CHAIN_ANALYZER_H
