// defense_matrix.h — which deployed defence stops which memory-corruption
// exploit: the systematic version of the paper's §6 observation that
// "while techniques protecting the return address have been widely
// recognized, very few techniques are available to protect OTHER
// reference inconsistencies, such as ... function pointers, entries in
// GOT tables, and links to free memory chunks on the heap."
//
// Rows: the four memory-corruption exploits (Sendmail GOT underflow, the
// two NULL HTTPD heap overflows, GHTTPD stack smash, rpc.statd %n).
// Columns: the defence families of the paper's elementary activities —
// input validation, boundary-checked copy, StackGuard canary,
// reference-consistency checking. Every cell is a real sandboxed run,
// not an assertion.
#ifndef DFSM_ANALYSIS_DEFENSE_MATRIX_H
#define DFSM_ANALYSIS_DEFENSE_MATRIX_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/sweep_memo.h"
#include "apps/case_study.h"

namespace dfsm::analysis {

/// The defence families (one column each).
enum class Defense {
  kNone,              ///< baseline
  kInputValidation,   ///< reject bad input at elementary activity 1
  kBoundedCopy,       ///< boundary-checked copy at elementary activity 2
  kStackGuard,        ///< canary between locals and the return address
  kRefConsistency,    ///< check the reference (GOT / ret / chunk links)
};

[[nodiscard]] const char* to_string(Defense d) noexcept;

/// What a single (exploit, defence) run produced.
enum class CellOutcome {
  kExploited,      ///< Mcode ran — the defence did not help
  kFoiled,         ///< the defence stopped the exploit
  kIneffective,    ///< defence active but bypassed (== exploited with it on)
  kNotApplicable,  ///< the app has no such knob (e.g. bounded copy for %n)
};

[[nodiscard]] const char* to_string(CellOutcome o) noexcept;

struct DefenseCell {
  std::string exploit;
  Defense defense = Defense::kNone;
  CellOutcome outcome = CellOutcome::kExploited;
  std::string detail;
};

/// Runs the full matrix (every cell is a fresh sandboxed exploit run).
[[nodiscard]] std::vector<DefenseCell> defense_matrix();

/// Text rendering (exploit rows x defence columns).
[[nodiscard]] std::string render_defense_matrix(
    const std::vector<DefenseCell>& cells);

// --- patch-set ranking (the Lemma's §6 "where to put the check") -------

/// How the per-candidate counts are produced.
enum class RankStrategy {
  /// One shared cache fill, then each candidate is a pure composition
  /// (analysis::sweep_summary with the operation pinned) — k candidates
  /// for the price of one sweep. The default.
  kIncremental,
  /// One full sweep per candidate (apps::make_secured_study + sweep),
  /// counting rows directly — the reference the incremental path is
  /// tested against.
  kFullSweeps,
};

[[nodiscard]] const char* to_string(RankStrategy s) noexcept;

/// One candidate patch: secure every check of this operation.
struct PatchCandidate {
  std::size_t operation = 0;
  std::string operation_name;          ///< from the study's FSM model chain
  std::uint64_t exploited_masks = 0;   ///< masks still exploited after patch
  std::uint64_t benign_broken_masks = 0;
  bool forecloses = false;             ///< exploited_masks == 0 (Lemma 2)
};

/// Candidates ranked best-first (fewest residual exploited masks, ties
/// by fewest broken benign masks, then operation id).
struct PatchRanking {
  std::string study_name;
  RankStrategy strategy = RankStrategy::kIncremental;
  std::uint64_t total_masks = 0;
  std::uint64_t unpatched_exploited_masks = 0;  ///< nothing secured
  std::vector<PatchCandidate> candidates;
  /// Total study evaluations across the whole ranking (the speedup the
  /// incremental strategy exists for; the bench pair gates on it).
  std::size_t exploit_evaluations = 0;
  std::size_t benign_evaluations = 0;
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;
};

/// Ranks every operation of the study as a patch candidate. The two
/// strategies produce identical counts and ordering (tests assert it);
/// only the evaluation accounting differs. `memo` (incremental strategy
/// only) shares the cache fill across calls — pass the study-family
/// store to make repeated rankings nearly free; nullptr uses a private
/// store for the duration of the call.
[[nodiscard]] PatchRanking rank_patch_candidates(
    const apps::CaseStudy& study,
    RankStrategy strategy = RankStrategy::kIncremental,
    SweepMemoStore* memo = nullptr);

/// Text rendering of a ranking (one row per candidate, best first).
[[nodiscard]] std::string render_patch_ranking(const PatchRanking& ranking);

}  // namespace dfsm::analysis

#endif  // DFSM_ANALYSIS_DEFENSE_MATRIX_H
