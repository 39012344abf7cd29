// sweep_memo.h — the cross-sweep memo store (DESIGN.md §11).
//
// The memoized sweep engine evaluates each operation once per sub-mask
// of its OWN checks. A SweepMemoStore keeps those per-(operation,
// sub-mask) outcomes alive across sweeps of the same study family:
// sampled → exhaustive escalation, repeated fault-campaign trials,
// sweep_all over the curated registry, and the k-candidate patch-ranking
// loops in defense_matrix / attack_graph all re-fill from it for free.
//
// Keying and soundness:
//   * the FULL key is (study name, operation id, sub-mask) compared by
//     exact equality — the 64-bit hash only buckets, so a fingerprint or
//     hash collision across distinct operations cannot alias entries BY
//     CONSTRUCTION (tests pin this);
//   * every entry is validated by the operation's structural fingerprint
//     (core::fingerprint over its pFSM set). A lookup whose caller-side
//     fingerprint differs finds a STALE entry: the operation's check set
//     changed since the entry was written. The entry is dropped and the
//     lookup misses — so a changed pFSM set invalidates exactly that
//     operation's entries and nothing else;
//   * the study-family name is part of the key AND of the contract: a
//     family name identifies the application's UNCHECKED (all-off)
//     behaviour. Changing unchecked behaviour under a reused name is
//     outside the store's soundness scope — use a new family name (the
//     secured-study wrapper does exactly that). The
//     kMissedInvalidationOnPatch fault mutator exercises the violation.
#ifndef DFSM_ANALYSIS_SWEEP_MEMO_H
#define DFSM_ANALYSIS_SWEEP_MEMO_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "apps/case_study.h"
#include "core/fingerprint.h"
#include "runtime/validated_memo.h"

namespace dfsm::analysis {

/// Full structural key of one memoized cell.
struct MemoKey {
  std::string study;        ///< study-family name
  std::size_t operation;    ///< operation id (kBaselineOperation = baseline)
  std::uint64_t submask = 0;

  [[nodiscard]] bool operator==(const MemoKey&) const = default;
};

/// The baseline (all-checks-off) cell's pseudo operation id.
inline constexpr std::size_t kBaselineOperation =
    static_cast<std::size_t>(-1);

struct MemoKeyHash {
  [[nodiscard]] std::size_t operator()(const MemoKey& k) const noexcept {
    core::Fingerprinter fp;
    fp.mix(k.study)
        .mix(static_cast<std::uint64_t>(k.operation))
        .mix(k.submask);
    return static_cast<std::size_t>(fp.digest());
  }
};

/// One cached outcome: the study with ONLY this operation's checks
/// enabled per `submask`, plus whether that run diverged from the
/// all-off baseline.
struct MemoEntry {
  apps::RunOutcome exploit;
  apps::RunOutcome benign;
  bool exploit_blocks = false;
  bool benign_blocks = false;
};

/// Thread-safe cross-sweep memo store. Hit/miss/invalidation counts are
/// deterministic when concurrent users keep their keys disjoint (as
/// sweep_all's per-family keys do) or fill through runtime::memo_fill
/// (as the engine does).
using SweepMemoStore = runtime::ValidatedMemo<MemoKey, MemoEntry, MemoKeyHash>;

}  // namespace dfsm::analysis

#endif  // DFSM_ANALYSIS_SWEEP_MEMO_H
