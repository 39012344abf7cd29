// secured.h — the patch-candidate view of a case study.
//
// The Lemma's second statement says securing ONE operation foils the
// whole exploit, so the natural patch-ranking loop asks, for each
// operation in turn: "what does the sweep look like if this operation's
// checks are always on?" A secured study answers exactly that: it
// exposes the SAME check vector as the base study, but every run first
// ORs the pinned operations' check bits into the mask — mask m of the
// secured study behaves like mask m|pin of the base study.
//
// The wrapper takes a DISTINCT study name (secured_study_name) on
// purpose: a study-family name identifies unchecked baseline behaviour
// for the cross-sweep memo store (analysis::SweepMemoStore), and the
// secured variant's baseline differs from the base one's. The baseline
// entry is validated by no operation fingerprint, so sharing the name
// would serve the base study's baseline to the secured one. The incremental re-analysis path (analysis::resweep /
// sweep_summary) never re-runs a secured study at all — it composes the
// pinned rows from the base study's caches; this wrapper exists as the
// REFERENCE those compositions are tested against.
#ifndef DFSM_APPS_SECURED_H
#define DFSM_APPS_SECURED_H

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "apps/case_study.h"

namespace dfsm::apps {

/// The canonical name of the secured variant: shared by the wrapper and
/// the incremental engine so their reports compare byte-for-byte.
[[nodiscard]] std::string secured_study_name(
    const CaseStudy& base, const std::vector<std::size_t>& secured_operations);

/// Wraps `base` so the checks of every operation in `secured_operations`
/// are forced on in every run. Throws std::invalid_argument when an
/// operation index has no checks in the base study. The returned study
/// keeps a reference to `base`, which must outlive it.
[[nodiscard]] std::unique_ptr<CaseStudy> make_secured_study(
    const CaseStudy& base, std::vector<std::size_t> secured_operations);

}  // namespace dfsm::apps

#endif  // DFSM_APPS_SECURED_H
