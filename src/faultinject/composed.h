// composed.h — composed fault trials: 2–4 mutators drawn per trial
// (fuzz-style, pure per-trial Rng streams), spanning the corpus,
// pipeline, and analysis layers (DESIGN.md §14).
//
// "Vulnerability Abundance" (PAPERS.md) argues defect populations are
// effectively inexhaustible, so single-mutator trials under-test the
// system; a composed trial draws several mutators and still carries
// machine-checked expectations for every component. Two invariants are
// verified on EVERY trial, whether or not the composition touches them:
//
//   * conservation — the trial's corpus pipeline (clean when no corpus
//     mutator is drawn) accounts for every generated line:
//     generated + injected == ingested + quarantined rows + shard lines;
//   * memoized-vs-direct — a memoized Lemma sweep must equal the direct
//     reference sweep (and must DIFFER exactly when the composition
//     includes the sweep-cache mutator).
//
// Corpus mutators compose on one shard set under a distinct-shard claim
// discipline (a mutation whose target shard is already claimed by an
// earlier component re-rolls on a fresh copy), so per-component
// accounting stays additive. Analysis-layer mutators — corrupt discovery
// oracle, desync monitor model, bias anomaly thresholds — corrupt a COPY
// of the analysis artifact and require the reference cross-check to
// notice the divergence.
#ifndef DFSM_FAULTINJECT_COMPOSED_H
#define DFSM_FAULTINJECT_COMPOSED_H

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "apps/case_study.h"
#include "faultinject/campaign.h"
#include "faultinject/corpus_faults.h"
#include "faultinject/rng.h"
#include "staticlint/linter.h"

namespace dfsm::faultinject {

/// The composed-trial mutator pool: the nine corpus faults, the three
/// pipeline surfaces, and the three analysis-layer mutators.
enum class ComposedMutator {
  // corpus layer (compose on one shard set; distinct-shard claims)
  kCorpusTruncateTail,
  kCorpusMangleQuoting,
  kCorpusCorruptField,
  kCorpusMissingHeader,
  kCorpusDuplicateHeader,
  kCorpusDropShard,
  kCorpusReorderShards,
  kCorpusTransientIo,
  kCorpusUnreadableShard,
  // pipeline layer (independent mini-pipelines within the trial)
  kSweepCacheFault,   ///< memoized sweep cache corruption (5-fault grid)
  kModelIrFault,      ///< curated-model IR defect through the lint grid
  kChainLintFault,    ///< live-chain lint defect through lint_chain
  // analysis layer
  kCorruptDiscoveryOracle,  ///< bias Figure-4 pFSM2's spec; the probe
                            ///< cross-validation must lose agreements
  kDesyncMonitorModel,      ///< accept-all a monitored pFSM's spec; the
                            ///< reference monitor must see more violations
  kBiasAnomalyThreshold,    ///< raise the detector threshold to the
                            ///< exploit's own score; the spec threshold
                            ///< must still flag what the biased one misses
};

inline constexpr std::array<ComposedMutator, 15> kAllComposedMutators = {
    ComposedMutator::kCorpusTruncateTail,
    ComposedMutator::kCorpusMangleQuoting,
    ComposedMutator::kCorpusCorruptField,
    ComposedMutator::kCorpusMissingHeader,
    ComposedMutator::kCorpusDuplicateHeader,
    ComposedMutator::kCorpusDropShard,
    ComposedMutator::kCorpusReorderShards,
    ComposedMutator::kCorpusTransientIo,
    ComposedMutator::kCorpusUnreadableShard,
    ComposedMutator::kSweepCacheFault,
    ComposedMutator::kModelIrFault,
    ComposedMutator::kChainLintFault,
    ComposedMutator::kCorruptDiscoveryOracle,
    ComposedMutator::kDesyncMonitorModel,
    ComposedMutator::kBiasAnomalyThreshold,
};

[[nodiscard]] const char* to_string(ComposedMutator m) noexcept;
[[nodiscard]] bool is_corpus_mutator(ComposedMutator m) noexcept;

/// The CorpusFault a corpus-layer ComposedMutator maps to. Throws
/// std::invalid_argument for non-corpus mutators.
[[nodiscard]] CorpusFault corpus_fault_of(ComposedMutator m);

/// Shared campaign state the model and composed trials run against.
/// `curated` and `studies` are required; the lint members are optional
/// (when set, every trial lint flows through the campaign-wide memo
/// store and aggregate).
struct ComposedDeps {
  const std::vector<staticlint::LintModel>* curated = nullptr;
  const std::vector<std::unique_ptr<apps::CaseStudy>>* studies = nullptr;
  staticlint::LintMemoStore* memo = nullptr;
  staticlint::LintRun* lint_agg = nullptr;
  std::size_t* models_linted = nullptr;
};

/// Lints one IR model through deps.memo, adds the run's telemetry to the
/// trial, and folds its findings and counters into deps.lint_agg and
/// deps.models_linted (each only when set). Every campaign lint goes
/// through here.
[[nodiscard]] staticlint::LintRun lint_and_record(
    const staticlint::LintModel& model, const ComposedDeps& deps,
    TrialResult& r);

/// Strips every occurrence of "<workdir>/" so reports never contain the
/// absolute workdir (byte-identical reports across machines).
[[nodiscard]] std::string strip_workdir(std::string text,
                                        const std::string& workdir);

/// Appends `why` to the trial's failure text ("; "-separated).
void fail(TrialResult& r, const std::string& why);

/// Draws 2–4 DISTINCT mutators from the pool (fuzz-style; pure in rng).
[[nodiscard]] std::vector<ComposedMutator> draw_composition(Rng& rng);

/// Runs one composed trial with mutators drawn from the pool.
[[nodiscard]] TrialResult run_composed_trial(const CampaignConfig& cfg,
                                             std::size_t trial, Rng& rng,
                                             const ComposedDeps& deps);

/// Runs one composed trial with a PINNED composition (determinism tests
/// exercise exact 2/3/4-mutator mixes through this entry point). The
/// mutators execute in the given order; duplicates are rejected
/// (std::invalid_argument).
[[nodiscard]] TrialResult run_composed_trial_with(
    const std::vector<ComposedMutator>& mutators, const CampaignConfig& cfg,
    std::size_t trial, Rng& rng, const ComposedDeps& deps);

}  // namespace dfsm::faultinject

#endif  // DFSM_FAULTINJECT_COMPOSED_H
