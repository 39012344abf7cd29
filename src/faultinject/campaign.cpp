#include "faultinject/campaign.h"

#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/chain_analyzer.h"
#include "analysis/hidden_path.h"
#include "apps/case_study.h"
#include "apps/races.h"
#include "bugtraq/colsnap.h"
#include "bugtraq/corpus.h"
#include "bugtraq/csv_shards.h"
#include "faultinject/composed.h"
#include "faultinject/corpus_faults.h"
#include "faultinject/model_faults.h"
#include "faultinject/snapshot_faults.h"
#include "fssim/explore.h"
#include "runtime/parallel.h"
#include "staticlint/linter.h"
#include "staticlint/registry.h"

namespace dfsm::faultinject {

namespace {

TrialResult run_corpus_trial(const CampaignConfig& cfg, std::size_t t,
                             Rng& rng) {
  TrialResult r;
  r.trial = t;
  r.kind = "corpus";

  // A fresh world per trial: a seeded corpus sharded exactly the way
  // write_csv_shards would cut it, built in memory so the mutator edits
  // bytes before anything touches disk.
  const std::size_t n =
      cfg.min_records + rng.below(cfg.max_records - cfg.min_records + 1);
  const std::size_t nshards = 2 + rng.below(cfg.max_shards - 1);
  const std::uint64_t corpus_seed = rng.next();
  const auto snap = bugtraq::synthetic_corpus_n(n, corpus_seed).snapshot();
  auto blocks = runtime::static_blocks(n, nshards);
  while (blocks.size() < nshards) blocks.push_back({n, n});
  ShardSet set;
  set.paths = bugtraq::shard_paths(cfg.workdir + "/t", nshards);
  for (std::size_t i = 0; i < nshards; ++i) {
    set.contents.push_back(snap->to_csv(blocks[i].begin, blocks[i].end));
    set.data_rows.push_back(blocks[i].end - blocks[i].begin);
  }
  std::map<std::string, std::size_t> rows_of;
  for (std::size_t i = 0; i < nshards; ++i) rows_of[set.paths[i]] = set.data_rows[i];
  r.generated = n;

  const CorpusFault fault = kAllCorpusFaults[rng.below(kAllCorpusFaults.size())];
  const CorpusMutation mut =
      apply_corpus_fault(fault, set, rng, cfg.max_attempts);
  r.fault = to_string(fault);
  r.target = strip_workdir(mut.shard, cfg.workdir);
  r.line = mut.line;
  r.detail = mut.detail;

  for (std::size_t i = 0; i < set.paths.size(); ++i) {
    std::ofstream out{set.paths[i], std::ios::binary | std::ios::trunc};
    if (!out || !(out << set.contents[i]) || !out.flush()) {
      throw std::runtime_error("cannot write fault shard: " + set.paths[i]);
    }
  }

  bugtraq::IngestOptions options;
  options.policy = bugtraq::IngestPolicy::kLenient;
  options.max_attempts = cfg.max_attempts;
  options.backoff_base_ms = 0;  // exercise the retry loop, not the clock
  if (mut.fail_attempts > 0) {
    options.fault_hook = [shard = mut.shard, fails = mut.fail_attempts](
                             const std::string& path, std::size_t attempt) {
      return path == shard && attempt <= fails;
    };
  }

  bugtraq::ShardIngestResult lenient;
  try {
    lenient = bugtraq::read_csv_shards(set.paths, options);
  } catch (const std::exception& ex) {
    fail(r, std::string("lenient ingest threw: ") + ex.what());
    return r;
  }
  r.ingested = lenient.report.ingested;
  r.quarantined_rows = lenient.report.rows.size();
  r.quarantined_row_lines = lenient.report.quarantined_lines();
  r.quarantined_shards = lenient.report.shards.size();
  r.retries = lenient.report.retries;

  // Zero-silent-loss accounting: every generated source line is either
  // ingested or explicitly quarantined (as a row or inside a shard),
  // after correcting for lines the mutation injected or put beyond
  // reach (dropped / unreadable shards).
  long long expected =
      static_cast<long long>(r.generated) + mut.injected_lines;
  for (const auto& lost : mut.lost_shards) {
    expected -= static_cast<long long>(rows_of.at(lost));
  }
  long long actual = static_cast<long long>(r.ingested) +
                     static_cast<long long>(r.quarantined_row_lines);
  for (const auto& shard : lenient.report.shards) {
    actual += static_cast<long long>(shard.lines_seen);
  }
  r.conserved = expected == actual;
  if (!r.conserved) {
    fail(r, "silent data loss: expected " + std::to_string(expected) +
                " accounted lines, found " + std::to_string(actual));
  }

  // Benign mutations (order change, recovered I/O, shorter manifest)
  // must not quarantine anything.
  const bool benign = fault == CorpusFault::kDropShard ||
                      fault == CorpusFault::kReorderShards ||
                      fault == CorpusFault::kTransientIo;
  if (benign && !lenient.report.clean()) {
    fail(r, "benign mutation produced quarantine entries");
  }
  if (fault == CorpusFault::kTransientIo && r.retries != mut.fail_attempts) {
    fail(r, "expected " + std::to_string(mut.fail_attempts) +
                " retries, saw " + std::to_string(r.retries));
  }

  // Strict ingest must throw exactly when the mutation planted a defect,
  // and the error must name the defective shard.
  bugtraq::IngestOptions strict = options;
  strict.policy = bugtraq::IngestPolicy::kStrict;
  try {
    const auto direct = bugtraq::read_csv_shards(set.paths, strict);
    r.strict_threw = false;
    (void)direct;
  } catch (const std::exception& ex) {
    r.strict_threw = true;
    r.strict_error = strip_workdir(ex.what(), cfg.workdir);
  }
  if (r.strict_threw != mut.expect_strict_throw) {
    fail(r, mut.expect_strict_throw
                ? "strict ingest accepted a defective shard set"
                : "strict ingest threw on a benign mutation: " +
                      r.strict_error);
  } else if (r.strict_threw && !r.target.empty() &&
             r.strict_error.find(r.target) == std::string::npos) {
    fail(r, "strict error lacks shard context: " + r.strict_error);
  }

  r.ok = r.failure.empty();
  return r;
}

/// Snapshot-layer trial inside the corpus surface: encode a seeded
/// corpus as in-memory colsnap shards, apply one snapshot mutator, and
/// require (a) the loader refuses the mutated set with a
/// "<file>:<column>: <reason>" that names the planted defect, (b) the
/// refusal is all-or-nothing, and (c) conservation — the pristine shard
/// set still decodes to every generated record, byte-identical.
TrialResult run_snapshot_trial(const CampaignConfig& cfg, std::size_t t,
                               Rng& rng) {
  TrialResult r;
  r.trial = t;
  r.kind = "snapshot";

  const std::size_t n =
      cfg.min_records + rng.below(cfg.max_records - cfg.min_records + 1);
  const std::size_t nshards = 2 + rng.below(cfg.max_shards - 1);
  const std::uint64_t corpus_seed = rng.next();
  const auto snap = bugtraq::synthetic_corpus_n(n, corpus_seed).snapshot();
  r.generated = n;

  SnapshotSet set;
  set.names = bugtraq::colsnap_shard_paths("t", nshards);  // workdir-free
  set.contents = bugtraq::encode_colsnap_shards(*snap, nshards);
  const std::vector<std::string> pristine = set.contents;

  const SnapshotFault fault =
      kAllSnapshotFaults[rng.below(kAllSnapshotFaults.size())];
  const SnapshotMutation mut = apply_snapshot_fault(fault, set, rng);
  r.fault = to_string(fault);
  r.target = mut.shard;
  r.detail = mut.detail;

  // Every snapshot mutation plants a defect the loader must refuse.
  try {
    const auto loaded = bugtraq::decode_colsnap_shards(set.contents, set.names);
    fail(r, "loader accepted a mutated snapshot (" +
                std::to_string(loaded.snapshot()->size()) + " records)");
  } catch (const std::invalid_argument& ex) {
    r.strict_threw = true;
    r.strict_error = ex.what();
    if (r.strict_error.find(mut.expect_substr) == std::string::npos) {
      fail(r, "refusal '" + r.strict_error + "' lacks expected '" +
                  mut.expect_substr + "'");
    }
  }

  // Conservation: the unmutated shard set still carries every record.
  try {
    const auto clean =
        bugtraq::decode_colsnap_shards(pristine, set.names).snapshot();
    r.ingested = clean->size();
    r.conserved = clean->size() == n && clean->to_csv() == snap->to_csv();
    if (!r.conserved) {
      fail(r, "pristine snapshot lost records: decoded " +
                  std::to_string(clean->size()) + " of " + std::to_string(n));
    }
  } catch (const std::exception& ex) {
    fail(r, std::string("pristine snapshot refused: ") + ex.what());
  }

  r.ok = r.failure.empty();
  return r;
}

TrialResult run_chain_trial(std::size_t t, Rng& rng, const ComposedDeps& deps) {
  TrialResult r;
  r.trial = t;
  r.kind = "chain";
  r.fault = "widen-impl";
  const ChainFaultFixture fx = make_chain_fault(rng);
  r.target = fx.chain.name() + "/" + fx.vulnerable_pfsm;
  r.detail = fx.detail;
  r.expected_rules = {"hidden-path", "chain-exploited"};

  // The defect is EXTENSIONAL — the chain's declared structure is clean
  // — so the static pass must stay quiet on it: any lint finding here
  // means lint_chain() flags structure it should not.
  const auto lint_run = lint_and_record(
      staticlint::LintModel::from_chain(fx.chain), deps, r);
  if (!lint_run.findings.empty()) {
    fail(r, "structurally clean live chain drew " +
                std::to_string(lint_run.findings.size()) + " lint finding(s)");
  }

  // The defect is extensional (structure is clean), so the dynamic
  // analyses are on the hook: hidden-path detection must produce a
  // witness and the crafted input must exploit the chain, while benign
  // traffic still passes.
  const core::Pfsm& pfsm = fx.chain.operations()[1].pfsms()[0];
  const auto domain = analysis::int_boundary_domain(
      "payload", "len", {0, fx.limit, fx.impl_limit});
  const auto hp = analysis::detect_hidden_path(pfsm, domain);
  if (hp.vulnerable()) r.caught_rules.push_back("hidden-path");

  // Both workloads go through one evaluate_batch call — the same batch
  // surface the sweeps and the discovery campaign exercise.
  const auto runs = fx.chain.evaluate_batch(
      {fx.inputs_for(fx.overflow_len), fx.inputs_for(fx.benign_len)});
  const auto& attack = runs[0];
  const auto& benign = runs[1];
  if (attack.exploited()) r.caught_rules.push_back("chain-exploited");

  r.detected = hp.vulnerable() && attack.exploited();
  if (!hp.vulnerable()) fail(r, "no hidden-path witness for the widened impl");
  if (!attack.exploited()) fail(r, "crafted overflow input not exploited");
  if (!benign.completed() || benign.exploited()) {
    fail(r, "benign input mishandled by the faulty chain");
  }
  r.ok = r.failure.empty();
  return r;
}

/// Corrupts the memoized Lemma-sweep engine's per-operation cache (or
/// the cross-sweep store/incremental layers above it) and requires the
/// memoized-vs-direct cross-check to notice. The five mutators — stale
/// sub-mask entry, flipped cached outcome, wrong gate composition, a
/// stale shared-store entry served across sweep generations, and a
/// missed invalidation when a patch pins an operation — are the failure
/// modes a buggy cache/store implementation would actually exhibit;
/// escaping the cross-check would mean the default sweep engine could
/// silently ship wrong Lemma verdicts.
TrialResult run_sweep_trial(
    std::size_t t, Rng& rng,
    const std::vector<std::unique_ptr<apps::CaseStudy>>& studies) {
  TrialResult r;
  r.trial = t;
  r.kind = "sweep";

  constexpr std::array<analysis::SweepFault, 5> kSweepFaults = {
      analysis::SweepFault::kStaleSubmaskEntry,
      analysis::SweepFault::kFlippedCacheOutcome,
      analysis::SweepFault::kWrongGateComposition,
      analysis::SweepFault::kStaleSharedMemoAcrossSweeps,
      analysis::SweepFault::kMissedInvalidationOnPatch,
  };

  // Walk the (study, fault) grid from a seeded start until a fault is
  // hostable — every curated study hosts the two cache-cell faults (each
  // has at least one blocking check), so this always terminates.
  const std::size_t si = rng.below(studies.size());
  const std::size_t fi = rng.below(kSweepFaults.size());
  for (std::size_t k = 0; k < studies.size() * kSweepFaults.size(); ++k) {
    const apps::CaseStudy& study =
        *studies[(si + k / kSweepFaults.size()) % studies.size()];
    const analysis::SweepFault fault = kSweepFaults[(fi + k) % kSweepFaults.size()];
    const auto faulty = analysis::sweep_with_fault(study, fault);
    if (!faulty) continue;

    r.fault = analysis::to_string(fault);
    r.target = study.name() + "/" + faulty->target;
    r.detail = "memoized sweep with corrupted cache vs direct reference sweep";
    r.expected_rules = {"memoized-vs-direct"};
    // The reference is normally the direct sweep of the study itself;
    // kMissedInvalidationOnPatch supplies its own (the direct sweep of
    // the actually-secured study).
    analysis::SweepOptions direct_opts;
    direct_opts.mode = analysis::SweepMode::kDirect;
    const auto reference = faulty->reference
                               ? *faulty->reference
                               : analysis::sweep(study, direct_opts);
    r.detected = !analysis::reports_equivalent(reference, faulty->report);
    if (r.detected) {
      r.caught_rules.push_back("memoized-vs-direct");
    } else {
      fail(r, "corrupted sweep cache escaped the memoized-vs-direct "
              "cross-check");
    }
    r.ok = r.failure.empty();
    return r;
  }
  fail(r, "no case study hosts a sweep-cache fault");
  return r;
}

/// Live-chain lint trial: a runnable chain with one planted lint defect
/// goes through the universal lint_chain() path, and the mutator's
/// expected rule id must fire — the same machine-checked-expectation
/// discipline as the IR grid, on the incremental surface.
TrialResult run_chain_lint_trial(std::size_t t, Rng& rng,
                                 const ComposedDeps& deps) {
  TrialResult r;
  r.trial = t;
  r.kind = "chainlint";
  const ChainLintFault fault =
      kAllChainLintFaults[rng.below(kAllChainLintFaults.size())];
  const ChainLintFixture fx = make_chain_lint_fault(fault, rng);
  r.fault = to_string(fault);
  r.target =
      fx.chain.name() + (fx.target.empty() ? "" : "/" + fx.target);
  r.detail = fx.detail;
  r.expected_rules = fx.expected_rules;

  const auto run = lint_and_record(
      staticlint::LintModel::from_chain(fx.chain), deps, r);
  for (const auto& finding : run.findings) {
    bool seen = false;
    for (const auto& id : r.caught_rules) seen = seen || id == finding.rule_id;
    if (!seen) r.caught_rules.push_back(finding.rule_id);
  }
  r.detected = true;
  for (const auto& want : r.expected_rules) {
    bool got = false;
    for (const auto& id : r.caught_rules) got = got || id == want;
    if (!got) {
      r.detected = false;
      fail(r, "planted chain defect escaped lint_chain (expected " + want +
                  ")");
    }
  }
  r.ok = r.failure.empty();
  return r;
}

TrialResult run_model_trial(const CampaignConfig& cfg, std::size_t t,
                            Rng& rng, const ComposedDeps& deps) {
  const auto& curated = *deps.curated;
  const std::size_t surface = rng.below(10);
  if (surface < 2) return run_chain_trial(t, rng, deps);
  if (surface < 4) return run_sweep_trial(t, rng, *deps.studies);
  if (surface < 6) return run_chain_lint_trial(t, rng, deps);

  TrialResult r;
  r.trial = t;
  r.kind = "model";

  // Walk the (model, fault) grid from a seeded start until a fault
  // applies — every curated model hosts at least kDropGate, so this
  // always terminates.
  const std::size_t num_faults = kAllModelFaults.size();
  const std::size_t mi = rng.below(curated.size());
  const std::size_t fi = rng.below(num_faults);
  for (std::size_t k = 0; k < curated.size() * num_faults; ++k) {
    staticlint::LintModel copy = curated[(mi + k / num_faults) % curated.size()];
    const ModelFault fault = kAllModelFaults[(fi + k) % num_faults];
    const auto mut = apply_model_fault(fault, copy, rng);
    if (!mut) continue;

    r.fault = to_string(fault);
    r.target = mut->model + (mut->target.empty() ? "" : "/" + mut->target);
    r.detail = mut->detail;
    r.expected_rules = mut->expected_rules;
    // Mutants reuse curated model names with perturbed structure, so the
    // memoized grid sees a fingerprint mismatch per cell — the campaign
    // deliberately thrashes the store's invalidation path while the
    // lint verdicts stay byte-identical to a direct lint.
    const auto run = lint_and_record(copy, deps, r);
    for (const auto& finding : run.findings) {
      bool seen = false;
      for (const auto& id : r.caught_rules) seen = seen || id == finding.rule_id;
      if (!seen) r.caught_rules.push_back(finding.rule_id);
    }
    for (const auto& want : r.expected_rules) {
      for (const auto& got : r.caught_rules) {
        if (want == got) r.detected = true;
      }
    }
    if (!r.detected) {
      fail(r, "injected defect escaped the linter (expected one of " +
                  [&] {
                    std::string ids;
                    for (const auto& id : r.expected_rules) {
                      if (!ids.empty()) ids += ", ";
                      ids += id;
                    }
                    return ids;
                  }() +
                  ")");
    }
    (void)cfg;
    r.ok = r.failure.empty();
    return r;
  }
  fail(r, "no applicable model fault found");
  return r;
}

/// Race-exploration trial: picks a curated scenario and holds the
/// exploration engine to three machine-checked expectations —
///   * "rediscovered": the exhaustive run reproduces the curated
///     schedule-space and violating-schedule counts exactly;
///   * "matches-enumeration": the exhaustive run is outcome-for-outcome
///     identical (step order + verdict, at every rank) to the recursive
///     enumerator in race.h;
///   * "sampled-pinned": a seeded sub-space budget still pins the
///     lexicographic first/last ranks, reports only violating ranks the
///     exhaustive run confirmed, and — for scenarios whose violation IS
///     the lex-last schedule (rwall) — still finds the race.
TrialResult run_race_trial(std::size_t t, Rng& rng,
                           const std::vector<fssim::RaceScenario>& scenarios) {
  TrialResult r;
  r.trial = t;
  r.kind = "race";
  const fssim::RaceScenario& s = scenarios[rng.below(scenarios.size())];
  r.fault = "explore";
  r.target = s.name;
  r.expected_rules = {"rediscovered", "matches-enumeration",
                      "sampled-pinned"};

  fssim::ExploreOptions exhaustive_opts;
  exhaustive_opts.seed = rng.next();
  const auto rep = fssim::explore_scenario(s, exhaustive_opts);
  r.detail = "space " + std::to_string(rep.schedule_space) + ", " +
             std::to_string(rep.violating) + " violating";
  if (rep.exhaustive && rep.schedule_space == s.expected_total &&
      rep.explored == s.expected_total &&
      rep.violating == s.expected_violating) {
    r.caught_rules.push_back("rediscovered");
  } else {
    fail(r, "exhaustive exploration missed the curated counts: explored " +
                std::to_string(rep.explored) + "/" +
                std::to_string(rep.schedule_space) + ", violating " +
                std::to_string(rep.violating) + " (expected " +
                std::to_string(s.expected_total) + "/" +
                std::to_string(s.expected_violating) + ")");
  }

  const auto ref = fssim::enumerate_interleavings(s.world(), s.victim,
                                                  s.attacker, s.violated);
  bool matches = ref.total_schedules == rep.explored &&
                 ref.violating_schedules == rep.violating &&
                 ref.outcomes.size() == rep.outcomes.size();
  for (std::size_t i = 0; matches && i < ref.outcomes.size(); ++i) {
    matches = rep.outcomes[i].rank == i &&
              ref.outcomes[i].order == rep.outcomes[i].order &&
              ref.outcomes[i].violated == rep.outcomes[i].violated;
  }
  if (matches) {
    r.caught_rules.push_back("matches-enumeration");
  } else {
    fail(r, "rank-ascending exploration diverged from the recursive "
            "enumerator");
  }

  fssim::ExploreOptions sampled_opts;
  sampled_opts.seed = rng.next();
  sampled_opts.budget = 2 + rng.below(s.expected_total - 2);
  const auto samp = fssim::explore_scenario(s, sampled_opts);
  r.detail += ", sampled " + std::to_string(samp.explored) + "/" +
              std::to_string(sampled_opts.budget) + " found " +
              std::to_string(samp.violating);
  bool pinned_first = false;
  bool pinned_last = false;
  for (const auto& o : samp.outcomes) {
    pinned_first = pinned_first || o.rank == 0;
    pinned_last = pinned_last || o.rank == rep.schedule_space - 1;
  }
  bool subset = true;
  for (const auto rank : samp.violating_ranks) {
    bool in_exhaustive = false;
    for (const auto v : rep.violating_ranks) in_exhaustive |= v == rank;
    subset = subset && in_exhaustive;
  }
  bool sampled_ok = !samp.exhaustive && samp.explored <= sampled_opts.budget;
  if (!pinned_first || !pinned_last) {
    sampled_ok = false;
    fail(r, "sampled run lost a pinned rank (first/last must always run)");
  }
  if (!subset) {
    sampled_ok = false;
    fail(r, "sampled run reported a violating rank the exhaustive run "
            "did not confirm");
  }
  if (s.last_schedule_violates && !samp.race_exists()) {
    sampled_ok = false;
    fail(r, "pinned sampling missed a lex-last violation it can never "
            "legitimately miss");
  }
  if (sampled_ok) {
    r.caught_rules.push_back("sampled-pinned");
  } else if (r.failure.empty()) {
    fail(r, "sampled exploration violated the budget/exhaustive contract");
  }

  r.detected = true;
  for (const auto& want : r.expected_rules) {
    bool got = false;
    for (const auto& id : r.caught_rules) got = got || id == want;
    r.detected = r.detected && got;
  }
  r.ok = r.failure.empty();
  return r;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void emit_string_array(std::ostringstream& os,
                       const std::vector<std::string>& items) {
  os << '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) os << ',';
    os << '"' << json_escape(items[i]) << '"';
  }
  os << ']';
}

}  // namespace

const char* to_string(CampaignKind k) noexcept {
  switch (k) {
    case CampaignKind::kCorpus: return "corpus";
    case CampaignKind::kModel: return "model";
    case CampaignKind::kRace: return "race";
    case CampaignKind::kComposed: return "composed";
    case CampaignKind::kAll: return "all";
  }
  return "unknown";
}

CampaignReport run_campaign(const CampaignConfig& config) {
  if (config.trials == 0) {
    throw std::invalid_argument("campaign needs at least one trial");
  }
  if (config.max_attempts < 2) {
    throw std::invalid_argument("campaign needs max_attempts >= 2");
  }
  if (config.min_records > config.max_records) {
    throw std::invalid_argument("campaign min_records exceeds max_records");
  }
  if (config.max_shards < 2 || config.min_records < config.max_shards) {
    throw std::invalid_argument(
        "campaign needs 2 <= max_shards <= min_records so every shard "
        "carries data rows");
  }
  CampaignReport report;
  report.config = config;
  const auto curated = staticlint::curated_lint_models();
  const auto studies = apps::all_case_studies();
  const auto scenarios = apps::race_scenarios();
  // One memo store for the whole campaign: repeated fixtures hit, every
  // mutated curated model invalidates its own cells, and the aggregate
  // telemetry lands in report.lint.
  staticlint::LintMemoStore memo;
  ComposedDeps composed_deps;
  composed_deps.curated = &curated;
  composed_deps.studies = &studies;
  composed_deps.memo = &memo;
  composed_deps.lint_agg = &report.lint;
  composed_deps.models_linted = &report.models_linted;
  for (std::size_t t = 0; t < config.trials; ++t) {
    // All trial randomness is a pure function of (seed, t); trials are
    // order-independent and individually replayable.
    Rng rng{config.seed, t};
    CampaignKind surface = config.campaign;
    if (surface == CampaignKind::kAll) {
      constexpr std::array<CampaignKind, 4> kSurfaces = {
          CampaignKind::kCorpus, CampaignKind::kModel, CampaignKind::kRace,
          CampaignKind::kComposed};
      surface = kSurfaces[rng.below(kSurfaces.size())];
    }
    TrialResult r;
    switch (surface) {
      case CampaignKind::kCorpus:
        // The corpus surface covers both disk formats: ~1/4 of its draws
        // exercise the binary snapshot loader instead of CSV ingest.
        if (rng.below(4) == 0) {
          r = run_snapshot_trial(config, t, rng);
        } else {
          r = run_corpus_trial(config, t, rng);
        }
        ++report.corpus_trials;
        break;
      case CampaignKind::kRace:
        r = run_race_trial(t, rng, scenarios);
        ++report.race_trials;
        break;
      case CampaignKind::kComposed:
        r = run_composed_trial(config, t, rng, composed_deps);
        ++report.composed_trials;
        break;
      case CampaignKind::kModel:
      case CampaignKind::kAll:
        r = run_model_trial(config, t, rng, composed_deps);
        ++report.model_trials;
        break;
    }
    if (!r.ok) ++report.failures;
    report.trials.push_back(std::move(r));
  }
  return report;
}

std::string emit_text(const CampaignReport& report) {
  std::ostringstream os;
  os << "fault campaign: seed " << report.config.seed << ", "
     << report.trials.size() << " trial(s), kind "
     << to_string(report.config.campaign) << "\n";
  for (const auto& t : report.trials) {
    os << "  [" << (t.ok ? "ok" : "FAIL") << "] trial " << t.trial << " "
       << t.kind << "/" << t.fault;
    if (!t.target.empty()) {
      os << " @ " << t.target;
      if (t.line != 0) os << ":" << t.line;
    }
    if (t.kind == "corpus") {
      os << " (generated " << t.generated << ", ingested " << t.ingested
         << ", quarantined " << t.quarantined_rows << " row(s) / "
         << t.quarantined_shards << " shard(s)";
      if (t.retries != 0) os << ", " << t.retries << " retries";
      os << ")";
    } else if (t.kind == "snapshot") {
      os << " (generated " << t.generated << ", "
         << (t.strict_threw ? "refused" : "ACCEPTED") << ", pristine decode "
         << t.ingested << ", " << (t.conserved ? "conserved" : "LOSSY") << ")";
    } else if (t.kind == "composed") {
      os << " (generated " << t.generated << ", ingested " << t.ingested
         << ", quarantined " << t.quarantined_rows << " row(s) / "
         << t.quarantined_shards << " shard(s); caught:";
      for (const auto& id : t.caught_rules) os << " " << id;
      os << ")";
    } else {
      os << " (caught:";
      for (const auto& id : t.caught_rules) os << " " << id;
      os << ")";
    }
    if (!t.ok) os << " -- " << t.failure;
    os << "\n";
  }
  os << "lint: " << report.models_linted << " model(s), "
     << report.lint.rules_executed << " rule execution(s), "
     << report.lint.memo_hits << " hit(s), " << report.lint.memo_misses
     << " miss(es), " << report.lint.memo_invalidated << " invalidated, "
     << report.lint.findings.size() << " finding(s)\n";
  os << (report.ok() ? "PASS" : "FAIL") << ": " << report.corpus_trials
     << " corpus trial(s), " << report.model_trials << " model trial(s), "
     << report.race_trials << " race trial(s), " << report.composed_trials
     << " composed trial(s), " << report.failures << " failure(s)\n";
  return os.str();
}

std::string emit_json(const CampaignReport& report) {
  std::ostringstream os;
  os << "{\n  \"campaign\": {\"seed\": " << report.config.seed
     << ", \"trials\": " << report.config.trials << ", \"kind\": \""
     << to_string(report.config.campaign)
     << "\", \"min_records\": " << report.config.min_records
     << ", \"max_records\": " << report.config.max_records
     << ", \"max_shards\": " << report.config.max_shards
     << ", \"max_attempts\": " << report.config.max_attempts << "},\n";
  os << "  \"summary\": {\"corpus_trials\": " << report.corpus_trials
     << ", \"model_trials\": " << report.model_trials
     << ", \"race_trials\": " << report.race_trials
     << ", \"composed_trials\": " << report.composed_trials
     << ", \"failures\": " << report.failures << ", \"ok\": "
     << (report.ok() ? "true" : "false") << "},\n";
  os << "  \"lint\": {\"models_linted\": " << report.models_linted
     << ", \"rules_run\": " << report.lint.rules_run
     << ", \"rules_executed\": " << report.lint.rules_executed
     << ", \"memo_hits\": " << report.lint.memo_hits
     << ", \"memo_misses\": " << report.lint.memo_misses
     << ", \"memo_invalidated\": " << report.lint.memo_invalidated
     << ", \"findings\": " << report.lint.findings.size() << "},\n";
  os << "  \"trials\": [\n";
  for (std::size_t i = 0; i < report.trials.size(); ++i) {
    const auto& t = report.trials[i];
    os << "    {\"trial\": " << t.trial << ", \"kind\": \"" << t.kind
       << "\", \"fault\": \"" << json_escape(t.fault) << "\", \"target\": \""
       << json_escape(t.target) << "\", \"line\": " << t.line
       << ", \"detail\": \"" << json_escape(t.detail) << "\", ";
    if (t.kind == "corpus" || t.kind == "snapshot" || t.kind == "composed") {
      os << "\"generated\": " << t.generated << ", \"ingested\": "
         << t.ingested << ", \"quarantined_rows\": " << t.quarantined_rows
         << ", \"quarantined_row_lines\": " << t.quarantined_row_lines
         << ", \"quarantined_shards\": " << t.quarantined_shards
         << ", \"retries\": " << t.retries << ", \"strict_threw\": "
         << (t.strict_threw ? "true" : "false") << ", \"strict_error\": \""
         << json_escape(t.strict_error) << "\", \"conserved\": "
         << (t.conserved ? "true" : "false") << ", ";
    }
    if (t.kind != "corpus" && t.kind != "snapshot") {
      os << "\"expected_rules\": ";
      emit_string_array(os, t.expected_rules);
      os << ", \"caught_rules\": ";
      emit_string_array(os, t.caught_rules);
      os << ", \"detected\": " << (t.detected ? "true" : "false")
         << ", \"lint_rules_executed\": " << t.lint_rules_executed
         << ", \"lint_memo_hits\": " << t.lint_memo_hits
         << ", \"lint_memo_misses\": " << t.lint_memo_misses
         << ", \"lint_memo_invalidated\": " << t.lint_memo_invalidated
         << ", ";
    }
    os << "\"ok\": " << (t.ok ? "true" : "false") << ", \"failure\": \""
       << json_escape(t.failure) << "\"}"
       << (i + 1 < report.trials.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace dfsm::faultinject
