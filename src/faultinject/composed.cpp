#include "faultinject/composed.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/anomaly.h"
#include "analysis/chain_analyzer.h"
#include "analysis/discovery.h"
#include "analysis/monitor.h"
#include "apps/nullhttpd.h"
#include "apps/rwall.h"
#include "apps/xterm.h"
#include "bugtraq/corpus.h"
#include "bugtraq/csv_shards.h"
#include "core/chain.h"
#include "core/model.h"
#include "core/operation.h"
#include "core/pfsm.h"
#include "core/predicate.h"
#include "faultinject/model_faults.h"
#include "runtime/parallel.h"
#include "staticlint/registry.h"

namespace dfsm::faultinject {

staticlint::LintRun lint_and_record(const staticlint::LintModel& model,
                                    const ComposedDeps& deps, TrialResult& r) {
  staticlint::LintOptions opts;
  opts.memo = deps.memo;
  const auto run = staticlint::lint_model_ir(model, opts);
  r.lint_rules_executed += run.rules_executed;
  r.lint_memo_hits += run.memo_hits;
  r.lint_memo_misses += run.memo_misses;
  r.lint_memo_invalidated += run.memo_invalidated;
  if (deps.lint_agg != nullptr) {
    auto& agg = *deps.lint_agg;
    agg.memoized = true;
    agg.models_checked += run.models_checked;
    agg.rules_run = run.rules_run;
    agg.rules_executed += run.rules_executed;
    agg.memo_hits += run.memo_hits;
    agg.memo_misses += run.memo_misses;
    agg.memo_invalidated += run.memo_invalidated;
    for (const auto& d : run.findings) agg.findings.push_back(d);
  }
  if (deps.models_linted != nullptr) ++*deps.models_linted;
  return run;
}

std::string strip_workdir(std::string text, const std::string& workdir) {
  const std::string prefix = workdir + "/";
  std::size_t pos = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    text.erase(pos, prefix.size());
  }
  return text;
}

void fail(TrialResult& r, const std::string& why) {
  if (!r.failure.empty()) r.failure += "; ";
  r.failure += why;
}

namespace {

void expect_rule(TrialResult& r, const std::string& id) {
  r.expected_rules.push_back(id);
}

void catch_rule(TrialResult& r, const std::string& id) {
  r.caught_rules.push_back(id);
}

/// Clones `chain` with the spec predicate of (op_index, pfsm_index)
/// replaced; the replacement pFSM is rebuilt as unchecked so its impl
/// accepts whatever the biased spec lets through. Object transforms are
/// not copied — the replay surfaces here (evaluate_batch, the monitor)
/// feed explicit per-operation inputs and never invoke flow().
core::ExploitChain rebind_pfsm_spec(const core::ExploitChain& chain,
                                    std::size_t op_index,
                                    std::size_t pfsm_index,
                                    core::Predicate spec,
                                    const std::string& clone_name) {
  core::ExploitChain out{clone_name};
  const auto& ops = chain.operations();
  const auto& gates = chain.gates();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    core::Operation op{ops[i].name(), ops[i].object_description()};
    const auto& pfsms = ops[i].pfsms();
    for (std::size_t j = 0; j < pfsms.size(); ++j) {
      const core::Pfsm& p = pfsms[j];
      if (i == op_index && j == pfsm_index) {
        op.add(core::Pfsm::unchecked(p.name(), p.type(), p.activity(), spec,
                                     p.action()));
      } else {
        op.add(p);
      }
    }
    out.add(std::move(op), gates[i]);
  }
  return out;
}

core::FsmModel with_chain(const core::FsmModel& model,
                          core::ExploitChain chain) {
  return core::FsmModel{model.name() + " (mutated)", model.bugtraq_ids(),
                        model.vulnerability_class(), model.software(),
                        model.consequence(), std::move(chain)};
}

// ---------------------------------------------------------------------
// Corpus phase: every composed trial runs the ingest pipeline once —
// clean when the composition drew no corpus mutator — and verifies the
// conservation invariant either way.

void run_corpus_phase(const std::vector<ComposedMutator>& corpus_kinds,
                      const CampaignConfig& cfg, Rng& rng, TrialResult& r) {
  // needed = shard-claiming mutators (reorder claims nothing); the +2
  // slack keeps reorder's two-shard minimum intact after a drop.
  std::size_t needed = 0;
  for (const ComposedMutator m : corpus_kinds) {
    if (m != ComposedMutator::kCorpusReorderShards) ++needed;
  }
  std::size_t nshards = 2 + rng.below(cfg.max_shards - 1);
  nshards = std::max(nshards, needed + 2);
  nshards = std::min(nshards, cfg.min_records);

  const std::size_t n =
      cfg.min_records + rng.below(cfg.max_records - cfg.min_records + 1);
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
  for (std::size_t i = 0; i < nshards; ++i) {
    rows_of[set.paths[i]] = set.data_rows[i];
  }
  r.generated = n;

  // Compose the mutations under the distinct-shard claim discipline: a
  // mutation landing on an already-claimed shard is re-rolled on a fresh
  // copy of the set (the rng advances, so the retry draws differently);
  // after 16 conflicts the component is skipped deterministically.
  std::vector<CorpusMutation> muts;
  std::vector<std::string> skipped;
  std::set<std::string> claimed;
  for (const ComposedMutator cm : corpus_kinds) {
    const CorpusFault fault = corpus_fault_of(cm);
    bool placed = false;
    for (int attempt = 0; attempt < 16 && !placed; ++attempt) {
      ShardSet copy = set;
      CorpusMutation mut =
          apply_corpus_fault(fault, copy, rng, cfg.max_attempts);
      if (!mut.shard.empty() && claimed.count(mut.shard) != 0) continue;
      set = std::move(copy);
      if (!mut.shard.empty()) claimed.insert(mut.shard);
      muts.push_back(std::move(mut));
      placed = true;
    }
    if (!placed) skipped.push_back(to_string(fault));
  }

  for (const auto& mut : muts) {
    if (!r.target.empty()) r.target += "+";
    r.target += strip_workdir(mut.shard, cfg.workdir);
    if (r.line == 0) r.line = mut.line;
    if (!r.detail.empty()) r.detail += "; ";
    r.detail += std::string(to_string(mut.fault)) + ": " + mut.detail;
  }
  for (const auto& name : skipped) {
    if (!r.detail.empty()) r.detail += "; ";
    r.detail += name + ": skipped (no unclaimed shard)";
  }

  for (std::size_t i = 0; i < set.paths.size(); ++i) {
    std::ofstream out{set.paths[i], std::ios::binary | std::ios::trunc};
    if (!out || !(out << set.contents[i]) || !out.flush()) {
      throw std::runtime_error("cannot write fault shard: " + set.paths[i]);
    }
  }

  // One fault hook covers every I/O-faulted shard in the composition
  // (claims guarantee at most one I/O fault per shard).
  std::map<std::string, std::size_t> fails_by_shard;
  for (const auto& mut : muts) {
    if (mut.fail_attempts > 0) fails_by_shard[mut.shard] = mut.fail_attempts;
  }
  bugtraq::IngestOptions options;
  options.policy = bugtraq::IngestPolicy::kLenient;
  options.max_attempts = cfg.max_attempts;
  options.backoff_base_ms = 0;  // exercise the retry loop, not the clock
  if (!fails_by_shard.empty()) {
    options.fault_hook = [fails_by_shard](const std::string& path,
                                          std::size_t attempt) {
      const auto it = fails_by_shard.find(path);
      return it != fails_by_shard.end() && attempt <= it->second;
    };
  }

  bugtraq::ShardIngestResult lenient;
  try {
    lenient = bugtraq::read_csv_shards(set.paths, options);
  } catch (const std::exception& ex) {
    fail(r, std::string("lenient ingest threw: ") + ex.what());
    return;
  }
  r.ingested = lenient.report.ingested;
  r.quarantined_rows = lenient.report.rows.size();
  r.quarantined_row_lines = lenient.report.quarantined_lines();
  r.quarantined_shards = lenient.report.shards.size();
  r.retries = lenient.report.retries;

  // Conservation: the claim discipline keeps per-component accounting
  // additive — an injected line never sits in a lost shard, and no
  // shard's rows are corrected for twice.
  long long expected = static_cast<long long>(r.generated);
  for (const auto& mut : muts) {
    expected += mut.injected_lines;
    for (const auto& lost : mut.lost_shards) {
      expected -= static_cast<long long>(rows_of.at(lost));
    }
  }
  long long actual = static_cast<long long>(r.ingested) +
                     static_cast<long long>(r.quarantined_row_lines);
  for (const auto& shard : lenient.report.shards) {
    actual += static_cast<long long>(shard.lines_seen);
  }
  r.conserved = expected == actual;
  if (r.conserved) {
    catch_rule(r, "conservation");
  } else {
    fail(r, "silent data loss: expected " + std::to_string(expected) +
                " accounted lines, found " + std::to_string(actual));
  }

  // A composition of only benign mutations must leave lenient ingest
  // clean; retries must sum over the composed I/O faults exactly (a
  // recovered transient retries fail_attempts times, an unreadable shard
  // exhausts the budget at max_attempts - 1 retries).
  bool all_benign = true;
  std::size_t expected_retries = 0;
  bool any_strict_throw = false;
  for (const auto& mut : muts) {
    const bool benign = mut.fault == CorpusFault::kDropShard ||
                        mut.fault == CorpusFault::kReorderShards ||
                        mut.fault == CorpusFault::kTransientIo;
    all_benign = all_benign && benign;
    expected_retries +=
        std::min<std::size_t>(mut.fail_attempts, cfg.max_attempts - 1);
    any_strict_throw = any_strict_throw || mut.expect_strict_throw;
  }
  if (all_benign && !lenient.report.clean()) {
    fail(r, "benign composition produced quarantine entries");
  }
  if (r.retries != expected_retries) {
    fail(r, "expected " + std::to_string(expected_retries) +
                " retries, saw " + std::to_string(r.retries));
  }

  // Strict ingest throws iff ANY component planted a defect, and the
  // error must name one of the defective shards (shard read order
  // decides which defect fires first).
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
  if (r.strict_threw != any_strict_throw) {
    fail(r, any_strict_throw
                ? "strict ingest accepted a defective composed shard set"
                : "strict ingest threw on a benign composition: " +
                      r.strict_error);
  } else if (r.strict_threw) {
    bool named = false;
    for (const auto& mut : muts) {
      if (!mut.expect_strict_throw || mut.shard.empty()) continue;
      named = named ||
              r.strict_error.find(strip_workdir(mut.shard, cfg.workdir)) !=
                  std::string::npos;
    }
    if (!named) {
      fail(r, "strict error names no defective shard: " + r.strict_error);
    }
  }
}

// ---------------------------------------------------------------------
// Pipeline components (sweep cache, model IR, chain lint) — the
// single-mutator surfaces rehosted as composition components.

void run_sweep_fault_component(Rng& rng, const ComposedDeps& deps,
                               TrialResult& r) {
  constexpr std::array<analysis::SweepFault, 5> kSweepFaults = {
      analysis::SweepFault::kStaleSubmaskEntry,
      analysis::SweepFault::kFlippedCacheOutcome,
      analysis::SweepFault::kWrongGateComposition,
      analysis::SweepFault::kStaleSharedMemoAcrossSweeps,
      analysis::SweepFault::kMissedInvalidationOnPatch,
  };
  const auto& studies = *deps.studies;
  const std::size_t si = rng.below(studies.size());
  const std::size_t fi = rng.below(kSweepFaults.size());
  for (std::size_t k = 0; k < studies.size() * kSweepFaults.size(); ++k) {
    const apps::CaseStudy& study =
        *studies[(si + k / kSweepFaults.size()) % studies.size()];
    const analysis::SweepFault fault =
        kSweepFaults[(fi + k) % kSweepFaults.size()];
    const auto faulty = analysis::sweep_with_fault(study, fault);
    if (!faulty) continue;

    if (!r.detail.empty()) r.detail += "; ";
    r.detail += std::string("sweep-cache ") + analysis::to_string(fault) +
                " @ " + study.name() + "/" + faulty->target;
    analysis::SweepOptions direct_opts;
    direct_opts.mode = analysis::SweepMode::kDirect;
    const auto reference = faulty->reference
                               ? *faulty->reference
                               : analysis::sweep(study, direct_opts);
    if (!analysis::reports_equivalent(reference, faulty->report)) {
      catch_rule(r, "memoized-vs-direct");
    } else {
      fail(r, "corrupted sweep cache escaped the memoized-vs-direct "
              "cross-check");
    }
    return;
  }
  fail(r, "no case study hosts a sweep-cache fault");
}

void run_clean_sweep_check(Rng& rng, const ComposedDeps& deps,
                           TrialResult& r) {
  const auto& studies = *deps.studies;
  const apps::CaseStudy& study = *studies[rng.below(studies.size())];
  analysis::SweepOptions direct_opts;
  direct_opts.mode = analysis::SweepMode::kDirect;
  const auto memoized = analysis::sweep(study);
  const auto direct = analysis::sweep(study, direct_opts);
  if (analysis::reports_equivalent(memoized, direct)) {
    catch_rule(r, "memoized-vs-direct");
  } else {
    fail(r, "clean memoized sweep diverged from the direct reference on " +
                study.name());
  }
}

void mark_caught_expected(const staticlint::LintRun& run,
                          const std::vector<std::string>& expected,
                          TrialResult& r, bool& hit) {
  for (const auto& finding : run.findings) {
    for (const auto& want : expected) {
      if (finding.rule_id != want) continue;
      bool seen = false;
      for (const auto& id : r.caught_rules) seen = seen || id == want;
      if (!seen) catch_rule(r, want);
      hit = true;
    }
  }
}

void run_model_ir_component(Rng& rng, const ComposedDeps& deps,
                            TrialResult& r) {
  const auto& curated = *deps.curated;
  const std::size_t num_faults = kAllModelFaults.size();
  const std::size_t mi = rng.below(curated.size());
  const std::size_t fi = rng.below(num_faults);
  for (std::size_t k = 0; k < curated.size() * num_faults; ++k) {
    staticlint::LintModel copy =
        curated[(mi + k / num_faults) % curated.size()];
    const ModelFault fault = kAllModelFaults[(fi + k) % num_faults];
    const auto mut = apply_model_fault(fault, copy, rng);
    if (!mut) continue;

    if (!r.detail.empty()) r.detail += "; ";
    r.detail += std::string("model-ir ") + to_string(fault) + " @ " +
                mut->model + (mut->target.empty() ? "" : "/" + mut->target);
    for (const auto& id : mut->expected_rules) expect_rule(r, id);
    const auto run = lint_and_record(copy, deps, r);
    bool hit = false;
    mark_caught_expected(run, mut->expected_rules, r, hit);
    if (!hit) {
      fail(r, "composed model-ir defect escaped the linter (" +
                  std::string(to_string(fault)) + ")");
    }
    return;
  }
  fail(r, "no applicable model fault found");
}

void run_chain_lint_component(Rng& rng, const ComposedDeps& deps,
                              TrialResult& r) {
  const ChainLintFault fault =
      kAllChainLintFaults[rng.below(kAllChainLintFaults.size())];
  const ChainLintFixture fx = make_chain_lint_fault(fault, rng);
  if (!r.detail.empty()) r.detail += "; ";
  r.detail += std::string("chain-lint ") + to_string(fault) + " @ " +
              fx.chain.name() + (fx.target.empty() ? "" : "/" + fx.target);
  for (const auto& id : fx.expected_rules) expect_rule(r, id);
  const auto run = lint_and_record(
      staticlint::LintModel::from_chain(fx.chain), deps, r);
  bool hit = false;
  mark_caught_expected(run, fx.expected_rules, r, hit);
  if (!hit) {
    fail(r, "composed chain-lint defect escaped lint_chain (" +
                std::string(to_string(fault)) + ")");
  }
}

// ---------------------------------------------------------------------
// Analysis-layer mutators.

/// The v0.5 discovery campaign, computed once: it is deterministic (a
/// pure parallel_map fan-out), so every trial shares one reference run.
const analysis::DiscoveryReport& reference_discovery() {
  static const analysis::DiscoveryReport report =
      analysis::probe_nullhttpd_v05();
  return report;
}

/// Corrupt-discovery-oracle mutator: replace Figure-4 pFSM2's spec with
/// an accept-all or reject-all predicate and replay the v0.5 probe set
/// through both the clean and the corrupted chain. The corrupted
/// oracle's agreement count must match the closed form computed from
/// the probes' ground truth — and must fall below the clean oracle's,
/// which is exactly how cross-validation exposes a biased model.
void run_oracle_component(Rng& rng, const ComposedDeps&, TrialResult& r) {
  const auto& ref = reference_discovery();
  const auto model = apps::NullHttpd::figure4_model();
  const bool accept_all = rng.below(2) == 0;
  const core::Predicate biased =
      accept_all
          ? core::Predicate::accept_all("corrupted oracle: accept every copy")
          : core::Predicate::reject_all(
                "corrupted oracle: reject every copy");
  const auto corrupted =
      rebind_pfsm_spec(model.chain(), 0, 1, biased,
                       model.chain().name() + " (corrupted oracle)");

  if (!r.detail.empty()) r.detail += "; ";
  r.detail += std::string("oracle ") +
              (accept_all ? "accept-all" : "reject-all") +
              " spec on pFSM2, " + std::to_string(ref.probes.size()) +
              " probe(s)";
  expect_rule(r, "oracle-divergence");

  // The same input-set construction as discovery.cpp's cross-validation.
  std::vector<std::vector<std::vector<core::Object>>> input_sets;
  input_sets.reserve(ref.probes.size());
  for (const auto& probe : ref.probes) {
    const bool overrun = probe.body_len > probe.buffer_size;
    std::vector<std::vector<core::Object>> inputs(3);
    inputs[0].push_back(core::Object{"request"}.with(
        "contentLen", static_cast<std::int64_t>(probe.content_len)));
    inputs[0].push_back(
        core::Object{"input"}
            .with("input_length", static_cast<std::int64_t>(probe.body_len))
            .with("buffer_size",
                  static_cast<std::int64_t>(probe.buffer_size)));
    inputs[1].push_back(
        core::Object{"free chunk B"}.with("links_unchanged", !overrun));
    inputs[2].push_back(
        core::Object{"addr_free"}.with("addr_free_unchanged", !overrun));
    input_sets.push_back(std::move(inputs));
  }
  const auto clean_results = model.chain().evaluate_batch(input_sets);
  const auto bad_results = corrupted.evaluate_batch(input_sets);

  std::size_t checked = 0;
  std::size_t clean_agree = 0;
  std::size_t bad_agree = 0;
  std::size_t expected_bad_agree = 0;
  // reject-all spec => the unchecked impl still accepts => hidden path
  // taken on every probe; accept-all => never.
  const bool bad_predicts = !accept_all;
  for (std::size_t i = 0; i < ref.probes.size(); ++i) {
    const auto& clean_out = clean_results[i].operations[0].outcomes;
    const auto& bad_out = bad_results[i].operations[0].outcomes;
    if (clean_out.size() < 2 || bad_out.size() < 2) continue;
    ++checked;
    const bool truth = ref.probes[i].predicate_violated;
    if (clean_out[1].hidden_path_taken() == truth) ++clean_agree;
    if (bad_out[1].hidden_path_taken() == truth) ++bad_agree;
    if (bad_predicts == truth) ++expected_bad_agree;
  }

  bool ok = true;
  if (checked != ref.model_checked || clean_agree != ref.model_agreements) {
    ok = false;
    fail(r, "clean oracle replay disagrees with the discovery campaign (" +
                std::to_string(clean_agree) + "/" + std::to_string(checked) +
                " vs " + std::to_string(ref.model_agreements) + "/" +
                std::to_string(ref.model_checked) + ")");
  }
  if (bad_agree != expected_bad_agree) {
    ok = false;
    fail(r, "corrupted oracle agreements off the closed form: " +
                std::to_string(bad_agree) + " != " +
                std::to_string(expected_bad_agree));
  }
  if (bad_agree >= clean_agree) {
    ok = false;
    fail(r, "corrupted oracle kept full agreement — cross-validation is "
            "blind to the bias");
  }
  if (ok) catch_rule(r, "oracle-divergence");
}

/// Desync-monitor mutator: rebuild a curated race model with one pFSM's
/// spec widened to accept-all and run the same observation through the
/// reference and the desynced monitor. The desynced monitor must report
/// exactly one violation fewer — the reference-vs-desynced comparison
/// is what catches a monitor whose model drifted from the deployed spec.
void run_monitor_component(Rng& rng, const ComposedDeps&, TrialResult& r) {
  const bool use_xterm = rng.below(2) == 0;
  core::FsmModel model = use_xterm ? apps::XtermLogger::figure5_model()
                                   : apps::RwallDaemon::figure6_model();
  const auto obs = use_xterm ? analysis::xterm_observation(true, false, false)
                             : analysis::rwall_observation(false, "file");
  // xterm: only pFSM2 (op 0, index 1) fires on this observation, so
  // desync it; rwall: both single-pFSM operations fire, desync either.
  const std::size_t op_index = use_xterm ? 0 : rng.below(2);
  const std::size_t pfsm_index = use_xterm ? 1 : 0;
  const std::size_t expected_ref = use_xterm ? 1 : 2;

  if (!r.detail.empty()) r.detail += "; ";
  r.detail += std::string("monitor desync ") +
              (use_xterm ? "figure5" : "figure6") + " op" +
              std::to_string(op_index) + "/pfsm" +
              std::to_string(pfsm_index);
  expect_rule(r, "monitor-desync");

  analysis::RuntimeMonitor reference{model};
  (void)reference.observe(obs);
  core::FsmModel desynced_model = with_chain(
      model,
      rebind_pfsm_spec(
          model.chain(), op_index, pfsm_index,
          core::Predicate::accept_all("desynced spec: accept all"),
          model.chain().name() + " (desynced)"));
  analysis::RuntimeMonitor desynced{std::move(desynced_model)};
  (void)desynced.observe(obs);

  bool ok = true;
  if (reference.violations().size() != expected_ref) {
    ok = false;
    fail(r, "reference monitor saw " +
                std::to_string(reference.violations().size()) +
                " violation(s), expected " + std::to_string(expected_ref));
  }
  if (desynced.violations().size() + 1 != reference.violations().size()) {
    ok = false;
    fail(r, "desynced monitor saw " +
                std::to_string(desynced.violations().size()) +
                " violation(s) — the desync went unnoticed");
  }
  if (ok) catch_rule(r, "monitor-desync");
}

/// Bias-anomaly-threshold mutator: train the detector on benign NULL
/// HTTPD traces, then raise the alarm threshold to the #5774 exploit
/// trace's own score. The spec threshold (0.0) must flag the exploit;
/// the biased threshold must miss it; benign traffic must score 0 under
/// both — the exact signature of a threshold tampered to hide a known
/// exploit.
void run_anomaly_component(Rng& rng, const ComposedDeps&, TrialResult& r) {
  const std::size_t ngram = 2 + rng.below(2);  // bigram or trigram
  constexpr std::array<std::size_t, 5> kBenignSizes = {0, 100, 1024, 2048,
                                                       5000};
  analysis::AnomalyDetector detector{ngram};
  for (const std::size_t len : kBenignSizes) {
    apps::NullHttpd app{};
    detector.train(app.handle_post(static_cast<std::int32_t>(len),
                                   std::string(len, 'a'))
                       .events);
  }
  const std::size_t probe_len = kBenignSizes[rng.below(kBenignSizes.size())];
  apps::NullHttpd benign_app{};
  const auto benign_trace =
      benign_app
          .handle_post(static_cast<std::int32_t>(probe_len),
                       std::string(probe_len, 'a'))
          .events;

  const auto info = apps::NullHttpd::scout(-800);
  const auto body = apps::NullHttpd::build_overflow_body(info);
  apps::NullHttpd victim{};
  const auto exploit_trace =
      victim.handle_post(-800, std::string(body.begin(), body.end())).events;

  const double score = detector.score(exploit_trace);
  // The bias: alarm only strictly ABOVE the exploit's own score.
  const double biased_threshold = score;

  if (!r.detail.empty()) r.detail += "; ";
  r.detail += "anomaly " + std::to_string(ngram) + "-gram, exploit score " +
              std::to_string(score) + ", biased threshold " +
              std::to_string(biased_threshold);
  expect_rule(r, "anomaly-threshold-bias");

  bool ok = true;
  if (!(score > 0.0)) {
    ok = false;
    fail(r, "exploit trace scored 0 — the detector cannot arbitrate the "
            "threshold bias");
  }
  if (!detector.anomalous(exploit_trace, 0.0)) {
    ok = false;
    fail(r, "spec threshold (0.0) missed the exploit trace");
  }
  if (detector.anomalous(exploit_trace, biased_threshold)) {
    ok = false;
    fail(r, "biased threshold still flagged the exploit — the bias had no "
            "effect to detect");
  }
  if (detector.score(benign_trace) != 0.0) {
    ok = false;
    fail(r, "benign trace scored non-zero under the trained detector");
  }
  if (ok) catch_rule(r, "anomaly-threshold-bias");
}

}  // namespace

const char* to_string(ComposedMutator m) noexcept {
  switch (m) {
    case ComposedMutator::kCorpusTruncateTail: return "truncate-tail";
    case ComposedMutator::kCorpusMangleQuoting: return "mangle-quoting";
    case ComposedMutator::kCorpusCorruptField: return "corrupt-field";
    case ComposedMutator::kCorpusMissingHeader: return "missing-header";
    case ComposedMutator::kCorpusDuplicateHeader: return "duplicate-header";
    case ComposedMutator::kCorpusDropShard: return "drop-shard";
    case ComposedMutator::kCorpusReorderShards: return "reorder-shards";
    case ComposedMutator::kCorpusTransientIo: return "transient-io";
    case ComposedMutator::kCorpusUnreadableShard: return "unreadable-shard";
    case ComposedMutator::kSweepCacheFault: return "sweep-cache";
    case ComposedMutator::kModelIrFault: return "model-ir";
    case ComposedMutator::kChainLintFault: return "chain-lint";
    case ComposedMutator::kCorruptDiscoveryOracle: return "corrupt-oracle";
    case ComposedMutator::kDesyncMonitorModel: return "desync-monitor";
    case ComposedMutator::kBiasAnomalyThreshold: return "bias-anomaly";
  }
  return "unknown";
}

bool is_corpus_mutator(ComposedMutator m) noexcept {
  switch (m) {
    case ComposedMutator::kCorpusTruncateTail:
    case ComposedMutator::kCorpusMangleQuoting:
    case ComposedMutator::kCorpusCorruptField:
    case ComposedMutator::kCorpusMissingHeader:
    case ComposedMutator::kCorpusDuplicateHeader:
    case ComposedMutator::kCorpusDropShard:
    case ComposedMutator::kCorpusReorderShards:
    case ComposedMutator::kCorpusTransientIo:
    case ComposedMutator::kCorpusUnreadableShard:
      return true;
    default:
      return false;
  }
}

CorpusFault corpus_fault_of(ComposedMutator m) {
  switch (m) {
    case ComposedMutator::kCorpusTruncateTail:
      return CorpusFault::kTruncateTail;
    case ComposedMutator::kCorpusMangleQuoting:
      return CorpusFault::kMangleQuoting;
    case ComposedMutator::kCorpusCorruptField:
      return CorpusFault::kCorruptField;
    case ComposedMutator::kCorpusMissingHeader:
      return CorpusFault::kMissingHeader;
    case ComposedMutator::kCorpusDuplicateHeader:
      return CorpusFault::kDuplicateHeader;
    case ComposedMutator::kCorpusDropShard:
      return CorpusFault::kDropShard;
    case ComposedMutator::kCorpusReorderShards:
      return CorpusFault::kReorderShards;
    case ComposedMutator::kCorpusTransientIo:
      return CorpusFault::kTransientIo;
    case ComposedMutator::kCorpusUnreadableShard:
      return CorpusFault::kUnreadableShard;
    default:
      throw std::invalid_argument(std::string("not a corpus mutator: ") +
                                  to_string(m));
  }
}

std::vector<ComposedMutator> draw_composition(Rng& rng) {
  const std::size_t k = 2 + rng.below(3);
  std::vector<ComposedMutator> out;
  out.reserve(k);
  while (out.size() < k) {
    const ComposedMutator m =
        kAllComposedMutators[rng.below(kAllComposedMutators.size())];
    bool dup = false;
    for (const ComposedMutator e : out) dup = dup || e == m;
    if (!dup) out.push_back(m);
  }
  return out;
}

TrialResult run_composed_trial(const CampaignConfig& cfg, std::size_t trial,
                               Rng& rng, const ComposedDeps& deps) {
  return run_composed_trial_with(draw_composition(rng), cfg, trial, rng,
                                 deps);
}

TrialResult run_composed_trial_with(
    const std::vector<ComposedMutator>& mutators, const CampaignConfig& cfg,
    std::size_t trial, Rng& rng, const ComposedDeps& deps) {
  if (mutators.empty() || mutators.size() > kAllComposedMutators.size()) {
    throw std::invalid_argument(
        "composed trial needs 1.." +
        std::to_string(kAllComposedMutators.size()) + " mutators");
  }
  for (std::size_t i = 0; i < mutators.size(); ++i) {
    for (std::size_t j = i + 1; j < mutators.size(); ++j) {
      if (mutators[i] == mutators[j]) {
        throw std::invalid_argument(
            std::string("duplicate composed mutator: ") +
            to_string(mutators[i]));
      }
    }
  }
  if (deps.curated == nullptr || deps.studies == nullptr ||
      deps.curated->empty() || deps.studies->empty()) {
    throw std::invalid_argument(
        "composed trial needs curated models and case studies");
  }

  TrialResult r;
  r.trial = trial;
  r.kind = "composed";
  for (const ComposedMutator m : mutators) {
    if (!r.fault.empty()) r.fault += "+";
    r.fault += to_string(m);
  }

  // Phase 1 — the corpus pipeline, always (clean when no corpus mutator
  // was drawn); verifies the conservation invariant on every trial.
  std::vector<ComposedMutator> corpus_kinds;
  for (const ComposedMutator m : mutators) {
    if (is_corpus_mutator(m)) corpus_kinds.push_back(m);
  }
  expect_rule(r, "conservation");
  run_corpus_phase(corpus_kinds, cfg, rng, r);

  // Phase 2 — non-corpus components, in drawn order.
  bool sweep_fault_drawn = false;
  for (const ComposedMutator m : mutators) {
    switch (m) {
      case ComposedMutator::kSweepCacheFault:
        sweep_fault_drawn = true;
        expect_rule(r, "memoized-vs-direct");
        run_sweep_fault_component(rng, deps, r);
        break;
      case ComposedMutator::kModelIrFault:
        run_model_ir_component(rng, deps, r);
        break;
      case ComposedMutator::kChainLintFault:
        run_chain_lint_component(rng, deps, r);
        break;
      case ComposedMutator::kCorruptDiscoveryOracle:
        run_oracle_component(rng, deps, r);
        break;
      case ComposedMutator::kDesyncMonitorModel:
        run_monitor_component(rng, deps, r);
        break;
      case ComposedMutator::kBiasAnomalyThreshold:
        run_anomaly_component(rng, deps, r);
        break;
      default:
        break;  // corpus mutators ran in phase 1
    }
  }

  // Phase 3 — the memoized-vs-direct invariant, always: a clean
  // cross-check when the composition did not corrupt the sweep cache
  // (the corrupted variant already asserted divergence above).
  if (!sweep_fault_drawn) {
    expect_rule(r, "memoized-vs-direct");
    run_clean_sweep_check(rng, deps, r);
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

}  // namespace dfsm::faultinject
