#include "analysis/chain_analyzer.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <set>
#include <stdexcept>

#include "analysis/sweep_memo.h"
#include "apps/secured.h"
#include "core/fingerprint.h"
#include "runtime/parallel.h"

namespace dfsm::analysis {

namespace {

/// One operation's slice of the check vector: which global check
/// positions belong to it, in ascending position order.
struct OpChecks {
  std::size_t op = 0;
  std::vector<std::size_t> positions;
};

/// One memoized cell: the study's outcome with ONLY this operation's
/// checks enabled (per its sub-mask), everything else off, as ids into
/// the engine's outcome table. `*_blocks` records whether that run
/// diverged from the all-checks-off baseline — by the Lemma's predicate
/// independence, a non-diverging operation is behaviourally absent from
/// every composed mask.
struct CacheEntry {
  std::uint32_t exploit = 0;
  std::uint32_t benign = 0;
  bool exploit_blocks = false;
  bool benign_blocks = false;

  [[nodiscard]] bool operator==(const CacheEntry&) const = default;
};

/// Adds `o` to a LemmaReport::outcomes table under construction and
/// returns its id: equal outcomes share one id and ids are handed out in
/// first-seen order, so the table is a pure function of the interning
/// sequence. A table holds at most 2·(1 + Σ(2^k_op − 1)) entries, so a
/// linear search is enough.
std::uint32_t intern(std::vector<apps::RunOutcome>& table,
                     apps::RunOutcome o) {
  const auto it = std::find(table.begin(), table.end(), o);
  if (it != table.end()) return static_cast<std::uint32_t>(it - table.begin());
  table.push_back(std::move(o));
  return static_cast<std::uint32_t>(table.size() - 1);
}

std::vector<OpChecks> op_layout(const std::vector<apps::CheckSpec>& checks) {
  std::set<std::size_t> op_ids;
  for (const auto& c : checks) op_ids.insert(c.operation_index);
  std::vector<OpChecks> ops;
  ops.reserve(op_ids.size());
  for (std::size_t op : op_ids) {
    OpChecks oc;
    oc.op = op;
    for (std::size_t i = 0; i < checks.size(); ++i) {
      if (checks[i].operation_index == op) oc.positions.push_back(i);
    }
    ops.push_back(std::move(oc));
  }
  return ops;
}

/// Slot of operation id `op` in the layout; throws when the delta names
/// an operation the study has no checks for.
std::size_t slot_of(const std::vector<OpChecks>& ops, std::size_t op,
                    const std::string& study_name, const char* who) {
  for (std::size_t oi = 0; oi < ops.size(); ++oi) {
    if (ops[oi].op == op) return oi;
  }
  throw std::invalid_argument(std::string{who} + ": '" + study_name +
                              "' has no checks for operation " +
                              std::to_string(op));
}

/// The study-interface form of a mask id.
std::vector<bool> mask_vector(std::uint64_t bits, std::size_t k) {
  std::vector<bool> mask(k);
  for (std::size_t i = 0; i < k; ++i) mask[i] = (bits >> i) & 1;
  return mask;
}

/// The mask ids a sweep enumerates: all of [0, total) when it fits the
/// cap, otherwise an evenly-strided sample that pins mask 0 and mask
/// total-1. Pure function of (total, max_masks) — the determinism anchor
/// for sampled sweeps.
struct MaskIds {
  std::uint64_t total = 0;
  std::uint64_t count = 0;  ///< rows the sweep materializes

  MaskIds(std::uint64_t total_masks, std::uint64_t max_masks)
      : total(total_masks),
        count(max_masks == 0 || total_masks <= max_masks ? total_masks
                                                         : max_masks) {}

  [[nodiscard]] std::uint64_t operator()(std::uint64_t i) const {
    if (count == total) return i;
    if (count == 1) return 0;
    // i scaled onto [0, total-1]; strictly increasing since total > count.
    return i * ((total - 1) / (count - 1)) +
           (i * ((total - 1) % (count - 1))) / (count - 1);
  }
};

/// The mask id holding `submask` at this operation's check positions and
/// 0 everywhere else: the cell's run mask, and the exhaustive row that
/// equals the cell.
std::uint64_t expand_submask_bits(const OpChecks& oc, std::uint64_t submask) {
  std::uint64_t bits = 0;
  for (std::size_t j = 0; j < oc.positions.size(); ++j) {
    if ((submask >> j) & 1) bits |= std::uint64_t{1} << oc.positions[j];
  }
  return bits;
}

/// Inverse of expand_submask_bits. Branch-free: mask bits are random
/// across rows, so a branch per bit would mispredict half the time.
std::uint64_t gather_submask(const OpChecks& oc, std::uint64_t mask_id) {
  std::uint64_t s = 0;
  for (std::size_t j = 0; j < oc.positions.size(); ++j) {
    s |= ((mask_id >> oc.positions[j]) & 1) << j;
  }
  return s;
}

/// Per-slot structural fingerprints, from the study's model chain. The
/// model's operations are indexed by the same operation ids the checks
/// carry; an id beyond the chain (a study without a full model mapping)
/// falls back to a (study, op) name fingerprint so it still invalidates
/// per-family.
std::vector<std::uint64_t> operation_fingerprints(
    const apps::CaseStudy& study, const std::vector<OpChecks>& ops) {
  const auto model = study.model();
  const auto& chain_ops = model.chain().operations();
  std::vector<std::uint64_t> fps(ops.size());
  for (std::size_t oi = 0; oi < ops.size(); ++oi) {
    if (ops[oi].op < chain_ops.size()) {
      fps[oi] = core::fingerprint(chain_ops[ops[oi].op]);
    } else {
      core::Fingerprinter fp;
      fp.mix(study.name()).mix(static_cast<std::uint64_t>(ops[oi].op));
      fps[oi] = fp.digest();
    }
  }
  return fps;
}

/// The memoized engine: per-operation outcome caches plus the gate
/// composition that reconstitutes any full-mask row (DESIGN.md §10).
/// The cache fills go through runtime::memo_fill over an optional
/// SweepMemoStore, then intern serially in (operation, sub-mask) order,
/// so the outcome table and the memo accounting are
/// thread-count-invariant (§11).
struct MemoizedEngine {
  std::vector<OpChecks> ops;
  std::vector<apps::RunOutcome> outcomes;  ///< the interned table
  CacheEntry baseline;                          ///< all checks off
  std::vector<std::vector<CacheEntry>> cache;   ///< [op][submask]
  bool compose_from_last = false;  ///< SweepFault::kWrongGateComposition

  [[nodiscard]] const apps::RunOutcome& outcome(std::uint32_t id) const {
    return outcomes[id];
  }

  /// Interns one cell's outcomes; blocking means "differs from baseline".
  CacheEntry intern_cell(apps::RunOutcome exploit, apps::RunOutcome benign) {
    CacheEntry e;
    e.exploit = intern(outcomes, std::move(exploit));
    e.benign = intern(outcomes, std::move(benign));
    e.exploit_blocks = e.exploit != baseline.exploit;
    e.benign_blocks = e.benign != baseline.benign;
    return e;
  }

  /// Runs (or recalls) the shared all-checks-off baseline and interns it
  /// first. The baseline is keyed by the study-family name alone
  /// (fingerprint 0): a family name identifies unchecked behaviour
  /// (DESIGN.md §11), so no per-operation patch ever invalidates it.
  void fill_baseline(const apps::CaseStudy& study, std::size_t k,
                     LemmaReport& report, SweepMemoStore* memo) {
    auto fill = runtime::memo_fill(
        memo, 1,
        [&](std::size_t) {
          return MemoKey{report.study_name, kBaselineOperation, 0};
        },
        [](std::size_t) { return std::uint64_t{0}; },
        [&](std::size_t) {
          return MemoEntry{study.run_exploit(std::vector<bool>(k)),
                           study.run_benign(std::vector<bool>(k))};
        });
    account(fill, report);
    baseline.exploit = intern(outcomes, std::move(fill.values[0].exploit));
    baseline.benign = intern(outcomes, std::move(fill.values[0].benign));
  }

  /// Fills the non-empty sub-mask cells of the given slots, recalling
  /// what the store can serve and evaluating the rest in one parallel
  /// pass; a cell blocks when its outcome differs from the baseline's.
  /// The cells are then interned serially in (operation, sub-mask)
  /// order. Requires fill_baseline (or an equivalent baseline
  /// assignment) to have happened, and cache to be sized for every slot
  /// touched.
  void fill_slots(const apps::CaseStudy& study, std::size_t k,
                  const std::vector<std::size_t>& slots, LemmaReport& report,
                  SweepMemoStore* memo) {
    std::vector<std::uint64_t> fps;
    if (memo != nullptr) fps = operation_fingerprints(study, ops);

    struct Cell {
      std::size_t op_slot = 0;
      std::uint64_t submask = 0;
    };
    std::vector<Cell> cells;
    for (const std::size_t oi : slots) {
      const std::uint64_t sub_total = std::uint64_t{1}
                                      << ops[oi].positions.size();
      cache[oi].assign(static_cast<std::size_t>(sub_total), CacheEntry{});
      cache[oi][0] = baseline;
      for (std::uint64_t s = 1; s < sub_total; ++s) cells.push_back({oi, s});
    }
    const apps::RunOutcome& base_exploit = outcome(baseline.exploit);
    const apps::RunOutcome& base_benign = outcome(baseline.benign);
    auto fill = runtime::memo_fill(
        memo, cells.size(),
        [&](std::size_t i) {
          return MemoKey{report.study_name, ops[cells[i].op_slot].op,
                         cells[i].submask};
        },
        [&](std::size_t i) { return fps[cells[i].op_slot]; },
        [&](std::size_t i) {
          const auto mask = mask_vector(
              expand_submask_bits(ops[cells[i].op_slot], cells[i].submask),
              k);
          MemoEntry e{study.run_exploit(mask), study.run_benign(mask)};
          e.exploit_blocks = !(e.exploit == base_exploit);
          e.benign_blocks = !(e.benign == base_benign);
          return e;
        });
    account(fill, report);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      MemoEntry& v = fill.values[i];
      cache[cells[i].op_slot][static_cast<std::size_t>(cells[i].submask)] =
          CacheEntry{intern(outcomes, std::move(v.exploit)),
                     intern(outcomes, std::move(v.benign)), v.exploit_blocks,
                     v.benign_blocks};
    }
  }

  /// Folds one fill's evaluations and memo counts into the report.
  static void account(const runtime::MemoFill<MemoEntry>& fill,
                      LemmaReport& report) {
    report.exploit_evaluations += fill.evaluated;
    report.benign_evaluations += fill.evaluated;
    report.memo_hits += fill.hits;
    report.memo_misses += fill.misses;
    report.entries_invalidated += fill.invalidated;
  }

  /// Evaluates each operation at most 2^{k_op} times: sub-mask 0 aliases
  /// the shared baseline run, so the study runs at most
  /// 1 + sum_ops (2^{k_op} - 1) times per workload (fewer when a memo
  /// store serves previously evaluated cells).
  void fill(const apps::CaseStudy& study,
            const std::vector<apps::CheckSpec>& checks, LemmaReport& report,
            SweepMemoStore* memo = nullptr) {
    const std::size_t k = checks.size();
    ops = op_layout(checks);
    fill_baseline(study, k, report, memo);
    cache.resize(ops.size());
    std::vector<std::size_t> all_slots(ops.size());
    std::iota(all_slots.begin(), all_slots.end(), std::size_t{0});
    fill_slots(study, k, all_slots, report, memo);
  }

  /// Rebuilds one row from the caches: operations execute in chain
  /// order, and a passing check is behaviourally absent, so the first
  /// operation whose sub-mask diverged from baseline owns the row (its
  /// propagation gate never fires — Lemma statement 2). `row_id` is the
  /// mask the row reports; `effective_id` is the mask the composition
  /// gathers sub-masks from — they differ only for pinned (secured)
  /// compositions, where effective_id == row_id | pin.
  [[nodiscard]] LemmaRow compose(std::uint64_t row_id,
                                 std::uint64_t effective_id) const {
    LemmaRow row{row_id, baseline.exploit, baseline.benign};
    // Walking against gate order, every blocking cell overwrites, so the
    // FIRST blocker ends up owning the row (the last one under
    // kWrongGateComposition, which walks forward).
    for (std::size_t n = ops.size(); n-- > 0;) {
      const std::size_t oi = compose_from_last ? ops.size() - 1 - n : n;
      const CacheEntry& e = cache[oi][static_cast<std::size_t>(
          gather_submask(ops[oi], effective_id))];
      row.exploit = e.exploit_blocks ? e.exploit : row.exploit;
      row.benign = e.benign_blocks ? e.benign : row.benign;
    }
    return row;
  }
};

/// One block's share of the verdicts, merged in block order.
struct Verdicts {
  bool baseline_exploited = false;
  bool all_checks_foil = false;
  bool lemma2_holds = true;
  bool benign_preserved = true;
  std::vector<std::size_t> foiling_single_checks;
};

/// Fills report.rows[i] = row_at(i) for every enumerated mask, sets each
/// row's secured bit and folds the verdicts in the same parallel pass.
/// report.outcomes must already hold every id row_at hands out; rows
/// ascend, so sampled sweeps keep the same logic.
template <typename RowAt>
void compose_rows(LemmaReport& report, const std::vector<OpChecks>& ops,
                  const MaskIds& ids, RowAt&& row_at) {
  std::vector<std::uint64_t> op_bits;  ///< each operation's check bits
  for (const auto& oc : ops) {
    const std::uint64_t all_on = (std::uint64_t{1} << oc.positions.size()) - 1;
    op_bits.push_back(expand_submask_bits(oc, all_on));
  }
  report.rows.resize(static_cast<std::size_t>(ids.count));
  auto v = runtime::parallel_reduce(
      report.rows.size(), Verdicts{},
      [&](std::size_t begin, std::size_t end) {
        Verdicts b;
        for (std::size_t i = begin; i < end; ++i) {
          LemmaRow row = row_at(i);
          const std::uint64_t id = row.mask;
          bool secured = false;
          for (const std::uint64_t bits : op_bits) {
            secured |= (id & bits) == bits;
          }
          row.mask |= secured ? LemmaRow::kSecuredBit : 0;
          const bool exploited = report.exploit_of(row).exploited;
          if (id == 0) b.baseline_exploited = exploited;
          if (id == report.total_masks - 1) b.all_checks_foil = !exploited;
          if (row.secured() && exploited) {
            b.lemma2_holds = false;  // a counterexample to Lemma 2
          }
          if (!report.benign_of(row).service_ok) b.benign_preserved = false;
          if (std::has_single_bit(id) && !exploited) {
            b.foiling_single_checks.push_back(
                static_cast<std::size_t>(std::countr_zero(id)));
          }
          report.rows[i] = row;
        }
        return b;
      },
      [](Verdicts& acc, Verdicts&& b) {
        acc.baseline_exploited = acc.baseline_exploited || b.baseline_exploited;
        acc.all_checks_foil = acc.all_checks_foil || b.all_checks_foil;
        acc.lemma2_holds = acc.lemma2_holds && b.lemma2_holds;
        acc.benign_preserved = acc.benign_preserved && b.benign_preserved;
        acc.foiling_single_checks.insert(acc.foiling_single_checks.end(),
                                         b.foiling_single_checks.begin(),
                                         b.foiling_single_checks.end());
      });
  report.baseline_exploited = v.baseline_exploited;
  report.all_checks_foil = v.all_checks_foil;
  report.lemma2_holds = v.lemma2_holds;
  report.benign_preserved = v.benign_preserved;
  report.foiling_single_checks = std::move(v.foiling_single_checks);
}

void require_sweepable(const std::string& study_name, std::size_t k,
                       std::uint64_t max_masks) {
  if (k >= kMaxExhaustiveSweepChecks && max_masks == 0) {
    throw std::invalid_argument(
        "sweep: '" + study_name + "' has " + std::to_string(k) +
        " checks; an exhaustive sweep would materialize 2^" +
        std::to_string(k) + " mask rows (limit 2^" +
        std::to_string(kMaxExhaustiveSweepChecks - 1) +
        ") — set SweepOptions::max_masks for a sampled sweep");
  }
  if (k >= 63) {
    throw std::invalid_argument("sweep: '" + study_name + "' has " +
                                std::to_string(k) +
                                " checks; mask ids are 64-bit");
  }
}

LemmaReport sweep_prepared(const apps::CaseStudy& study,
                           const SweepOptions& options,
                           MemoizedEngine* faulty_engine) {
  LemmaReport report;
  report.study_name = study.name();
  report.checks = study.checks();
  const std::size_t k = report.checks.size();

  require_sweepable(report.study_name, k, options.max_masks);

  report.total_masks = std::uint64_t{1} << k;
  const MaskIds ids{report.total_masks, options.max_masks};
  report.sampled = ids.count < report.total_masks;

  if (faulty_engine != nullptr || options.mode == SweepMode::kMemoized) {
    MemoizedEngine own;
    MemoizedEngine* engine = faulty_engine ? faulty_engine : &own;
    if (!faulty_engine) engine->fill(study, report.checks, report, options.memo);
    report.outcomes = engine->outcomes;
    compose_rows(report, engine->ops, ids, [&](std::size_t i) {
      return engine->compose(ids(i), ids(i));
    });
    return report;
  }

  // Direct: run every row in parallel, then intern serially in row order
  // so the table is the same at every thread count.
  struct Runs {
    apps::RunOutcome exploit;
    apps::RunOutcome benign;
  };
  auto runs = runtime::parallel_map<Runs>(
      static_cast<std::size_t>(ids.count), [&](std::size_t i) {
        const auto mask = mask_vector(ids(i), k);
        return Runs{study.run_exploit(mask), study.run_benign(mask)};
      });
  report.rows.resize(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    report.rows[i].mask = ids(i);
    report.rows[i].exploit =
        intern(report.outcomes, std::move(runs[i].exploit));
    report.rows[i].benign = intern(report.outcomes, std::move(runs[i].benign));
  }
  report.exploit_evaluations = runs.size();
  report.benign_evaluations = runs.size();
  compose_rows(report, op_layout(report.checks), ids,
               [&](std::size_t i) { return report.rows[i]; });
  return report;
}

/// The pin bits of a secured-operation set (validates every operation).
std::uint64_t pin_bits_of(const std::vector<OpChecks>& ops,
                          const std::vector<std::size_t>& secured,
                          const std::string& study_name, const char* who) {
  std::uint64_t pin = 0;
  for (const std::size_t op : secured) {
    const std::size_t oi = slot_of(ops, op, study_name, who);
    for (const std::size_t pos : ops[oi].positions) {
      pin |= std::uint64_t{1} << pos;
    }
  }
  return pin;
}

}  // namespace

bool operation_secured(const std::vector<apps::CheckSpec>& checks,
                       const std::vector<bool>& mask, std::size_t op) {
  bool has_any = false;
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (checks[i].operation_index != op) continue;
    has_any = true;
    if (!mask[i]) return false;
  }
  return has_any;
}

LemmaReport sweep(const apps::CaseStudy& study, const SweepOptions& options) {
  return sweep_prepared(study, options, nullptr);
}

LemmaReport sweep(const apps::CaseStudy& study) {
  return sweep(study, SweepOptions{});
}

std::vector<LemmaReport> sweep_all() { return sweep_all(SweepOptions{}); }

std::vector<LemmaReport> sweep_all(const SweepOptions& options) {
  const auto studies = apps::all_case_studies();
  // Outer shard over the study grid; the inner mask loops run nested on
  // the same pool (inline on a worker), so the whole (study x mask) grid
  // is covered without oversubscription. A shared options.memo is safe
  // here: study families keep their keys disjoint.
  return runtime::parallel_map<LemmaReport>(
      studies.size(),
      [&](std::size_t i) { return sweep(*studies[i], options); });
}

LemmaReport resweep(const apps::CaseStudy& study, const LemmaReport& baseline,
                    const SweepDelta& delta, const SweepOptions& options) {
  LemmaReport report;
  report.checks = study.checks();
  const std::size_t k = report.checks.size();

  if (baseline.study_name != study.name()) {
    throw std::invalid_argument("resweep: baseline report is for '" +
                                baseline.study_name + "', not '" +
                                study.name() + "'");
  }
  if (baseline.sampled || baseline.rows.size() != (std::uint64_t{1} << k)) {
    throw std::invalid_argument(
        "resweep: baseline for '" + study.name() +
        "' must be an exhaustive (unsampled) sweep — its rows are the "
        "reused sub-mask cells");
  }
  if (baseline.checks != report.checks) {
    throw std::invalid_argument(
        "resweep: baseline check layout for '" + study.name() +
        "' does not match the study's current checks — re-sweep the "
        "baseline before recomposing from it");
  }
  require_sweepable(study.name(), k, options.max_masks);

  MemoizedEngine engine;
  engine.ops = op_layout(report.checks);
  engine.baseline.exploit =
      intern(engine.outcomes, baseline.exploit_of(baseline.rows[0]));
  engine.baseline.benign =
      intern(engine.outcomes, baseline.benign_of(baseline.rows[0]));

  std::set<std::size_t> changed;
  for (const std::size_t op : delta.changed_operations) {
    changed.insert(engine.ops[slot_of(engine.ops, op, study.name(),
                                      "resweep")].op);
  }
  const std::uint64_t pin =
      pin_bits_of(engine.ops, delta.secured_operations, study.name(),
                  "resweep");

  // Delta cells are evaluated against the BASE study (fill_slots applies
  // no pin — securing happens at composition time), so the memo must key
  // them under the base family; the report only adopts the secured-variant
  // name after the fill, just before composition.
  report.study_name = baseline.study_name;

  // Unchanged operations reuse the baseline report's rows as cells: the
  // exhaustive row at mask expand(op, s) IS the cell (op, s). Changed
  // operations re-evaluate only their own sub-masks.
  engine.cache.resize(engine.ops.size());
  std::vector<std::size_t> changed_slots;
  for (std::size_t oi = 0; oi < engine.ops.size(); ++oi) {
    if (changed.count(engine.ops[oi].op) != 0) {
      changed_slots.push_back(oi);
      continue;
    }
    const std::uint64_t sub_total = std::uint64_t{1}
                                    << engine.ops[oi].positions.size();
    engine.cache[oi].assign(static_cast<std::size_t>(sub_total),
                            CacheEntry{});
    engine.cache[oi][0] = engine.baseline;
    for (std::uint64_t s = 1; s < sub_total; ++s) {
      const LemmaRow& row = baseline.rows[static_cast<std::size_t>(
          expand_submask_bits(engine.ops[oi], s))];
      engine.cache[oi][static_cast<std::size_t>(s)] =
          engine.intern_cell(baseline.exploit_of(row), baseline.benign_of(row));
    }
  }
  engine.fill_slots(study, k, changed_slots, report, options.memo);
  if (!delta.secured_operations.empty()) {
    report.study_name =
        apps::secured_study_name(study, delta.secured_operations);
  }

  report.total_masks = std::uint64_t{1} << k;
  const MaskIds ids{report.total_masks, options.max_masks};
  report.sampled = ids.count < report.total_masks;
  report.outcomes = engine.outcomes;
  compose_rows(report, engine.ops, ids, [&](std::size_t i) {
    return engine.compose(ids(i), ids(i) | pin);
  });
  return report;
}

SweepSummary sweep_summary(const apps::CaseStudy& study,
                           const SweepDelta& delta,
                           const SweepOptions& options) {
  LemmaReport scratch;
  scratch.study_name = study.name();
  scratch.checks = study.checks();
  const std::size_t k = scratch.checks.size();
  if (k >= 63) {
    throw std::invalid_argument("sweep_summary: '" + study.name() + "' has " +
                                std::to_string(k) +
                                " checks; mask ids are 64-bit");
  }

  MemoizedEngine engine;
  engine.fill(study, scratch.checks, scratch, options.memo);

  SweepSummary summary;
  summary.study_name =
      delta.secured_operations.empty()
          ? study.name()
          : apps::secured_study_name(study, delta.secured_operations);
  summary.total_masks = std::uint64_t{1} << k;
  summary.exploit_evaluations = scratch.exploit_evaluations;
  summary.benign_evaluations = scratch.benign_evaluations;
  summary.memo_hits = scratch.memo_hits;
  summary.memo_misses = scratch.memo_misses;
  summary.entries_invalidated = scratch.entries_invalidated;

  const std::size_t nops = engine.ops.size();
  std::vector<bool> pinned(nops, false);
  for (const std::size_t op : delta.secured_operations) {
    pinned[slot_of(engine.ops, op, study.name(), "sweep_summary")] = true;
  }

  // The mask space factors into per-operation sub-mask spaces, so each
  // count is a product-sum over the per-operation tallies: a row is
  // owned by the FIRST gate-order operation whose (pinned) cell blocks,
  // with every earlier operation non-blocking and later operations free.
  struct Tally {
    std::uint64_t sub_total = 0;       ///< visible sub-masks of this op
    std::uint64_t exploit_free = 0;    ///< cells that do not block the exploit
    std::uint64_t exploit_lands = 0;   ///< blocking cells, still exploited
    std::uint64_t benign_free = 0;     ///< cells that do not block benign
    std::uint64_t benign_breaks = 0;   ///< blocking cells, service lost
  };
  std::vector<Tally> tally(nops);
  for (std::size_t oi = 0; oi < nops; ++oi) {
    const std::uint64_t sub_total = std::uint64_t{1}
                                    << engine.ops[oi].positions.size();
    const std::uint64_t full = sub_total - 1;
    tally[oi].sub_total = sub_total;
    for (std::uint64_t s = 0; s < sub_total; ++s) {
      // Securing pins every visible sub-mask to the all-on cell.
      const CacheEntry& e =
          engine.cache[oi][static_cast<std::size_t>(pinned[oi] ? full : s)];
      if (e.exploit_blocks) {
        if (engine.outcome(e.exploit).exploited) ++tally[oi].exploit_lands;
      } else {
        ++tally[oi].exploit_free;
      }
      if (e.benign_blocks) {
        if (!engine.outcome(e.benign).service_ok) ++tally[oi].benign_breaks;
      } else {
        ++tally[oi].benign_free;
      }
    }
  }

  // counts(restrict_slot): total masks whose composed exploit lands
  // (resp. benign breaks), optionally with one operation's visible
  // sub-mask restricted to all-on (the Lemma-2 probe). Every product is
  // bounded by 2^k <= 2^62, so the arithmetic stays in uint64.
  const auto count_masks = [&](std::size_t restrict_slot, bool for_exploit) {
    const auto restricted = [&](std::size_t oi) -> Tally {
      Tally t = tally[oi];
      if (oi == restrict_slot) {
        const std::uint64_t full = t.sub_total - 1;
        const CacheEntry& e = engine.cache[oi][static_cast<std::size_t>(full)];
        t.sub_total = 1;
        if (for_exploit) {
          t.exploit_free = e.exploit_blocks ? 0 : 1;
          t.exploit_lands =
              (e.exploit_blocks && engine.outcome(e.exploit).exploited) ? 1 : 0;
        } else {
          t.benign_free = e.benign_blocks ? 0 : 1;
          t.benign_breaks =
              (e.benign_blocks && !engine.outcome(e.benign).service_ok) ? 1 : 0;
        }
      }
      return t;
    };
    std::uint64_t total = 0;
    for (std::size_t j = 0; j < nops; ++j) {
      const Tally tj = restricted(j);
      std::uint64_t term = for_exploit ? tj.exploit_lands : tj.benign_breaks;
      for (std::size_t i = 0; i < j && term != 0; ++i) {
        const Tally ti = restricted(i);
        term *= for_exploit ? ti.exploit_free : ti.benign_free;
      }
      for (std::size_t i = j + 1; i < nops && term != 0; ++i) {
        term *= restricted(i).sub_total;
      }
      total += term;
    }
    const bool baseline_bad =
        for_exploit ? engine.outcome(engine.baseline.exploit).exploited
                    : !engine.outcome(engine.baseline.benign).service_ok;
    if (baseline_bad) {
      std::uint64_t none_block = 1;
      for (std::size_t i = 0; i < nops && none_block != 0; ++i) {
        const Tally ti = restricted(i);
        none_block *= for_exploit ? ti.exploit_free : ti.benign_free;
      }
      total += none_block;
    }
    return total;
  };
  constexpr std::size_t kNoRestriction = static_cast<std::size_t>(-1);
  summary.exploited_masks = count_masks(kNoRestriction, /*for_exploit=*/true);
  summary.benign_broken_masks =
      count_masks(kNoRestriction, /*for_exploit=*/false);

  // Lemma 2: no mask that secures some operation may remain exploited —
  // equivalently, restricting ANY operation to all-on yields zero
  // exploited masks.
  summary.lemma2_holds = true;
  for (std::size_t oi = 0; oi < nops; ++oi) {
    if (count_masks(oi, /*for_exploit=*/true) != 0) {
      summary.lemma2_holds = false;
      break;
    }
  }

  // Baseline (mask 0 after pinning) and all-checks rows, by composition.
  const auto composed_exploited = [&](bool all_on) {
    for (std::size_t oi = 0; oi < nops; ++oi) {
      const std::uint64_t full = tally[oi].sub_total - 1;
      const std::uint64_t s = (all_on || pinned[oi]) ? full : 0;
      const CacheEntry& e = engine.cache[oi][static_cast<std::size_t>(s)];
      if (e.exploit_blocks) return engine.outcome(e.exploit).exploited;
    }
    return engine.outcome(engine.baseline.exploit).exploited;
  };
  summary.baseline_exploited = composed_exploited(/*all_on=*/false);
  summary.all_checks_foil = !composed_exploited(/*all_on=*/true);
  return summary;
}

bool reports_equivalent(const LemmaReport& a, const LemmaReport& b) {
  if (a.study_name != b.study_name) return false;
  if (a.rows.size() != b.rows.size()) return false;
  if (a.baseline_exploited != b.baseline_exploited ||
      a.all_checks_foil != b.all_checks_foil ||
      a.lemma2_holds != b.lemma2_holds ||
      a.benign_preserved != b.benign_preserved ||
      a.foiling_single_checks != b.foiling_single_checks ||
      a.total_masks != b.total_masks || a.sampled != b.sampled) {
    return false;
  }
  // Table order may differ between engines: compare resolved outcomes.
  // `mask` carries the secured bit, so secured flags are compared too.
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const LemmaRow& x = a.rows[i];
    const LemmaRow& y = b.rows[i];
    if (x.mask != y.mask || !(a.exploit_of(x) == b.exploit_of(y)) ||
        !(a.benign_of(x) == b.benign_of(y))) {
      return false;
    }
  }
  return true;
}

const char* to_string(SweepFault f) noexcept {
  switch (f) {
    case SweepFault::kStaleSubmaskEntry: return "stale-submask-entry";
    case SweepFault::kFlippedCacheOutcome: return "flipped-cache-outcome";
    case SweepFault::kWrongGateComposition: return "wrong-gate-composition";
    case SweepFault::kStaleSharedMemoAcrossSweeps:
      return "stale-shared-memo-across-sweeps";
    case SweepFault::kMissedInvalidationOnPatch:
      return "missed-invalidation-on-patch";
  }
  return "unknown";
}

std::optional<SweepFaultReport> sweep_with_fault(const apps::CaseStudy& study,
                                                 SweepFault fault,
                                                 const SweepOptions& options) {
  LemmaReport scratch;
  scratch.study_name = study.name();
  scratch.checks = study.checks();
  MemoizedEngine engine;
  engine.fill(study, scratch.checks, scratch);

  SweepFaultReport out;
  switch (fault) {
    case SweepFault::kStaleSubmaskEntry:
    case SweepFault::kFlippedCacheOutcome: {
      // Corrupt the first blocking cell (ascending op, then sub-mask;
      // for a flipped exploit outcome, the first cell whose EXPLOIT run
      // blocks, so the flipped table entry is never the baseline's): the
      // mask that is exactly that cell's expansion composes through it,
      // so the corruption is guaranteed to surface in some row.
      const bool flip = fault == SweepFault::kFlippedCacheOutcome;
      for (std::size_t oi = 0; oi < engine.cache.size(); ++oi) {
        for (std::size_t s = 1; s < engine.cache[oi].size(); ++s) {
          CacheEntry& e = engine.cache[oi][s];
          if (!e.exploit_blocks && (flip || !e.benign_blocks)) continue;
          if (!flip) {
            e = engine.baseline;  // stale: pre-fill (all-checks-off) value
          } else {
            // Flipped in the shared table: every cell and row holding
            // this outcome inherits the corrupted verdict.
            auto& outcome = engine.outcomes[e.exploit];
            outcome.exploited = !outcome.exploited;
          }
          out.target = "operation " + std::to_string(engine.ops[oi].op) +
                       " submask " + std::to_string(s);
          out.report = sweep_prepared(study, options, &engine);
          return out;
        }
      }
      return std::nullopt;  // no blocking cell: nothing to corrupt
    }
    case SweepFault::kStaleSharedMemoAcrossSweeps: {
      // A shared store that skips the fingerprint check serves whatever
      // generation it holds: alias the first blocking cell to the first
      // OTHER cell whose entry differs from both it and the baseline
      // (kStaleSubmaskEntry already covers the degenerate baseline
      // alias). The aliased cell still blocks, so the mask that is its
      // expansion composes through the foreign outcome.
      for (std::size_t oi = 0; oi < engine.cache.size(); ++oi) {
        for (std::size_t s = 1; s < engine.cache[oi].size(); ++s) {
          const CacheEntry victim = engine.cache[oi][s];
          if (!victim.exploit_blocks && !victim.benign_blocks) continue;
          for (std::size_t oj = 0; oj < engine.cache.size(); ++oj) {
            for (std::size_t s2 = 1; s2 < engine.cache[oj].size(); ++s2) {
              if (oi == oj && s == s2) continue;
              const CacheEntry& donor = engine.cache[oj][s2];
              if (donor == victim || donor == engine.baseline) {
                continue;
              }
              if (!donor.exploit_blocks && !donor.benign_blocks) continue;
              engine.cache[oi][s] = donor;
              out.target = "operation " + std::to_string(engine.ops[oi].op) +
                           " submask " + std::to_string(s) +
                           " served stale entry of operation " +
                           std::to_string(engine.ops[oj].op) + " submask " +
                           std::to_string(s2);
              out.report = sweep_prepared(study, options, &engine);
              return out;
            }
          }
        }
      }
      return std::nullopt;  // no two differing blocking cells to alias
    }
    case SweepFault::kMissedInvalidationOnPatch: {
      // The incremental patch path must pin the secured operation's
      // sub-mask to all-on; missing that invalidation composes the
      // "patched" report from the unpatched cells. The cross-check
      // reference is the direct sweep of the actually-secured study.
      for (std::size_t oi = 0; oi < engine.cache.size(); ++oi) {
        const CacheEntry& full = engine.cache[oi].back();
        if (!full.exploit_blocks && !full.benign_blocks) continue;
        const std::size_t op = engine.ops[oi].op;
        out.target = "operation " + std::to_string(op) +
                     " pin dropped during resweep";
        out.report = sweep_prepared(study, options, &engine);
        out.report.study_name = apps::secured_study_name(study, {op});
        const auto secured = apps::make_secured_study(study, {op});
        SweepOptions direct = options;
        direct.mode = SweepMode::kDirect;
        direct.memo = nullptr;
        out.reference = sweep(*secured, direct);
        return out;
      }
      return std::nullopt;  // securing any operation changes nothing
    }
    case SweepFault::kWrongGateComposition: {
      // Hostable only when two operations' blocking outcomes differ —
      // otherwise first-vs-last composition is extensionally identical.
      bool hostable = false;
      for (std::size_t oi = 0; oi < engine.cache.size() && !hostable; ++oi) {
        for (std::size_t oj = oi + 1; oj < engine.cache.size() && !hostable;
             ++oj) {
          for (const auto& ei : engine.cache[oi]) {
            for (const auto& ej : engine.cache[oj]) {
              // A mask combining these two sub-masks resolves to ei
              // under first-blocker composition and ej under last: it
              // diverges only where both cells block the same workload
              // with different outcomes.
              if ((ei.exploit_blocks && ej.exploit_blocks &&
                   ei.exploit != ej.exploit) ||
                  (ei.benign_blocks && ej.benign_blocks &&
                   ei.benign != ej.benign)) {
                hostable = true;
                break;
              }
            }
            if (hostable) break;
          }
        }
      }
      if (!hostable) return std::nullopt;
      engine.compose_from_last = true;
      out.target = "gate composition";
      out.report = sweep_prepared(study, options, &engine);
      return out;
    }
  }
  return std::nullopt;
}

}  // namespace dfsm::analysis
