#include "analysis/defense_matrix.h"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/chain_analyzer.h"
#include "analysis/sweep_memo.h"
#include "apps/ghttpd.h"
#include "apps/secured.h"
#include "apps/nullhttpd.h"
#include "apps/rpcstatd.h"
#include "apps/sendmail.h"
#include "core/table.h"

namespace dfsm::analysis {

const char* to_string(Defense d) noexcept {
  switch (d) {
    case Defense::kNone: return "none";
    case Defense::kInputValidation: return "input validation";
    case Defense::kBoundedCopy: return "bounded copy";
    case Defense::kStackGuard: return "StackGuard";
    case Defense::kRefConsistency: return "reference consistency";
  }
  return "?";
}

const char* to_string(CellOutcome o) noexcept {
  switch (o) {
    case CellOutcome::kExploited: return "EXPLOITED";
    case CellOutcome::kFoiled: return "foiled";
    case CellOutcome::kIneffective: return "EXPLOITED (bypassed)";
    case CellOutcome::kNotApplicable: return "n/a";
  }
  return "?";
}

namespace {

constexpr Defense kAllDefenses[] = {
    Defense::kNone, Defense::kInputValidation, Defense::kBoundedCopy,
    Defense::kStackGuard, Defense::kRefConsistency,
};

DefenseCell run_sendmail(Defense d) {
  DefenseCell cell{"Sendmail #3163 (GOT of setuid)", d, CellOutcome::kExploited, ""};
  apps::SendmailChecks checks;
  switch (d) {
    case Defense::kNone: break;
    case Defense::kInputValidation: checks.input_representable = true; break;
    case Defense::kBoundedCopy:
      // There is no copy: a single indexed store. Nothing to bound.
      cell.outcome = CellOutcome::kNotApplicable;
      return cell;
    case Defense::kStackGuard:
      // No stack write happens; the canary never sees the attack.
      break;
    case Defense::kRefConsistency: checks.got_unchanged = true; break;
  }
  apps::SendmailTTflag app{checks};
  const auto e = app.build_exploit();
  const auto r = app.run_debug_command(e.str_x, e.str_i);
  cell.detail = r.detail;
  if (!r.mcode_executed) {
    cell.outcome = CellOutcome::kFoiled;
  } else {
    cell.outcome = d == Defense::kNone ? CellOutcome::kExploited
                                       : CellOutcome::kIneffective;
  }
  return cell;
}

DefenseCell run_nullhttpd(Defense d, bool use_6255) {
  DefenseCell cell{use_6255 ? "NULL HTTPD #6255 (heap, truthful length)"
                            : "NULL HTTPD #5774 (heap, negative length)",
                   d, CellOutcome::kExploited, ""};
  apps::NullHttpdChecks checks;
  switch (d) {
    case Defense::kNone: break;
    case Defense::kInputValidation: checks.content_len_nonneg = true; break;
    case Defense::kBoundedCopy: checks.bounded_read_loop = true; break;
    case Defense::kStackGuard:
      break;  // heap attack: the canary is never touched
    case Defense::kRefConsistency: checks.heap_safe_unlink = true; break;
  }
  const std::int32_t cl = use_6255 ? 0 : -800;
  const auto info = apps::NullHttpd::scout(cl, checks);
  apps::NullHttpd app{checks};
  const auto body = apps::NullHttpd::build_overflow_body(info);
  const auto r = app.handle_post(cl, std::string(body.begin(), body.end()));
  cell.detail = r.detail;
  if (!r.mcode_executed) {
    cell.outcome = CellOutcome::kFoiled;
  } else {
    cell.outcome = d == Defense::kNone ? CellOutcome::kExploited
                                       : CellOutcome::kIneffective;
  }
  return cell;
}

DefenseCell run_ghttpd(Defense d) {
  DefenseCell cell{"GHTTPD #5960 (stack return address)", d,
                   CellOutcome::kExploited, ""};
  apps::GhttpdChecks checks;
  switch (d) {
    case Defense::kNone: break;
    case Defense::kInputValidation: checks.length_check = true; break;
    case Defense::kBoundedCopy: checks.use_snprintf = true; break;
    case Defense::kStackGuard: checks.stackguard = true; break;
    case Defense::kRefConsistency: checks.ret_consistency = true; break;
  }
  apps::Ghttpd app{checks};
  const auto r = app.serve(app.build_exploit());
  cell.detail = r.detail;
  if (!r.mcode_executed) {
    cell.outcome = CellOutcome::kFoiled;
  } else {
    cell.outcome = d == Defense::kNone ? CellOutcome::kExploited
                                       : CellOutcome::kIneffective;
  }
  return cell;
}

DefenseCell run_statd(Defense d) {
  DefenseCell cell{"rpc.statd #1480 (%n, return address)", d,
                   CellOutcome::kExploited, ""};
  apps::RpcStatdChecks checks;
  bool with_canary = true;
  switch (d) {
    case Defense::kNone: break;
    case Defense::kInputValidation: checks.no_format_directives = true; break;
    case Defense::kBoundedCopy:
      // Bounding the OUTPUT does not stop %n's pointer store; there is no
      // oversized copy to bound in the first place.
      cell.outcome = CellOutcome::kNotApplicable;
      return cell;
    case Defense::kStackGuard: with_canary = true; break;
    case Defense::kRefConsistency: checks.ret_consistency = true; break;
  }
  apps::RpcStatd app{checks, with_canary};
  const auto r = app.handle_mon_request(app.build_exploit());
  cell.detail = r.detail;
  if (!r.mcode_executed) {
    cell.outcome = CellOutcome::kFoiled;
  } else {
    cell.outcome = d == Defense::kNone ? CellOutcome::kExploited
                                       : CellOutcome::kIneffective;
  }
  return cell;
}

}  // namespace

std::vector<DefenseCell> defense_matrix() {
  std::vector<DefenseCell> cells;
  for (Defense d : kAllDefenses) {
    cells.push_back(run_sendmail(d));
    cells.push_back(run_nullhttpd(d, /*use_6255=*/false));
    cells.push_back(run_nullhttpd(d, /*use_6255=*/true));
    cells.push_back(run_ghttpd(d));
    cells.push_back(run_statd(d));
  }
  return cells;
}

const char* to_string(RankStrategy s) noexcept {
  switch (s) {
    case RankStrategy::kIncremental: return "incremental";
    case RankStrategy::kFullSweeps: return "full-sweeps";
  }
  return "unknown";
}

namespace {

/// Operation display names from the study's FSM model chain; falls back
/// to "operation <i>" for ids without a modelled operation.
std::string operation_display_name(const core::FsmModel& model,
                                   std::size_t op) {
  const auto& ops = model.chain().operations();
  if (op < ops.size() && !ops[op].name().empty()) return ops[op].name();
  return "operation " + std::to_string(op);
}

std::uint64_t count_exploited_rows(const LemmaReport& r) {
  std::uint64_t n = 0;
  for (const auto& row : r.rows) {
    if (r.exploit_of(row).exploited) ++n;
  }
  return n;
}

std::uint64_t count_benign_broken_rows(const LemmaReport& r) {
  std::uint64_t n = 0;
  for (const auto& row : r.rows) {
    if (!r.benign_of(row).service_ok) ++n;
  }
  return n;
}

}  // namespace

PatchRanking rank_patch_candidates(const apps::CaseStudy& study,
                                   RankStrategy strategy,
                                   SweepMemoStore* memo) {
  PatchRanking ranking;
  ranking.study_name = study.name();
  ranking.strategy = strategy;

  const auto checks = study.checks();
  std::set<std::size_t> op_ids;
  for (const auto& c : checks) op_ids.insert(c.operation_index);
  const auto model = study.model();

  if (strategy == RankStrategy::kIncremental) {
    // One cache fill serves the unpatched summary AND every candidate:
    // all sweep_summary calls after the first hit the store wall-to-wall
    // and differ only in composition.
    SweepMemoStore own_store;
    SweepOptions opts;
    opts.memo = memo != nullptr ? memo : &own_store;
    const auto fold = [&ranking](const SweepSummary& s) {
      ranking.exploit_evaluations += s.exploit_evaluations;
      ranking.benign_evaluations += s.benign_evaluations;
      ranking.memo_hits += s.memo_hits;
      ranking.memo_misses += s.memo_misses;
    };
    const SweepSummary base = sweep_summary(study, {}, opts);
    fold(base);
    ranking.total_masks = base.total_masks;
    ranking.unpatched_exploited_masks = base.exploited_masks;
    for (const std::size_t op : op_ids) {
      SweepDelta delta;
      delta.secured_operations = {op};
      const SweepSummary s = sweep_summary(study, delta, opts);
      fold(s);
      PatchCandidate c;
      c.operation = op;
      c.operation_name = operation_display_name(model, op);
      c.exploited_masks = s.exploited_masks;
      c.benign_broken_masks = s.benign_broken_masks;
      c.forecloses = s.exploited_masks == 0;
      ranking.candidates.push_back(std::move(c));
    }
  } else {
    // Reference strategy: a fresh full sweep per candidate, counting
    // rows directly.
    const auto fold = [&ranking](const LemmaReport& r) {
      ranking.exploit_evaluations += r.exploit_evaluations;
      ranking.benign_evaluations += r.benign_evaluations;
    };
    const LemmaReport base = sweep(study);
    fold(base);
    ranking.total_masks = base.total_masks;
    ranking.unpatched_exploited_masks = count_exploited_rows(base);
    for (const std::size_t op : op_ids) {
      const auto secured = apps::make_secured_study(study, {op});
      const LemmaReport r = sweep(*secured);
      fold(r);
      PatchCandidate c;
      c.operation = op;
      c.operation_name = operation_display_name(model, op);
      c.exploited_masks = count_exploited_rows(r);
      c.benign_broken_masks = count_benign_broken_rows(r);
      c.forecloses = c.exploited_masks == 0;
      ranking.candidates.push_back(std::move(c));
    }
  }

  std::stable_sort(ranking.candidates.begin(), ranking.candidates.end(),
                   [](const PatchCandidate& a, const PatchCandidate& b) {
                     if (a.exploited_masks != b.exploited_masks) {
                       return a.exploited_masks < b.exploited_masks;
                     }
                     if (a.benign_broken_masks != b.benign_broken_masks) {
                       return a.benign_broken_masks < b.benign_broken_masks;
                     }
                     return a.operation < b.operation;
                   });
  return ranking;
}

std::string render_patch_ranking(const PatchRanking& ranking) {
  core::TextTable t{{"#", "Operation", "residual exploited masks",
                     "benign broken masks", "forecloses"}};
  t.title("Patch-candidate ranking for " + ranking.study_name + " (" +
          std::string{to_string(ranking.strategy)} + ", " +
          std::to_string(ranking.unpatched_exploited_masks) + "/" +
          std::to_string(ranking.total_masks) +
          " masks exploited unpatched)");
  std::size_t rank = 1;
  for (const auto& c : ranking.candidates) {
    t.add_row({std::to_string(rank++), c.operation_name,
               std::to_string(c.exploited_masks) + "/" +
                   std::to_string(ranking.total_masks),
               std::to_string(c.benign_broken_masks),
               c.forecloses ? "yes" : "no"});
  }
  return t.to_string();
}

std::string render_defense_matrix(const std::vector<DefenseCell>& cells) {
  // Pivot: exploit rows, defence columns.
  std::map<std::string, std::map<Defense, CellOutcome>> grid;
  std::vector<std::string> row_order;
  for (const auto& c : cells) {
    if (grid.find(c.exploit) == grid.end()) row_order.push_back(c.exploit);
    grid[c.exploit][c.defense] = c.outcome;
  }
  core::TextTable t{{"Exploit", "none", "input validation", "bounded copy",
                     "StackGuard", "reference consistency"}};
  t.title("Defense matrix: which elementary-activity defence stops which "
          "exploit (§6)");
  for (const auto& exploit : row_order) {
    std::vector<std::string> row{exploit};
    for (Defense d : kAllDefenses) {
      row.push_back(to_string(grid[exploit][d]));
    }
    t.add_row(std::move(row));
  }
  return t.to_string();
}

}  // namespace dfsm::analysis
