#include "staticlint/linter.h"

#include <stdexcept>
#include <utility>

#include "runtime/validated_memo.h"

namespace dfsm::staticlint {

std::size_t LintRun::count(Severity s) const {
  std::size_t n = 0;
  for (const auto& d : findings) {
    if (d.severity == s) ++n;
  }
  return n;
}

namespace {

std::vector<const Rule*> select_rules(const LintOptions& options) {
  std::vector<const Rule*> selected;
  if (options.rule_ids.empty()) {
    for (const auto& r : all_rules()) selected.push_back(&r);
  } else {
    for (const auto& id : options.rule_ids) {
      const Rule* r = find_rule(id);
      if (r == nullptr) {
        throw std::invalid_argument("unknown lint rule id '" + id + "'");
      }
      selected.push_back(r);
    }
  }
  return selected;
}

std::vector<Diagnostic> run_cell(const LintModel& m, const Rule& r) {
  std::vector<Diagnostic> out;
  r.check(r.info, m, out);
  for (auto& d : out) d.source_hint = m.source_hint;
  return out;
}

}  // namespace

LintRun lint(const std::vector<LintModel>& models, const LintOptions& options,
             runtime::ThreadPool& pool) {
  const std::vector<const Rule*> selected = select_rules(options);

  LintRun run;
  run.models_checked = models.size();
  run.rules_run = selected.size();
  run.memoized = options.memo != nullptr;

  std::vector<std::uint64_t> fps;
  if (options.memo != nullptr) {
    fps.reserve(models.size());
    for (const auto& m : models) fps.push_back(fingerprint(m));
  }
  // One grid cell per (model, rule) pair, model-major, filled through
  // the memo when there is one (DESIGN.md §13). Flattening the cells in
  // index order reproduces the serial nested walk byte-for-byte.
  const std::size_t nrules = selected.size();
  auto fill = runtime::memo_fill(
      options.memo, models.size() * nrules,
      [&](std::size_t i) {
        return LintMemoKey{models[i / nrules].name,
                           selected[i % nrules]->info.id};
      },
      [&](std::size_t i) { return fps[i / nrules]; },
      [&](std::size_t i) {
        return LintMemoEntry{
            run_cell(models[i / nrules], *selected[i % nrules])};
      },
      pool);
  run.rules_executed = fill.evaluated;
  run.memo_hits = fill.hits;
  run.memo_misses = fill.misses;
  run.memo_invalidated = fill.invalidated;
  for (auto& cell : fill.values) {
    for (auto& d : cell.findings) run.findings.push_back(std::move(d));
  }
  return run;
}

LintRun lint_model_ir(const LintModel& model, const LintOptions& options,
                      runtime::ThreadPool& pool) {
  return lint(std::vector<LintModel>{model}, options, pool);
}

LintRun lint_chain(const core::ExploitChain& chain, const LintOptions& options,
                   std::string source_hint, runtime::ThreadPool& pool) {
  return lint_model_ir(LintModel::from_chain(chain, std::move(source_hint)),
                       options, pool);
}

}  // namespace dfsm::staticlint
