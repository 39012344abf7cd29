// attack_graph.h — automated attack-graph generation over the modeled
// vulnerabilities: the Sheyner et al. line of work the paper cites (§2,
// [18]: "a finite state machine based technique to automatically
// construct attack graphs ... applied in a networked environment
// consisting of several users, various services, and a number of hosts").
//
// Each FsmModel becomes an exploit RULE: which software it applies to,
// what foothold the attacker needs (network reach for remote exploits, a
// local account for local ones), and what privilege exploitation yields.
// Nodes of the graph are (host, privilege) facts; edges are rule
// applications. Reachability from the attacker's start to a goal fact
// enumerates multi-host, multi-vulnerability attack paths — the chains of
// chains that sit one level above the paper's per-vulnerability FSMs.
#ifndef DFSM_ANALYSIS_ATTACK_GRAPH_H
#define DFSM_ANALYSIS_ATTACK_GRAPH_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/sweep_memo.h"
#include "apps/case_study.h"
#include "core/model.h"
#include "staticlint/model_ir.h"

namespace dfsm::analysis {

/// Privilege the attacker holds on a host.
enum class Privilege {
  kNone,  ///< network reachability only
  kUser,  ///< an unprivileged account / service-uid code execution
  kRoot,  ///< full control
};

[[nodiscard]] const char* to_string(Privilege p) noexcept;

/// One host of the environment.
struct Host {
  std::string name;
  std::vector<std::string> services;  ///< software names (match rules)
  /// Hosts reachable over the network from this one ("" = the attacker's
  /// own vantage point is handled by AttackGraph::build's start set).
  std::vector<std::string> reaches;
};

/// One exploit rule derived from a vulnerability model.
struct ExploitRule {
  std::string name;        ///< model name (edge label)
  std::string software;    ///< service it applies to
  bool remote = false;     ///< needs network reach vs a local account
  Privilege gained = Privilege::kUser;
  bool patched = false;    ///< rule disabled (the what-if ablation)
};

/// The default rule set: one rule per standard model, with the paper's
/// remote/local attribution (§1: the studied set includes "both those
/// that can be exploited remotely ... and those that can be exploited by
/// local users").
[[nodiscard]] std::vector<ExploitRule> standard_rules();

/// A (host, privilege) fact node.
struct Fact {
  std::string host;
  Privilege privilege = Privilege::kNone;

  [[nodiscard]] bool operator<(const Fact& o) const {
    return host < o.host || (host == o.host && privilege < o.privilege);
  }
  [[nodiscard]] bool operator==(const Fact& o) const {
    return host == o.host && privilege == o.privilege;
  }
};

/// One applied-rule edge.
struct AttackEdge {
  Fact from;
  Fact to;
  std::string rule;
};

/// The generated graph plus path queries.
class AttackGraph {
 public:
  /// Saturates the fact set from the attacker's initial facts.
  ///
  /// Semantics: a REMOTE rule for service S on host H fires from any held
  /// fact (H', p') such that H' reaches H (or H' == H), yielding
  /// (H, gained). A LOCAL rule fires from (H, >=kUser), yielding
  /// (H, gained). Privileges are monotone: kRoot subsumes kUser.
  [[nodiscard]] static AttackGraph build(const std::vector<Host>& hosts,
                                         const std::vector<ExploitRule>& rules,
                                         const std::vector<Fact>& attacker_start);

  [[nodiscard]] const std::set<Fact>& facts() const noexcept { return facts_; }
  [[nodiscard]] const std::vector<AttackEdge>& edges() const noexcept {
    return edges_;
  }

  /// True when the attacker can establish the goal fact.
  [[nodiscard]] bool reachable(const Fact& goal) const;

  /// One shortest attack path (sequence of edges) to the goal; empty when
  /// unreachable or the goal is held initially.
  [[nodiscard]] std::vector<AttackEdge> path_to(const Fact& goal) const;

  /// Human-readable dump (facts + edges + optional path).
  [[nodiscard]] std::string to_text() const;

 private:
  std::set<Fact> facts_;
  std::vector<AttackEdge> edges_;
  std::map<Fact, AttackEdge> parent_;  // BFS tree for path reconstruction
  std::set<Fact> start_;
};

// --- compound composition (an attack path as ONE exploit chain) --------

/// One step of a composed attack path: the exploit rule applied, the
/// fact it consumed and the fact it established.
struct CompoundStep {
  std::string rule;
  Fact pre;
  Fact con;
};

/// An attack path flattened into ONE runnable ExploitChain — the "chain
/// of chains" the graph reasons about, materialized so the same
/// machinery that drives per-vulnerability models (evaluation, lint)
/// applies to the compound. Every operation/pFSM name is prefixed
/// "s<k>:" with its 1-based step index, keeping names unique across
/// steps that reuse a model.
struct CompoundChain {
  std::string name;
  core::ExploitChain chain;
  std::vector<CompoundStep> steps;  ///< parallel to the path's edges
};

/// Composes `path` (as returned by AttackGraph::path_to) into one
/// chain, pulling each edge's operations from the model whose name
/// matches the edge's rule. Throws std::invalid_argument on an empty
/// path or an edge whose rule names no model in `models`.
[[nodiscard]] CompoundChain compose_attack_path(
    const std::vector<AttackEdge>& path,
    const std::vector<core::FsmModel>& models);

/// Snapshots a compound chain into the lint IR with its step facts
/// filled in, so the GR graph-consistency rules (staticlint/rules.h)
/// can check the composition statically.
[[nodiscard]] staticlint::LintModel to_lint_model(const CompoundChain& cc);

// --- compound patch scoring (chains of chains, incrementally) ----------

/// Ties one graph rule to the case study + operation whose securing
/// would disable it: "patch rule R by securing operation `operation` of
/// `study`".
struct CompoundPatchTarget {
  const apps::CaseStudy* study = nullptr;
  std::size_t operation = 0;
  std::string rule;  ///< ExploitRule::name this patch disables
};

/// The per-rule verdict inside a compound score.
struct PatchedRuleScore {
  std::string rule;
  std::string study;
  std::size_t operation = 0;
  /// Securing the operation leaves zero exploited masks (Lemma 2), so
  /// the rule is disabled in the patched graph.
  bool forecloses = false;
  std::uint64_t residual_exploited_masks = 0;
  std::uint64_t total_masks = 0;
};

/// Graph-level effect of applying every target patch at once.
struct CompoundPatchScore {
  std::vector<PatchedRuleScore> rules;
  std::size_t facts_before = 0;
  std::size_t facts_after = 0;
  std::size_t edges_before = 0;
  std::size_t edges_after = 0;
  bool goal_reachable_before = false;
  bool goal_reachable_after = false;
};

/// Scores a compound patch: each target's operation-level effect comes
/// from the incremental sweep path (analysis::sweep_summary with the
/// operation pinned, through `memo` when given — repeated what-if
/// scoring over the same studies re-evaluates nothing), and a rule whose
/// patch forecloses its exploit is disabled before rebuilding the graph.
/// Throws std::invalid_argument on a null target study or a rule name
/// absent from `rules`.
[[nodiscard]] CompoundPatchScore score_compound_patch(
    const std::vector<Host>& hosts, const std::vector<ExploitRule>& rules,
    const std::vector<Fact>& attacker_start, const Fact& goal,
    const std::vector<CompoundPatchTarget>& targets,
    SweepMemoStore* memo = nullptr);

}  // namespace dfsm::analysis

#endif  // DFSM_ANALYSIS_ATTACK_GRAPH_H
