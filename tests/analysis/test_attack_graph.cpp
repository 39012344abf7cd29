#include "analysis/attack_graph.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/chain_analyzer.h"
#include "analysis/sweep_memo.h"
#include "apps/case_study.h"
#include "apps/models.h"
#include "staticlint/linter.h"

namespace dfsm::analysis {
namespace {

/// The networked environment of the tests: an attacker workstation on the
/// internet, a DMZ web server, and an internal NFS host only the DMZ box
/// reaches.
std::vector<Host> test_network() {
  return {
      {"attacker", {}, {"web"}},
      {"web", {"ghttpd", "sendmail"}, {"nfs"}},
      {"nfs", {"rpc.statd"}, {}},
  };
}

Fact start() { return Fact{"attacker", Privilege::kRoot}; }

TEST(AttackGraph, RemoteExploitYieldsServicePrivilege) {
  const auto g = AttackGraph::build(test_network(), standard_rules(), {start()});
  EXPECT_TRUE(g.reachable(Fact{"web", Privilege::kUser}));
}

TEST(AttackGraph, LocalPrivilegeEscalationChains) {
  // ghttpd gives user on web; sendmail (local, setuid) lifts it to root.
  const auto g = AttackGraph::build(test_network(), standard_rules(), {start()});
  EXPECT_TRUE(g.reachable(Fact{"web", Privilege::kRoot}));
  const auto path = g.path_to(Fact{"web", Privilege::kRoot});
  ASSERT_EQ(path.size(), 2u);
  EXPECT_NE(path[0].rule.find("GHTTPD"), std::string::npos);
  EXPECT_NE(path[1].rule.find("Sendmail"), std::string::npos);
}

TEST(AttackGraph, MultiHopReachesTheInternalHost) {
  // attacker -> web (remote) -> nfs (remote from web): three-step chain
  // ending root on the internal host via rpc.statd.
  const auto g = AttackGraph::build(test_network(), standard_rules(), {start()});
  EXPECT_TRUE(g.reachable(Fact{"nfs", Privilege::kRoot}));
  const auto path = g.path_to(Fact{"nfs", Privilege::kRoot});
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.back().to.host, "nfs");
  EXPECT_EQ(path.back().to.privilege, Privilege::kRoot);
  // Every step starts from an established fact (the chain is connected).
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_EQ(path[i].from, path[i - 1].to);
  }
}

TEST(AttackGraph, NoDirectReachMeansNoDirectCompromise) {
  // Remove the web->nfs link: nfs becomes unreachable.
  auto hosts = test_network();
  hosts[1].reaches.clear();
  const auto g = AttackGraph::build(hosts, standard_rules(), {start()});
  EXPECT_FALSE(g.reachable(Fact{"nfs", Privilege::kUser}));
  EXPECT_TRUE(g.path_to(Fact{"nfs", Privilege::kRoot}).empty());
}

TEST(AttackGraph, PatchingTheSteppingStoneCutsThePath) {
  // Lemma 2 writ large: patch ONE vulnerability on the path (ghttpd) and
  // the internal host survives — but only if no alternative path exists.
  auto rules = standard_rules();
  for (auto& r : rules) {
    if (r.software == "ghttpd") r.patched = true;
  }
  const auto g = AttackGraph::build(test_network(), rules, {start()});
  EXPECT_FALSE(g.reachable(Fact{"web", Privilege::kUser}));
  EXPECT_FALSE(g.reachable(Fact{"nfs", Privilege::kRoot}));
}

TEST(AttackGraph, AlternativePathsSurvivePartialPatching) {
  auto hosts = test_network();
  hosts[1].services.push_back("nullhttpd");  // a second remote service on web
  auto rules = standard_rules();
  for (auto& r : rules) {
    if (r.software == "ghttpd") r.patched = true;
  }
  const auto g = AttackGraph::build(hosts, rules, {start()});
  EXPECT_TRUE(g.reachable(Fact{"web", Privilege::kUser}));
  const auto path = g.path_to(Fact{"web", Privilege::kUser});
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path[0].rule.find("NULL HTTPD"), std::string::npos);
}

TEST(AttackGraph, LocalRulesNeedALocalAccount) {
  // A host running only sendmail (local-only exploit) cannot be attacked
  // from the network.
  const std::vector<Host> hosts = {{"attacker", {}, {"mail"}},
                                   {"mail", {"sendmail"}, {}}};
  const auto g = AttackGraph::build(hosts, standard_rules(), {start()});
  EXPECT_FALSE(g.reachable(Fact{"mail", Privilege::kRoot}));
  // But an insider account changes everything.
  const auto g2 = AttackGraph::build(
      hosts, standard_rules(), {start(), Fact{"mail", Privilege::kUser}});
  EXPECT_TRUE(g2.reachable(Fact{"mail", Privilege::kRoot}));
}

TEST(AttackGraph, RootSubsumesUserInGoalQueries) {
  const std::vector<Host> hosts = {{"attacker", {}, {"srv"}},
                                   {"srv", {"rpc.statd"}, {}}};
  const auto g = AttackGraph::build(hosts, standard_rules(), {start()});
  // statd yields root directly; a "user" goal is satisfied a fortiori.
  EXPECT_TRUE(g.reachable(Fact{"srv", Privilege::kUser}));
  EXPECT_FALSE(g.path_to(Fact{"srv", Privilege::kUser}).empty());
}

TEST(AttackGraph, PathToInitialFactIsEmpty) {
  const auto g = AttackGraph::build(test_network(), standard_rules(), {start()});
  EXPECT_TRUE(g.path_to(start()).empty());
  EXPECT_TRUE(g.reachable(start()));
}

TEST(AttackGraph, TextDumpNamesFactsAndRules) {
  const auto g = AttackGraph::build(test_network(), standard_rules(), {start()});
  const auto text = g.to_text();
  EXPECT_NE(text.find("web : user"), std::string::npos);
  EXPECT_NE(text.find("GHTTPD"), std::string::npos);
  EXPECT_NE(text.find("[initial]"), std::string::npos);
}

TEST(AttackGraph, StandardRulesCoverAllSevenModels) {
  EXPECT_EQ(standard_rules().size(), 7u);
  std::size_t remote = 0;
  for (const auto& r : standard_rules()) {
    if (r.remote) ++remote;
  }
  EXPECT_EQ(remote, 5u);  // nullhttpd, rwall, iis, ghttpd, statd
}

// --- compound patch scoring over the incremental sweep path ------------

/// GHTTPD is the only remote foothold onto "web" in test_network(); the
/// registry keeps paper order, so find it by name rather than index.
const apps::CaseStudy& ghttpd_study(
    const std::vector<std::unique_ptr<apps::CaseStudy>>& studies) {
  for (const auto& s : studies) {
    if (s->name().find("GHTTPD") != std::string::npos) return *s;
  }
  throw std::logic_error("no GHTTPD study in the registry");
}

TEST(CompoundPatch, ForeclosingPatchDisablesTheRuleAndCutsTheGraph) {
  const auto studies = apps::all_case_studies();
  const auto& ghttpd = ghttpd_study(studies);
  const std::size_t op = ghttpd.checks().front().operation_index;
  // Root on the web host needs the remote ghttpd foothold first; the
  // sendmail escalation is local-only.
  const Fact goal{"web", Privilege::kRoot};
  const auto score = score_compound_patch(
      test_network(), standard_rules(), {start()}, goal,
      {{&ghttpd, op, "GHTTPD #5960 stack overflow"}});
  EXPECT_TRUE(score.goal_reachable_before);
  EXPECT_FALSE(score.goal_reachable_after);
  ASSERT_EQ(score.rules.size(), 1u);
  EXPECT_TRUE(score.rules[0].forecloses);  // Lemma 2: securing one op foils
  EXPECT_EQ(score.rules[0].residual_exploited_masks, 0u);
  EXPECT_GT(score.rules[0].total_masks, 0u);
  EXPECT_LT(score.edges_after, score.edges_before);
  EXPECT_LT(score.facts_after, score.facts_before);
}

TEST(CompoundPatch, SharedStoreMakesRepeatScoringFree) {
  const auto studies = apps::all_case_studies();
  const auto& ghttpd = ghttpd_study(studies);
  const std::size_t op = ghttpd.checks().front().operation_index;
  const Fact goal{"web", Privilege::kRoot};
  const std::vector<CompoundPatchTarget> targets = {
      {&ghttpd, op, "GHTTPD #5960 stack overflow"}};

  SweepMemoStore store;
  const auto first = score_compound_patch(test_network(), standard_rules(),
                                          {start()}, goal, targets, &store);
  const std::size_t filled = store.size();
  EXPECT_GT(filled, 0u);

  const auto second = score_compound_patch(test_network(), standard_rules(),
                                           {start()}, goal, targets, &store);
  // The second what-if adds nothing, and the same composition through
  // the store re-evaluates nothing: every cell is served.
  EXPECT_EQ(store.size(), filled);
  SweepOptions opts;
  opts.memo = &store;
  SweepDelta delta;
  delta.secured_operations = {op};
  const SweepSummary again = sweep_summary(ghttpd, delta, opts);
  EXPECT_EQ(again.exploit_evaluations, 0u);
  EXPECT_EQ(again.memo_misses, 0u);
  EXPECT_EQ(again.memo_hits, filled);
  ASSERT_EQ(second.rules.size(), first.rules.size());
  EXPECT_EQ(second.rules[0].forecloses, first.rules[0].forecloses);
  EXPECT_EQ(second.rules[0].residual_exploited_masks,
            first.rules[0].residual_exploited_masks);
  EXPECT_EQ(second.goal_reachable_after, first.goal_reachable_after);
}

// --- compound composition -> lint IR -----------------------------------

/// A hand-built two-hop path over the curated models: a remote foothold
/// followed by a local escalation on the same host. Rule labels equal
/// model names so compose_attack_path can pull the operations.
std::vector<AttackEdge> two_hop_path(const std::vector<core::FsmModel>& models,
                                     std::string* remote_name = nullptr,
                                     std::string* local_name = nullptr) {
  std::string ghttpd, sendmail;
  for (const auto& m : models) {
    if (m.name().find("GHTTPD") != std::string::npos) ghttpd = m.name();
    if (m.name().find("Sendmail") != std::string::npos) sendmail = m.name();
  }
  if (remote_name != nullptr) *remote_name = ghttpd;
  if (local_name != nullptr) *local_name = sendmail;
  return {
      AttackEdge{Fact{"attacker", Privilege::kRoot},
                 Fact{"web", Privilege::kUser}, ghttpd},
      AttackEdge{Fact{"web", Privilege::kUser}, Fact{"web", Privilege::kRoot},
                 sendmail},
  };
}

TEST(CompoundChainTest, ComposeFlattensThePathWithStepPrefixedNames) {
  const auto models = apps::standard_models();
  std::string remote_name;
  const auto path = two_hop_path(models, &remote_name);
  const auto cc = compose_attack_path(path, models);

  ASSERT_EQ(cc.steps.size(), 2u);
  EXPECT_EQ(cc.steps[0].rule, path[0].rule);
  EXPECT_EQ(cc.steps[0].pre, path[0].from);
  EXPECT_EQ(cc.steps[0].con, path[0].to);
  EXPECT_NE(cc.name.find("attack path:"), std::string::npos);
  EXPECT_NE(cc.name.find("[" + remote_name + "]"), std::string::npos);

  // Every operation/pFSM carries its step prefix, unique across steps.
  ASSERT_GE(cc.chain.size(), 2u);
  EXPECT_EQ(cc.chain.operations()[0].name().rfind("s1:", 0), 0u);
  EXPECT_EQ(cc.chain.operations()[cc.chain.size() - 1].name().rfind("s2:", 0),
            0u);
  for (const auto& op : cc.chain.operations()) {
    for (const auto& p : op.pfsms()) {
      EXPECT_EQ(p.name().substr(0, 1), "s");
    }
  }
  // Each step's final gate records the fact the edge establishes.
  EXPECT_NE(cc.chain.gates().back().condition.find("root@web via"),
            std::string::npos);
}

TEST(CompoundChainTest, ComposedPathPassesTheGraphConsistencyRules) {
  const auto models = apps::standard_models();
  const auto cc = compose_attack_path(two_hop_path(models), models);
  const auto ir = to_lint_model(cc);
  ASSERT_EQ(ir.compound.size(), 2u);
  EXPECT_EQ(ir.compound[0].con_host, "web");
  EXPECT_EQ(ir.compound[0].con_privilege, "user");
  EXPECT_EQ(ir.compound[1].pre_privilege, "user");

  staticlint::LintOptions gr_only;
  gr_only.rule_ids = {"GR001", "GR002", "GR003"};
  const auto run = staticlint::lint({ir}, gr_only);
  EXPECT_TRUE(run.findings.empty()) << run.findings.size() << " finding(s)";
}

TEST(CompoundChainTest, ReversedPathTripsTheDanglingPreconditionRule) {
  const auto models = apps::standard_models();
  auto path = two_hop_path(models);
  std::swap(path[0], path[1]);  // the remote hop now runs second, so its
                                // attacker-side precondition dangles
  const auto ir = to_lint_model(compose_attack_path(path, models));

  staticlint::LintOptions gr_only;
  gr_only.rule_ids = {"GR001", "GR002", "GR003"};
  const auto run = staticlint::lint({ir}, gr_only);
  ASSERT_FALSE(run.findings.empty());
  EXPECT_EQ(run.findings[0].rule_id, "GR001");
}

TEST(CompoundChainTest, ComposeRejectsEmptyPathsAndUnknownRules) {
  const auto models = apps::standard_models();
  EXPECT_THROW((void)compose_attack_path({}, models), std::invalid_argument);
  auto path = two_hop_path(models);
  path[0].rule = "no model is named this";
  EXPECT_THROW((void)compose_attack_path(path, models), std::invalid_argument);
}

TEST(CompoundPatch, RejectsNullStudyAndUnknownRule) {
  const auto studies = apps::all_case_studies();
  const auto& ghttpd = ghttpd_study(studies);
  const Fact goal{"web", Privilege::kRoot};
  EXPECT_THROW((void)score_compound_patch(
                   test_network(), standard_rules(), {start()}, goal,
                   {{nullptr, 0, "GHTTPD #5960 stack overflow"}}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)score_compound_patch(test_network(), standard_rules(), {start()},
                                 goal, {{&ghttpd, 0, "no such rule"}}),
      std::invalid_argument);
}

}  // namespace
}  // namespace dfsm::analysis
