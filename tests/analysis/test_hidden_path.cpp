#include "analysis/hidden_path.h"

#include <gtest/gtest.h>

#include <set>

#include "apps/models.h"

namespace dfsm::analysis {
namespace {

using core::Object;
using core::Pfsm;
using core::PfsmType;
using core::Predicate;

Pfsm sendmail_pfsm2() {
  return Pfsm{"pFSM2", PfsmType::kContentAttributeCheck, "write tTvect[x]",
              Predicate{"0 <= x <= 100",
                        [](const Object& o) {
                          const auto v = o.attr_int("x");
                          return v && *v >= 0 && *v <= 100;
                        }},
              Predicate{"x <= 100", [](const Object& o) {
                          const auto v = o.attr_int("x");
                          return v && *v <= 100;
                        }}};
}

TEST(HiddenPath, FindsWitnessesWhereSpecAndImplDisagree) {
  const auto domain = int_boundary_domain("x", "x", {-8448, 0, 100});
  const auto report = detect_hidden_path(sendmail_pfsm2(), domain);
  EXPECT_TRUE(report.vulnerable());
  EXPECT_EQ(report.pfsm_name, "pFSM2");
  EXPECT_EQ(report.domain_size, domain.size());
  for (const auto& w : report.witnesses) {
    const auto x = w.attr_int("x");
    ASSERT_TRUE(x);
    EXPECT_LT(*x, 0) << "every witness must be a negative index";
  }
}

TEST(HiddenPath, SecureImplementationHasNoWitnesses) {
  const auto p = Pfsm::secure("p", PfsmType::kContentAttributeCheck, "a",
                              Predicate{"0 <= x <= 100", [](const Object& o) {
                                          const auto v = o.attr_int("x");
                                          return v && *v >= 0 && *v <= 100;
                                        }});
  const auto report =
      detect_hidden_path(p, int_range_domain("x", "x", -200, 200));
  EXPECT_FALSE(report.vulnerable());
  EXPECT_GT(report.spec_rejects, 0u);  // plenty of rejected objects, all foiled
}

TEST(HiddenPath, WitnessListIsCapped) {
  const auto report = detect_hidden_path(
      sendmail_pfsm2(), int_range_domain("x", "x", -1000, -1), /*max=*/5);
  EXPECT_EQ(report.witnesses.size(), 5u);
  EXPECT_EQ(report.spec_rejects, 1000u);
}

TEST(HiddenPath, ScanModelCoversNamedPfsms) {
  const auto model = apps::standard_models()[0];  // Sendmail, Figure 3
  std::map<std::string, std::vector<Object>> domains;
  domains["pFSM1"] = int_boundary_domain("strs", "long_x",
                                         {0, (std::int64_t{1} << 31), -1});
  domains["pFSM2"] = int_boundary_domain("x", "x", {-8448, 0, 100});
  const auto reports = scan_model(model, domains);
  ASSERT_EQ(reports.size(), 2u);  // pFSM3 has no domain -> skipped
  EXPECT_TRUE(reports[0].vulnerable());
  EXPECT_TRUE(reports[1].vulnerable());
}

TEST(HiddenPath, BoundaryDomainIncludesNeighbours) {
  const auto domain = int_boundary_domain("x", "x", {100});
  ASSERT_EQ(domain.size(), 3u);
  std::set<std::int64_t> vals;
  for (const auto& o : domain) vals.insert(*o.attr_int("x"));
  EXPECT_EQ(vals, (std::set<std::int64_t>{99, 100, 101}));
}

TEST(HiddenPath, RangeDomainRespectsStep) {
  const auto domain = int_range_domain("x", "x", 0, 10, 5);
  ASSERT_EQ(domain.size(), 3u);
  EXPECT_EQ(*domain[2].attr_int("x"), 10);
  EXPECT_THROW((void)int_range_domain("x", "x", 0, 1, 0), std::invalid_argument);
}

TEST(HiddenPath, BoolAndStringDomains) {
  EXPECT_EQ(bool_domain("o", "flag").size(), 2u);
  const auto sd = string_domain("o", "s", {"a", "%n"});
  ASSERT_EQ(sd.size(), 2u);
  EXPECT_EQ(*sd[1].attr_string("s"), "%n");
}

TEST(HiddenPath, ReferenceConsistencyPfsmsWitnessOnBoolDomain) {
  const auto model = apps::standard_models()[0];
  std::map<std::string, std::vector<Object>> domains;
  domains["pFSM3"] = bool_domain("addr_setuid", "addr_setuid_unchanged");
  const auto reports = scan_model(model, domains);
  ASSERT_EQ(reports.size(), 1u);
  // The tampered GOT entry (unchanged=false) is accepted by the impl.
  EXPECT_TRUE(reports[0].vulnerable());
  EXPECT_EQ(reports[0].witnesses.size(), 1u);
}

}  // namespace
}  // namespace dfsm::analysis
