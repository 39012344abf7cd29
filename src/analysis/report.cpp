#include "analysis/report.h"

#include <cstdio>
#include <sstream>

#include "bugtraq/classifier.h"
#include "bugtraq/curated.h"
#include "core/table.h"

namespace dfsm::analysis {

using core::TextTable;

std::string render_table1() {
  TextTable t{{"Vulnerability", "Description", "Reference elementary activity",
               "Assigned category", "Classifier agrees"}};
  t.title("Table 1: Ambiguity among vulnerability categories "
          "(same root cause, three categories)");
  for (const auto& r : bugtraq::table1_records()) {
    const auto act =
        r.activities[static_cast<std::size_t>(r.reference_activity)];
    t.add_row({"#" + std::to_string(r.id) + " " + r.software,
               r.description,
               to_string(act),
               to_string(r.category),
               bugtraq::classification_consistent(r) ? "yes" : "NO"});
  }
  return t.to_string();
}

std::string render_table2(const std::vector<core::FsmModel>& models) {
  TextTable t{{"Vulnerability", "Object Type Check", "Content and Attribute Check",
               "Reference Consistency Check"}};
  t.title("Table 2: Types of pFSMs");
  for (const auto& m : models) {
    std::string cols[3];
    for (const auto& s : m.summaries()) {
      auto& cell = cols[static_cast<std::size_t>(s.type)];
      if (!cell.empty()) cell += "; ";
      cell += s.pfsm_name + ": " + s.question + "?";
    }
    t.add_row({m.name(), cols[0].empty() ? "-" : cols[0],
               cols[1].empty() ? "-" : cols[1], cols[2].empty() ? "-" : cols[2]});
  }
  return t.to_string();
}

std::string render_figure2() {
  std::ostringstream os;
  os << "Figure 2: the primitive FSM (pFSM)\n"
     << "==================================\n"
     << "States     : SPEC check, Reject, Accept\n"
     << "Transitions: SPEC_ACPT (check -> accept)   specification accepts\n"
     << "             SPEC_REJ  (check -> reject)   specification rejects\n"
     << "             IMPL_REJ  (reject, expected)  implementation also rejects\n"
     << "             IMPL_ACPT (reject -> accept)  HIDDEN PATH = vulnerability\n\n";
  TextTable t{{"spec(o)", "impl(o)", "path", "final state", "meaning"}};
  t.title("Exhaustive outcome table");
  t.add_row({"accept", "-", "SPEC_ACPT", "Accept", "benign object accepted"});
  t.add_row({"reject", "reject", "SPEC_REJ, IMPL_REJ", "Reject",
             "attack foiled at this elementary activity"});
  t.add_row({"reject", "accept", "SPEC_REJ, IMPL_ACPT", "Accept",
             "predicate violated - exploit proceeds"});
  os << t.to_string();
  return os.str();
}

std::string render_figure8(const std::vector<core::FsmModel>& models) {
  const auto c = core::census(models);
  TextTable t{{"Generic pFSM type", "Count", "Share"}};
  t.title("Figure 8 / §6: generic pFSM types across all modeled vulnerabilities");
  const core::PfsmType order[] = {
      core::PfsmType::kObjectTypeCheck,
      core::PfsmType::kContentAttributeCheck,
      core::PfsmType::kReferenceConsistencyCheck,
  };
  for (auto type : order) {
    t.add_row({to_string(type), std::to_string(c.of(type)),
               core::pct(static_cast<double>(c.of(type)),
                         static_cast<double>(c.total))});
  }
  std::ostringstream os;
  os << t.to_string() << "Total pFSMs: " << c.total << " across "
     << models.size() << " models\n";
  return os.str();
}

std::string render_lemma(const std::vector<LemmaReport>& reports) {
  TextTable t{{"Case study", "Checks", "Masks", "Baseline exploited",
               "All checks foil", "Lemma 2 holds", "Benign preserved",
               "Single checks that foil"}};
  t.title("Lemma verification: exhaustive check-mask sweep per case study");
  for (const auto& r : reports) {
    std::string singles;
    for (std::size_t idx : r.foiling_single_checks) {
      if (!singles.empty()) singles += ", ";
      singles += r.checks[idx].name.substr(0, r.checks[idx].name.find(':'));
    }
    t.add_row({r.study_name, std::to_string(r.checks.size()),
               std::to_string(r.rows.size()),
               r.baseline_exploited ? "yes" : "NO",
               r.all_checks_foil ? "yes" : "NO", r.lemma2_holds ? "yes" : "NO",
               r.benign_preserved ? "yes" : "NO",
               singles.empty() ? "-" : singles});
  }
  return t.to_string();
}

std::string render_mask_table(const LemmaReport& report) {
  TextTable t{{"Mask", "Operation secured", "Exploited", "Foiled", "Benign OK",
               "Detail"}};
  t.title(report.study_name + ": all " + std::to_string(report.rows.size()) +
          " check combinations");
  for (const auto& row : report.rows) {
    std::string mask;
    for (std::size_t i = 0; i < report.checks.size(); ++i) {
      mask += row.check_on(i) ? '1' : '0';
    }
    const auto& exploit = report.exploit_of(row);
    t.add_row({mask, row.secured() ? "yes" : "no",
               exploit.exploited ? "YES" : "no", exploit.foiled ? "yes" : "no",
               report.benign_of(row).service_ok ? "yes" : "NO",
               exploit.detail.substr(0, 56)});
  }
  return t.to_string();
}

std::string render_discovery(const DiscoveryReport& report) {
  std::ostringstream os;
  TextTable t{{"contentLen", "body bytes", "buffer", "bytes read",
               "len(input)<=size(buf)", "outcome"}};
  t.title("Discovery campaign: " + report.configuration);
  for (const auto& p : report.probes) {
    t.add_row({std::to_string(p.content_len), std::to_string(p.body_len),
               std::to_string(p.buffer_size), std::to_string(p.bytes_read),
               p.predicate_violated ? "VIOLATED" : (p.rejected ? "(rejected)" : "holds"),
               p.note.substr(0, 48)});
  }
  os << t.to_string() << "Violations: " << report.violations << "\n"
     << "Finding: " << report.finding << "\n";
  if (report.model_checked > 0) {
    os << "Model cross-validation: Figure-4 chain agrees with the sandbox "
          "on "
       << report.model_agreements << "/" << report.model_checked
       << " probes\n";
  }
  return os.str();
}

std::string render_sweep_telemetry(const std::vector<LemmaReport>& reports) {
  TextTable t{{"Case study", "exploit runs", "benign runs", "memo hits",
               "memo misses", "invalidated"}};
  t.title("Sweep cache telemetry (store hits cost no study run)");
  std::size_t hits = 0;
  std::size_t misses = 0;
  for (const auto& r : reports) {
    hits += r.memo_hits;
    misses += r.memo_misses;
    t.add_row({r.study_name, std::to_string(r.exploit_evaluations),
               std::to_string(r.benign_evaluations),
               std::to_string(r.memo_hits), std::to_string(r.memo_misses),
               std::to_string(r.entries_invalidated)});
  }
  std::ostringstream os;
  os << t.to_string();
  const std::size_t lookups = hits + misses;
  os << "Store lookups: " << lookups << ", hits: " << hits;
  if (lookups > 0) {
    os << " (" << (100 * hits) / lookups << "%)";
  }
  os << "\n";
  return os.str();
}

namespace {

std::string telemetry_json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string sweep_telemetry_json(const std::vector<LemmaReport>& reports) {
  std::ostringstream os;
  os << "{\n  \"sweeps\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    os << "    {\"study\": \"" << telemetry_json_escape(r.study_name)
       << "\", "
       << "\"exploit_evaluations\": " << r.exploit_evaluations << ", "
       << "\"benign_evaluations\": " << r.benign_evaluations << ", "
       << "\"memo_hits\": " << r.memo_hits << ", "
       << "\"memo_misses\": " << r.memo_misses << ", "
       << "\"entries_invalidated\": " << r.entries_invalidated << "}"
       << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace dfsm::analysis
