// hidden_path.h — mechanized hidden-path detection: evidence that a
// pFSM's implementation accepts objects its specification rejects.
//
// The paper's analysts derive each pFSM by reading the report and the
// source; the dotted IMPL_ACPT transition is their conclusion. Given the
// two predicates, the conclusion becomes checkable: enumerate a domain of
// candidate objects and collect witnesses with !spec(o) && impl(o). The
// domain generators favour boundary values because that is where the
// studied predicates (ranges, lengths, sign checks) disagree.
#ifndef DFSM_ANALYSIS_HIDDEN_PATH_H
#define DFSM_ANALYSIS_HIDDEN_PATH_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/pfsm.h"

namespace dfsm::analysis {

/// Evidence for (or against) a hidden path in one pFSM.
struct HiddenPathReport {
  std::string pfsm_name;
  std::size_t domain_size = 0;
  std::size_t spec_rejects = 0;        ///< objects the spec rejected
  std::vector<core::Object> witnesses; ///< spec-rejected but impl-accepted

  /// A hidden path was demonstrated on this domain.
  [[nodiscard]] bool vulnerable() const noexcept { return !witnesses.empty(); }
};

/// Scans a domain for hidden-path witnesses (keeps at most max_witnesses).
[[nodiscard]] HiddenPathReport detect_hidden_path(
    const core::Pfsm& pfsm, const std::vector<core::Object>& domain,
    std::size_t max_witnesses = 8);

/// Runs detect_hidden_path over every pFSM of a model, with a caller-
/// supplied domain per pFSM name (pFSMs without a domain are skipped).
/// The (operation x pFSM) grid is sharded over the parallel runtime with
/// an index-ordered merge, so the report order matches the serial walk
/// at every DFSM_THREADS setting.
[[nodiscard]] std::vector<HiddenPathReport> scan_model(
    const core::FsmModel& model,
    const std::map<std::string, std::vector<core::Object>>& domains,
    std::size_t max_witnesses = 8);

// --- Domain generators -------------------------------------------------

/// Objects named `name` with integer attribute `attr` taking boundary-
/// heavy values: the given interesting points plus +/-1 neighbours.
[[nodiscard]] std::vector<core::Object> int_boundary_domain(
    const std::string& name, const std::string& attr,
    const std::vector<std::int64_t>& interesting);

/// Dense sweep [lo, hi] with the given step.
[[nodiscard]] std::vector<core::Object> int_range_domain(
    const std::string& name, const std::string& attr, std::int64_t lo,
    std::int64_t hi, std::int64_t step = 1);

/// Objects with a boolean attribute in {false, true}.
[[nodiscard]] std::vector<core::Object> bool_domain(const std::string& name,
                                                    const std::string& attr);

/// Objects with a string attribute drawn from the given samples.
[[nodiscard]] std::vector<core::Object> string_domain(
    const std::string& name, const std::string& attr,
    const std::vector<std::string>& samples);

}  // namespace dfsm::analysis

#endif  // DFSM_ANALYSIS_HIDDEN_PATH_H
