#include "analysis/hidden_path.h"

#include <algorithm>
#include <limits>
#include <set>

#include "runtime/parallel.h"

namespace dfsm::analysis {

HiddenPathReport detect_hidden_path(const core::Pfsm& pfsm,
                                    const std::vector<core::Object>& domain,
                                    std::size_t max_witnesses) {
  HiddenPathReport report;
  report.pfsm_name = pfsm.name();
  report.domain_size = domain.size();
  for (const auto& o : domain) {
    if (pfsm.spec().accepts(o)) continue;
    ++report.spec_rejects;
    if (pfsm.impl().accepts(o) && report.witnesses.size() < max_witnesses) {
      report.witnesses.push_back(o);
    }
  }
  return report;
}

std::vector<HiddenPathReport> scan_model(
    const core::FsmModel& model,
    const std::map<std::string, std::vector<core::Object>>& domains,
    std::size_t max_witnesses) {
  // Flatten the (operation x pFSM) grid in chain order, then shard the
  // per-pFSM domain scans over the parallel runtime. parallel_map keeps
  // index order, so the report sequence is byte-identical to the serial
  // walk at every DFSM_THREADS setting.
  struct Job {
    const core::Pfsm* pfsm = nullptr;
    const std::vector<core::Object>* domain = nullptr;
  };
  std::vector<Job> jobs;
  for (const auto& op : model.chain().operations()) {
    for (const auto& p : op.pfsms()) {
      auto it = domains.find(p.name());
      if (it == domains.end()) continue;
      jobs.push_back({&p, &it->second});
    }
  }
  return runtime::parallel_map<HiddenPathReport>(
      jobs.size(), [&](std::size_t i) {
        return detect_hidden_path(*jobs[i].pfsm, *jobs[i].domain,
                                  max_witnesses);
      });
}

std::vector<core::Object> int_boundary_domain(
    const std::string& name, const std::string& attr,
    const std::vector<std::int64_t>& interesting) {
  std::set<std::int64_t> values;
  for (std::int64_t v : interesting) {
    values.insert(v);
    if (v > std::numeric_limits<std::int64_t>::min()) values.insert(v - 1);
    if (v < std::numeric_limits<std::int64_t>::max()) values.insert(v + 1);
  }
  std::vector<core::Object> out;
  out.reserve(values.size());
  for (std::int64_t v : values) {
    out.push_back(core::Object{name}.with(attr, v));
  }
  return out;
}

std::vector<core::Object> int_range_domain(const std::string& name,
                                           const std::string& attr,
                                           std::int64_t lo, std::int64_t hi,
                                           std::int64_t step) {
  if (step <= 0) throw std::invalid_argument("int_range_domain: step must be > 0");
  std::vector<core::Object> out;
  for (std::int64_t v = lo; v <= hi; v += step) {
    out.push_back(core::Object{name}.with(attr, v));
    if (v > hi - step) break;  // overflow guard near the top
  }
  return out;
}

std::vector<core::Object> bool_domain(const std::string& name,
                                      const std::string& attr) {
  return {core::Object{name}.with(attr, false),
          core::Object{name}.with(attr, true)};
}

std::vector<core::Object> string_domain(const std::string& name,
                                        const std::string& attr,
                                        const std::vector<std::string>& samples) {
  std::vector<core::Object> out;
  out.reserve(samples.size());
  for (const auto& s : samples) {
    out.push_back(core::Object{name}.with(attr, s));
  }
  return out;
}

}  // namespace dfsm::analysis
