#include "bugtraq/stats.h"

#include <algorithm>
#include <cmath>

#include "core/table.h"
#include "runtime/parallel.h"

namespace dfsm::bugtraq {

std::vector<CategoryShare> category_breakdown(const CorpusSnapshot& snap) {
  const auto counts = snap.count_by_category();
  const double total = static_cast<double>(snap.size());
  std::vector<CategoryShare> out;
  for (Category c : kAllCategories) {
    CategoryShare s;
    s.category = c;
    s.count = counts.at(c);
    s.percent = total == 0 ? 0.0 : 100.0 * static_cast<double>(s.count) / total;
    s.rounded_percent = static_cast<int>(std::lround(s.percent));
    out.push_back(s);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const CategoryShare& a, const CategoryShare& b) {
                     return a.count > b.count;
                   });
  return out;
}

StudiedShare studied_share(const CorpusSnapshot& snap) {
  StudiedShare out;
  out.total = snap.size();
  const auto by_class = snap.count_by_class();
  static constexpr VulnClass kStudied[] = {
      VulnClass::kStackBufferOverflow, VulnClass::kHeapOverflow,
      VulnClass::kIntegerOverflow,     VulnClass::kFormatString,
      VulnClass::kFileRaceCondition,
  };
  for (VulnClass c : kStudied) {
    ClassShare s;
    s.vuln_class = c;
    auto it = by_class.find(c);
    s.count = it == by_class.end() ? 0 : it->second;
    s.percent = out.total == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(s.count) /
                          static_cast<double>(out.total);
    out.studied_count += s.count;
    out.classes.push_back(s);
  }
  out.percent = out.total == 0 ? 0.0
                               : 100.0 * static_cast<double>(out.studied_count) /
                                     static_cast<double>(out.total);
  return out;
}

RemoteLocalSplit remote_local_split(const CorpusSnapshot& snap) {
  // Sharded sweep over the 1-byte remote column; per-shard sums merge in
  // index order (runtime/parallel.h), identical to the serial walk.
  const auto remote = snap.remote_flags();
  RemoteLocalSplit s;
  s.remote = runtime::parallel_reduce(
      remote.size(), std::size_t{0},
      [&](std::size_t begin, std::size_t end) {
        std::size_t n = 0;
        for (std::size_t i = begin; i < end; ++i) n += remote[i] != 0;
        return n;
      },
      [](std::size_t& acc, std::size_t part) { acc += part; });
  s.local = snap.size() - s.remote;
  return s;
}

std::vector<YearCount> by_year(const CorpusSnapshot& snap) {
  // Served from the snapshot's incrementally maintained histogram.
  const auto counts = snap.count_by_year();
  std::vector<YearCount> out;
  out.reserve(counts.size());
  for (const auto& [year, count] : counts) out.push_back({year, count});
  return out;
}

std::vector<SoftwareCount> top_software(const CorpusSnapshot& snap, std::size_t n) {
  const auto counts = snap.count_by_software();
  std::vector<SoftwareCount> out;
  out.reserve(counts.size());
  for (const auto& [software, count] : counts) out.push_back({software, count});
  std::stable_sort(out.begin(), out.end(),
                   [](const SoftwareCount& a, const SoftwareCount& b) {
                     if (a.count != b.count) return a.count > b.count;
                     return a.software < b.software;
                   });
  if (out.size() > n) out.resize(n);
  return out;
}

std::string render_figure1(const CorpusSnapshot& snap) {
  core::TextTable t{{"Category", "Count", "Share", "Pie label"}};
  t.title("Figure 1: Breakdown of " + std::to_string(snap.size()) +
          " Bugtraq vulnerabilities");
  for (const auto& s : category_breakdown(snap)) {
    char exact[16];
    std::snprintf(exact, sizeof exact, "%.2f%%", s.percent);
    t.add_row({to_string(s.category), std::to_string(s.count), exact,
               std::to_string(s.rounded_percent) + "%"});
  }
  return t.to_string();
}

}  // namespace dfsm::bugtraq
