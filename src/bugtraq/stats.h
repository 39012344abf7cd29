// stats.h — the paper's statistical analysis (§3.1): the Figure 1 category
// breakdown and the §1 studied-class coverage share. Every report reads
// one CorpusSnapshot, so its counts and its total come from one epoch.
#ifndef DFSM_BUGTRAQ_STATS_H
#define DFSM_BUGTRAQ_STATS_H

#include <string>
#include <vector>

#include "bugtraq/database.h"

namespace dfsm::bugtraq {

/// One Figure-1 slice.
struct CategoryShare {
  Category category = Category::kUnknown;
  std::size_t count = 0;
  double percent = 0.0;         ///< exact
  int rounded_percent = 0;      ///< what the pie chart labels show
};

/// The full breakdown, sorted by count descending (ties by enum order).
[[nodiscard]] std::vector<CategoryShare> category_breakdown(const CorpusSnapshot& snap);

/// One studied-class row.
struct ClassShare {
  VulnClass vuln_class = VulnClass::kOther;
  std::size_t count = 0;
  double percent = 0.0;
};

/// Per-class counts for the studied classes plus the combined share —
/// the "22% of all vulnerabilities" computation.
struct StudiedShare {
  std::vector<ClassShare> classes;
  std::size_t studied_count = 0;
  std::size_t total = 0;
  double percent = 0.0;
};

[[nodiscard]] StudiedShare studied_share(const CorpusSnapshot& snap);

/// Remote vs local split (the paper notes the studied set includes "both
/// those that can be exploited remotely ... and those that can be
/// exploited by local users").
struct RemoteLocalSplit {
  std::size_t remote = 0;
  std::size_t local = 0;
};

[[nodiscard]] RemoteLocalSplit remote_local_split(const CorpusSnapshot& snap);

/// Renders the Figure 1 breakdown as a text table (shared by the bench
/// and the example binary).
[[nodiscard]] std::string render_figure1(const CorpusSnapshot& snap);

/// Reports per discovery year, ascending (the §7-style longitudinal cut
/// an analyst would run next on the same snapshot).
struct YearCount {
  int year = 0;
  std::size_t count = 0;
};
[[nodiscard]] std::vector<YearCount> by_year(const CorpusSnapshot& snap);

/// The n most-reported software packages, descending (ties by name).
struct SoftwareCount {
  std::string software;
  std::size_t count = 0;
};
[[nodiscard]] std::vector<SoftwareCount> top_software(const CorpusSnapshot& snap,
                                                      std::size_t n);

}  // namespace dfsm::bugtraq

#endif  // DFSM_BUGTRAQ_STATS_H
