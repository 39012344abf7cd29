#include "trace.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

std::atomic<bool> g_on{false};
// The open fan-out span (and its request) that spans on threads with no
// open span of their own attach to.
std::atomic<std::uint64_t> g_ambient{0};
std::atomic<std::uint64_t> g_ambient_request{0};

struct ThreadBuffer {
  std::uint64_t thread = 0;
  std::uint64_t counter = 0;
  std::vector<Span> spans;
  std::vector<const Span*> open;  ///< innermost last
};

std::mutex g_registry_mu;
std::vector<std::shared_ptr<ThreadBuffer>> g_registry;  // guarded

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock{g_registry_mu};
    g_registry.push_back(b);
    b->thread = g_registry.size();
    return b;
  }();
  return *buf;
}

}  // namespace

void set_tracing(bool on) noexcept { g_on.store(on, std::memory_order_relaxed); }

bool tracing() noexcept { return g_on.load(std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request,
                       Fanout fanout) noexcept {
  if (!g_on.load(std::memory_order_relaxed)) return;
  on_ = true;
  auto& b = local_buffer();
  span_.name = name;
  span_.id = (b.thread << 40) | ++b.counter;
  if (b.open.empty()) {
    span_.parent = g_ambient.load(std::memory_order_acquire);
    span_.request =
        request != 0 ? request
                     : g_ambient_request.load(std::memory_order_acquire);
  } else {
    span_.parent = b.open.back()->id;
    span_.request = request != 0 ? request : b.open.back()->request;
  }
  b.open.push_back(&span_);
  if (fanout == Fanout::kYes) {
    fanout_ = true;
    saved_ambient_ = g_ambient.exchange(span_.id, std::memory_order_acq_rel);
    saved_ambient_request_ =
        g_ambient_request.exchange(span_.request, std::memory_order_acq_rel);
  }
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  span_.end_ns = now_ns();
  if (fanout_) {
    g_ambient.store(saved_ambient_, std::memory_order_release);
    g_ambient_request.store(saved_ambient_request_, std::memory_order_release);
  }
  auto& b = local_buffer();
  b.open.pop_back();
  b.spans.push_back(span_);
}

std::vector<Span> drain_spans() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock{g_registry_mu};
  for (auto& b : g_registry) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
  }
  return out;
}

void TraceAnalysis::add(std::vector<Span> spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  std::vector<std::vector<std::size_t>> children(spans.size());
  std::vector<bool> root(spans.size(), true);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0) continue;
    const auto it = index.find(spans[i].parent);
    if (it == index.end()) continue;  // parent from an earlier drain
    children[it->second].push_back(i);
    root[i] = false;
  }

  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the children's intervals, clipped to the span: children on
    // other threads may overlap one another.
    iv.clear();
    for (const std::size_t c : children[i]) {
      const auto lo = std::max(spans[c].start_ns, s.start_ns);
      const auto hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;

    const double dur_us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    const double self_us = dur_us - static_cast<double>(covered) / 1e3;
    auto& st = by_name_[s.name];
    st.dur_us.push_back(dur_us);
    st.self_us += self_us;
    st.total_us += dur_us;
    if (root[i]) {
      root_us_ += dur_us;
      root_self_us_ += self_us;
    }
  }
  last_ = std::move(spans);
}

const SpanStats& TraceAnalysis::stats(const std::string& name) const {
  static const SpanStats kEmpty;
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kEmpty : it->second;
}

double TraceAnalysis::self_frac(const std::string& name) const {
  return root_us_ > 0 ? stats(name).self_us / root_us_ : 0.0;
}

std::vector<double> TraceAnalysis::busy_by_thread(
    const std::string& name) const {
  std::map<std::uint64_t, double> busy;
  for (const Span& s : last_) {
    if (name == s.name) {
      busy[s.id >> 40] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  std::vector<double> out;
  for (const auto& [thread, us] : busy) out.push_back(us);
  return out;
}

bool TraceAnalysis::write(const std::string& path, std::size_t limit) const {
  std::ofstream out{path};
  if (!out) return false;
  out << "name\tid\tparent\trequest\tstart_ns\tend_ns\n";
  const std::size_t n = std::min(limit, last_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = last_[i];
    out << s.name << '\t' << s.id << '\t' << s.parent << '\t' << s.request
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
