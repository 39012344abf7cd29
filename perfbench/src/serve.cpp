// serve-benign / serve-attack: monitored traffic through the four server
// replicas.
//
// Untraced, a pass is one loadgen::run_load over a fixed spec: 32 agents
// in a closed loop (an agent sends its next request only when the last
// one is served) at a 5% or 50% exploit mix. Traced, the same request
// stream is driven by this file's own agent loop over
// runtime::parallel_map, which calls the layer entries one by one —
// request_spec + payload, netsim::parse_head, the replica constructor,
// handle_post / serve / handle_cgi_request, then the observation
// builder and RuntimeMonitor::observe — under the engine's replica
// reuse rules. Its merged tallies must equal run_load's exactly.
#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/monitor.h"
#include "apps/ghttpd.h"
#include "apps/iis.h"
#include "apps/nullhttpd.h"
#include "bench.h"
#include "core/fingerprint.h"
#include "fssim/filesystem.h"
#include "loadgen/engine.h"
#include "loadgen/workload.h"
#include "netsim/http.h"
#include "runtime/parallel.h"

namespace perfbench {

namespace {

using dfsm::loadgen::kServerKindCount;
using dfsm::loadgen::RequestSpec;
using dfsm::loadgen::ServerKind;
using dfsm::loadgen::ServerTally;
using dfsm::loadgen::WorkloadSpec;
using Tallies = std::array<ServerTally, kServerKindCount>;

struct Exploits {
  std::string nullhttpd_5774;
  std::string nullhttpd_6255;
  std::string ghttpd;
  std::string iis;
};

Exploits build_exploits() {
  using dfsm::apps::NullHttpd;
  Exploits e;
  e.nullhttpd_5774 =
      NullHttpd::build_exploit_request(NullHttpd::scout(-800), -800);
  e.nullhttpd_6255 = NullHttpd::build_exploit_request(NullHttpd::scout(0), 0);
  e.ghttpd = dfsm::apps::Ghttpd{}.build_exploit();
  e.iis = dfsm::apps::IisDecoder::nimda_payload();
  return e;
}

// The benign request builders of the traffic engine: the same bytes
// for the same size parameter.
std::string benign_payload(const RequestSpec& spec) {
  switch (spec.server) {
    case ServerKind::kNullHttpd5774:
    case ServerKind::kNullHttpd6255: {
      dfsm::netsim::HttpRequest req;
      req.method = "POST";
      req.path = "/cgi-bin/form";
      req.headers["Content-Length"] = std::to_string(spec.benign_size);
      req.headers["Host"] = "victim";
      return dfsm::netsim::serialize(req, std::string(spec.benign_size, 'b'));
    }
    case ServerKind::kGhttpd:
      return "GET /" + std::string(spec.benign_size % 150, 'a') + " HTTP/1.0";
    case ServerKind::kIis:
      return spec.benign_size % 2 == 0 ? "hello.cgi" : "hello%2ecgi";
  }
  throw std::logic_error("unreachable server kind");
}

std::string payload_for(const RequestSpec& spec, const Exploits& e) {
  if (!spec.exploit) return benign_payload(spec);
  switch (spec.server) {
    case ServerKind::kNullHttpd5774: return e.nullhttpd_5774;
    case ServerKind::kNullHttpd6255: return e.nullhttpd_6255;
    case ServerKind::kGhttpd: return e.ghttpd;
    case ServerKind::kIis: return e.iis;
  }
  throw std::logic_error("unreachable server kind");
}

/// The model with every specification predicate widened to accept all:
/// no observation can then take a hidden path, so the monitor misses
/// every exploit (the sabotage that proves the checks can fail).
dfsm::core::FsmModel accept_all_model(const dfsm::core::FsmModel& m) {
  dfsm::core::ExploitChain chain{m.chain().name()};
  for (std::size_t k = 0; k < m.chain().size(); ++k) {
    const auto& op = m.chain().operations()[k];
    dfsm::core::Operation widened{op.name(), op.object_description()};
    for (const auto& p : op.pfsms()) {
      widened.add(dfsm::core::Pfsm{
          p.name(), p.type(), p.activity(),
          dfsm::core::Predicate::accept_all("sabotaged: accept all"),
          p.impl(), p.action()});
    }
    chain.add(std::move(widened), m.chain().gates()[k]);
  }
  return dfsm::core::FsmModel{m.name(), m.bugtraq_ids(),
                              m.vulnerability_class(), m.software(),
                              m.consequence(), std::move(chain)};
}

struct Models {
  dfsm::core::FsmModel nullhttpd;
  dfsm::core::FsmModel ghttpd;
  dfsm::core::FsmModel iis;
};

Models monitor_models(bool sabotage) {
  Models m{dfsm::apps::NullHttpd::figure4_model(),
           dfsm::apps::Ghttpd::ghttpd_model(),
           dfsm::apps::IisDecoder::figure7_model()};
  if (sabotage) {
    m.nullhttpd = accept_all_model(m.nullhttpd);
    m.ghttpd = accept_all_model(m.ghttpd);
    m.iis = accept_all_model(m.iis);
  }
  return m;
}

/// One agent's connection state, with the engine's reuse rules.
struct Agent {
  std::unique_ptr<dfsm::apps::NullHttpd> nullhttpd;
  std::unique_ptr<dfsm::apps::Ghttpd> ghttpd;
  std::unique_ptr<dfsm::apps::IisDecoder> iis;
  std::unique_ptr<dfsm::fssim::FileSystem> iis_fs;
  std::unique_ptr<dfsm::analysis::RuntimeMonitor> mon_nullhttpd;
  std::unique_ptr<dfsm::analysis::RuntimeMonitor> mon_ghttpd;
  std::unique_ptr<dfsm::analysis::RuntimeMonitor> mon_iis;
};

dfsm::analysis::RuntimeMonitor& monitor(
    std::unique_ptr<dfsm::analysis::RuntimeMonitor>& slot,
    const dfsm::core::FsmModel& model) {
  if (!slot) {
    slot = std::make_unique<dfsm::analysis::RuntimeMonitor>(model);
    slot->set_trace_enabled(false);
  }
  return *slot;
}

/// Monitors one request; returns the violation count.
std::size_t observe(dfsm::analysis::RuntimeMonitor& mon,
                    const std::vector<std::vector<dfsm::core::Object>>& facts) {
  mon.reset();
  (void)mon.observe(facts);
  return mon.violations().size();
}

struct Outcome {
  bool served = false;
  bool rejected = false;
  bool crashed = false;
  bool compromised = false;
  std::size_t violations = 0;
};

template <typename T>
void teardown(std::unique_ptr<T>& slot) {
  if (!slot) return;
  ScopedSpan span{"apps.teardown"};
  slot.reset();
}

Outcome serve_nullhttpd(Agent& a, const Models& models,
                        const std::string& raw, bool fresh) {
  if (fresh) teardown(a.nullhttpd);
  if (!a.nullhttpd) {
    ScopedSpan span{"apps.construct"};
    a.nullhttpd = std::make_unique<dfsm::apps::NullHttpd>();
  }
  auto& app = *a.nullhttpd;
  // handle_raw, call by call: the head parse, then ReadPOSTData.
  std::optional<dfsm::netsim::HttpRequest> head;
  std::size_t consumed = 0;
  std::int32_t content_len = 0;
  {
    ScopedSpan span{"netsim.parse_head"};
    head = dfsm::netsim::parse_head(raw, &consumed);
    if (head) content_len = head->content_length().value_or(0);
  }
  dfsm::apps::NullHttpdResult r;
  if (!head || head->method != "POST") {
    r.rejected = true;
    r.rejected_by = "parser";
  } else {
    ScopedSpan span{"apps.serve.nullhttpd"};
    r = app.handle_post(content_len, raw.substr(consumed));
  }
  Outcome out;
  out.served = r.served;
  out.rejected = r.rejected;
  out.crashed = r.crashed;
  out.compromised = r.mcode_executed;
  {
    ScopedSpan span{"analysis.observe"};
    const bool got_ok = app.process().got().unchanged("free");
    out.violations = observe(
        monitor(a.mon_nullhttpd, models.nullhttpd),
        dfsm::analysis::nullhttpd_observation(
            r.content_len, static_cast<std::int64_t>(r.bytes_read),
            static_cast<std::int64_t>(r.postdata_usable),
            /*links_unchanged=*/!r.heap_overflowed,
            /*addr_free_unchanged=*/got_ok));
  }
  if (!r.served || r.heap_overflowed || r.mcode_executed || r.crashed) {
    teardown(a.nullhttpd);
  }
  return out;
}

Outcome serve_ghttpd(Agent& a, const Models& models, const std::string& line,
                     bool fresh) {
  if (fresh) teardown(a.ghttpd);
  if (!a.ghttpd) {
    ScopedSpan span{"apps.construct"};
    a.ghttpd = std::make_unique<dfsm::apps::Ghttpd>();
  }
  dfsm::apps::GhttpdResult r;
  {
    ScopedSpan span{"apps.serve.ghttpd"};
    r = a.ghttpd->serve(line);
  }
  Outcome out;
  out.served = r.logged && !r.rejected && !r.crashed && !r.mcode_executed;
  out.rejected = r.rejected;
  out.crashed = r.crashed;
  out.compromised = r.mcode_executed;
  {
    ScopedSpan span{"analysis.observe"};
    out.violations = observe(
        monitor(a.mon_ghttpd, models.ghttpd),
        dfsm::analysis::ghttpd_observation(
            static_cast<std::int64_t>(line.size()),
            /*ret_unchanged=*/!r.ret_modified));
  }
  if (!out.served) teardown(a.ghttpd);
  return out;
}

Outcome serve_iis(Agent& a, const Models& models, const std::string& path) {
  if (!a.iis) {
    ScopedSpan span{"apps.construct"};
    a.iis = std::make_unique<dfsm::apps::IisDecoder>();
    a.iis_fs =
        std::make_unique<dfsm::fssim::FileSystem>(a.iis->initial_world());
  }
  dfsm::apps::IisResult r;
  {
    ScopedSpan span{"apps.serve.iis"};
    r = a.iis->handle_cgi_request(*a.iis_fs, path);
  }
  Outcome out;
  out.served = r.executed && !r.outside_scripts;
  out.rejected = r.rejected;
  out.compromised = r.executed && r.outside_scripts;
  {
    ScopedSpan span{"analysis.observe"};
    out.violations = observe(
        monitor(a.mon_iis, models.iis),
        dfsm::analysis::iis_observation(
            r.decoded_once,
            r.decoded_twice.empty() ? r.decoded_once : r.decoded_twice));
  }
  return out;
}

struct AgentRun {
  Tallies tallies{};
  std::uint64_t violations = 0;
  double busy_s = 0;
};

AgentRun run_agent(const WorkloadSpec& w, const Exploits& exploits,
                   const Models& models, std::uint64_t agent_id) {
  AgentRun run;
  Agent a;
  const std::int64_t t0 = now_ns();
  const std::uint64_t count = dfsm::loadgen::agent_request_count(w, agent_id);
  const std::uint64_t base = dfsm::loadgen::agent_base_offset(w, agent_id);
  for (std::uint64_t i = 0; i < count; ++i) {
    ScopedSpan root{"loadgen.request", base + i + 1};
    RequestSpec spec;
    std::string payload;
    {
      ScopedSpan span{"loadgen.generate"};
      spec = dfsm::loadgen::request_spec(w, agent_id, i);
      payload = payload_for(spec, exploits);
    }
    Outcome out;
    switch (spec.server) {
      case ServerKind::kNullHttpd5774:
      case ServerKind::kNullHttpd6255:
        out = serve_nullhttpd(a, models, payload, spec.exploit);
        break;
      case ServerKind::kGhttpd:
        out = serve_ghttpd(a, models, payload, spec.exploit);
        break;
      case ServerKind::kIis:
        out = serve_iis(a, models, payload);
        break;
    }
    auto& t = run.tallies[static_cast<std::size_t>(spec.server)];
    ++t.requests;
    ++(spec.exploit ? t.exploit : t.benign);
    if (out.served) ++t.served;
    if (out.rejected) ++t.rejected;
    if (out.crashed) ++t.crashed;
    if (out.compromised) ++t.compromised;
    dfsm::loadgen::apply_verdict(t, spec.exploit, out.violations > 0);
    run.violations += out.violations;
  }
  run.busy_s = seconds_since(t0);
  return run;
}

struct TracedPass {
  Tallies per_server{};
  ServerTally total;
  std::uint64_t violations = 0;
  std::vector<double> agent_busy_s;
};

TracedPass traced_pass(const WorkloadSpec& w, const Exploits& exploits,
                       const Models& models) {
  auto agents = dfsm::runtime::parallel_map<AgentRun>(
      static_cast<std::size_t>(w.agents), [&](std::size_t agent) {
        return run_agent(w, exploits, models, agent);
      });
  TracedPass pass;
  for (const auto& a : agents) {
    for (std::size_t k = 0; k < kServerKindCount; ++k) {
      pass.per_server[k].merge(a.tallies[k]);
    }
    pass.violations += a.violations;
    pass.agent_busy_s.push_back(a.busy_s);
  }
  for (const auto& t : pass.per_server) pass.total.merge(t);
  return pass;
}

/// The ground truth of the request stream: requests, benign and exploit
/// counts per server, from the generator alone. `digest` receives a
/// fingerprint of every request's bytes.
Tallies expected_tallies(const WorkloadSpec& w, const Exploits& exploits,
                         std::uint64_t* digest) {
  Tallies t{};
  dfsm::core::Fingerprinter fp;
  for (std::uint64_t agent = 0; agent < w.agents; ++agent) {
    const std::uint64_t count = dfsm::loadgen::agent_request_count(w, agent);
    for (std::uint64_t i = 0; i < count; ++i) {
      const RequestSpec spec = dfsm::loadgen::request_spec(w, agent, i);
      auto& s = t[static_cast<std::size_t>(spec.server)];
      ++s.requests;
      ++(spec.exploit ? s.exploit : s.benign);
      fp.mix(static_cast<std::uint64_t>(spec.server))
          .mix_striped(payload_for(spec, exploits));
    }
  }
  *digest = fp.digest();
  return t;
}

/// Checks one run's verdicts: every request is an operation, and a false
/// negative or false positive fails it. The run as a whole must carry
/// the generator's per-server counts, exactly exploit_total exploits,
/// and detect every exploit.
void check_tally(const Tallies& per_server, const ServerTally& total,
                 const Tallies& expected, const WorkloadSpec& w,
                 RunResult& r) {
  r.attempted += total.requests;
  r.failed += total.false_negatives + total.false_positives;
  if (total.false_negatives + total.false_positives != 0 &&
      r.failures.size() < 8) {
    r.failures.push_back(
        "serve: " + std::to_string(total.false_negatives) +
        " false negatives, " + std::to_string(total.false_positives) +
        " false positives");
  }
  bool streams_match = true;
  for (std::size_t k = 0; k < kServerKindCount; ++k) {
    streams_match &= per_server[k].requests == expected[k].requests &&
                     per_server[k].benign == expected[k].benign &&
                     per_server[k].exploit == expected[k].exploit;
  }
  r.check(streams_match, "serve: per-server request counts differ from the "
                         "generated stream");
  const auto exploits = dfsm::loadgen::exploit_total(w.requests, w.exploit_ratio);
  r.check(total.exploit == exploits,
          "serve: exploit count " + std::to_string(total.exploit) +
              " != exploit_total " + std::to_string(exploits));
  r.check(total.detected == total.exploit,
          "serve: detected " + std::to_string(total.detected) +
              " != exploits " + std::to_string(total.exploit));
}

struct ServeInputs {
  WorkloadSpec w;
  Exploits exploits;
  Tallies expected{};
};

}  // namespace

RunResult run_serve(const Options& opt, bool attack) {
  RunResult r;
  const auto set_up = [&] {
    const std::int64_t t0 = now_ns();
    ServeInputs in;
    in.w.seed = opt.seed;
    in.w.agents = 32;
    const bool tiny = opt.size == Size::kTiny;
    in.w.requests = attack ? (tiny ? 2000 : 100000) : (tiny ? 8000 : 200000);
    in.w.exploit_ratio = attack ? dfsm::loadgen::Ratio{50, 100}
                                : dfsm::loadgen::Ratio{5, 100};
    in.exploits = build_exploits();
    in.expected = expected_tallies(in.w, in.exploits, &r.input_digest);
    r.setup_s.push_back(seconds_since(t0));
    return in;
  };
  ServeInputs in;
  for (int rep = 0; rep < kSetupReps; ++rep) in = set_up();
  const WorkloadSpec& w = in.w;
  const Exploits& exploits = in.exploits;
  const Tallies& expected = in.expected;
  const Models models =
      monitor_models(opt.sabotage == "monitor-accept-all");

  dfsm::loadgen::EngineOptions eo;
  eo.workload = w;
  eo.monitor = true;
  // Warm-up: fills the allocator once before anything is timed.
  (void)dfsm::loadgen::run_load(eo);

  if (!opt.trace) {
    r.pass_s = measure(
        opt.seconds, 3,
        [&](std::size_t) {
          const auto report = dfsm::loadgen::run_load(eo);
          check_tally(report.per_server, report.total, expected, w, r);
          r.check(report.monitor_lint_clean,
                  "serve: monitor models lint dirty");
        },
        [&] { (void)set_up(); });
    const double req_per_s = static_cast<double>(w.requests) / median(r.pass_s);
    r.workload.push_back({"serve.req_per_s", req_per_s, "requests/s"});
    r.workload.push_back(
        {"serve.requests_per_pass", static_cast<double>(w.requests), "count"});
    return r;
  }

  // Traced run: an untraced run_load pass (the overhead baseline), then a
  // traced pass of this file's agent loop over the same spec.
  dfsm::loadgen::LoadReport report;
  TracedPass last;
  std::vector<double> straggler;
  const TracedRun t = alternate_traced(opt, [&](bool traced) {
    if (!traced) {
      report = dfsm::loadgen::run_load(eo);
      return;
    }
    last = traced_pass(w, exploits, models);
    check_tally(last.per_server, last.total, expected, w, r);
    r.check(last.per_server == report.per_server && last.total == report.total,
            "serve: traced tallies differ from run_load's");
    double busy = 0;
    double busy_max = 0;
    for (const double b : last.agent_busy_s) {
      busy += b;
      busy_max = std::max(busy_max, b);
    }
    straggler.push_back(busy_max /
                        (busy / static_cast<double>(last.agent_busy_s.size())));
  });
  const TraceAnalysis& analysis = t.analysis;

  const double passes = static_cast<double>(t.traced_s.size());
  const auto p = [&](const char* span, double q) {
    return percentile(analysis.stats(span).dur_us, q);
  };
  std::vector<double> serve_us;
  for (const char* name :
       {"apps.serve.nullhttpd", "apps.serve.ghttpd", "apps.serve.iis"}) {
    const auto& d = analysis.stats(name).dur_us;
    serve_us.insert(serve_us.end(), d.begin(), d.end());
  }
  auto& L = r.layers;
  L.push_back({"loadgen.generate_us_p50", p("loadgen.generate", 0.5), "us"});
  L.push_back({"loadgen.generate_us_p99", p("loadgen.generate", 0.99), "us"});
  L.push_back({"loadgen.generate_self_frac",
               analysis.self_frac("loadgen.generate"), "fraction"});
  L.push_back({"loadgen.request_us_p50", p("loadgen.request", 0.5), "us"});
  L.push_back({"loadgen.request_us_p99", p("loadgen.request", 0.99), "us"});
  L.push_back({"netsim.parse_head_us_p50", p("netsim.parse_head", 0.5), "us"});
  L.push_back({"netsim.parse_head_us_p99", p("netsim.parse_head", 0.99), "us"});
  L.push_back({"netsim.parse_head_self_frac",
               analysis.self_frac("netsim.parse_head"), "fraction"});
  L.push_back({"apps.construct_count",
               static_cast<double>(analysis.stats("apps.construct").dur_us.size()) /
                   passes,
               "count"});
  L.push_back({"apps.construct_us_p50", p("apps.construct", 0.5), "us"});
  L.push_back({"apps.construct_us_p99", p("apps.construct", 0.99), "us"});
  L.push_back({"apps.construct_self_frac",
               analysis.self_frac("apps.construct"), "fraction"});
  L.push_back({"apps.serve_us_p50", percentile(serve_us, 0.5), "us"});
  L.push_back({"apps.serve_us_p99", percentile(serve_us, 0.99), "us"});
  L.push_back({"apps.serve_self_frac",
               analysis.self_frac("apps.serve.nullhttpd") +
                   analysis.self_frac("apps.serve.ghttpd") +
                   analysis.self_frac("apps.serve.iis"),
               "fraction"});
  L.push_back({"apps.nullhttpd_serve_us_p99", p("apps.serve.nullhttpd", 0.99),
               "us"});
  L.push_back({"apps.ghttpd_serve_us_p99", p("apps.serve.ghttpd", 0.99), "us"});
  L.push_back({"apps.iis_serve_us_p99", p("apps.serve.iis", 0.99), "us"});
  L.push_back({"apps.rejected", static_cast<double>(last.total.rejected),
               "count"});
  L.push_back({"apps.compromised", static_cast<double>(last.total.compromised),
               "count"});
  L.push_back({"analysis.observe_us_p50", p("analysis.observe", 0.5), "us"});
  L.push_back({"analysis.observe_us_p99", p("analysis.observe", 0.99), "us"});
  L.push_back({"analysis.observe_self_frac",
               analysis.self_frac("analysis.observe"), "fraction"});
  L.push_back({"analysis.violations", static_cast<double>(last.violations),
               "count"});
  L.push_back({"runtime.agent_busy_max_over_mean", median(straggler), "ratio"});
  finish_traced(opt, t, r);
  return r;
}

}  // namespace perfbench
