#include "perfbench/src/bench.hpp"

#include <sched.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>

#include "perfbench/src/probes.hpp"
#include "perfbench/src/sim_run.hpp"
#include "perfbench/src/tcp.hpp"
#include "perfbench/src/trace.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinIterations = 3;
constexpr std::size_t kMaxIterations = 200;
constexpr std::uint64_t kMaxSeconds = 600;
constexpr std::size_t kMaxSize = 200;
/// Run id of the spans recorded by the probes after the measured loop.
constexpr std::uint32_t kProbeRun = 1000000;

/// Moves this process to the next CPU of its affinity mask after each
/// repetition, so every run samples every core equally: on a shared
/// host one core can run 20 % slower than another for seconds at a
/// time. Restores the original mask on destruction.
class CoreRotation {
 public:
  CoreRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;
  ~CoreRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.size() > 19) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  const auto res = std::from_chars(s.data(), s.data() + s.size(), out);
  return res.ec == std::errc() && res.ptr == s.data() + s.size();
}

double ns_to_ms(sim::Duration d) { return static_cast<double>(d) * 1e-6; }

/// Delivery completeness and ordering of the tracked clients, plus the
/// report's own expectation violations.
void gate_report(const scenario::ScenarioReport& rep, RunResult& r) {
  std::uint64_t expected = 0;
  std::uint64_t lost = 0;
  for (const scenario::ClientReport& c : rep.clients) {
    if (!c.tracked) continue;
    expected += c.expected;
    lost += c.missing + c.duplicates + c.fifo_violations;
  }
  r.attempted += expected;
  r.failed += lost;
  r.values["loss_ratio"] =
      expected == 0 ? 0.0 : static_cast<double>(lost) / static_cast<double>(expected);
  if (expected == 0) {
    r.failures.push_back("no tracked client expected a delivery");
    r.failed += 1;
  }
  if (lost != 0) {
    r.failures.push_back("lost " + std::to_string(lost) + " of " + std::to_string(expected) +
                         " tracked deliveries (missing + duplicates + FIFO violations)");
  }
  for (const std::string& v : rep.violations) r.failures.push_back("violation: " + v);
  if (rep.latency.count == 0) {
    r.failures.push_back("no deliveries at all");
    r.failed += 1;
  }
}

void gate_same(const std::string& what, const std::string& a, const std::string& b,
               RunResult& r) {
  r.attempted += 1;
  if (a != b) {
    r.failed += 1;
    r.failures.push_back(what + ": reports differ");
  }
}

void gate_replay(const RoutingReplay& replay, RunResult& r) {
  r.attempted += replay.targets;
  r.failed += replay.targets - replay.agree;
  if (replay.targets == 0 || replay.agree != replay.targets) {
    r.failures.push_back("forward-set replay agrees on " + std::to_string(replay.agree) +
                         " of " + std::to_string(replay.targets) + " targets");
    for (const std::string& m : replay.mismatches) r.failures.push_back("  " + m);
  }
}

void end_to_end_values(const std::vector<SimResult>& runs, RunResult& r, std::ostream& log) {
  std::vector<double> setup, run;
  for (const SimResult& s : runs) {
    setup.push_back(s.setup_s());
    run.push_back(s.run_s());
  }
  const scenario::ScenarioReport& rep = runs.front().report;
  log << "per iteration: setup_s";
  for (double x : setup) log << " " << number(x);
  log << " | run_s";
  for (double x : run) log << " " << number(x);
  log << "\n";
  r.values["setup_s"] = median(setup);
  r.values["run_s"] = median(run);
  r.values["latency_p50_ms"] = ns_to_ms(rep.latency.p50);
  r.values["latency_p99_ms"] = ns_to_ms(rep.latency.p99);
  r.values["msgs_per_delivery"] =
      rep.delivered == 0 ? 0.0
                         : static_cast<double>(rep.messages.total()) /
                               static_cast<double>(rep.delivered);
  r.values["latency_samples"] = static_cast<double>(rep.latency.count);
  r.values["iterations"] = static_cast<double>(runs.size());
  if (!runs.front().reloc_gap_ms.empty()) {
    r.values["reloc_gap_ms"] = median(runs.front().reloc_gap_ms);
  }
  r.samples = rep.latency.count;
}

void per_layer_values(const Plan& plan, const std::vector<SimResult>& plain,
                      const std::vector<SimResult>& traced, const Tracer& tracer,
                      const RoutingReplay& replay, RunResult& r) {
  const std::vector<Span>& spans = tracer.spans();
  auto& v = r.values;
  v["scenario.build_s"] = median(durations(spans, "scenario.build"));
  v["scenario.settle_s"] = median(durations(spans, "scenario.settle"));
  v["scenario.traffic_s"] = median(durations(spans, "scenario.traffic"));
  v["scenario.drain_s"] = median(durations(spans, "scenario.drain"));
  v["scenario.report_s"] = median(durations(spans, "scenario.report"));
  v["sim.us_per_msg"] = median(per_item(spans, "scenario.traffic")) * 1e6;

  const scenario::ScenarioReport& rep = plain.front().report;
  using metrics::MessageClass;
  const std::pair<const char*, MessageClass> classes[] = {
      {"notification", MessageClass::notification},
      {"delivery", MessageClass::delivery},
      {"sub_admin", MessageClass::subscription_admin},
      {"relocation", MessageClass::relocation_control},
      {"reexpose", MessageClass::reexpose},
      {"replay", MessageClass::replay},
      {"loc_update", MessageClass::location_update},
      {"client_ctl", MessageClass::client_control},
      {"dropped", MessageClass::dropped},
  };
  for (const auto& [name, c] : classes) {
    v[std::string("net.msgs.") + name] = static_cast<double>(rep.messages.count(c));
  }
  for (const auto& [name, value] : plain.front().at_end) v["broker." + name] = value;
  for (const auto& [name, value] : plain.front().at_settle) {
    v["broker." + name + ".settle"] = value;
  }

  const auto us = [](std::vector<double> s) { return median(std::move(s)) * 1e6; };
  const auto ns_per_item = [&](const char* name) {
    double secs = 0;
    std::uint64_t items = 0;
    for (const Span& s : spans) {
      if (s.name == name) {
        secs += s.seconds();
        items += s.count;
      }
    }
    return items == 0 ? 0.0 : secs / static_cast<double>(items) * 1e9;
  };
  v["routing.forward_set_us"] = us(durations(spans, "routing.compute_forward_set"));
  v["routing.forward_set_p99_us"] =
      quantile(durations(spans, "routing.compute_forward_set"), 0.99) * 1e6;
  v["routing.forward_set_inputs"] =
      replay.targets == 0 ? 0.0
                          : static_cast<double>(replay.inputs) / static_cast<double>(replay.targets);
  v["routing.diff_us"] = us(durations(spans, "routing.diff"));
  v["routing.forward_set_agree"] = replay.agree_ratio();
  v["routing.match_ns"] = ns_per_item("routing.match_collect");
  const double queries = static_cast<double>(std::max<std::uint64_t>(1, replay.match_queries));
  v["routing.match_hits"] = static_cast<double>(replay.match_hits) / queries;
  v["routing.match_useful_ratio"] = static_cast<double>(replay.match_useful) / queries;
  v["routing.covered_inputs_us"] = us(per_item(spans, "routing.covered_by"));
  v["routing.moveout_plan_us"] = us(per_item(spans, "routing.plan_moveout"));

  v["filter.matches_ns"] = ns_per_item("filter.matches");
  v["filter.covers_ns"] = ns_per_item("filter.covers");
  v["filter.less_ns"] = ns_per_item("filter.less");
  v["location.ploc_us"] = us(durations(spans, "location.ploc"));
  v["location.constraint_for_us"] = us(durations(spans, "location.constraint_for"));
  std::size_t walk_moves = 0;
  for (const ClientPlan& c : plan.clients) walk_moves += c.walks.size();
  v["location.updates_per_move"] =
      walk_moves == 0 ? 0.0
                      : static_cast<double>(rep.messages.count(MessageClass::location_update)) /
                            static_cast<double>(walk_moves);

  double delivered = 0, filtered = 0;
  for (const scenario::ClientReport& c : rep.clients) {
    delivered += static_cast<double>(c.delivered);
    filtered += static_cast<double>(c.filtered);
  }
  v["client.filtered_ratio"] = delivered + filtered == 0 ? 0.0 : filtered / (delivered + filtered);
  v["client.duplicates"] = static_cast<double>(rep.duplicates);
  v["transport.encode_ns"] = ns_per_item("transport.encode");
  v["transport.decode_ns"] = ns_per_item("transport.decode");
  v["workload.publications"] = static_cast<double>(rep.published);
  v["workload.moves"] = static_cast<double>(plan.move_count());

  std::vector<double> plain_wall, traced_wall;
  for (const SimResult& s : plain) plain_wall.push_back(s.setup_s() + s.run_s());
  for (const SimResult& s : traced) traced_wall.push_back(s.setup_s() + s.run_s());
  v["trace.overhead_ratio"] = median(traced_wall) / median(plain_wall) - 1.0;
}

std::string trace_summary(const Options& o, const Tracer& tracer, std::size_t traced_runs,
                          double overhead) {
  std::map<std::string, NameTotals> loop, probes;
  {
    std::vector<Span> in_loop, in_probes;
    for (const Span& s : tracer.spans()) (s.run >= kProbeRun ? in_probes : in_loop).push_back(s);
    loop = totals_by_name(in_loop);
    probes = totals_by_name(in_probes);
  }
  std::ostringstream os;
  os << std::fixed;
  os << "trace summary: workload " << workload_name(o.workload) << ", seed " << o.seed << ", "
     << traced_runs << " traced runs, " << tracer.spans().size() << " spans\n";
  os << "tracing overhead: " << std::setprecision(2) << overhead * 100.0
     << " % of untraced setup+run wall time\n";
  const auto table = [&](const char* title, const std::map<std::string, NameTotals>& totals,
                         double per) {
    std::map<std::string, NameTotals> layers;
    for (const auto& [name, t] : totals) {
      NameTotals& l = layers[layer_of(name)];
      l.self_s += t.self_s;
      l.total_s += t.total_s;
      l.spans += t.spans;
    }
    os << title << "\n  " << std::left << std::setw(34) << "layer / span" << std::right
       << std::setw(12) << "self_s" << std::setw(12) << "total_s" << std::setw(10) << "spans"
       << "\n";
    for (const auto& [layer, l] : layers) {
      os << "  " << std::left << std::setw(34) << layer << std::right << std::setprecision(6)
         << std::setw(12) << l.self_s / per << std::setw(12) << l.total_s / per
         << std::setw(10) << static_cast<std::uint64_t>(static_cast<double>(l.spans) / per)
         << "\n";
      for (const auto& [name, t] : totals) {
        if (layer_of(name) != layer) continue;
        os << "    " << std::left << std::setw(32) << name << std::right << std::setw(12)
           << t.self_s / per << std::setw(12) << t.total_s / per << std::setw(10)
           << static_cast<std::uint64_t>(static_cast<double>(t.spans) / per) << "\n";
      }
    }
  };
  table("per traced run (means):", loop, static_cast<double>(std::max<std::size_t>(1, traced_runs)));
  table("probes (once):", probes, 1.0);
  return os.str();
}

void write_trace(const Options& o, const Tracer& tracer, const std::string& summary,
                 std::ostream& log) {
  if (o.out_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  const std::string stem = o.out_dir + "/trace-" + workload_name(o.workload) + "-seed" +
                           std::to_string(o.seed);
  std::ofstream spans(stem + ".jsonl");
  tracer.write_jsonl(spans);
  std::ofstream(stem + ".txt") << summary;
  if (spans) log << "spans written to " << stem << ".jsonl\n";
}

}  // namespace

RunResult run_simulated(const Options& o, const Plan& plan, std::ostream& log) {
  RunResult r;
  log << "workload " << workload_name(o.workload) << ": " << plan.broker_count() << " brokers, "
      << plan.subscriber_count() << " subscribers, " << plan.publication_count()
      << " publications, " << plan.move_count() << " moves\n";
  Tracer off(false);
  Tracer tracer(o.trace);
  RoutingReplay replay;
  const auto replay_with = [&](Tracer& t) {
    return [&](scenario::Scenario& s) { replay = replay_routing(s, plan, t); };
  };

  std::vector<SimResult> plain, traced;
  const auto start = Clock::now();
  const auto more = [&](std::size_t done) {
    return (since(start) < static_cast<double>(o.seconds) || done < kMinIterations) &&
           done < kMaxIterations;
  };
  double peak_rss = 0;
  {
    CoreRotation cores;  // the probes below run on every CPU again
    if (!o.trace) {
      // The replay rides on the second iteration, so the first one's peak
      // resident set is the program's alone, on a fresh heap.
      do {
        cores.next();
        plain.push_back(run_sim(plan, off, 0, plain.size() == 1 ? replay_with(off) : SettleHook{}));
        if (plain.size() == 1) peak_rss = peak_rss_mb();
      } while (more(plain.size()));
    } else {
      // Alternate untraced and traced iterations so both see the same
      // machine state; the difference is the tracing overhead.
      do {
        cores.next();
        plain.push_back(run_sim(plan, off));
        tracer.set_run(static_cast<std::uint32_t>(traced.size()));
        traced.push_back(run_sim(plan, tracer, 0, traced.empty() ? replay_with(tracer) : SettleHook{}));
      } while (more(traced.size() + 1));
    }
  }

  gate_report(plain.front().report, r);
  gate_replay(replay, r);
  for (std::size_t i = 1; i < plain.size(); ++i) {
    gate_same("untraced iteration " + std::to_string(i) + " vs 0", plain[i].report_text,
              plain[0].report_text, r);
  }
  for (std::size_t i = 0; i < traced.size(); ++i) {
    gate_same("traced iteration " + std::to_string(i) + " vs untraced", traced[i].report_text,
              plain[0].report_text, r);
  }

  if (!o.trace) {
    end_to_end_values(plain, r, log);
    r.values["peak_rss_mb"] = peak_rss;
  } else {
    tracer.set_run(kProbeRun);
    probe_filters(plan, tracer);
    probe_locations(plan, tracer);
    r.values["transport.bytes_per_msg"] = probe_wire(plan, tracer);
    r.values["transport.session_msgs_per_s"] = probe_session(plan, tracer);

    // Settle growth: log2 of settle time at N over N/2 subscribers.
    const std::size_t n = o.size != 0 ? o.size : default_subscribers(o.workload);
    const Plan full = make_plan(o.workload, o.seed, n);
    const Plan half = make_plan(o.workload, o.seed, std::max<std::size_t>(1, n / 2));
    std::vector<double> t_full, t_half;
    for (int k = 0; k < 3; ++k) {
      {
        auto span = tracer.span("scenario.settle_at_n");
        t_full.push_back(settle_seconds(full));
      }
      auto span = tracer.span("scenario.settle_at_half_n");
      t_half.push_back(settle_seconds(half));
    }
    r.values["scenario.settle_growth_exp"] = std::log2(median(t_full) / median(t_half));

    // Sharding probe: 1 vs 4 shards must agree byte for byte.
    SimResult one, four;
    {
      auto span = tracer.span("sim.sharded1_run");
      one = run_sim(plan, off, 1);
    }
    {
      auto span = tracer.span("sim.sharded4_run");
      four = run_sim(plan, off, 4);
    }
    gate_same("sharded 1 vs 4 shards", one.report_text, four.report_text, r);
    std::vector<double> classic;
    for (const SimResult& s : plain) classic.push_back(s.traffic_wall_s);
    r.values["sim.sharded4_speedup"] = median(classic) / four.traffic_wall_s;

    per_layer_values(plan, plain, traced, tracer, replay, r);
    r.summary = trace_summary(o, tracer, traced.size(), r.values["trace.overhead_ratio"]);
    write_trace(o, tracer, r.summary, log);
  }
  r.correct = r.failures.empty() && r.failed == 0;
  return r;
}

const char* usage() {
  return "usage: perfbench --workload NAME --seed N [--seconds N] [--trace 0|1]\n"
         "                 [--size N] [--metric NAME] [--out-dir DIR] [--node PATH]\n"
         "\n"
         "  --workload NAME  fanout | roam | walk | tcp\n"
         "  --seed N         input seed, a positive integer\n"
         "  --seconds N      measuring time, a positive integer (default 10)\n"
         "  --trace 0|1      0: end-to-end metrics; 1: traced run, per-layer metrics\n"
         "  --size N         subscribing clients (default: the workload's own)\n"
         "  --metric NAME    print only this metric in the table (the last line,\n"
         "                   the JSON result, always carries every metric)\n"
         "  --out-dir DIR    traced runs write their spans and summary here\n"
         "  --node PATH      the rebeca-node binary (tcp workload)\n";
}

std::optional<Options> parse_args(const std::vector<std::string>& args, std::string& error) {
  Options o;
  bool have_workload = false;
  bool have_seed = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (i + 1 >= args.size()) {
      error = arg.rfind("--", 0) == 0 ? arg + " needs a value" : "unexpected argument " + arg;
      return std::nullopt;
    }
    const std::string& value = args[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      const auto w = parse_workload(value);
      if (!w) {
        error = "unknown workload " + value;
        return std::nullopt;
      }
      o.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_u64(value, n) || n == 0) {
        error = "--seed must be a positive integer, got " + value;
        return std::nullopt;
      }
      o.seed = n;
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(value, n) || n == 0 || n > kMaxSeconds) {
        error = "--seconds must be an integer in 1.." + std::to_string(kMaxSeconds) + ", got " + value;
        return std::nullopt;
      }
      o.seconds = n;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        error = "--trace must be 0 or 1, got " + value;
        return std::nullopt;
      }
      o.trace = value == "1";
    } else if (arg == "--size") {
      if (!parse_u64(value, n) || n == 0 || n > kMaxSize) {
        error = "--size must be an integer in 1.." + std::to_string(kMaxSize) + ", got " + value;
        return std::nullopt;
      }
      o.size = static_cast<std::size_t>(n);
    } else if (arg == "--metric") {
      if (find_metric(value) == nullptr) {
        error = "unknown metric " + value;
        return std::nullopt;
      }
      o.metric = value;
    } else if (arg == "--out-dir") {
      o.out_dir = value;
    } else if (arg == "--node") {
      o.node_binary = value;
    } else {
      error = "unknown option " + arg;
      return std::nullopt;
    }
  }
  if (!have_workload || !have_seed) {
    error = "--workload and --seed are required";
    return std::nullopt;
  }
  return o;
}

RunResult run_benchmark(const Options& o, std::ostream& log) {
  RunResult r = o.workload == Workload::tcp
                    ? run_tcp(o, log)
                    : run_simulated(o, make_plan(o.workload, o.seed, o.size), log);
  if (!r.summary.empty()) log << r.summary;
  // The human-readable table: every metric measured, by name and unit.
  std::set<std::string> printed;
  for (const auto* list : {o.trace ? &per_layer_metrics() : &end_to_end_metrics(), &extra_metrics()}) {
    for (const MetricDef& d : *list) {
      const auto it = r.values.find(d.name);
      if (it == r.values.end() || (!o.metric.empty() && d.name != o.metric)) continue;
      if (!printed.insert(d.name).second) continue;
      log << "  " << std::left << std::setw(36) << d.name << std::right << std::setw(18)
          << number(it->second) << " " << d.unit << "\n";
    }
  }
  if (r.samples != 0) log << "  (latency percentiles over " << r.samples << " deliveries)\n";
  for (const std::string& f : r.failures) log << "GATE FAILED: " << f << "\n";
  return r;
}

}  // namespace perfbench
