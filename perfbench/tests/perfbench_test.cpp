// Tests of the benchmark's own code: seeded determinism, the outside
// forward-set replay, the metric catalogue against BENCHMARK.json, span
// self time, and argument validation.
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "perfbench/src/bench.hpp"
#include "perfbench/src/metrics.hpp"
#include "perfbench/src/plan.hpp"
#include "perfbench/src/probes.hpp"
#include "perfbench/src/sim_run.hpp"
#include "perfbench/src/trace.hpp"
#include "src/cli/json.hpp"

namespace perfbench {
namespace {

/// A small fanout plan: few subscribers, a short publication stream.
Plan small_plan(std::uint64_t seed) {
  Plan p = make_plan(Workload::fanout, seed, 6);
  for (ClientPlan& c : p.clients) {
    if (c.publications.size() > 40) c.publications.resize(40);
  }
  return p;
}

/// Seven brokers (depth 2, fanout 2) with covering and overlapping
/// subscriptions at the leaves, and one producer.
Plan tiny_tree_plan() {
  using filter::Constraint;
  using filter::Filter;
  Plan p;
  p.seed = 3;
  p.tree_depth = 2;
  p.tree_fanout = 2;
  p.traffic = sim::millis(200);
  const Filter filters[] = {
      Filter().where("price", Constraint::range(std::int64_t{0}, std::int64_t{500})),
      Filter().where("price", Constraint::range(std::int64_t{100}, std::int64_t{200})),
      Filter().where("sym", Constraint::prefix("s1")),
      Filter().where("sym", Constraint::eq("s123")).where("price", Constraint::ge(std::int64_t{7})),
      Filter().where("topic", Constraint::eq("t1")),
  };
  std::uint32_t id = 1;
  for (const Filter& f : filters) {
    ClientPlan c;
    c.name = "sub" + std::to_string(id);
    c.id = id;
    c.broker = 3 + id % 4;
    c.filters.push_back(f);
    p.clients.push_back(c);
    ++id;
  }
  ClientPlan producer;
  producer.name = "pub";
  producer.id = 100;
  producer.broker = 3;
  for (int k = 1; k <= 20; ++k) {
    producer.publications.push_back(Publication{
        sim::millis(5 * k), filter::Notification()
                                .set("price", std::int64_t{25 * k})
                                .set("sym", k % 2 == 0 ? "s123" : "s200")
                                .set("topic", "t1")});
  }
  p.clients.push_back(producer);
  return p;
}

TEST(Determinism, EqualSeedsGiveIdenticalReports) {
  Tracer off(false);
  const SimResult a = run_sim(small_plan(5), off);
  const SimResult b = run_sim(small_plan(5), off);
  EXPECT_EQ(a.report_text, b.report_text);
  EXPECT_GT(a.report.delivered, 0u);
}

TEST(Determinism, DifferentSeedsDiffer) {
  Tracer off(false);
  EXPECT_NE(run_sim(small_plan(5), off).report_text, run_sim(small_plan(6), off).report_text);
}

TEST(Determinism, TracingDoesNotChangeTheReport) {
  Tracer off(false);
  Tracer on(true);
  EXPECT_EQ(run_sim(small_plan(9), off).report_text, run_sim(small_plan(9), on).report_text);
  EXPECT_FALSE(on.spans().empty());
}

TEST(Plan, SameSeedSameInputs) {
  const Plan a = make_plan(Workload::roam, 11);
  const Plan b = make_plan(Workload::roam, 11);
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    EXPECT_EQ(a.clients[i].broker, b.clients[i].broker);
    EXPECT_EQ(a.clients[i].filters, b.clients[i].filters);
    EXPECT_EQ(a.clients[i].roams.size(), b.clients[i].roams.size());
  }
  EXPECT_EQ(a.publication_count(), b.publication_count());
  EXPECT_GT(a.move_count(), 0u);
}

TEST(RoutingReplay, MatchesForwardedToOnASmallTree) {
  const Plan plan = tiny_tree_plan();
  Tracer off(false);
  RoutingReplay replay;
  const SimResult r = run_sim(plan, off, 0, [&](scenario::Scenario& s) {
    replay = replay_routing(s, plan, off);
  });
  EXPECT_EQ(replay.targets, 12u);  // 6 links, both directions
  EXPECT_EQ(replay.agree, replay.targets);
  EXPECT_TRUE(replay.mismatches.empty());
  EXPECT_GT(replay.match_queries, 0u);
  EXPECT_EQ(r.report.missing, 0u);
}

TEST(RoutingReplay, DetectsATableThatDisagrees) {
  const Plan plan = tiny_tree_plan();
  // Replay with a subscription the brokers never saw.
  Plan wrong = plan;
  wrong.clients[0].filters.push_back(
      filter::Filter().where("vol", filter::Constraint::eq(std::int64_t{42})));
  Tracer off(false);
  RoutingReplay replay;
  (void)run_sim(plan, off, 0, [&](scenario::Scenario& s) {
    replay = replay_routing(s, wrong, off);
  });
  EXPECT_LT(replay.agree, replay.targets);
  EXPECT_FALSE(replay.mismatches.empty());
}

std::vector<MetricDef> declared(const cli::JsonValue& doc, const std::string& key) {
  std::vector<MetricDef> out;
  for (const cli::JsonValue& m : doc.get(key).items()) {
    out.push_back({m.get("name").as_string(), m.get("unit").as_string()});
  }
  return out;
}

TEST(Metrics, NamesEqualBenchmarkJson) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const cli::JsonValue doc = cli::JsonValue::parse(text.str());
  const auto same = [](const std::vector<MetricDef>& a, const std::vector<MetricDef>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].name, b[i].name);
      EXPECT_EQ(a[i].unit, b[i].unit);
    }
  };
  same(declared(doc, "end_to_end"), end_to_end_metrics());
  same(declared(doc, "per_layer"), per_layer_metrics());
  for (const cli::JsonValue& w : doc.get("workloads").items()) {
    const std::string name = w.get("name").as_string();
    EXPECT_TRUE(parse_workload(name).has_value()) << name;
  }
}

TEST(Metrics, ResultLineCarriesEveryMetricOrThrows) {
  Values v;
  for (const MetricDef& d : end_to_end_metrics()) v[d.name] = 1.5;
  const std::string line = result_line(true, 10, 0, end_to_end_metrics(), v);
  const cli::JsonValue doc = cli::JsonValue::parse(line);
  EXPECT_TRUE(doc.get("correct").as_bool());
  EXPECT_EQ(doc.get("metrics").members().size(), end_to_end_metrics().size());
  v.erase("run_s");
  EXPECT_THROW((void)result_line(true, 10, 0, end_to_end_metrics(), v), std::logic_error);
}

Span span(const char* name, std::int64_t start, std::int64_t end, std::int32_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(Trace, SelfTimeOnASyntheticTree) {
  // root [0,100] has children a [10,40] and b [30,60] (overlapping) and
  // c [90,120] (clipped at the root's end); a has a child [15,20].
  const std::vector<Span> spans = {
      span("scenario.root", 0, 100, -1), span("client.a", 10, 40, 0),
      span("client.b", 30, 60, 0),       span("client.c", 90, 120, 0),
      span("routing.x", 15, 20, 1),
  };
  const std::vector<double> self = self_seconds(spans);
  EXPECT_DOUBLE_EQ(self[0], 40e-9);  // 100 - |[10,60] ∪ [90,100]|
  EXPECT_DOUBLE_EQ(self[1], 25e-9);
  EXPECT_DOUBLE_EQ(self[2], 30e-9);
  EXPECT_DOUBLE_EQ(self[3], 30e-9);
  EXPECT_DOUBLE_EQ(self[4], 5e-9);
  const auto totals = totals_by_name(spans);
  EXPECT_DOUBLE_EQ(totals.at("client.a").self_s, 25e-9);
  EXPECT_EQ(layer_of("routing.compute_forward_set"), "routing");
}

TEST(Trace, RecordsNestingAndCounts) {
  Tracer t(true);
  t.set_run(4);
  {
    auto outer = t.span("scenario.traffic");
    outer.set_count(7);
    auto inner = t.span("client.publish");
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[0].count, 7u);
  EXPECT_EQ(t.spans()[1].run, 4u);
  Tracer off(false);
  { auto s = off.span("scenario.build"); }
  EXPECT_TRUE(off.spans().empty());
}

std::optional<Options> parse(std::vector<std::string> args) {
  std::string error;
  return parse_args(args, error);
}

TEST(Args, AcceptsTheDriverCommandLine) {
  const auto o = parse({"--workload", "roam", "--seed", "42", "--seconds", "10", "--trace", "1"});
  ASSERT_TRUE(o);
  EXPECT_EQ(o->workload, Workload::roam);
  EXPECT_EQ(o->seed, 42u);
  EXPECT_TRUE(o->trace);
}

TEST(Args, RejectsBadInput) {
  EXPECT_FALSE(parse({"--workload", "nope", "--seed", "1"}));
  EXPECT_FALSE(parse({"--workload", "fanout", "--seed", "0"}));
  EXPECT_FALSE(parse({"--workload", "fanout", "--seed", "abc"}));
  EXPECT_FALSE(parse({"--workload", "fanout", "--seed", "-3"}));
  EXPECT_FALSE(parse({"--workload", "fanout", "--seed", "99999999999999999999999"}));
  EXPECT_FALSE(parse({"--workload", "fanout", "--seed", "1", "--size", "0"}));
  EXPECT_FALSE(parse({"--workload", "fanout", "--seed", "1", "--seconds", "0"}));
  EXPECT_FALSE(parse({"--workload", "fanout", "--seed", "1", "--trace", "2"}));
  EXPECT_FALSE(parse({"--workload", "fanout", "--seed", "1", "--metric", "nope"}));
  EXPECT_FALSE(parse({"--workload", "fanout", "--seed", "1", "--bogus", "1"}));
  EXPECT_FALSE(parse({"--workload", "fanout", "--seed"}));
  EXPECT_FALSE(parse({"--workload", "fanout"}));
  EXPECT_TRUE(parse({"--workload", "fanout", "--seed", "1", "--metric", "run_s"}));
}

}  // namespace
}  // namespace perfbench
