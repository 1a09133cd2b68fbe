// The rebeca-run config layer: JSON parsing and config -> scenario
// equivalence.
//
// The acceptance bar: loading examples/configs/fig2.json reproduces the
// fig2 scenario byte-for-byte against the same declaration written in
// C++ — a config file is a full substitute for a recompile.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/cli/config.hpp"
#include "src/cli/json.hpp"
#include "src/cli/node_config.hpp"

namespace rebeca {
namespace {

using cli::JsonError;
using cli::JsonValue;

// ---------------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_EQ(JsonValue::parse("true").as_bool(), true);
  EXPECT_EQ(JsonValue::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(JsonValue::parse("3.25").as_number(), 3.25);
  EXPECT_EQ(JsonValue::parse("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(JsonValue::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(JsonValue::parse("\"hi\\nthere\"").as_string(), "hi\nthere");
  EXPECT_EQ(JsonValue::parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
}

TEST(Json, ParsesContainers) {
  const JsonValue v = JsonValue::parse(
      R"({"a": [1, 2, 3], "b": {"c": "x"}, "d": true})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.get("a").size(), 3u);
  EXPECT_EQ(v.get("a").at(1).as_int(), 2);
  EXPECT_EQ(v.get("b").get("c").as_string(), "x");
  EXPECT_EQ(v.bool_or("d", false), true);
  EXPECT_EQ(v.bool_or("missing", true), true);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, ReportsErrorsWithLocation) {
  try {
    JsonValue::parse("{\"a\": 1,\n  \"b\": }");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(JsonValue::parse("[1, 2"), JsonError);
  EXPECT_THROW(JsonValue::parse("{} trailing"), JsonError);
  EXPECT_THROW(JsonValue::parse("01x"), JsonError);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), JsonError);
}

TEST(Json, RejectsHostileDocumentsWithoutCrashing) {
  // Out-of-range literal: JsonError, not std::out_of_range from stod.
  EXPECT_THROW(JsonValue::parse("1e999"), JsonError);
  // Nesting past the depth bound: JsonError, not a stack overflow.
  const std::string deep(100000, '[');
  EXPECT_THROW(JsonValue::parse(deep), JsonError);
  // At-the-bound nesting still parses.
  std::string ok;
  for (int i = 0; i < 200; ++i) ok += '[';
  ok += '1';
  for (int i = 0; i < 200; ++i) ok += ']';
  EXPECT_NO_THROW(JsonValue::parse(ok));
}

TEST(Json, TypeMismatchNamesTheField) {
  const JsonValue v = JsonValue::parse(R"({"broker": "three"})");
  try {
    (void)v.get("broker").as_int("clients[0].broker");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("clients[0].broker"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Config -> filter/notification mapping
// ---------------------------------------------------------------------------

TEST(Config, ParsesFiltersWithAllOperators) {
  const JsonValue v = JsonValue::parse(R"({
    "sym": {"eq": "X"}, "px": {"lt": 100}, "qty": {"range": [1, 9]},
    "venue": {"in": ["a", "b"]}, "tag": {"prefix": "de"}, "flag": {"any": true},
    "bare": 7
  })");
  const filter::Filter f = cli::parse_filter(v, "test");
  EXPECT_EQ(f.size(), 7u);
  filter::Notification n;
  n.set("sym", "X").set("px", 42).set("qty", 3).set("venue", "a");
  n.set("tag", "depot").set("flag", true).set("bare", 7);
  EXPECT_TRUE(f.matches(n));
  n.set("px", 100);
  EXPECT_FALSE(f.matches(n));
}

TEST(Config, RejectsUnknownOperator) {
  const JsonValue v = JsonValue::parse(R"({"sym": {"matches": "X"}})");
  EXPECT_THROW(cli::parse_filter(v, "test"), JsonError);
}

TEST(Config, RejectsUnknownStrategyWithFieldPath) {
  const std::string doc = R"({
    "routing": "warp", "clients": [], "phases": []
  })";
  try {
    (void)cli::parse_config(doc);
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("routing"), std::string::npos);
  }
}

TEST(Config, RequiresClientsAndPhases) {
  EXPECT_THROW((void)cli::parse_config(R"({"phases": []})"), JsonError);
  EXPECT_THROW((void)cli::parse_config(R"({"clients": []})"), JsonError);
}

TEST(Config, MistypedSectionIsRejectedNotDefaulted) {
  // "topology": "chain" (string where an object belongs) must error, not
  // silently run the default 2-broker chain.
  EXPECT_THROW((void)cli::parse_config(R"({
    "topology": "chain", "clients": [], "phases": []
  })"),
               JsonError);
  EXPECT_THROW((void)cli::parse_config(R"({
    "broker_link_delay": [3, 7],
    "clients": [{"name": "c", "id": 1, "broker": 0}],
    "phases": [{"name": "p", "duration_ms": 1}]
  })"),
               JsonError);
  // Out-of-range integers are a clean error, not UB.
  EXPECT_THROW((void)cli::parse_config(R"({
    "clients": [{"name": "c", "id": 1e300, "broker": 0}],
    "phases": [{"name": "p", "duration_ms": 1}]
  })"),
               JsonError);
}

TEST(Config, HostileDelaysAreCleanErrorsNotAsserts) {
  // Regressions from fuzz_config (tools/fuzz/corpus_config/): delay
  // fields used to flow unchecked into the DelayModel factories, whose
  // REBECA_ASSERT aborts the process, and into sim::millis, whose
  // double->int64 cast is UB for huge values. All must reject as
  // JsonError at the config boundary.
  EXPECT_THROW((void)cli::parse_config(
                   R"({"broker_link_delay":
                       {"kind": "uniform", "lo_ms": 5, "hi_ms": 1}})"),
               JsonError);
  EXPECT_THROW(
      (void)cli::parse_config(R"({"broker_link_delay": {"ms": -3}})"),
      JsonError);
  EXPECT_THROW((void)cli::parse_config(R"({"broker_link_delay": 1e308})"),
               JsonError);
  EXPECT_THROW((void)cli::parse_config(
                   R"({"client_link_delay":
                       {"kind": "exponential", "mean_ms": 0}})"),
               JsonError);
  // In-range delays still parse.
  EXPECT_NO_THROW((void)cli::parse_config(R"({
    "broker_link_delay": {"kind": "uniform", "lo_ms": 1, "hi_ms": 5},
    "clients": [{"name": "c", "id": 1, "broker": 0}],
    "phases": [{"name": "p", "duration_ms": 1}]
  })"));
}

TEST(Config, HostileBrokerTuningIsRejectedByBothLoaders) {
  // The "broker" stanza is parsed by one shared parse_broker for both
  // rebeca-run and rebeca-node. Negative durations used to reach the
  // executor's delay assert, huge ones the UB double->int64 cast in
  // sim::millis, and negative counts wrapped to huge size_t capacities.
  const std::string rest = R"(,
    "clients": [{"name": "c", "id": 1, "broker": 0}],
    "phases": [{"name": "p", "duration_ms": 1}]})";
  const std::pair<const char*, const char*> hostile[] = {
      {"relocation_timeout_ms", "-5"},  {"relocation_timeout_ms", "1e300"},
      {"virtual_ttl_ms", "-1"},         {"virtual_ttl_ms", "1e13"},
      {"ld_widen_interval_ms", "-0.5"}, {"ld_widen_interval_ms", "1e300"},
      {"session_history", "-1"},        {"virtual_capacity", "-3"},
  };
  for (const auto& [field, value] : hostile) {
    const std::string doc = std::string(R"({"broker": {")") + field +
                            "\": " + value + "}" + rest;
    SCOPED_TRACE(doc);
    for (const bool node : {false, true}) {
      try {
        if (node) {
          (void)cli::parse_node_config(doc);
        } else {
          (void)cli::parse_config(doc);
        }
        ADD_FAILURE() << "expected JsonError (node=" << node << ")";
      } catch (const JsonError& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
      }
    }
  }

  // The in-range bounds still parse, through both loaders alike.
  const std::string ok = R"({"broker": {
      "relocation_timeout_ms": 0, "virtual_ttl_ms": 1e12,
      "ld_widen_interval_ms": 250, "ld_presubscribe": true,
      "session_history": 0, "virtual_capacity": 7})" + rest;
  EXPECT_NO_THROW((void)cli::parse_config(ok));
  const transport::NodeSpec spec = cli::parse_node_config(ok);
  EXPECT_EQ(spec.broker.relocation_timeout, 0);
  EXPECT_EQ(spec.broker.virtual_ttl, sim::millis(1e12));
  EXPECT_EQ(spec.broker.ld_widen_interval, sim::millis(250));
  EXPECT_TRUE(spec.broker.ld_presubscribe);
  EXPECT_EQ(spec.broker.session_history, 0u);
  EXPECT_EQ(spec.broker.virtual_capacity, 7u);
}

/// A config whose fields are all in range; `$name` placeholders are
/// substituted by hostile_doc. Both loaders read everything but the
/// rebeca-run-only keys (walks, locations, checkpoints, LD profiles).
std::string hostile_doc(std::vector<std::pair<std::string, std::string>> subst) {
  std::string doc = R"({
    "topology": {"kind": "$kind", "size": $size, "depth": $depth,
                 "fanout": $fanout},
    "locations": {"kind": "grid", "width": $width, "height": 2},
    "checkpoint_every_ms": $checkpoint,
    "clients": [
      {"name": "pub", "id": 1, "broker": 0,
       "publishes": [{"$rate": $period, "body": {"x": 1}}]},
      {"name": "roamer", "id": 2, "broker": 1,
       "subscribes": [{"x": {"eq": 1}}],
       "roams": [{"route": [0], "dwell_ms": $dwell, "gap_ms": $gap}]},
      {"name": "walker", "id": 3, "broker": 0, "starts_at": "g0_0",
       "subscribes_ld": [{"profile": {"kind": "adaptive",
                                      "delta_ms": $delta,
                                      "hop_delays_ms": [$hop]}}],
       "walks": [{"route": ["g1_0"], "residence_ms": $residence}]}
    ],
    "phases": [{"name": "p", "duration_ms": $duration}]})";
  const std::vector<std::pair<std::string, std::string>> defaults = {
      {"kind", "balanced_tree"}, {"size", "2"},     {"depth", "1"},
      {"fanout", "2"},           {"width", "2"},    {"checkpoint", "0"},
      {"rate", "every_ms"},      {"period", "10"},  {"dwell", "0"},
      {"gap", "10"},             {"delta", "1000"}, {"hop", "0"},
      {"residence", "100"},      {"duration", "0"},
  };
  subst.insert(subst.end(), defaults.begin(), defaults.end());
  for (const auto& [name, value] : subst) {
    for (auto at = doc.find("$" + name); at != std::string::npos;
         at = doc.find("$" + name)) {
      doc.replace(at, name.size() + 1, value);
    }
  }
  return doc;
}

TEST(Config, HostileDurationsAndSizesAreRejectedByBothLoaders) {
  // Every *_ms field shares the delay range check, [0, 1e12] ms; a
  // publish period or residence time must also be > 0, and so must a
  // roam's dwell + gap. Before, a zero every_ms (or roam cycle) never
  // terminated, negative or huge durations died on the
  // executor's and the scenario's REBECA_ASSERTs (1e300 also through
  // sim::millis's UB double->int64 cast), and a negative topology size
  // wrapped to a huge size_t.
  struct Case {
    std::vector<std::pair<std::string, std::string>> subst;
    const char* field;
    bool node;  // rebeca-node reads the field too
  };
  const Case cases[] = {
      {{{"period", "0"}}, "every_ms", true},
      {{{"period", "-5"}}, "every_ms", true},
      {{{"period", "1e300"}}, "every_ms", true},
      {{{"rate", "poisson_ms"}, {"period", "0"}}, "poisson_ms", true},
      {{{"rate", "poisson_ms"}, {"period", "-5"}}, "poisson_ms", true},
      {{{"rate", "poisson_ms"}, {"period", "1e300"}}, "poisson_ms", true},
      {{{"duration", "-1"}}, "duration_ms", true},
      {{{"duration", "1e300"}}, "duration_ms", true},
      {{{"gap", "-150"}}, "gap_ms", true},
      {{{"gap", "1e300"}}, "gap_ms", true},
      {{{"dwell", "-1"}}, "dwell_ms", true},
      {{{"dwell", "1e13"}}, "dwell_ms", true},
      {{{"dwell", "0"}, {"gap", "0"}}, "dwell_ms", true},
      {{{"kind", "chain"}, {"size", "-1"}}, "topology.size", true},
      {{{"depth", "-1"}}, "topology.depth", true},
      {{{"fanout", "-1"}}, "topology.fanout", true},
      {{{"residence", "0"}}, "residence_ms", false},
      {{{"residence", "-5"}}, "residence_ms", false},
      {{{"residence", "1e300"}}, "residence_ms", false},
      {{{"checkpoint", "-5"}}, "checkpoint_every_ms", false},
      {{{"checkpoint", "1e300"}}, "checkpoint_every_ms", false},
      {{{"delta", "0"}}, "delta_ms", false},
      {{{"hop", "-1"}}, "hop_delays_ms", false},
      {{{"width", "-1"}}, "locations.width", false},
  };
  for (const Case& c : cases) {
    const std::string doc = hostile_doc(c.subst);
    SCOPED_TRACE(doc);
    for (const bool node : {false, true}) {
      if (node && !c.node) continue;
      try {
        if (node) {
          (void)cli::parse_node_config(doc);
        } else {
          (void)cli::parse_config(doc);
        }
        ADD_FAILURE() << c.field << ": expected JsonError (node=" << node
                      << ")";
      } catch (const JsonError& e) {
        EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
            << e.what();
      }
    }
  }

  // The in-range bounds still parse, through both loaders alike: zero
  // dwells, phases and checkpoints, and a 1 ns publish period.
  const std::string ok = hostile_doc({{"period", "1e-6"}});
  EXPECT_NO_THROW((void)cli::parse_config(ok));
  const transport::NodeSpec spec = cli::parse_node_config(ok);
  ASSERT_EQ(spec.clients.size(), 3u);
  ASSERT_EQ(spec.clients[0].publishes.size(), 1u);
  EXPECT_EQ(spec.clients[0].publishes[0].every, 1);
  ASSERT_EQ(spec.clients[1].roams.size(), 1u);
  EXPECT_EQ(spec.clients[1].roams[0].dwell, 0);
}

TEST(Config, PhaseListEndingPastTheBoundIsRejectedByBothLoaders) {
  // Each phase is in range, but ten of 1e12 ms would overflow int64
  // nanoseconds: the scenario asserted on advancing into the past.
  std::string phases;
  for (int i = 0; i < 10; ++i) {
    phases += std::string(i ? ", " : "") + R"({"name": "p)" +
              std::to_string(i) + R"(", "duration_ms": 1e12})";
  }
  const std::string doc =
      R"({"clients": [{"name": "c", "id": 1, "broker": 0}], "phases": [)" +
      phases + "]}";
  for (const bool node : {false, true}) {
    try {
      if (node) {
        (void)cli::parse_node_config(doc);
      } else {
        (void)cli::parse_config(doc);
      }
      ADD_FAILURE() << "expected JsonError (node=" << node << ")";
    } catch (const JsonError& e) {
      // The second phase is the first to end past the bound.
      EXPECT_NE(std::string(e.what()).find("phases[1].duration_ms"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("\"p1\""), std::string::npos)
          << e.what();
    }
  }
  // Exactly at the bound still loads.
  EXPECT_NO_THROW((void)cli::parse_config(
      R"({"clients": [{"name": "c", "id": 1, "broker": 0}],
          "phases": [{"name": "a", "duration_ms": 4e11},
                     {"name": "b", "duration_ms": 6e11}]})"));
}

TEST(Config, UnknownPhaseReferencesAreRejectedAtLoad) {
  // A from_phase / until_phase_end naming no phase used to pass the
  // loader and die on the scenario's "known" assertion at run time.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"("publishes": [{"every_ms": 10, "body": {"x": 1},
                         "from_phase": "nosuch"}])",
       "clients[0].publishes[0].from_phase"},
      {R"("publishes": [{"every_ms": 10, "body": {"x": 1},
                         "until_phase_end": "nosuch"}])",
       "clients[0].publishes[0].until_phase_end"},
      {R"("subscribes": [{"x": {"eq": 1}}],
          "roams": [{"route": [0], "from_phase": "nosuch"}])",
       "clients[0].roams[0].from_phase"},
  };
  for (const auto& [client, field] : cases) {
    const std::string doc = R"({"clients": [{"name": "c", "id": 1,
        "broker": 0, )" + client + R"(}],
        "phases": [{"name": "run", "duration_ms": 10}]})";
    SCOPED_TRACE(doc);
    for (const bool node : {false, true}) {
      try {
        if (node) {
          (void)cli::parse_node_config(doc);
        } else {
          (void)cli::parse_config(doc);
        }
        ADD_FAILURE() << field << ": expected JsonError (node=" << node
                      << ")";
      } catch (const JsonError& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("nosuch"), std::string::npos)
            << e.what();
      }
    }
  }
  // Walks are rebeca-run only.
  try {
    (void)cli::parse_config(R"({
      "locations": {"kind": "grid", "width": 2, "height": 2},
      "clients": [{"name": "w", "id": 1, "broker": 0, "starts_at": "g0_0",
                   "walks": [{"route": ["g1_0"], "from_phase": "nosuch"}]}],
      "phases": [{"name": "run", "duration_ms": 10}]})");
    ADD_FAILURE() << "walks: expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("clients[0].walks[0].from_phase"),
              std::string::npos)
        << e.what();
  }
}

TEST(Config, NegativeSweepSettingsAreFieldErrors) {
  // Cast to size_t, a negative runs made rebeca-run die on a bare
  // vector::reserve.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"runs": -1})", "sweep.runs"},
      {R"({"threads": -2})", "sweep.threads"},
      {R"({"base_seed": -3})", "sweep.base_seed"},
      {R"({"seeds": [4, -8]})", "sweep.seeds[1]"},
  };
  for (const auto& [sweep, field] : cases) {
    const std::string doc = R"({
      "clients": [{"name": "c", "id": 1, "broker": 0}],
      "phases": [{"name": "p", "duration_ms": 1}],
      "sweep": )" + sweep + "}";
    SCOPED_TRACE(doc);
    try {
      (void)cli::parse_config(doc);
      ADD_FAILURE() << field << ": expected JsonError";
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-config equivalence with a hand-built declaration
// ---------------------------------------------------------------------------

scenario::ScenarioReport run_declared(
    const scenario::ScenarioSweep::Declare& declare, std::uint64_t seed) {
  scenario::ScenarioBuilder b;
  declare(b);
  b.seed(seed);
  auto s = b.build();
  s->run();
  return s->report();
}

TEST(Config, Fig2ConfigReproducesHandBuiltScenario) {
  const cli::RunSpec spec =
      cli::load_config(std::string(REBECA_SOURCE_DIR) +
                       "/examples/configs/fig2.json");
  ASSERT_FALSE(spec.sweep.resolved_seeds().empty());

  // The same declaration, written in C++ (the original bench body).
  const auto hand_built = [](scenario::ScenarioBuilder& b) {
    b.topology(scenario::TopologySpec::chain(4))
        .routing(routing::Strategy::covering);
    b.client("consumer")
        .with_id(1)
        .at_broker(3)
        .relocation(client::RelocationMode::rebeca)
        .dedup(false)
        .subscribes(filter::Filter().where("sym", filter::Constraint::eq("X")));
    b.client("producer")
        .with_id(2)
        .at_broker(0)
        .publishes(scenario::PublishSpec()
                       .every(sim::millis(10))
                       .body(filter::Notification().set("sym", "X"))
                       .from_phase("before")
                       .until_phase_end("after"));
    b.phase("settle", sim::seconds(1));
    b.phase("before", sim::seconds(2));
    b.phase("gap", sim::millis(200),
            [](scenario::Scenario& s) { s.detach("consumer"); });
    b.phase("after", sim::seconds(2),
            [](scenario::Scenario& s) { s.connect("consumer", 1); });
    b.phase("drain", sim::seconds(2));
  };

  const std::uint64_t seed = spec.sweep.resolved_seeds().front();
  const scenario::ScenarioReport from_config = run_declared(spec.declare, seed);
  const scenario::ScenarioReport from_code = run_declared(hand_built, seed);

  EXPECT_EQ(from_config.to_string(), from_code.to_string())
      << "config-declared scenario diverged from the C++ declaration";
  // And it reproduces fig2's protocol row: exactly-once delivery.
  EXPECT_GT(from_config.published, 0u);
  EXPECT_EQ(from_config.missing, 0u);
  EXPECT_EQ(from_config.duplicates, 0u);
  EXPECT_EQ(from_config.delivered, from_config.published);
}

TEST(Config, CheckedInExampleConfigsLoadAndDeclare) {
  for (const char* name :
       {"fig2.json", "fig2_naive.json", "fig3_blackout.json",
        "relocation_latency.json", "roaming_tour.json"}) {
    SCOPED_TRACE(name);
    const cli::RunSpec spec = cli::load_config(
        std::string(REBECA_SOURCE_DIR) + "/examples/configs/" + name);
    EXPECT_FALSE(spec.name.empty());
    EXPECT_GE(spec.sweep.resolved_seeds().size(), 1u);
    // Declaring into a fresh builder and building must succeed.
    scenario::ScenarioBuilder b;
    spec.declare(b);
    b.seed(1);
    EXPECT_NE(b.build(), nullptr);
  }
}

TEST(Config, OnEnterActionsDrive) {
  // publish / subscribe / connect / detach actions from JSON drive a
  // live scenario.
  const std::string doc = R"({
    "topology": {"kind": "chain", "size": 2},
    "clients": [
      {"name": "consumer", "id": 1, "broker": 1},
      {"name": "producer", "id": 2, "broker": 0}
    ],
    "phases": [
      {"name": "sub", "duration_ms": 200, "on_enter": [
        {"action": "subscribe", "client": "consumer", "filter": {"sym": "X"}}
      ]},
      {"name": "pub", "duration_ms": 200, "on_enter": [
        {"action": "publish", "client": "producer", "body": {"sym": "X", "px": 5}},
        {"action": "publish", "client": "producer", "body": {"sym": "Y"}}
      ]}
    ]
  })";
  const cli::RunSpec spec = cli::parse_config(doc);
  const scenario::ScenarioReport r = run_declared(spec.declare, 1);
  EXPECT_EQ(r.published, 2u);
  EXPECT_EQ(r.client("consumer").delivered, 1u);  // "Y" does not match
}

TEST(Config, SweepSettingsRoundTrip) {
  const cli::RunSpec spec = cli::parse_config(R"({
    "clients": [{"name": "c", "id": 1, "broker": 0}],
    "phases": [{"name": "p", "duration_ms": 1}],
    "sweep": {"seeds": [4, 8], "threads": 3}
  })");
  EXPECT_EQ(spec.sweep.resolved_seeds(), (std::vector<std::uint64_t>{4, 8}));
  EXPECT_EQ(spec.sweep.threads, 3u);
}

TEST(Config, ShardsExpectAndCheckpointsRoundTrip) {
  const cli::RunSpec spec = cli::parse_config(R"({
    "topology": {"kind": "chain", "size": 4},
    "shards": 2,
    "checkpoint_every_ms": 400,
    "clients": [
      {"name": "consumer", "id": 1, "broker": 3,
       "subscribes": [{"sym": {"eq": "X"}}]},
      {"name": "producer", "id": 2, "broker": 0,
       "publishes": [{"every_ms": 10, "body": {"sym": "X"},
                      "from_phase": "traffic",
                      "until_phase_end": "traffic"}]}
    ],
    "phases": [
      {"name": "settle", "duration_ms": 400},
      {"name": "traffic", "duration_ms": 800},
      {"name": "drain", "duration_ms": 800}
    ],
    "expect": {"exactly_once": ["consumer"], "fifo": ["consumer"]}
  })");
  EXPECT_EQ(spec.sweep.shards, 2u);

  // The declaration carries checkpoints + expectations into every run.
  scenario::ScenarioBuilder b;
  spec.declare(b);
  b.seed(9);
  b.shards(spec.sweep.shards);
  auto s = b.build();
  EXPECT_EQ(s->shard_count(), 2u);
  s->run();
  const scenario::ScenarioReport r = s->report();
  EXPECT_TRUE(r.expectations_ok()) << r.to_string();
  EXPECT_TRUE(r.client("consumer").fifo_checked);
  // 2s of phases at 400ms -> checkpoints at 0.4 .. 2.0s.
  ASSERT_EQ(r.checkpoints.size(), 5u);
  EXPECT_EQ(r.checkpoints.back().at, sim::millis(2000));
  EXPECT_GT(r.checkpoints.back().counters.total(),
            r.checkpoints.front().counters.total());
}

}  // namespace
}  // namespace rebeca
