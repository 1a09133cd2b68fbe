// Location-dependent subscriptions in a live broker network (paper
// Sec. 5): per-hop filter instantiation (Table 2), the location-update
// stop rule, delivery correctness against a flooding reference, and the
// starvation regime the paper concedes (Sec. 6).
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "tests/scenario_world.hpp"
#include "src/util/str_cat.hpp"

namespace rebeca {
namespace {

using broker::OverlayConfig;
using client::Client;
using client::ClientConfig;
using filter::Constraint;
using filter::Filter;
using filter::Notification;
using location::LdSpec;
using location::LocationGraph;
using location::UncertaintyProfile;
using scenario::TopologySpec;

struct World : testutil::World {
  World(scenario::TopologySpec topo, const LocationGraph* locations,
        OverlayConfig cfg = {}, std::uint64_t seed = 1)
      : testutil::World(std::move(topo), std::move(cfg), seed, locations) {}
};

Notification parking_at(const std::string& loc) {
  return Notification().set("service", "parking").set("location", loc);
}

LdSpec parking_spec(UncertaintyProfile profile, std::uint32_t radius = 0) {
  LdSpec spec;
  spec.base = Filter().where("service", Constraint::eq("parking"));
  spec.vicinity_radius = radius;
  spec.profile = std::move(profile);
  return spec;
}

std::vector<std::string> set_names(const LocationGraph& g,
                                   const location::LocationSet& s) {
  std::vector<std::string> out;
  for (auto id : s) out.push_back(g.name(id));
  return out;
}

using Names = std::vector<std::string>;

// ---------------------------------------------------------------------------
// Paper Table 2: filters along the chain as the client moves a → b → d.
// ---------------------------------------------------------------------------

TEST(LdRouting, PaperTable2FilterEvolution) {
  // Fig. 6 setting: consumer — B1 — B2 — B3 — producer, movement graph
  // of Fig. 7, and the Table 1/2 profile where F_1 has one step of
  // uncertainty and F_2, F_3 saturate.
  auto graph = LocationGraph::paper_fig7();
  World w(TopologySpec::chain(3), &graph);

  ClientConfig cc;
  cc.locations = &graph;
  Client& consumer = w.add_client(1, 0, cc);
  consumer.move_to("a");

  // F_i = ploc(x, i): exactly Table 1's rows as hop profile.
  auto spec = parking_spec(UncertaintyProfile::explicit_steps({0, 1, 2, 2}));
  const auto sub = consumer.subscribe(spec);
  const SubKey key{ClientId(1), sub};
  w.settle();

  // t=0, at a (Table 2 row 0): F1={a,b,c} at the border broker (hop 1),
  // F2=F3={a,b,c,d} upstream.
  EXPECT_EQ(set_names(graph, *w.overlay.broker(0).ld_concrete_set(key)),
            (Names{"a", "b", "c"}));
  EXPECT_EQ(set_names(graph, *w.overlay.broker(1).ld_concrete_set(key)),
            (Names{"a", "b", "c", "d"}));
  EXPECT_EQ(set_names(graph, *w.overlay.broker(2).ld_concrete_set(key)),
            (Names{"a", "b", "c", "d"}));

  // t=1: move to b (Table 2 row 1): F1={a,b,d}.
  consumer.move_to("b");
  w.settle();
  EXPECT_EQ(set_names(graph, *w.overlay.broker(0).ld_concrete_set(key)),
            (Names{"a", "b", "d"}));
  EXPECT_EQ(set_names(graph, *w.overlay.broker(1).ld_concrete_set(key)),
            (Names{"a", "b", "c", "d"}));

  // t=2: move to d (Table 2 row 2): F1={b,c,d}.
  consumer.move_to("d");
  w.settle();
  EXPECT_EQ(set_names(graph, *w.overlay.broker(0).ld_concrete_set(key)),
            (Names{"b", "c", "d"}));
  EXPECT_EQ(set_names(graph, *w.overlay.broker(1).ld_concrete_set(key)),
            (Names{"a", "b", "c", "d"}));
}

TEST(LdRouting, MoveStopsAtSaturatedBrokers) {
  // On the Fig. 7 graph, hops >= 2 hold the full location set; a move
  // must not generate location updates past the first unchanged hop
  // (the "restricted flooding" savings).
  auto graph = LocationGraph::paper_fig7();
  World w(TopologySpec::chain(5), &graph);
  ClientConfig cc;
  cc.locations = &graph;
  Client& consumer = w.add_client(1, 0, cc);
  consumer.move_to("a");
  consumer.subscribe(parking_spec(UncertaintyProfile::explicit_steps({0, 1, 2})));
  w.settle();

  const auto updates_before =
      w.overlay.counters().count(metrics::MessageClass::location_update);
  consumer.move_to("b");
  w.settle();
  const auto updates =
      w.overlay.counters().count(metrics::MessageClass::location_update) -
      updates_before;
  // client→border (1) + border→B1 (1); B1's set is already {a,b,c,d} and
  // stays, so nothing travels to B2, B3, B4.
  EXPECT_EQ(updates, 2u);
}

TEST(LdRouting, GlobalResubProfileUpdatesEveryHop) {
  // With the trivial profile every hop's set changes on (almost) every
  // move, so updates travel the whole chain.
  auto graph = LocationGraph::line(12);
  World w(TopologySpec::chain(5), &graph);
  ClientConfig cc;
  cc.locations = &graph;
  Client& consumer = w.add_client(1, 0, cc);
  consumer.move_to("l5");
  consumer.subscribe(parking_spec(UncertaintyProfile::global_resub()));
  w.settle();

  const auto before =
      w.overlay.counters().count(metrics::MessageClass::location_update);
  consumer.move_to("l6");
  w.settle();
  const auto updates =
      w.overlay.counters().count(metrics::MessageClass::location_update) - before;
  EXPECT_EQ(updates, 5u);  // client link + all 4 broker links
}

// ---------------------------------------------------------------------------
// Delivery semantics
// ---------------------------------------------------------------------------

TEST(LdRouting, DeliversOnlyCurrentVicinity) {
  auto graph = LocationGraph::line(10);
  World w(TopologySpec::chain(3), &graph);
  ClientConfig cc;
  cc.locations = &graph;
  Client& consumer = w.add_client(1, 0, cc);
  Client& producer = w.add_client(2, 2);
  consumer.move_to("l2");
  consumer.subscribe(parking_spec(UncertaintyProfile::global_resub(),
                                  /*radius=*/1));
  w.settle();

  producer.publish(parking_at("l2"));  // in vicinity
  producer.publish(parking_at("l3"));  // adjacent: in vicinity (radius 1)
  producer.publish(parking_at("l4"));  // in F_1's lookahead, not in F_0
  producer.publish(parking_at("l7"));  // far away: dropped upstream
  w.settle();

  ASSERT_EQ(consumer.deliveries().size(), 2u);
  // l4 reached the client (inside the border's widened set) and was
  // stopped by the perfect client-side filter F_0; l7 never made it.
  EXPECT_EQ(consumer.filtered_count(), 1u);
}

TEST(LdRouting, ClientSideFilterTracksInstantaneousLocation) {
  // The border's F_1 includes one step of lookahead, so notifications
  // for the *next* location are already flowing; the client-side F_0
  // admits them the moment the client actually moves (the paper's
  // "frictionless" handover, Sec. 3.3).
  auto graph = LocationGraph::line(6);
  World w(TopologySpec::chain(2), &graph);
  ClientConfig cc;
  cc.locations = &graph;
  Client& consumer = w.add_client(1, 0, cc);
  Client& producer = w.add_client(2, 1);
  consumer.move_to("l1");
  consumer.subscribe(parking_spec(UncertaintyProfile::global_resub()));
  w.settle();

  producer.publish(parking_at("l2"));  // next door: forwarded, filtered at F_0
  w.settle();
  EXPECT_TRUE(consumer.deliveries().empty());
  EXPECT_EQ(consumer.filtered_count(), 1u);

  consumer.move_to("l2");
  producer.publish(parking_at("l2"));
  w.settle();
  ASSERT_EQ(consumer.deliveries().size(), 1u);
}

TEST(LdRouting, UnsubscribeCleansTransitState) {
  auto graph = LocationGraph::paper_fig7();
  World w(TopologySpec::chain(4), &graph);
  ClientConfig cc;
  cc.locations = &graph;
  Client& consumer = w.add_client(1, 0, cc);
  consumer.move_to("a");
  auto sub = consumer.subscribe(parking_spec(UncertaintyProfile::global_resub()));
  w.settle();
  EXPECT_EQ(w.overlay.broker(1).ld_transit_count(), 1u);
  EXPECT_EQ(w.overlay.broker(3).ld_transit_count(), 1u);

  consumer.unsubscribe(sub);
  w.settle();
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(w.overlay.broker(b).ld_transit_count(), 0u) << "broker " << b;
  }
}

// ---------------------------------------------------------------------------
// Equivalence with flooding (paper Fig. 4 epoch semantics)
// ---------------------------------------------------------------------------

struct EquivParam {
  std::size_t profile_kind;  // 0: global_resub, 1: flooding, 2: adaptive
  std::uint64_t seed;
};

class LdEquivalence : public ::testing::TestWithParam<EquivParam> {};

UncertaintyProfile make_profile(std::size_t kind) {
  switch (kind) {
    case 0: return UncertaintyProfile::global_resub();
    case 1: return UncertaintyProfile::flooding();
    default:
      return UncertaintyProfile::adaptive(
          sim::millis(400), {sim::millis(12), sim::millis(10), sim::millis(10)});
  }
}

/// Runs the same deterministic workload (random walk + periodic
/// publishing to random locations) either with an LD subscription or
/// with a flooding-style full subscription filtered client-side, and
/// returns the set of delivered notification ids.
std::multiset<std::uint64_t> run_workload(bool ld_mode, std::size_t profile_kind,
                                          std::uint64_t seed) {
  auto graph = LocationGraph::grid(4, 4);
  OverlayConfig cfg;
  World w(TopologySpec::chain(4), &graph, cfg, seed);
  ClientConfig cc;
  cc.locations = &graph;
  Client& consumer = w.add_client(1, 0, cc);
  Client& producer = w.add_client(2, 3);
  consumer.move_to("g0_0");

  if (ld_mode) {
    consumer.subscribe(parking_spec(make_profile(profile_kind), 1));
  } else {
    // Flooding reference: subscribe to everything, rely on F_0.
    LdSpec everything = parking_spec(UncertaintyProfile::flooding(), 1);
    consumer.subscribe(everything);
  }
  w.settle();

  // Deterministic workload derived from the seed, NOT from the
  // simulation RNG (which the two modes consume differently).
  util::Rng wl(seed * 7919);
  // Random walk: move every 400ms. Publishing: every 15ms somewhere.
  std::vector<LocationId> walk;
  LocationId at = graph.id_of("g0_0");
  for (int i = 0; i < 12; ++i) {
    const auto& nbrs = graph.neighbors(at);
    at = nbrs[wl.index(nbrs.size())];
    walk.push_back(at);
  }
  for (std::size_t i = 0; i < walk.size(); ++i) {
    w.sim.schedule_after(sim::millis(400.0 * static_cast<double>(i + 1)),
                         [&consumer, loc = walk[i]] { consumer.move_to(loc); });
  }
  for (int i = 0; i < 350; ++i) {
    const auto where = graph.name(LocationId(static_cast<std::uint32_t>(
        wl.index(graph.size()))));
    w.sim.schedule_after(sim::millis(15.0 * i + 3.0),
                         [&producer, where] { producer.publish(parking_at(where)); });
  }
  w.settle(8.0);

  std::multiset<std::uint64_t> ids;
  for (const auto& d : consumer.deliveries()) {
    ids.insert(d.notification.id().value());
  }
  return ids;
}

TEST_P(LdEquivalence, MatchesFloodingReference) {
  const auto p = GetParam();
  const auto ld = run_workload(true, p.profile_kind, p.seed);
  const auto flooding = run_workload(false, p.profile_kind, p.seed);
  EXPECT_EQ(ld, flooding)
      << "LD delivered " << ld.size() << ", flooding reference "
      << flooding.size();
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesAndSeeds, LdEquivalence,
    ::testing::Values(EquivParam{0, 1}, EquivParam{0, 2}, EquivParam{0, 3},
                      EquivParam{1, 1}, EquivParam{1, 4}, EquivParam{2, 1},
                      EquivParam{2, 5}, EquivParam{2, 6}),
    [](const auto& info) {
      const char* kind = info.param.profile_kind == 0   ? "resub"
                         : info.param.profile_kind == 1 ? "flood"
                                                        : "adaptive";
      return util::str_cat(kind, "_seed", info.param.seed);
    });

TEST(LdStarvation, TooFastClientMissesNotifications) {
  // Paper Sec. 6: "if a client is just too fast for the infrastructure
  // to adapt", notifications go missing. A zero-lookahead profile with
  // fast movement demonstrates the regime.
  auto graph = LocationGraph::line(20);
  World w(TopologySpec::chain(4), &graph);
  ClientConfig cc;
  cc.locations = &graph;
  Client& consumer = w.add_client(1, 0, cc);
  Client& producer = w.add_client(2, 3);
  consumer.move_to("l0");
  // Exact sets everywhere: every move causes a full blackout window.
  consumer.subscribe(parking_spec(UncertaintyProfile::explicit_steps({0})));
  w.settle();

  // Sprint along the line, publishing at the consumer's location.
  for (int i = 1; i < 16; ++i) {
    w.sim.schedule_after(sim::millis(20.0 * i), [&, i] {
      consumer.move_to(util::str_cat("l", i));
    });
    w.sim.schedule_after(sim::millis(20.0 * i + 10.0), [&, i] {
      producer.publish(parking_at(util::str_cat("l", i)));
    });
  }
  w.settle(5.0);
  // The subscription updates lag the sprint: most location-targeted
  // notifications are missed (starvation), exactly as the paper warns.
  EXPECT_LT(consumer.deliveries().size(), 8u);
}

}  // namespace
}  // namespace rebeca
