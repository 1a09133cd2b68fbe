// Reproduces paper Table 4: ploc under the adaptive rule with the
// concrete timing values of Sec. 5.3 — Δ = 100 ms and per-hop
// subscription-processing delays δ = (120, 50, 50, 20) ms.
//
// Expected (paper): rows t=1 and t=2 are the 1-step sets, row t=3 is the
// full set — one level of buffering inserted between B1/B2 and another
// between B3/B4; the uncertainty steps are q = (0, 1, 1, 2, 2).
//
// Part 1 prints the analytic table and checks the q vector. Part 2 is
// the simulation cross-check on ScenarioSweep: an LD consumer
// random-walks Fig. 7 over a 4-broker chain with the adaptive profile
// installed; a sweep probe reads the realized installed location-set
// widths per hop (mean ± 95% CI over seeds), which must match the
// analytic widths of the q_i balls.
//
//   bench_table4_adaptive [runs] [threads]
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "bench/bench_args.hpp"
#include "src/location/ld_spec.hpp"
#include "src/location/location_graph.hpp"
#include "src/location/profile.hpp"
#include "src/scenario/sweep.hpp"

using namespace rebeca;

namespace {

constexpr std::size_t kBrokers = 4;  // chain B0..B3: hops carry F1..F4

std::string set_to_string(const location::LocationGraph& g,
                          const location::LocationSet& s) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (auto id : s) {
    if (!first) os << ",";
    os << g.name(id);
    first = false;
  }
  os << "}";
  return os.str();
}

location::UncertaintyProfile paper_profile() {
  return location::UncertaintyProfile::adaptive(
      sim::millis(100),
      {sim::millis(120), sim::millis(50), sim::millis(50), sim::millis(20)});
}

void declare(scenario::ScenarioBuilder& b) {
  b.topology(scenario::TopologySpec::chain(kBrokers));
  b.locations(scenario::LocationSpec::paper_fig7());
  b.broker_link_delay(sim::DelayModel::uniform(sim::millis(2), sim::millis(6)));
  b.client_link_delay(
      sim::DelayModel::uniform(sim::micros(500), sim::micros(1500)));

  location::LdSpec spec;
  spec.profile = paper_profile();
  b.client("consumer")
      .with_id(1)
      .at_broker(0)
      .starts_at("a")
      .subscribes(spec)
      .walks(scenario::WalkSpec()
                 .residing(sim::millis(200))
                 .moves(20)
                 .from_phase("walk"));

  b.client("producer")
      .with_id(2)
      .at_broker(kBrokers - 1)
      .publishes(scenario::PublishSpec()
                     .every(sim::millis(20))
                     .body(filter::Notification().set("service", "s"))
                     .uniform_locations()
                     .count(250)
                     .from_phase("walk"));

  b.phase("settle", sim::seconds(1));
  b.phase("walk", sim::seconds(5));
  b.phase("drain", sim::seconds(2));
}

/// Realized ploc widths: broker i-1 holds filter F_i of Fig. 6.
void ball_probe(scenario::Scenario& s, std::map<std::string, double>& m) {
  const SubKey key{ClientId(1), 1};
  for (std::size_t i = 0; i < kBrokers; ++i) {
    auto set = s.overlay().broker(i).ld_concrete_set(key);
    m["ploc_hop" + std::to_string(i + 1)] =
        set.has_value() ? static_cast<double>(set->size()) : 0.0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args(argc, argv, "[runs] [threads]", 2);
  const std::size_t runs = args.count(0, 8);     // seeds per data point
  const std::size_t threads = args.count(1, 0);  // 0: one per core

  auto g = location::LocationGraph::paper_fig7();
  auto profile = paper_profile();
  location::LdSpec spec;
  spec.profile = profile;

  // ---- part 1: the paper's exact analytic table ----
  std::cout << "Table 4 part 1 — analytic: ploc(x,t) under the adaptive "
               "rule, " << profile.to_string() << "\n";
  std::cout << std::left << std::setw(4) << "t";
  for (const char* x : {"a", "b", "c", "d"}) {
    std::cout << std::setw(12) << (std::string("x = ") + x);
  }
  std::cout << "\n";
  for (std::size_t t = 0; t <= 3; ++t) {
    std::cout << std::left << std::setw(4) << t;
    for (const char* x : {"a", "b", "c", "d"}) {
      std::cout << std::setw(12)
                << set_to_string(g, spec.concrete_set(g, g.id_of(x), t));
    }
    std::cout << "\n";
  }

  std::cout << "\nuncertainty steps q_i: ";
  for (std::size_t i = 0; i <= 4; ++i) {
    std::cout << "q_" << i << "=" << profile.steps(i) << " ";
  }
  std::cout << "\npaper check: q = (0, 1, 1, 2, 2) "
            << (profile.steps(0) == 0 && profile.steps(1) == 1 &&
                        profile.steps(2) == 1 && profile.steps(3) == 2 &&
                        profile.steps(4) == 2
                    ? "OK"
                    : "MISMATCH")
            << "\n\n";

  // ---- part 2: simulation cross-check, swept over stochastic seeds ----
  scenario::SweepConfig cfg;
  cfg.base_seed = 4;
  cfg.runs = runs;
  cfg.threads = threads;

  scenario::ScenarioSweep sweep(declare);
  sweep.probe(ball_probe);
  const scenario::SweepResult r = sweep.run(cfg);

  std::cout << "Table 4 part 2 — simulated: LD consumer random-walking "
               "Fig. 7 over a " << kBrokers
            << "-broker chain, adaptive profile\n(realized installed "
               "location-set sizes per hop, mean ± 95% CI over "
            << cfg.runs << " seeds)\n\n";
  std::cout << std::left << std::setw(10) << "hop i" << std::right
            << std::setw(14) << "|ploc| at B_i" << std::setw(16)
            << "analytic width" << "\n";
  for (std::size_t i = 1; i <= kBrokers; ++i) {
    // Width of the q_i ball; location-independent on Fig. 7.
    const std::size_t analytic = spec.concrete_set(g, g.id_of("a"), i).size();
    std::cout << std::left << std::setw(10) << i << std::right << std::setw(14)
              << r.stats("ploc_hop" + std::to_string(i)).mean_ci()
              << std::setw(16) << analytic << "\n";
  }
  std::cout << "\nreading: buffering pushes hops 1-2 down to the 1-step "
               "ball and hops 3-4 to the 2-step (= full) set — the q = "
               "(0, 1, 1, 2, 2) structure realized in the live network; "
               "delivery completeness rides on these sets ("
            << r.stats("client.consumer.delivered").mean_ci() << " delivered, "
            << r.stats("client.consumer.filtered").mean_ci()
            << " client-side filtered per seed).\n";
  return 0;
}
