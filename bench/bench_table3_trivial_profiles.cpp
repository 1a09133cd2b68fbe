// Reproduces paper Table 3: ploc instantiations of the two trivial
// schemes — global sub/unsub (top) and flooding with client-side
// filtering (bottom) — on the Fig. 7 movement graph, demonstrating that
// both are instances of the ploc abstraction (paper Sec. 5.2/5.3).
//
// Part 1 prints the analytic tables. Part 2 is the simulation
// cross-check on ScenarioSweep: an LD consumer random-walks the Fig. 7
// graph over a broker chain under each trivial profile, and a sweep
// probe reads the realized installed location-set widths per hop (mean
// ± 95% CI over seeds) — global sub/unsub must realize the 1-step ball
// at every hop, flooding the full location set.
//
//   bench_table3_trivial_profiles [runs] [threads]
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

void print_table(const location::LocationGraph& g,
                 const location::UncertaintyProfile& profile,
                 const std::string& title) {
  location::LdSpec spec;
  spec.profile = profile;
  std::cout << title << "\n";
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
  std::cout << "\n";
}

scenario::ScenarioSweep::Declare declare_with(
    const location::UncertaintyProfile& profile) {
  return [profile](scenario::ScenarioBuilder& b) {
    b.topology(scenario::TopologySpec::chain(kBrokers));
    b.locations(scenario::LocationSpec::paper_fig7());
    b.broker_link_delay(
        sim::DelayModel::uniform(sim::millis(2), sim::millis(6)));
    b.client_link_delay(
        sim::DelayModel::uniform(sim::micros(500), sim::micros(1500)));

    location::LdSpec spec;
    spec.profile = profile;
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
  };
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

void run_swept(const location::LocationGraph& g,
               const location::UncertaintyProfile& profile,
               const std::string& title, const scenario::SweepConfig& cfg) {
  scenario::ScenarioSweep sweep(declare_with(profile));
  sweep.probe(ball_probe);
  const scenario::SweepResult r = sweep.run(cfg);

  location::LdSpec spec;
  spec.profile = profile;
  std::cout << title << " (mean ± 95% CI over " << cfg.runs << " seeds)\n";
  std::cout << std::left << std::setw(10) << "hop i" << std::right
            << std::setw(14) << "|ploc| at B_i" << std::setw(16)
            << "analytic width" << "\n";
  for (std::size_t i = 1; i <= kBrokers; ++i) {
    // The width is location-independent on Fig. 7 for both trivial
    // schemes (every location has degree 2).
    const std::size_t analytic = spec.concrete_set(g, g.id_of("a"), i).size();
    std::cout << std::left << std::setw(10) << i << std::right << std::setw(14)
              << r.stats("ploc_hop" + std::to_string(i)).mean_ci()
              << std::setw(16) << analytic << "\n";
  }
  std::cout << "delivery: " << r.stats("client.consumer.delivered").mean_ci()
            << " delivered, "
            << r.stats("client.consumer.filtered").mean_ci()
            << " client-side filtered per seed\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args(argc, argv, "[runs] [threads]", 2);
  const std::size_t runs = args.count(0, 8);     // seeds per data point
  const std::size_t threads = args.count(1, 0);  // 0: one per core

  auto g = location::LocationGraph::paper_fig7();

  // ---- part 1: the paper's exact analytic tables ----
  std::cout << "Table 3 part 1 — analytic: ploc(x,t) of the two trivial "
               "implementations\n\n";
  print_table(g, location::UncertaintyProfile::global_resub(),
              "(top) global sub/unsub — one step of lookahead everywhere:");
  print_table(g, location::UncertaintyProfile::flooding(),
              "(bottom) flooding with client-side filtering:");

  // ---- part 2: simulation cross-check, swept over stochastic seeds ----
  scenario::SweepConfig cfg;
  cfg.base_seed = 3;
  cfg.runs = runs;
  cfg.threads = threads;

  std::cout << "Table 3 part 2 — simulated: LD consumer random-walking "
               "Fig. 7 over a "
            << kBrokers << "-broker chain\n\n";
  run_swept(g, location::UncertaintyProfile::global_resub(),
            "(top) global sub/unsub — every hop realizes the 1-step ball",
            cfg);
  run_swept(g, location::UncertaintyProfile::flooding(),
            "(bottom) flooding — every hop realizes the full location set",
            cfg);
  return 0;
}
