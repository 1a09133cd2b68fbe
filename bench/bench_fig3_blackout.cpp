// Reproduces paper Fig. 3: the blackout period after subscribing.
//
//  (a) simple/covering routing: a fresh subscription needs ~t_d to reach
//      the producers and the first matching notification needs ~t_d to
//      travel back — a blackout of ≈ 2·t_d.
//  (b) flooding with client-side filtering: notifications are already
//      everywhere; the first delivery arrives almost immediately.
//
// The bench sweeps the broker-chain length (t_d grows with the path);
// each point is one scenario declaration swept over N seeds with
// stochastic broker-hop delays, reported as mean ± 95% CI. The probe
// subscription is issued by a phase-entry callback mid-stream, and the
// blackout is measured per run by a sweep probe.
//
//   bench_fig3_blackout [runs] [threads]
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>

#include "bench/bench_args.hpp"
#include "src/scenario/sweep.hpp"

using namespace rebeca;

namespace {

// The probe subscribes at the entry of phase "probe": settle + traffic.
constexpr sim::TimePoint kSubscribeTime = sim::seconds(1) + sim::millis(500);

scenario::ScenarioSweep::Declare declare(std::size_t chain,
                                         routing::Strategy strategy) {
  return [chain, strategy](scenario::ScenarioBuilder& b) {
    b.topology(scenario::TopologySpec::chain(chain)).routing(strategy);
    // Mean 5 ms per broker hop, jittered per seed: the sweep averages
    // over delay realizations instead of trusting one fixed draw.
    b.broker_link_delay(sim::DelayModel::uniform(sim::millis(3), sim::millis(7)));

    b.client("producer")
        .with_id(2)
        .at_broker(chain - 1)
        .publishes(scenario::PublishSpec()
                       .every(sim::millis(1))  // dense probe
                       .body(filter::Notification().set("sym", "X"))
                       .from_phase("traffic")
                       .until_phase_end("probe"));
    b.client("consumer").with_id(1).at_broker(0);

    b.phase("settle", sim::seconds(1));
    b.phase("traffic", sim::millis(500));
    // The probe: subscribe mid-stream and measure how long until the
    // first matching notification reaches the application.
    b.phase("probe", sim::seconds(2), [](scenario::Scenario& s) {
      s.client("consumer").subscribe(
          filter::Filter().where("sym", filter::Constraint::eq("X")));
    });
  };
}

void blackout_probe(scenario::Scenario& s,
                    std::map<std::string, double>& metrics) {
  const auto rep = metrics::analyze_blackout(s.client("consumer").deliveries(),
                                             kSubscribeTime);
  // No delivery after the subscribe: NaN, so the run drops out of the
  // aggregate (visible in n) instead of skewing the mean.
  metrics["blackout_ms"] = rep.any_delivery
                               ? sim::to_millis(rep.first_delivered_offset)
                               : std::numeric_limits<double>::quiet_NaN();
}

std::string cell(const scenario::SweepResult& r) {
  const scenario::MetricStats s = r.stats("blackout_ms");
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << s.mean << " ±" << s.ci95;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args(argc, argv, "[runs] [threads]", 2);
  scenario::SweepConfig cfg;
  cfg.base_seed = 5;
  cfg.runs = args.count(0, 5);     // seeds per data point
  cfg.threads = args.count(1, 0);  // 0: one per core

  std::cout << "Fig. 3: blackout after subscribing (5 ms mean broker hops, "
               "1 ms client links;\nmean ± 95% CI over "
            << cfg.runs << " seeds)\n\n";
  std::cout << std::left << std::setw(10) << "brokers" << std::setw(12)
            << "t_d (ms)" << std::setw(26) << "routed: blackout (ms)"
            << std::setw(26) << "flooding: blackout (ms)" << "\n";

  for (std::size_t chain : {2, 4, 6, 8, 10}) {
    // One-way delay: producer client link + broker hops + consumer link.
    const double td = 1.0 + 5.0 * static_cast<double>(chain - 1) + 1.0;
    scenario::ScenarioSweep routed(declare(chain, routing::Strategy::covering));
    routed.probe(blackout_probe);
    scenario::ScenarioSweep flooded(declare(chain, routing::Strategy::flooding));
    flooded.probe(blackout_probe);
    std::cout << std::left << std::setw(10) << chain << std::setw(12) << td
              << std::setw(26) << cell(routed.run(cfg)) << std::setw(26)
              << cell(flooded.run(cfg)) << "\n";
  }

  std::cout << "\nexpected shape (paper Fig. 3): routed blackout tracks "
               "2*t_d; flooding delivers after ~t_d (the notification that "
               "was already in flight), i.e. no subscription blackout.\n";
  return 0;
}
