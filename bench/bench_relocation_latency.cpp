// Ablation A2 (paper Sec. 3.2 "Responsiveness"): relocation latency and
// replay size as functions of topology depth and disconnection duration.
//
// Latency is measured from the reconnect instant to the first delivery
// of a backlogged notification at the new border broker. Each point is
// one scenario declaration (the disconnect and the far-end reconnect are
// phase-entry callbacks) swept over N seeds with stochastic broker-hop
// delays; completeness comes from the report, the latency from a sweep
// probe.
//
//   bench_relocation_latency [runs] [threads]
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>

#include "bench/bench_args.hpp"
#include "src/scenario/sweep.hpp"

using namespace rebeca;

namespace {

scenario::ScenarioSweep::Declare declare(std::size_t chain_length,
                                         double gap_sec) {
  return [chain_length, gap_sec](scenario::ScenarioBuilder& b) {
    b.topology(scenario::TopologySpec::chain(chain_length));
    b.broker_link_delay(sim::DelayModel::uniform(sim::millis(3), sim::millis(7)));

    b.client("consumer")
        .with_id(1)
        .at_broker(chain_length - 1)
        .subscribes(filter::Filter().where("sym", filter::Constraint::eq("X")));
    b.client("producer")
        .with_id(2)
        .at_broker(0)
        .publishes(scenario::PublishSpec()
                       .every(sim::millis(20))
                       .body(filter::Notification().set("sym", "X"))
                       .from_phase("traffic")
                       .until_phase_end("recover"));

    b.phase("settle", sim::seconds(1));
    b.phase("traffic", sim::seconds(1));
    b.phase("dark", sim::seconds(gap_sec),
            [](scenario::Scenario& s) { s.detach("consumer"); });
    b.phase("recover", sim::seconds(10),
            [](scenario::Scenario& s) { s.connect("consumer", 0); });
    b.phase("drain", sim::seconds(1));
  };
}

// The reconnect happens at the entry of "recover": settle + traffic + gap.
scenario::ScenarioSweep::Probe latency_probe(double gap_sec) {
  return [gap_sec](scenario::Scenario& s,
                   std::map<std::string, double>& metrics) {
    const sim::TimePoint reconnect_at =
        sim::seconds(1) + sim::seconds(1) + sim::seconds(gap_sec);
    // NaN when nothing arrived post-reconnect: the run drops out of the
    // aggregate (visible in n) instead of skewing the mean.
    double latency_ms = std::numeric_limits<double>::quiet_NaN();
    for (const client::Delivery& d : s.client("consumer").deliveries()) {
      if (d.delivered_at >= reconnect_at) {
        latency_ms = sim::to_millis(d.delivered_at - reconnect_at);
        break;
      }
    }
    metrics["reloc_latency_ms"] = latency_ms;
  };
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args(argc, argv, "[runs] [threads]", 2);
  scenario::SweepConfig cfg;
  cfg.base_seed = 7;
  cfg.runs = args.count(0, 5);     // seeds per data point
  cfg.threads = args.count(1, 0);  // 0: one per core

  std::cout << "A2: relocation responsiveness vs. topology depth and "
               "disconnection gap\n(50 notifications/s backlog; client moves "
               "to the opposite end of the chain;\nmean ± 95% CI over "
            << cfg.runs << " seeds)\n\n";
  std::cout << std::left << std::setw(10) << "brokers" << std::setw(12)
            << "gap (s)" << std::right << std::setw(24) << "reloc latency (ms)"
            << std::setw(18) << "backlog (~#)" << std::setw(14) << "complete"
            << "\n";
  for (std::size_t chain : {3u, 5u, 8u, 12u}) {
    for (double gap : {0.2, 1.0, 5.0}) {
      scenario::ScenarioSweep sweep(declare(chain, gap));
      sweep.probe(latency_probe(gap));
      const scenario::SweepResult r = sweep.run(cfg);
      const scenario::MetricStats lat = r.stats("reloc_latency_ms");
      const scenario::MetricStats missing = r.stats("missing");
      const scenario::MetricStats dups = r.stats("duplicates");
      const bool complete = missing.max == 0 && dups.max == 0;
      std::ostringstream lat_cell;
      lat_cell << std::fixed << std::setprecision(1) << lat.mean << " ±"
               << lat.ci95;
      std::cout << std::left << std::setw(10) << chain << std::setw(12) << gap
                << std::right << std::setw(24) << lat_cell.str()
                << std::setw(18)
                << static_cast<std::size_t>(gap * 50.0)  // nominal 50/s
                << std::setw(14) << (complete ? "yes" : "NO") << "\n";
    }
  }
  std::cout << "\nexpected shape: latency grows linearly with the broker "
               "path (the fetch/replay round trip), is independent of the "
               "gap length, and every row is complete (exactly-once across "
               "all seeds).\n";
  return 0;
}
