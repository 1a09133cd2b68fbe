// Reproduces paper Fig. 2: "Missing notifications in a flooding
// scenario" — the naive unsub/resub approach to roaming loses
// notifications (break-before-make gaps) and duplicates them
// (make-before-break overlaps), even under flooding. The Sec. 4
// relocation protocol shows 0/0 on the identical workload.
//
// Each row is one scenario declaration (relocation style × disconnection
// gap) swept over N seeds with stochastic link delays; the columns are
// mean ± 95%-CI over the sweep, straight out of the ScenarioReport's
// completeness tracking.
//
//   bench_fig2_naive_relocation [runs] [threads]
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench/bench_args.hpp"
#include "src/scenario/sweep.hpp"

using namespace rebeca;

namespace {

scenario::ScenarioSweep::Declare declare(client::RelocationMode mode,
                                         bool overlap, double gap_ms,
                                         routing::Strategy strategy) {
  return [mode, overlap, gap_ms, strategy](scenario::ScenarioBuilder& b) {
    b.topology(scenario::TopologySpec::chain(4)).routing(strategy);
    // Stochastic link delays: the sweep dimension. Each seed draws its
    // own delay realization, so the aggregate has real spread.
    b.broker_link_delay(sim::DelayModel::uniform(sim::millis(3), sim::millis(7)));
    b.client_link_delay(
        sim::DelayModel::uniform(sim::micros(500), sim::micros(1500)));

    b.client("consumer")
        .with_id(1)
        .at_broker(3)
        .relocation(mode)
        .dedup(false)  // count duplicates honestly at the application
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
    if (overlap) {
      // Make-before-break: attach at broker 1 while still attached at 3,
      // then cut both and re-attach cleanly.
      b.phase("overlap", sim::millis(gap_ms),
              [](scenario::Scenario& s) { s.connect("consumer", 1); });
      b.phase("after", sim::seconds(2), [](scenario::Scenario& s) {
        s.detach("consumer");  // cuts both links
        s.connect("consumer", 1);
      });
    } else {
      b.phase("gap", sim::millis(gap_ms),
              [](scenario::Scenario& s) { s.detach("consumer"); });
      b.phase("after", sim::seconds(2),
              [](scenario::Scenario& s) { s.connect("consumer", 1); });
    }
    b.phase("drain", sim::seconds(2));
  };
}

void report_row(const char* label, const scenario::SweepResult& r) {
  const auto cell = [&](const char* metric) {
    return r.stats(metric).mean_ci();
  };
  std::cout << std::left << std::setw(44) << label << std::right
            << std::setw(14) << cell("client.producer.published")
            << std::setw(15) << cell("client.consumer.delivered")
            << std::setw(14) << cell("client.consumer.missing")
            << std::setw(15) << cell("client.consumer.duplicates") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args(argc, argv, "[runs] [threads]", 2);
  scenario::SweepConfig cfg;
  cfg.base_seed = 17;
  cfg.runs = args.count(0, 5);     // seeds per data point
  cfg.threads = args.count(1, 0);  // 0: one per core

  std::cout << "Fig. 2: naive relocation loses and duplicates notifications\n"
            << "(100 notifications/s; client roams broker 3 -> broker 1;\n"
            << " mean ± 95% CI over " << cfg.runs
            << " seeds, stochastic link delays)\n\n";
  std::cout << std::left << std::setw(44) << "scenario" << std::right
            << std::setw(14) << "published" << std::setw(15) << "delivered"
            << std::setw(14) << "missing" << std::setw(15) << "duplicates"
            << "\n";

  for (double gap : {50.0, 200.0, 1000.0}) {
    scenario::ScenarioSweep sweep(declare(client::RelocationMode::naive, false,
                                          gap, routing::Strategy::flooding));
    std::ostringstream label;
    label << "naive resub, flooding, gap " << gap << " ms";
    report_row(label.str().c_str(), sweep.run(cfg));
  }
  {
    scenario::ScenarioSweep sweep(declare(client::RelocationMode::naive, true,
                                          200.0, routing::Strategy::flooding));
    report_row("naive overlap (make-before-break), flooding", sweep.run(cfg));
  }
  for (double gap : {50.0, 200.0, 1000.0}) {
    scenario::ScenarioSweep sweep(declare(client::RelocationMode::rebeca, false,
                                          gap, routing::Strategy::covering));
    std::ostringstream label;
    label << "Sec. 4 relocation protocol, gap " << gap << " ms";
    report_row(label.str().c_str(), sweep.run(cfg));
  }

  std::cout << "\nexpected shape: naive rows lose (gap x rate + blackout) "
               "notifications, the overlap row duplicates, the protocol rows "
               "deliver everything exactly once (0 ±0 / 0 ±0).\n";
  return 0;
}
