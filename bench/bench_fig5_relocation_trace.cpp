// Reproduces paper Fig. 5: the relocation protocol on the moving-client
// scenario — one producer (left half of the figure) and two producers
// (right half). The client disconnects at leaf 3, misses publications
// while dark, reconnects at leaf 4, and the middleware fetches and
// replays the virtual counterpart's buffer through the junction
// (broker 1).
//
// Once a hand-wired single-seed trace, now a ScenarioSweep: each variant
// is one declaration swept over N seeds under stochastic link delays,
// with a probe reading the relocation counters off broker 3. Columns are
// mean ± 95% CI, matching fig2/fig3. The declaration also carries
// expect_exactly_once("consumer"), so every seed's report re-checks the
// protocol's headline guarantee.
//
//   bench_fig5_relocation_trace [runs] [threads]
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>

#include "bench/bench_args.hpp"
#include "src/scenario/sweep.hpp"

using namespace rebeca;

namespace {

filter::Notification stock(int px) {
  return filter::Notification().set("sym", "X").set("px", px);
}

scenario::ScenarioSweep::Declare declare(bool two_producers) {
  return [two_producers](scenario::ScenarioBuilder& b) {
    // Tree:       0
    //            __|__
    //           1     2
    //          _|_   _|_
    //         3   4 5   6
    // Client starts at leaf 3, moves to leaf 4; producers publish from 5
    // (and 6). The junction for the move is broker 1.
    b.topology(scenario::TopologySpec::balanced_tree(2, 2));
    broker::BrokerConfig bc;
    bc.use_advertisements = true;
    b.broker(bc);
    b.broker_link_delay(sim::DelayModel::uniform(sim::millis(3), sim::millis(7)));
    b.client_link_delay(
        sim::DelayModel::uniform(sim::micros(500), sim::micros(1500)));

    b.client("consumer")
        .with_id(1)
        .at_broker(3)
        .subscribes(filter::Filter().where("sym", filter::Constraint::eq("X")));
    b.client("p1").with_id(2).at_broker(5).advertises(
        filter::Filter().where("sym", filter::Constraint::any()));
    if (two_producers) {
      b.client("p2").with_id(3).at_broker(6).advertises(
          filter::Filter().where("sym", filter::Constraint::any()));
    }
    b.expect_exactly_once("consumer");

    // Per-run price counter (the declaration is invoked once per seed).
    auto px = std::make_shared<int>(0);
    const auto publish_all = [two_producers, px](scenario::Scenario& s) {
      s.client("p1").publish(stock(++*px));
      if (two_producers) s.client("p2").publish(stock(++*px));
    };

    // The figure's timeline, step by step (durations leave room for the
    // stochastic delays to settle).
    b.phase("settle", sim::seconds(1));
    b.phase("step1_publish", sim::millis(200), publish_all);
    b.phase("step2_disconnect", sim::millis(200),
            [](scenario::Scenario& s) { s.detach("consumer"); });
    b.phase("step2_buffering", sim::millis(200), publish_all);
    b.phase("step3_reconnect", sim::millis(500),
            [](scenario::Scenario& s) { s.connect("consumer", 4); });
    b.phase("step6_live", sim::seconds(1), publish_all);
    b.phase("drain", sim::seconds(1));
  };
}

void relocation_probe(scenario::Scenario& s, std::map<std::string, double>& m) {
  m["replayed_at_old_border"] =
      static_cast<double>(s.overlay().broker(3).replayed_notifications());
  m["virtuals_left_at_old_border"] =
      static_cast<double>(s.overlay().broker(3).virtual_count());
}

std::string cell(const scenario::SweepResult& r, const char* metric) {
  return r.stats(metric).mean_ci();
}

void report_row(const char* label, const scenario::SweepResult& r) {
  std::cout << std::left << std::setw(26) << label << std::right
            << std::setw(13) << cell(r, "client.p1.published")
            << std::setw(14) << cell(r, "client.consumer.delivered")
            << std::setw(13) << cell(r, "client.consumer.missing")
            << std::setw(13) << cell(r, "client.consumer.duplicates")
            << std::setw(13) << cell(r, "replayed_at_old_border")
            << std::setw(13) << cell(r, "virtuals_left_at_old_border") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args(argc, argv, "[runs] [threads]", 2);
  scenario::SweepConfig cfg;
  cfg.base_seed = 3;
  cfg.runs = args.count(0, 8);     // seeds per data point
  cfg.threads = args.count(1, 0);  // 0: one per core

  std::cout << "Fig. 5: relocation walkthrough (junction at broker 1; "
               "mean ± 95% CI over " << cfg.runs
            << " seeds, stochastic link delays)\n\n";
  std::cout << std::left << std::setw(26) << "scenario" << std::right
            << std::setw(13) << "published" << std::setw(14) << "delivered"
            << std::setw(13) << "missing" << std::setw(13) << "duplicates"
            << std::setw(13) << "replayed" << std::setw(13) << "virt left"
            << "\n";

  for (const bool two : {false, true}) {
    scenario::ScenarioSweep sweep(declare(two));
    sweep.probe(relocation_probe);
    report_row(two ? "Fig. 5 right: 2 producers" : "Fig. 5 left: 1 producer",
               sweep.run(cfg));
  }

  std::cout << "\nexpected shape: every published notification delivered "
               "exactly once (missing = duplicates = 0 ±0) in both variants; "
               "the dark-phase publications are replayed from broker 3's "
               "virtual counterpart, which is then garbage-collected "
               "(virt left = 0 ±0). Each seed's report also re-checks "
               "expect_exactly_once(consumer).\n";
  return 0;
}
