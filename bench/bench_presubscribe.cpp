// Ablation A6 (extension of paper Sec. 6 future work): the
// pre-subscribe widening for disconnected location-dependent clients.
//
// A consumer walks (offline!) across a line of locations while a
// producer publishes at the consumer's actual position. Sweeps the
// widening interval against the offline walking speed and reports the
// fraction of offline events recovered on reconnection — and what the
// widening costs in extra buffered notifications and admin messages.
#include <iomanip>
#include <iostream>
#include <memory>

#include "bench/bench_args.hpp"
#include "src/broker/overlay.hpp"
#include "src/client/client.hpp"
#include "src/net/topology.hpp"
#include "src/util/str_cat.hpp"

using namespace rebeca;

namespace {

struct Result {
  std::size_t events_offline = 0;
  std::size_t recovered = 0;
  std::uint64_t location_updates = 0;
  std::uint64_t replay_batch = 0;
};

Result run(bool presubscribe, double widen_ms, double step_ms) {
  auto rooms = location::LocationGraph::line(20);
  sim::Simulation sim(3);
  broker::OverlayConfig cfg;
  cfg.broker.locations = &rooms;
  cfg.broker.ld_presubscribe = presubscribe;
  cfg.broker.ld_widen_interval = sim::millis(widen_ms);
  broker::Overlay overlay(sim, net::Topology::chain(4), cfg);

  client::ClientConfig cc;
  cc.id = ClientId(1);
  cc.locations = &rooms;
  client::Client user(sim, cc);
  overlay.connect_client(user, 0);
  user.move_to("l0");
  location::LdSpec spec;
  spec.base = filter::Filter().where("service", filter::Constraint::eq("s"));
  spec.profile = location::UncertaintyProfile::global_resub();
  user.subscribe(spec);

  client::ClientConfig pc;
  pc.id = ClientId(2);
  client::Client producer(sim, pc);
  overlay.connect_client(producer, 3);
  sim.run_until(sim::seconds(1));

  // Offline walk l0 -> l10, publishing at the walker's position.
  user.detach_silently();
  Result r;
  for (int i = 1; i <= 10; ++i) {
    sim.run_until(sim.now() + sim::millis(step_ms));
    user.move_to(util::str_cat("l", i));
    producer.publish(filter::Notification()
                         .set("service", "s")
                         .set("location", util::str_cat("l", i)));
    ++r.events_offline;
  }
  sim.run_until(sim.now() + sim::millis(200));
  overlay.connect_client(user, 2);
  sim.run_until(sim.now() + sim::seconds(5));

  // Recovered = delivered events matching the walker's final vicinity?
  // No: every offline event whose location the user passed and that F_0
  // accepts at delivery (the user ends at l10; with radius 0 only the
  // final-location event survives F_0). To measure the *buffering*
  // capability rather than F_0 strictness, count replayed+delivered plus
  // client-side filtered arrivals.
  r.recovered = user.deliveries().size() + static_cast<std::size_t>(user.filtered_count());
  r.location_updates =
      overlay.counters().count(metrics::MessageClass::location_update);
  r.replay_batch = overlay.counters().count(metrics::MessageClass::replay);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args(argc, argv, "", 0);
  std::cout << "A6: pre-subscribe widening — offline-event recovery\n"
            << "(consumer walks 10 locations while disconnected; producer "
               "publishes at its position)\n\n";
  std::cout << std::left << std::setw(14) << "mode" << std::setw(12)
            << "widen (ms)" << std::setw(12) << "step (ms)" << std::right
            << std::setw(10) << "offline" << std::setw(12) << "recovered"
            << std::setw(12) << "loc msgs" << "\n";

  for (double step : {200.0, 500.0}) {
    {
      const auto r = run(false, 0.0, step);
      std::cout << std::left << std::setw(14) << "baseline" << std::setw(12)
                << "-" << std::setw(12) << step << std::right << std::setw(10)
                << r.events_offline << std::setw(12) << r.recovered
                << std::setw(12) << r.location_updates << "\n";
    }
    for (double widen : {1000.0, 500.0, 200.0}) {
      const auto r = run(true, widen, step);
      std::cout << std::left << std::setw(14) << "pre-subscribe"
                << std::setw(12) << widen << std::setw(12) << step << std::right
                << std::setw(10) << r.events_offline << std::setw(12)
                << r.recovered << std::setw(12) << r.location_updates << "\n";
    }
    std::cout << "\n";
  }

  std::cout << "expected shape: the baseline recovers ~1 event (whatever the "
               "stale ball happened to cover); pre-subscribe recovery grows "
               "as the widening interval shrinks below the walking pace, at "
               "the cost of proportionally more location updates.\n";
  return 0;
}
