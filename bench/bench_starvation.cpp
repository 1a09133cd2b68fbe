// Ablation A3 (paper Sec. 6): starvation when the client outruns the
// infrastructure. Sweeps the client's residence time Δ against the
// uncertainty horizon and reports the delivered fraction relative to the
// flooding reference — showing both the failure regime the paper warns
// about and the adaptive profile's fix.
#include <iomanip>
#include <iostream>
#include <set>

#include "bench/bench_args.hpp"
#include "src/broker/overlay.hpp"
#include "src/client/client.hpp"
#include "src/net/topology.hpp"
#include "src/util/str_cat.hpp"

using namespace rebeca;

namespace {

std::size_t run(const location::UncertaintyProfile& profile, double delta_ms,
                bool flooding_reference) {
  auto graph = location::LocationGraph::line(30);
  sim::Simulation sim(9);
  broker::OverlayConfig cfg;
  cfg.broker.locations = &graph;
  cfg.broker_link_delay = sim::DelayModel::fixed(sim::millis(15));
  broker::Overlay overlay(sim, net::Topology::chain(5), cfg);

  client::ClientConfig cc;
  cc.id = ClientId(1);
  cc.locations = &graph;
  client::Client consumer(sim, cc);
  overlay.connect_client(consumer, 0);
  consumer.move_to("l0");

  location::LdSpec spec;
  spec.vicinity_radius = 1;
  spec.profile =
      flooding_reference ? location::UncertaintyProfile::flooding() : profile;
  consumer.subscribe(spec);

  client::ClientConfig pc;
  pc.id = ClientId(2);
  client::Client producer(sim, pc);
  overlay.connect_client(producer, 4);

  sim.run_until(sim::seconds(1));

  // The client sprints down the line; the producer publishes at the
  // client's upcoming location just before each arrival.
  for (int i = 1; i < 25; ++i) {
    sim.schedule_at(sim::seconds(1) + sim::millis(delta_ms * i),
                    [&consumer, i] { consumer.move_to(util::str_cat("l", i)); });
    sim.schedule_at(sim::seconds(1) + sim::millis(delta_ms * i + delta_ms * 0.5),
                    [&producer, i] {
                      producer.publish(filter::Notification()
                                           .set("service", "s")
                                           .set("location",
                                                util::str_cat("l", i)));
                    });
  }
  sim.run_until(sim::seconds(1) + sim::millis(delta_ms * 30) + sim::seconds(3));
  return consumer.deliveries().size();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args(argc, argv, "", 0);
  std::cout << "A3: starvation — delivered fraction vs. movement speed\n"
            << "(5-broker chain with 15 ms hops; producer targets the "
               "client's location)\n\n";
  std::cout << std::left << std::setw(14) << "delta (ms)" << std::right
            << std::setw(12) << "flooding" << std::setw(12) << "exact(q=0)"
            << std::setw(12) << "resub(q=1)" << std::setw(12) << "adaptive"
            << "\n";

  for (double delta : {1000.0, 300.0, 100.0, 40.0, 15.0}) {
    const auto reference =
        run(location::UncertaintyProfile::flooding(), delta, true);
    const auto exact =
        run(location::UncertaintyProfile::explicit_steps({0}), delta, false);
    const auto resub =
        run(location::UncertaintyProfile::global_resub(), delta, false);
    const auto adaptive = run(
        location::UncertaintyProfile::adaptive(
            sim::millis(delta),
            {sim::millis(4), sim::millis(32), sim::millis(32), sim::millis(32)}),
        delta, false);
    std::cout << std::left << std::setw(14) << delta << std::right
              << std::setw(12) << reference << std::setw(12) << exact
              << std::setw(12) << resub << std::setw(12) << adaptive << "\n";
  }

  std::cout << "\nexpected shape: the exact profile starves as delta shrinks "
               "(the paper's 'client too fast' caveat); one-step lookahead "
               "holds on longer; the adaptive profile widens its horizon "
               "with falling delta and tracks the flooding reference.\n";
  return 0;
}
