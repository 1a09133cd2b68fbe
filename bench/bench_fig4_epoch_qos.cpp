// Reproduces paper Fig. 4: the epoch-based QoS definition for logical
// mobility — "on change of location from y to z, all notifications
// should be delivered to the consumer *as if* flooding were used".
//
// Each scenario carries *two* consumers walking identically (same walk
// seed): one under the uncertainty profile being evaluated, one under
// flooding + client-side filtering — the reference semantics. A sweep
// probe diffs their delivered multisets per seed, so the columns are
// mean ± 95% CI over stochastic seeds, matching fig2/fig3.
//
//   bench_fig4_epoch_qos [runs] [threads]
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <sstream>

#include "bench/bench_args.hpp"
#include "src/scenario/sweep.hpp"

using namespace rebeca;

namespace {

scenario::ScenarioSweep::Declare declare(
    const location::UncertaintyProfile& profile, sim::Duration delta) {
  return [profile, delta](scenario::ScenarioBuilder& b) {
    b.topology(scenario::TopologySpec::chain(4));
    b.locations(scenario::LocationSpec::grid(5, 5));
    b.broker_link_delay(sim::DelayModel::uniform(sim::millis(3), sim::millis(7)));
    b.client_link_delay(
        sim::DelayModel::uniform(sim::micros(500), sim::micros(1500)));

    const auto walker = [&](const char* name, std::uint32_t id,
                            const location::UncertaintyProfile& p) {
      location::LdSpec spec;
      spec.vicinity_radius = 1;
      spec.profile = p;
      // Identical walk seeds: the two consumers trace the same route at
      // the same instants, so their delivered sets are comparable.
      b.client(name)
          .with_id(id)
          .at_broker(0)
          .starts_at("g0_0")
          .subscribes(spec)
          .walks(scenario::WalkSpec()
                     .residing(delta)
                     .moves(20)
                     .with_seed(99)
                     .from_phase("move"));
    };
    walker("ld", 1, profile);
    walker("ref", 2, location::UncertaintyProfile::flooding());

    b.client("producer")
        .with_id(3)
        .at_broker(3)
        .publishes(scenario::PublishSpec()
                       .every(sim::millis(7))
                       .body(filter::Notification().set("service", "s"))
                       .uniform_locations()
                       .count(600)
                       .from_phase("move"));

    b.phase("settle", sim::seconds(1));
    b.phase("move", delta * 25);
    b.phase("drain", sim::seconds(5));
  };
}

/// Delivered-notification multiset of one scenario client.
std::multiset<std::uint64_t> delivered_ids(scenario::Scenario& s,
                                           const std::string& name) {
  std::multiset<std::uint64_t> ids;
  for (const auto& d : s.client(name).deliveries()) {
    ids.insert(d.notification.id().value());
  }
  return ids;
}

void epoch_probe(scenario::Scenario& s, std::map<std::string, double>& m) {
  const auto ld = delivered_ids(s, "ld");
  const auto ref = delivered_ids(s, "ref");
  std::size_t missing = 0;
  for (auto id : ref) {
    if (ld.count(id) < ref.count(id)) ++missing;
  }
  std::size_t extra = 0;
  for (auto id : ld) {
    if (ref.count(id) < ld.count(id)) ++extra;
  }
  m["epoch_missing"] = static_cast<double>(missing);
  m["epoch_extra"] = static_cast<double>(extra);
}

std::string cell(const scenario::SweepResult& r, const char* metric) {
  return r.stats(metric).mean_ci();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args(argc, argv, "[runs] [threads]", 2);
  scenario::SweepConfig cfg;
  cfg.base_seed = 3;
  cfg.runs = args.count(0, 5);     // seeds per data point
  cfg.threads = args.count(1, 0);  // 0: one per core

  std::cout << "Fig. 4: epoch QoS — location-dependent delivery vs. the "
               "flooding reference walking the identical route\n(mean ± 95% CI "
            << "over " << cfg.runs << " seeds, stochastic link delays)\n\n";
  std::cout << std::left << std::setw(16) << "profile" << std::setw(12)
            << "delta (ms)" << std::right << std::setw(16) << "LD recv"
            << std::setw(16) << "flood recv" << std::setw(14) << "missing"
            << std::setw(14) << "extra" << "\n";

  struct Case {
    const char* name;
    location::UncertaintyProfile profile;
    double delta_ms;
  };
  const Case cases[] = {
      {"global-resub", location::UncertaintyProfile::global_resub(), 400.0},
      {"global-resub", location::UncertaintyProfile::global_resub(), 150.0},
      {"adaptive", location::UncertaintyProfile::adaptive(
                       sim::millis(400), {sim::millis(12), sim::millis(10),
                                          sim::millis(10)}),
       400.0},
      {"flooding", location::UncertaintyProfile::flooding(), 100.0},
  };

  for (const auto& c : cases) {
    scenario::ScenarioSweep sweep(declare(c.profile, sim::millis(c.delta_ms)));
    sweep.probe(epoch_probe);
    const scenario::SweepResult r = sweep.run(cfg);
    std::cout << std::left << std::setw(16) << c.name << std::setw(12)
              << c.delta_ms << std::right << std::setw(16)
              << cell(r, "client.ld.delivered") << std::setw(16)
              << cell(r, "client.ref.delivered") << std::setw(14)
              << cell(r, "epoch_missing") << std::setw(14)
              << cell(r, "epoch_extra") << "\n";
  }

  std::cout << "\nexpected shape: with a sufficient uncertainty horizon the "
               "LD run delivers exactly the flooding reference (missing = "
               "extra = 0 ±0); only if the client outruns the horizon do "
               "epochs go missing (the paper's starvation caveat).\n";
  return 0;
}
