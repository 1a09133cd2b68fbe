// Reproduces paper Fig. 9: "Total number of messages generated for
// flooding and two scenarios of the new algorithm (Δ = 1 s and
// Δ = 10 s)", cumulative over time, log-scale y.
//
// Part 1 keeps the analytic model at paper scale (100 brokers, 200
// locations, 1000 notifications/s aggregate). Part 2 is the simulator
// cross-check, ported off the old single-seed hand-wired run onto
// ScenarioSweep + checkpoint counter series: each curve is one
// declaration (flooding / LD Δ=1s / LD Δ=10s) with
// checkpoint_every(2s), swept over N seeds under stochastic link
// delays; the printed rows are the cumulative total-message counts at
// every checkpoint as mean ± 95% CI, matching fig2–fig5. Pass
// --csv-series as the last argument to dump the per-class cumulative
// series (SweepResult::csv_series) for each curve instead of the
// summary table.
//
//   bench_fig9_message_counts [runs] [threads] [--csv-series]
#include <cmath>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_args.hpp"
#include "src/analysis/fig9_model.hpp"
#include "src/scenario/sweep.hpp"

using namespace rebeca;

namespace {

analysis::MessageModel paper_scale_model(const net::Topology& topo,
                                         const location::LocationGraph& graph,
                                         std::vector<std::size_t> producers,
                                         sim::Duration delta) {
  analysis::Fig9Config cfg;
  cfg.topology = &topo;
  cfg.consumer_broker = 0;
  cfg.producer_brokers = std::move(producers);
  cfg.locations = &graph;
  cfg.profile = location::UncertaintyProfile::global_resub();
  cfg.vicinity_radius = 0;
  cfg.publish_rate_hz = 1000.0;
  cfg.delta = delta;
  return analysis::build_message_model(cfg);
}

// ---- part 2: the swept simulation ----

constexpr double kHorizonSec = 20.0;
constexpr sim::Duration kCheckpoint = sim::seconds(2);

/// One fig9 curve: flooding, or the new algorithm at residence `delta`.
scenario::ScenarioSweep::Declare declare(bool flooding, sim::Duration delta) {
  return [flooding, delta](scenario::ScenarioBuilder& b) {
    b.topology(scenario::TopologySpec::balanced_tree(2, 4));  // 21 brokers
    b.locations(scenario::LocationSpec::grid(8, 8));
    b.routing(flooding ? routing::Strategy::flooding
                       : routing::Strategy::covering);
    b.broker_link_delay(sim::DelayModel::uniform(sim::millis(3), sim::millis(7)));
    b.client_link_delay(
        sim::DelayModel::uniform(sim::micros(500), sim::micros(1500)));
    b.checkpoint_every(kCheckpoint);

    auto& consumer =
        b.client("consumer").with_id(1).at_broker(0).starts_at("g0_0");
    if (flooding) {
      consumer.subscribes(filter::Filter());  // everything; filter at client
    } else {
      location::LdSpec spec;
      spec.profile = location::UncertaintyProfile::global_resub();
      consumer.subscribes(spec);
    }
    consumer.walks(scenario::WalkSpec().residing(delta).from_phase("traffic"));

    // Three producers publishing uniformly over the locations, ~100
    // notifications/s aggregate (the admin-dominated regime the paper's
    // plot shows).
    const std::size_t producer_brokers[] = {20, 10, 6};
    std::uint32_t id = 10;
    for (std::size_t broker : producer_brokers) {
      b.client("producer" + std::to_string(id))
          .with_id(id)
          .at_broker(broker)
          .publishes(scenario::PublishSpec()
                         .every(sim::millis(30))
                         .body(filter::Notification().set("service", "s"))
                         .uniform_locations()
                         .from_phase("traffic"));
      ++id;
    }

    b.phase("traffic", sim::seconds(kHorizonSec));
  };
}

/// Mean ± 95% CI of the cumulative total message count at checkpoint k,
/// computed over the per-seed reports (seed order, deterministic) with
/// the sweep module's canonical statistics.
std::string total_at(const scenario::SweepResult& r, std::size_t k) {
  std::vector<double> xs;
  for (const auto& report : r.reports) {
    if (k < report.checkpoints.size()) {
      xs.push_back(static_cast<double>(report.checkpoints[k].counters.total()));
    }
  }
  if (xs.empty()) return "-";
  return scenario::stats_over(xs).mean_ci(0);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args(argc, argv, "[runs] [threads] [--csv-series]", 2,
                              {"--csv-series"});
  const std::size_t runs = args.count(0, 4);     // seeds per data point
  const std::size_t threads = args.count(1, 0);  // 0: one per core
  const bool csv_series = args.flag("--csv-series");

  std::cout << "Fig. 9: total messages — flooding vs. the new algorithm\n\n";

  // ---- part 1: analytic model at paper scale ----
  sim::Simulation scratch(41);
  auto topo = net::Topology::random_tree(100, scratch.rng());
  auto graph = location::LocationGraph::grid(20, 10);  // 200 locations
  std::vector<std::size_t> producers;
  for (std::size_t b = 3; b < 100; b += 3) producers.push_back(b);

  const auto model1 = paper_scale_model(topo, graph, producers, sim::seconds(1));
  const auto model10 = paper_scale_model(topo, graph, producers, sim::seconds(10));

  std::cout << "part 1 — analytic, 100 brokers / 200 locations / "
               "1000 notifications/s aggregate / 32 producers:\n\n";
  std::cout << std::left << std::setw(8) << "t (s)" << std::right
            << std::setw(14) << "flooding" << std::setw(16) << "new, D=1s"
            << std::setw(16) << "new, D=10s" << std::setw(12) << "saving"
            << "\n";
  for (double t : {10.0, 20.0, 40.0, 60.0, 80.0, 100.0}) {
    const double fl = model1.flooding_total(t);
    const double n1 = model1.newalg_total(t);
    const double n10 = model10.newalg_total(t);
    std::cout << std::left << std::setw(8) << t << std::right << std::fixed
              << std::setprecision(0) << std::setw(14) << fl << std::setw(16)
              << n1 << std::setw(16) << n10 << std::setw(11)
              << std::setprecision(1) << fl / n1 << "x\n";
  }
  std::cout << std::setprecision(2)
            << "\nper-notification hops: flooding "
            << model1.flooding_per_notification << ", new algorithm "
            << model1.newalg_per_notification
            << "; admin messages per move: " << model1.newalg_admin_per_move
            << "\n\n";

  // ---- part 2: swept simulator curves at reduced scale ----
  scenario::SweepConfig cfg;
  cfg.base_seed = 11;
  cfg.runs = runs;
  cfg.threads = threads;

  struct Curve {
    const char* name;
    bool flooding;
    sim::Duration delta;
  };
  const Curve curves[] = {
      {"flooding", true, sim::seconds(1)},
      {"new, D=1s", false, sim::seconds(1)},
      {"new, D=10s", false, sim::seconds(10)},
  };

  std::cout << "part 2 — simulated, 21 brokers / 64 locations / ~100 "
               "notifications/s / " << kHorizonSec << " s horizon\n(cumulative "
               "total messages at each checkpoint, mean ± 95% CI over "
            << cfg.runs << " seeds):\n\n";

  std::vector<scenario::SweepResult> results;
  for (const auto& c : curves) {
    scenario::ScenarioSweep sweep(declare(c.flooding, c.delta));
    results.push_back(sweep.run(cfg));
  }

  if (csv_series) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::cout << "# " << curves[i].name << "\n"
                << results[i].csv_series() << "\n";
    }
    return 0;
  }

  const std::size_t checkpoints =
      static_cast<std::size_t>(kHorizonSec / sim::to_seconds(kCheckpoint));
  std::cout << std::left << std::setw(8) << "t (s)";
  for (const auto& c : curves) std::cout << std::right << std::setw(18) << c.name;
  std::cout << "\n";
  for (std::size_t k = 0; k < checkpoints; ++k) {
    std::cout << std::left << std::setw(8)
              << sim::to_seconds(kCheckpoint) * static_cast<double>(k + 1);
    for (const auto& r : results) {
      std::cout << std::right << std::setw(18) << total_at(r, k);
    }
    std::cout << "\n";
  }

  // ---- part 3: analytic-model cross-check against the swept simulator ----
  // The same closed-form model, instantiated at the part-2 scenario's
  // scale, predicted against the sweep means: this is the only place
  // analysis::build_message_model is validated against the simulator.
  auto sim_topo = net::Topology::balanced_tree(2, 4);
  auto sim_graph = location::LocationGraph::grid(8, 8);
  analysis::Fig9Config vcfg;
  vcfg.topology = &sim_topo;
  vcfg.consumer_broker = 0;
  vcfg.producer_brokers = {20, 10, 6};
  vcfg.locations = &sim_graph;
  vcfg.profile = location::UncertaintyProfile::global_resub();
  vcfg.publish_rate_hz = 100.0;
  vcfg.delta = sim::seconds(1);
  const auto vmodel = analysis::build_message_model(vcfg);

  const auto mean_of = [](const scenario::SweepResult& r, auto&& metric) {
    std::vector<double> xs;
    for (const auto& report : r.reports) xs.push_back(metric(report));
    return scenario::stats_over(xs).mean;
  };
  const auto check_row = [](const char* label, double simulated, double model) {
    std::cout << std::left << std::setw(24) << label << std::right << std::fixed
              << std::setprecision(0) << std::setw(12) << simulated
              << std::setw(12) << model << std::setw(9) << std::setprecision(1)
              << 100.0 * std::abs(simulated - model) / std::max(model, 1.0)
              << "%\n";
  };

  std::cout << "\npart 3 — model cross-check (sweep means vs. the analytic "
               "model at part-2 scale):\n\n";
  std::cout << std::left << std::setw(24) << "" << std::right << std::setw(12)
            << "simulated" << std::setw(12) << "model" << std::setw(10)
            << "error" << "\n";
  const auto& flood = results[0];
  const auto& newalg = results[1];  // D = 1s
  check_row("flooding notifications",
            mean_of(flood,
                    [](const scenario::ScenarioReport& r) {
                      return static_cast<double>(
                          r.messages.count(metrics::MessageClass::notification) +
                          r.messages.count(metrics::MessageClass::delivery));
                    }),
            vmodel.flooding_per_notification *
                mean_of(flood, [](const scenario::ScenarioReport& r) {
                  return static_cast<double>(r.published);
                }));
  // The walker paces one move per Δ, so moves ≈ horizon / Δ.
  check_row("new alg admin",
            mean_of(newalg,
                    [](const scenario::ScenarioReport& r) {
                      return static_cast<double>(
                          r.messages.count(metrics::MessageClass::location_update));
                    }),
            vmodel.newalg_admin_per_move *
                (kHorizonSec / sim::to_seconds(sim::seconds(1))));

  std::cout << "\nexpected shape: flooding well above both new-algorithm "
               "curves at every checkpoint; D=10s at or below D=1s (fewer "
               "location updates); all three cumulative curves near-linear "
               "in t; the model within ~15% of the simulator on both "
               "cross-check rows.\n";
  return 0;
}
