// Sharded intra-scenario execution: wall-clock scaling on a big overlay.
//
// One Scenario used to be single-threaded no matter how many cores the
// host had; sweeps only parallelized *across* seeds. This bench runs the
// identical declaration — a 13-broker tree under heavy content-routing
// load — through the sharded engine at shard counts 1, 2 and 4, timing
// the same ScenarioSweep each time, and verifies the acceptance
// contract on the way: the per-seed reports and the aggregate table must
// be byte-identical at every shard count.
//
//   bench_sharded_scaling [runs] [traffic_seconds]
#include <chrono>
#include <iomanip>
#include <iostream>
#include <string>

#include "bench/bench_args.hpp"
#include "src/scenario/sweep.hpp"

using namespace rebeca;

namespace {

scenario::ScenarioSweep::Declare declare(double traffic_seconds) {
  return [traffic_seconds](scenario::ScenarioBuilder& b) {
    // 13 brokers: root, 3 inner, 9 leaves. Fixed delays keep the
    // lookahead at a full 5ms so windows stay fat.
    b.topology(scenario::TopologySpec::balanced_tree(2, 3));
    b.routing(routing::Strategy::covering);
    b.broker_link_delay(sim::DelayModel::fixed(sim::millis(5)));
    b.client_link_delay(sim::DelayModel::fixed(sim::millis(5)));

    // One consumer per leaf broker, each with a selective filter: most
    // routing work is matching that *fails* at inner brokers — the
    // broker-plane load sharding parallelizes.
    const char* syms[] = {"A", "B", "C"};
    for (std::size_t leaf = 0; leaf < 9; ++leaf) {
      b.client("consumer" + std::to_string(leaf))
          .with_id(static_cast<std::uint32_t>(10 + leaf))
          .at_broker(4 + leaf)
          .subscribes(filter::Filter()
                          .where("sym", filter::Constraint::eq(syms[leaf % 3]))
                          .where("px", filter::Constraint::range(
                                           static_cast<std::int64_t>(leaf * 10),
                                           static_cast<std::int64_t>(leaf * 10 + 200))));
    }
    for (std::size_t p = 0; p < 4; ++p) {
      b.client("producer" + std::to_string(p))
          .with_id(static_cast<std::uint32_t>(1 + p))
          .at_broker(p)  // root + the three inner brokers
          .publishes(scenario::PublishSpec()
                         .every(sim::micros(500))
                         .body(filter::Notification()
                                   .set("sym", syms[p % 3])
                                   .set("px", static_cast<std::int64_t>(p * 40)))
                         .from_phase("traffic")
                         .until_phase_end("traffic"));
    }
    b.phase("settle", sim::millis(500));
    b.phase("traffic", sim::seconds(traffic_seconds));
    b.phase("drain", sim::seconds(1));
  };
}

struct Timed {
  scenario::SweepResult result;
  double wall_ms = 0;
};

Timed run(const scenario::ScenarioSweep& sweep, scenario::SweepConfig cfg,
          std::size_t shards) {
  cfg.shards = shards;
  const auto t0 = std::chrono::steady_clock::now();
  Timed t{sweep.run(cfg), 0};
  t.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args(argc, argv, "[runs] [traffic_seconds]", 2);
  scenario::SweepConfig cfg;
  cfg.base_seed = 7;
  cfg.runs = args.count(0, 2);
  const double traffic = args.real(1, 8.0);  // virtual seconds of load
  cfg.threads = 1;  // serialize runs: the bench isolates intra-run scaling

  scenario::ScenarioSweep sweep(declare(traffic));

  std::cout << "sharded scaling: 13-broker tree, 4 producers x 2k msg/s, "
               "9 selective consumers, " << cfg.runs << " seed(s), "
            << traffic << "s of traffic\n\n";
  std::cout << std::left << std::setw(10) << "shards" << std::setw(14)
            << "wall (ms)" << "speedup vs shards=1\n";

  const Timed base = run(sweep, cfg, 1);
  std::cout << std::left << std::setw(10) << 1 << std::setw(14) << std::fixed
            << std::setprecision(0) << base.wall_ms << "1.00x\n";

  bool identical = true;
  for (std::size_t shards : {2u, 4u}) {
    const Timed t = run(sweep, cfg, shards);
    std::cout << std::left << std::setw(10) << shards << std::setw(14)
              << std::fixed << std::setprecision(0) << t.wall_ms
              << std::setprecision(2) << base.wall_ms / t.wall_ms << "x\n";
    if (t.result.table() != base.result.table()) {
      identical = false;
      std::cout << "  !! aggregate table diverged from shards=1\n";
    }
    for (std::size_t i = 0; i < t.result.reports.size(); ++i) {
      if (t.result.reports[i].to_string() != base.result.reports[i].to_string()) {
        identical = false;
        std::cout << "  !! per-seed report " << i << " diverged\n";
      }
    }
  }

  std::cout << "\ndeterminism: per-seed reports "
            << (identical ? "byte-identical across shard counts"
                          : "DIVERGED — contract broken")
            << "\n";
  std::cout << "\nexpected shape: wall-clock drops as shards rise (the "
               "broker plane parallelizes; the client plane and window "
               "barriers bound the speedup), with identical reports.\n";
  return identical ? 0 : 1;
}
