// Runs a Plan through the public scenario surface: ScenarioBuilder,
// Scenario::run_next_phase / report, and exec()-scheduled client calls
// (publish, move_to, connect, detach) that replay the plan's inputs.
#ifndef PERFBENCH_SIM_RUN_HPP
#define PERFBENCH_SIM_RUN_HPP

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/plan.hpp"
#include "perfbench/src/trace.hpp"
#include "src/scenario/scenario.hpp"

namespace perfbench {

/// Broker gauges summed over all brokers, by metric suffix
/// ("routing_entries", "virtuals", ...).
using Gauges = std::map<std::string, double>;
[[nodiscard]] Gauges broker_gauges(broker::Overlay& overlay);

struct SimResult {
  // CPU seconds of this process in each step. The simulation is
  // single-threaded, so this is its wall time on a core of its own: it
  // leaves out the time a shared host ran something else on that core.
  double build_s = 0;
  double settle_s = 0;
  double traffic_s = 0;
  double drain_s = 0;
  double report_s = 0;
  /// Wall seconds of the traffic phase (the sharded engine runs threads).
  double traffic_wall_s = 0;
  scenario::ScenarioReport report;
  std::string report_text;
  Gauges at_settle;
  Gauges at_end;
  /// Link messages sent during the traffic phase.
  std::uint64_t traffic_messages = 0;
  /// Per re-attach of a roamer: virtual ms from re-attach to delivery of
  /// its first notification published while it was dark.
  std::vector<double> reloc_gap_ms;

  [[nodiscard]] double setup_s() const { return build_s + settle_s; }
  [[nodiscard]] double run_s() const { return traffic_s + drain_s + report_s; }
};

/// Called once the settle phase has ended, outside every timed step.
using SettleHook = std::function<void(scenario::Scenario&)>;

/// Builds the plan's scenario (`shards` = 0: the classic kernel), runs
/// settle / traffic / drain and the report.
[[nodiscard]] SimResult run_sim(const Plan& plan, Tracer& tracer,
                                std::size_t shards = 0,
                                const SettleHook& after_settle = nullptr);

/// CPU seconds of build() plus the settle phase alone.
[[nodiscard]] double settle_seconds(const Plan& plan);

}  // namespace perfbench

#endif  // PERFBENCH_SIM_RUN_HPP
