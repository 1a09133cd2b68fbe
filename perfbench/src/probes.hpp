// Per-layer probes: calls into the routing, filter, location and
// transport layers made from outside, on the workload's own inputs and
// on the settled broker tables. Every call is wrapped in a span; the
// per-layer metrics are computed from those spans.
#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/plan.hpp"
#include "perfbench/src/trace.hpp"
#include "src/scenario/scenario.hpp"

namespace perfbench {

struct RoutingReplay {
  /// (broker, link) targets recomputed, and how many equal forwarded_to.
  std::size_t targets = 0;
  std::size_t agree = 0;
  std::vector<std::string> mismatches;  // the first few, for the log
  std::uint64_t inputs = 0;             // summed over targets
  /// MatchIndex replay of sampled publications along the routing tree.
  std::uint64_t match_queries = 0;
  std::uint64_t match_hits = 0;
  std::uint64_t match_useful = 0;

  [[nodiscard]] double agree_ratio() const {
    return targets == 0 ? 0.0 : static_cast<double>(agree) / static_cast<double>(targets);
  }
};

/// Recomputes every broker's per-link forward set from outside — link k
/// joins topology().edges()[k]; the inputs are the neighbours'
/// forwarded_to plus the broker's local static subscriptions — and
/// compares it with forwarded_to. Also times diff_forward_sets,
/// covered_by and plan_moveout on the same tables, and routes sampled
/// publications through per-broker MatchIndex replicas. Call on a
/// quiescent scenario whose clients are all at their home brokers.
[[nodiscard]] RoutingReplay replay_routing(scenario::Scenario& s, const Plan& plan,
                                           Tracer& tracer);

/// Filter::matches / covers / operator< on the plan's filters and
/// notifications.
void probe_filters(const Plan& plan, Tracer& tracer);

/// LocationGraph::ploc and constraint_for on a fresh (unmemoized) copy
/// of the plan's grid — the walk grid when the plan has none — at the
/// radii its location-dependent subscriptions use.
void probe_locations(const Plan& plan, Tracer& tracer);

/// Wire codec over the plan's message mix (publish, deliver and
/// subscribe messages); returns encoded bytes per message.
[[nodiscard]] double probe_wire(const Plan& plan, Tracer& tracer);

/// Messages per second through one loopback TCP session (encode, frame,
/// socket, reader thread, decode), sending the plan's publications.
[[nodiscard]] double probe_session(const Plan& plan, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_HPP
