// Seeded workload generation.
//
// A Plan is everything one workload feeds the system, drawn from the
// seed before anything runs: the broker tree, every client with its
// filters and attach point, each producer's notification stream with
// its Poisson send times, and every roam and walk step. The same seed
// gives the same Plan; the system under test sees only these inputs.
#ifndef PERFBENCH_PLAN_HPP
#define PERFBENCH_PLAN_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/filter/filter.hpp"
#include "src/location/ld_spec.hpp"
#include "src/sim/time.hpp"

namespace perfbench {

// The benchmark speaks the system's vocabulary (filter::, sim::, ...).
using namespace rebeca;  // NOLINT(google-build-using-namespace)

enum class Workload { fanout, roam, walk, tcp };

[[nodiscard]] const char* workload_name(Workload w);
/// Parses a workload name; nullopt when unknown.
[[nodiscard]] std::optional<Workload> parse_workload(const std::string& name);

/// One timed publication, offset from the start of the traffic phase.
struct Publication {
  sim::Duration at = 0;
  filter::Notification body;
};

/// One physical roam step: detach at `leave`, re-attach at `arrive` to
/// broker `to` (the gap in between is dark).
struct RoamStep {
  sim::Duration leave = 0;
  sim::Duration arrive = 0;
  std::size_t to = 0;
};

/// One logical move: at `at`, move to location (x, y) of the grid.
struct WalkStep {
  sim::Duration at = 0;
  std::size_t x = 0;
  std::size_t y = 0;
};

struct ClientPlan {
  std::string name;
  std::uint32_t id = 0;
  std::size_t broker = 0;
  std::vector<filter::Filter> filters;  // static subscriptions (tracked)
  std::optional<location::LdSpec> ld;   // location-dependent subscription
  std::size_t start_x = 0, start_y = 0;  // walkers' start location
  std::vector<Publication> publications;
  std::vector<RoamStep> roams;
  std::vector<WalkStep> walks;
};

struct Plan {
  Workload workload = Workload::fanout;
  std::uint64_t seed = 1;
  /// Balanced broker tree.
  std::size_t tree_depth = 3;
  std::size_t tree_fanout = 4;
  /// Location grid (walk only; 0 = none).
  std::size_t grid_w = 0, grid_h = 0;
  std::vector<ClientPlan> clients;
  sim::Duration settle = sim::seconds(2);
  sim::Duration traffic = sim::seconds(3);
  sim::Duration drain = sim::seconds(2);

  [[nodiscard]] std::size_t broker_count() const;
  [[nodiscard]] std::size_t publication_count() const;
  [[nodiscard]] std::size_t move_count() const;
  [[nodiscard]] std::size_t subscriber_count() const;
};

/// The location name of grid cell (x, y) (LocationGraph::grid naming).
[[nodiscard]] std::string grid_name(std::size_t x, std::size_t y);

/// Draws the workload's inputs from `seed`. `subscribers` is the number
/// of subscribing clients (0 = the workload's default population); the
/// other populations scale with it.
[[nodiscard]] Plan make_plan(Workload w, std::uint64_t seed,
                             std::size_t subscribers = 0);

/// The workload's default subscriber population.
[[nodiscard]] std::size_t default_subscribers(Workload w);

}  // namespace perfbench

#endif  // PERFBENCH_PLAN_HPP
