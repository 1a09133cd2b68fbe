// The unified experiment surface: one declarative entry point for
// topology, workload, roaming, and metrics.
//
// The paper's evaluation is a matrix of *scenarios* — topology × routing
// strategy × relocation mode × movement trace. Instead of hand-wiring a
// Simulation + Topology + Overlay + Client stack per experiment (and
// getting the construction order and lifetimes right every time), a
// ScenarioBuilder describes the experiment and Scenario owns every
// runtime object in dependency order:
//
//   ScenarioBuilder b;
//   b.seed(17).topology(TopologySpec::chain(4));
//   b.client("consumer").at_broker(3).subscribes(some_filter);
//   b.client("producer").at_broker(0).publishes(
//       PublishSpec().every(sim::millis(10)).body(some_notification)
//                    .from_phase("traffic"));
//   b.phase("settle", sim::seconds(1)).phase("traffic", sim::seconds(2));
//   auto s = b.build();
//   s->run();
//   ScenarioReport r = s->report();
//
// A Scenario runs as a sequence of named phases; publishers and movers
// are bound to phases, and arbitrary mid-run interventions (detach,
// reconnect, mid-stream subscribe) hang off phase-entry callbacks that
// act through the Scenario's own surface. The report aggregates
// delivered / missing / duplicate counts against the scenario's own
// publication log, per-class message counters, and delivery-latency
// percentiles — and is byte-identical across runs with the same seed.
#ifndef REBECA_SCENARIO_SCENARIO_HPP
#define REBECA_SCENARIO_SCENARIO_HPP

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/broker/overlay.hpp"
#include "src/client/client.hpp"
#include "src/location/ld_spec.hpp"
#include "src/location/location_graph.hpp"
#include "src/metrics/checkers.hpp"
#include "src/metrics/counters.hpp"
#include "src/net/topology.hpp"
#include "src/routing/strategy.hpp"
#include "src/sim/sharded.hpp"
#include "src/sim/simulation.hpp"
#include "src/workload/mover.hpp"
#include "src/workload/publisher.hpp"

namespace rebeca::scenario {

class Scenario;

// ---------------------------------------------------------------------------
// Declarative specs
// ---------------------------------------------------------------------------

/// Broker-network shape. The random tree draws from the scenario seed, so
/// a scenario is fully determined by its declaration.
struct TopologySpec {
  static TopologySpec chain(std::size_t n);
  static TopologySpec star(std::size_t n);
  static TopologySpec balanced_tree(std::size_t depth, std::size_t fanout);
  static TopologySpec random_tree(std::size_t n);
  /// Escape hatch: a topology built elsewhere (tests with bespoke shapes).
  static TopologySpec external(net::Topology topology);

  [[nodiscard]] net::Topology build(util::Rng& rng) const;

  enum class Kind { chain, star, balanced_tree, random_tree, external };
  Kind kind = Kind::chain;
  std::size_t a = 2;
  std::size_t b = 0;
  std::optional<net::Topology> prebuilt;
};

/// Movement-graph shape for logical mobility (paper Sec. 5). The graph is
/// owned by the Scenario and injected into broker and client configs.
struct LocationSpec {
  static LocationSpec none();
  static LocationSpec line(std::size_t n);
  static LocationSpec grid(std::size_t w, std::size_t h);
  static LocationSpec ring(std::size_t n);
  static LocationSpec paper_fig7();
  static LocationSpec random_connected(std::size_t n, std::size_t extra_edges);

  [[nodiscard]] std::optional<location::LocationGraph> build(util::Rng& rng) const;

  enum class Kind { none, line, grid, ring, fig7, random };
  Kind kind = Kind::none;
  std::size_t a = 0;
  std::size_t b = 0;
};

/// A rate-based publish workload attached to one client, bound to the
/// phase schedule: it starts when `from_phase` is entered (default: the
/// first phase) and stops when `until_phase_end` ends (default: never).
struct PublishSpec {
  PublishSpec& every(sim::Duration period);
  PublishSpec& poisson(sim::Duration mean_interval);
  PublishSpec& body(filter::Notification prototype);
  /// Stamp each notification's location attribute uniformly from the
  /// scenario's location graph (Fig. 9's uniform location distribution).
  PublishSpec& uniform_locations(std::string attr = "location");
  PublishSpec& count(std::uint64_t max);
  PublishSpec& with_seed(std::uint64_t seed);
  PublishSpec& from_phase(std::string name);
  PublishSpec& until_phase_end(std::string name);

  workload::RateModel rate = workload::RateModel::periodic(sim::millis(100));
  filter::Notification prototype;
  bool stamp_location = false;
  std::string location_attr = "location";
  std::uint64_t max_count = 0;
  /// Explicit RNG seed; when unset the builder derives one from the
  /// scenario seed and the driver's declaration index, so independent
  /// stochastic drivers never run in lockstep.
  std::uint64_t seed = 1;
  bool seed_set = false;
  std::string start_phase;       // "" = first phase
  std::string stop_after_phase;  // "" = runs until the scenario ends
};

/// Physical roaming over the broker graph: dwell attached to a border
/// broker, detach, stay dark for `gap`, re-attach at the next stop. The
/// itinerary is a scripted hop list; leave it empty for seeded
/// random-waypoint roaming over all brokers.
struct RoamSpec {
  RoamSpec& route(std::vector<std::size_t> brokers);
  RoamSpec& random_waypoint();
  RoamSpec& dwelling(sim::Duration dwell);
  RoamSpec& dark_for(sim::Duration gap);
  RoamSpec& gracefully();
  RoamSpec& hops(std::uint64_t max);
  RoamSpec& with_seed(std::uint64_t seed);
  RoamSpec& from_phase(std::string name);

  std::vector<std::size_t> itinerary;  // empty + random = random waypoint
  bool random = false;
  sim::Duration dwell = sim::seconds(5);
  sim::Duration gap = sim::seconds(1);
  bool graceful = false;
  std::uint64_t max_hops = 0;
  std::uint64_t seed = 1;  // derived from the scenario seed when unset
  bool seed_set = false;
  std::string start_phase;
};

/// Logical mobility over the location graph: a scripted waypoint route
/// (location names, followed in order, wrapping) or — when empty — a
/// seeded random walk with mean residence `residence` per location.
struct WalkSpec {
  WalkSpec& route(std::vector<std::string> locations);
  WalkSpec& residing(sim::Duration residence);
  WalkSpec& exponential_residence();
  WalkSpec& moves(std::uint64_t max);
  WalkSpec& with_seed(std::uint64_t seed);
  WalkSpec& from_phase(std::string name);

  std::vector<std::string> waypoints;
  sim::Duration residence = sim::seconds(1);
  bool exponential = false;
  std::uint64_t max_moves = 0;
  std::uint64_t seed = 1;  // derived from the scenario seed when unset
  bool seed_set = false;
  std::string start_phase;
};

/// One client, declaratively: where it attaches, what it subscribes to
/// and advertises, what it publishes, and how it moves.
class ClientSpec {
 public:
  ClientSpec& with_id(std::uint32_t id);
  ClientSpec& at_broker(std::size_t broker_index);
  ClientSpec& starts_at(std::string location_name);
  ClientSpec& subscribes(filter::Filter f);
  ClientSpec& subscribes(location::LdSpec spec);
  ClientSpec& advertises(filter::Filter f);
  ClientSpec& publishes(PublishSpec w);
  ClientSpec& roams(RoamSpec r);
  ClientSpec& walks(WalkSpec w);
  ClientSpec& relocation(client::RelocationMode mode);
  ClientSpec& dedup(bool on);
  ClientSpec& client_side_filtering(bool on);
  ClientSpec& notify(std::function<void(const client::Delivery&)> fn);

 private:
  friend class ScenarioBuilder;
  friend class Scenario;

  std::string name_;
  std::optional<std::uint32_t> id_;
  std::optional<std::size_t> broker_;
  std::optional<std::string> start_location_;
  std::vector<filter::Filter> filters_;
  std::vector<location::LdSpec> ld_subs_;
  std::vector<filter::Filter> advertisements_;
  std::vector<PublishSpec> publish_;
  std::vector<RoamSpec> roam_;
  std::vector<WalkSpec> walk_;
  client::RelocationMode relocation_ = client::RelocationMode::rebeca;
  bool dedup_ = true;
  bool client_side_filtering_ = true;
  std::function<void(const client::Delivery&)> on_notify_;
};

/// A named slice of the run schedule. `on_enter` runs at the phase's
/// first instant and may intervene through the Scenario's surface
/// (detach/connect a client, subscribe mid-stream, …).
struct Phase {
  std::string name;
  sim::Duration duration = 0;
  std::function<void(Scenario&)> on_enter;
};

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Delivery-latency distribution (publish to application notify),
/// integer nanoseconds so reports are byte-stable.
struct LatencyStats {
  std::uint64_t count = 0;
  sim::Duration mean = 0;
  sim::Duration p50 = 0;
  sim::Duration p90 = 0;
  sim::Duration p99 = 0;
  sim::Duration max = 0;

  friend bool operator==(const LatencyStats&, const LatencyStats&) = default;
};

struct ClientReport {
  std::string name;
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t filtered = 0;
  /// Completeness is tracked for clients whose declared subscriptions
  /// are all static filters: expected is the count of logged
  /// publications matching any of them.
  bool tracked = false;
  std::uint64_t expected = 0;
  std::uint64_t missing = 0;
  /// Sender-FIFO check (filled only when expect_fifo was declared).
  bool fifo_checked = false;
  std::uint64_t fifo_violations = 0;
  LatencyStats latency;

  friend bool operator==(const ClientReport&, const ClientReport&) = default;
};

/// Cumulative message-counter snapshot at a virtual-time checkpoint
/// (the Fig. 8/9 time series; enabled by checkpoint_every()).
struct CheckpointRow {
  sim::TimePoint at = 0;
  metrics::MessageCounters counters;
};

struct ScenarioReport {
  std::uint64_t seed = 0;
  sim::TimePoint finished_at = 0;
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  std::uint64_t missing = 0;     // summed over tracked clients
  std::uint64_t duplicates = 0;
  /// Re-expose pins still held open across all brokers at run end (the
  /// moveout protocol's redundant wire entries; decay should keep this
  /// near zero under churn).
  std::uint64_t pins_active = 0;
  metrics::MessageCounters messages;
  LatencyStats latency;  // pooled over all clients
  std::vector<ClientReport> clients;
  std::vector<CheckpointRow> checkpoints;
  /// Declarative QoS expectations that failed, one line each; empty
  /// means every declared expectation held.
  std::vector<std::string> violations;

  [[nodiscard]] bool expectations_ok() const { return violations.empty(); }
  [[nodiscard]] const ClientReport& client(const std::string& name) const;
  /// Full, deterministic rendering: equal-seed runs serialize to
  /// byte-identical strings.
  [[nodiscard]] std::string to_string() const;
};

std::ostream& operator<<(std::ostream& os, const ScenarioReport& r);

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

class ScenarioBuilder {
 public:
  ScenarioBuilder& seed(std::uint64_t seed);
  ScenarioBuilder& topology(TopologySpec spec);
  ScenarioBuilder& locations(LocationSpec spec);
  /// Borrow an externally owned movement graph (must outlive the run).
  ScenarioBuilder& locations(const location::LocationGraph* graph);
  /// Full broker/overlay configuration; the builder injects the
  /// scenario's location graph into BrokerConfig::locations.
  ScenarioBuilder& overlay(broker::OverlayConfig config);
  ScenarioBuilder& broker(broker::BrokerConfig config);
  ScenarioBuilder& routing(routing::Strategy strategy);
  ScenarioBuilder& broker_link_delay(sim::DelayModel delay);
  ScenarioBuilder& client_link_delay(sim::DelayModel delay);
  /// Declares a client — or, when the name is already declared, returns
  /// the existing spec for further refinement. References stay valid for
  /// the builder's lifetime (specs live in a deque).
  ClientSpec& client(std::string name);
  ScenarioBuilder& phase(std::string name, sim::Duration duration,
                         std::function<void(Scenario&)> on_enter = nullptr);

  /// Sharded execution: partition the broker graph across `n` worker
  /// shards with the conservative time-window engine (sharded.hpp).
  /// Equal-seed reports are byte-identical for any n >= 1; n = 0 (the
  /// default) selects the classic single-threaded kernel, which orders
  /// and draws differently and is therefore its own (also deterministic)
  /// sample. n is clamped to the broker count.
  ScenarioBuilder& shards(std::size_t n);
  /// Overrides the default greedy edge-cut partition: broker i runs on
  /// shard assignment[i]. Only meaningful with shards(n >= 1).
  ScenarioBuilder& shard_assignment(std::vector<std::size_t> assignment);
  /// Snapshot cumulative message counters every `interval` of virtual
  /// time (ScenarioReport::checkpoints; the Fig. 8/9 series). 0 = off.
  ScenarioBuilder& checkpoint_every(sim::Duration interval);
  /// Declarative QoS expectations, checked by Scenario::report(): the
  /// named client (whose declared subscriptions must all be static
  /// filters) misses nothing and sees no duplicates / observes
  /// per-producer FIFO order. Failures land in report().violations.
  ScenarioBuilder& expect_exactly_once(std::string client);
  ScenarioBuilder& expect_fifo(std::string client);

  /// Instantiates the runtime: topology, overlay, clients (in
  /// declaration order), initial locations, subscriptions,
  /// advertisements, and the workload drivers — nothing has run yet.
  /// Non-destructive: the same builder can build() repeatedly (e.g.
  /// multi-seed sweeps re-seeding between builds). Phase names
  /// referenced by workload specs and client ids are validated here.
  [[nodiscard]] std::unique_ptr<Scenario> build();

 private:
  friend class Scenario;
  struct Expectation {
    enum class Kind { exactly_once, fifo };
    Kind kind;
    std::string client;
  };

  std::uint64_t seed_ = 1;
  TopologySpec topology_ = TopologySpec::chain(2);
  LocationSpec locations_ = LocationSpec::none();
  const location::LocationGraph* borrowed_locations_ = nullptr;
  broker::OverlayConfig overlay_;
  std::deque<ClientSpec> clients_;  // deque: client() refs never dangle
  std::vector<Phase> phases_;
  std::size_t shards_ = 0;  // 0 = classic single-threaded kernel
  std::vector<std::size_t> shard_assignment_;
  sim::Duration checkpoint_every_ = 0;
  std::vector<Expectation> expectations_;
};

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// Owns the whole experiment in dependency order: simulation, location
/// graph, overlay (brokers + links), clients, workload drivers. Members
/// destruct in reverse declaration order, so drivers die before the
/// clients they steer and clients before the overlay links they hold —
/// the dangling-reference-prone manual ordering is gone.
class Scenario {
 public:
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  // ---- runtime access ----
  /// The classic single-threaded kernel. Asserts on sharded scenarios —
  /// drive those through run()/run_for()/run_until() and schedule
  /// through exec().
  [[nodiscard]] sim::Simulation& sim() {
    REBECA_ASSERT(classic_ != nullptr,
                  "sim() is the classic kernel; this scenario is sharded — "
                  "use exec() to schedule and run()/run_for() to advance");
    return *classic_;
  }
  /// The client plane's executor: the classic kernel, or the sharded
  /// engine's control lane. Valid in both modes.
  [[nodiscard]] sim::Executor& exec() { return *exec_; }
  /// Worker shards (0 = classic kernel).
  [[nodiscard]] std::size_t shard_count() const { return shards_; }
  [[nodiscard]] sim::TimePoint now() const {
    return classic_ ? classic_->now() : sharded_->now();
  }
  [[nodiscard]] broker::Overlay& overlay() { return *overlay_; }
  [[nodiscard]] const net::Topology& topology() const {
    return overlay_->topology();
  }
  /// Live shared counter set of the classic kernel. Asserts on sharded
  /// scenarios, where accounting is per shard — read
  /// overlay().total_counters() (quiescent) or report().messages there.
  [[nodiscard]] metrics::MessageCounters& counters() {
    REBECA_ASSERT(classic_ != nullptr,
                  "counters() is the classic kernel's shared set; sharded "
                  "scenarios account per shard — use "
                  "overlay().total_counters() or report().messages");
    return overlay_->counters();
  }
  [[nodiscard]] const location::LocationGraph* locations() const {
    return locations_;
  }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  [[nodiscard]] client::Client& client(const std::string& name);
  [[nodiscard]] bool has_client(const std::string& name) const;
  /// The number of notifications `name` has published so far (from the
  /// scenario's publication log).
  [[nodiscard]] std::uint64_t published_by(const std::string& name) const;
  /// Every stamped notification published by any scenario client.
  [[nodiscard]] const std::vector<filter::Notification>& publications() const {
    return publications_;
  }

  // ---- imperative surface (phase callbacks, tests) ----
  /// Adds a client at runtime; `broker_index` empty leaves it detached.
  client::Client& add_client(const std::string& name,
                             std::optional<std::size_t> broker_index = {},
                             client::ClientConfig config = {});
  void connect(const std::string& name, std::size_t broker_index);
  void detach(const std::string& name, bool graceful = false);
  void run_for(sim::Duration d) { advance_to(now() + d); }
  void run_until(sim::TimePoint t) { advance_to(t); }

  // ---- phased schedule ----
  /// Runs the next declared phase to its end; false when none remain.
  /// With `step` > 0 the phase advances in slices of at most `step` and
  /// `between` runs at each inner slice boundary (tests audit live
  /// broker state there while the engine is quiescent).
  bool run_next_phase(sim::Duration step = 0,
                      const std::function<void()>& between = nullptr);
  /// Runs all remaining phases.
  void run();
  [[nodiscard]] std::size_t phases_remaining() const {
    return phases_.size() - next_phase_;
  }

  [[nodiscard]] ScenarioReport report() const;

 private:
  friend class ScenarioBuilder;

  struct Member {
    std::string name;
    std::unique_ptr<client::Client> client;
    std::vector<filter::Filter> tracked_filters;  // static subs, for report
    bool tracked = false;
  };

  struct BoundPublisher {
    std::unique_ptr<workload::Publisher> driver;
    std::string start_phase;
    std::string stop_after_phase;
  };

  struct BoundMover {
    std::unique_ptr<workload::PhysicalMover> roam;
    std::unique_ptr<workload::LogicalMover> walk;
    std::string start_phase;
  };

  Scenario(std::uint64_t seed, std::size_t shards);

  Member& member(const std::string& name);
  const Member& member(const std::string& name) const;
  client::Client& instantiate(const std::string& name,
                              client::ClientConfig config,
                              std::optional<std::size_t> broker_index);
  /// Advances the engine to `t`, stopping at checkpoint boundaries to
  /// snapshot counters (both engines are quiescent there).
  void advance_to(sim::TimePoint t);
  void engine_run_until(sim::TimePoint t);

  /// RAII: attributes imperative client-plane work (phase callbacks,
  /// connect/detach, driver starts) to the sharded engine's control
  /// lane; no-op on the classic kernel.
  struct ControlScope {
    std::optional<sim::ShardedSimulation::Scope> scope;
    explicit ControlScope(Scenario& s) {
      if (s.sharded_) scope.emplace(s.sharded_->control());
    }
  };

  std::uint64_t seed_;
  std::size_t shards_;
  // Exactly one engine exists; it is declared first so every other
  // member (overlay links, clients, drivers) dies before it.
  std::unique_ptr<sim::Simulation> classic_;
  std::unique_ptr<sim::ShardedSimulation> sharded_;
  sim::Executor* exec_ = nullptr;  // the client plane's executor
  std::optional<location::LocationGraph> owned_locations_;
  const location::LocationGraph* locations_ = nullptr;
  std::unique_ptr<broker::Overlay> overlay_;
  std::vector<Member> members_;
  std::map<std::string, std::size_t> member_index_;
  std::vector<BoundPublisher> publishers_;
  std::vector<BoundMover> movers_;
  std::vector<Phase> phases_;
  std::size_t next_phase_ = 0;
  std::vector<filter::Notification> publications_;
  std::vector<ScenarioBuilder::Expectation> expectations_;
  sim::Duration checkpoint_every_ = 0;
  sim::TimePoint next_checkpoint_ = 0;
  std::vector<CheckpointRow> checkpoints_;
};

}  // namespace rebeca::scenario

#endif  // REBECA_SCENARIO_SCENARIO_HPP
