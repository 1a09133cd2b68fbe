#include "src/scenario/scenario.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/scenario/partition.hpp"
#include "src/util/assert.hpp"

namespace rebeca::scenario {

// ---------------------------------------------------------------------------
// TopologySpec / LocationSpec
// ---------------------------------------------------------------------------

TopologySpec TopologySpec::chain(std::size_t n) {
  TopologySpec s;
  s.kind = Kind::chain;
  s.a = n;
  return s;
}

TopologySpec TopologySpec::star(std::size_t n) {
  TopologySpec s;
  s.kind = Kind::star;
  s.a = n;
  return s;
}

TopologySpec TopologySpec::balanced_tree(std::size_t depth, std::size_t fanout) {
  TopologySpec s;
  s.kind = Kind::balanced_tree;
  s.a = depth;
  s.b = fanout;
  return s;
}

TopologySpec TopologySpec::random_tree(std::size_t n) {
  TopologySpec s;
  s.kind = Kind::random_tree;
  s.a = n;
  return s;
}

TopologySpec TopologySpec::external(net::Topology topology) {
  TopologySpec s;
  s.kind = Kind::external;
  s.prebuilt = std::move(topology);
  return s;
}

net::Topology TopologySpec::build(util::Rng& rng) const {
  switch (kind) {
    case Kind::chain:
      return net::Topology::chain(a);
    case Kind::star:
      return net::Topology::star(a);
    case Kind::balanced_tree:
      return net::Topology::balanced_tree(a, b);
    case Kind::random_tree:
      return net::Topology::random_tree(a, rng);
    case Kind::external:
      REBECA_ASSERT(prebuilt.has_value(), "external topology spec is empty");
      return *prebuilt;
  }
  return net::Topology::chain(a);
}

LocationSpec LocationSpec::none() { return {}; }

LocationSpec LocationSpec::line(std::size_t n) {
  LocationSpec s;
  s.kind = Kind::line;
  s.a = n;
  return s;
}

LocationSpec LocationSpec::grid(std::size_t w, std::size_t h) {
  LocationSpec s;
  s.kind = Kind::grid;
  s.a = w;
  s.b = h;
  return s;
}

LocationSpec LocationSpec::ring(std::size_t n) {
  LocationSpec s;
  s.kind = Kind::ring;
  s.a = n;
  return s;
}

LocationSpec LocationSpec::paper_fig7() {
  LocationSpec s;
  s.kind = Kind::fig7;
  return s;
}

LocationSpec LocationSpec::random_connected(std::size_t n, std::size_t extra_edges) {
  LocationSpec s;
  s.kind = Kind::random;
  s.a = n;
  s.b = extra_edges;
  return s;
}

std::optional<location::LocationGraph> LocationSpec::build(util::Rng& rng) const {
  switch (kind) {
    case Kind::none:
      return std::nullopt;
    case Kind::line:
      return location::LocationGraph::line(a);
    case Kind::grid:
      return location::LocationGraph::grid(a, b);
    case Kind::ring:
      return location::LocationGraph::ring(a);
    case Kind::fig7:
      return location::LocationGraph::paper_fig7();
    case Kind::random:
      return location::LocationGraph::random_connected(a, b, rng);
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Workload specs (fluent setters)
// ---------------------------------------------------------------------------

PublishSpec& PublishSpec::every(sim::Duration period) {
  rate = workload::RateModel::periodic(period);
  return *this;
}
PublishSpec& PublishSpec::poisson(sim::Duration mean_interval) {
  rate = workload::RateModel::poisson(mean_interval);
  return *this;
}
PublishSpec& PublishSpec::body(filter::Notification p) {
  prototype = std::move(p);
  return *this;
}
PublishSpec& PublishSpec::uniform_locations(std::string attr) {
  stamp_location = true;
  location_attr = std::move(attr);
  return *this;
}
PublishSpec& PublishSpec::count(std::uint64_t max) {
  max_count = max;
  return *this;
}
PublishSpec& PublishSpec::with_seed(std::uint64_t s) {
  seed = s;
  seed_set = true;
  return *this;
}
PublishSpec& PublishSpec::from_phase(std::string name) {
  start_phase = std::move(name);
  return *this;
}
PublishSpec& PublishSpec::until_phase_end(std::string name) {
  stop_after_phase = std::move(name);
  return *this;
}

RoamSpec& RoamSpec::route(std::vector<std::size_t> brokers) {
  itinerary = std::move(brokers);
  return *this;
}
RoamSpec& RoamSpec::random_waypoint() {
  random = true;
  return *this;
}
RoamSpec& RoamSpec::dwelling(sim::Duration d) {
  dwell = d;
  return *this;
}
RoamSpec& RoamSpec::dark_for(sim::Duration g) {
  gap = g;
  return *this;
}
RoamSpec& RoamSpec::gracefully() {
  graceful = true;
  return *this;
}
RoamSpec& RoamSpec::hops(std::uint64_t max) {
  max_hops = max;
  return *this;
}
RoamSpec& RoamSpec::with_seed(std::uint64_t s) {
  seed = s;
  seed_set = true;
  return *this;
}
RoamSpec& RoamSpec::from_phase(std::string name) {
  start_phase = std::move(name);
  return *this;
}

WalkSpec& WalkSpec::route(std::vector<std::string> locations) {
  waypoints = std::move(locations);
  return *this;
}
WalkSpec& WalkSpec::residing(sim::Duration r) {
  residence = r;
  return *this;
}
WalkSpec& WalkSpec::exponential_residence() {
  exponential = true;
  return *this;
}
WalkSpec& WalkSpec::moves(std::uint64_t max) {
  max_moves = max;
  return *this;
}
WalkSpec& WalkSpec::with_seed(std::uint64_t s) {
  seed = s;
  seed_set = true;
  return *this;
}
WalkSpec& WalkSpec::from_phase(std::string name) {
  start_phase = std::move(name);
  return *this;
}

// ---------------------------------------------------------------------------
// ClientSpec
// ---------------------------------------------------------------------------

ClientSpec& ClientSpec::with_id(std::uint32_t id) {
  id_ = id;
  return *this;
}
ClientSpec& ClientSpec::at_broker(std::size_t broker_index) {
  broker_ = broker_index;
  return *this;
}
ClientSpec& ClientSpec::starts_at(std::string location_name) {
  start_location_ = std::move(location_name);
  return *this;
}
ClientSpec& ClientSpec::subscribes(filter::Filter f) {
  filters_.push_back(std::move(f));
  return *this;
}
ClientSpec& ClientSpec::subscribes(location::LdSpec spec) {
  ld_subs_.push_back(std::move(spec));
  return *this;
}
ClientSpec& ClientSpec::advertises(filter::Filter f) {
  advertisements_.push_back(std::move(f));
  return *this;
}
ClientSpec& ClientSpec::publishes(PublishSpec w) {
  publish_.push_back(std::move(w));
  return *this;
}
ClientSpec& ClientSpec::roams(RoamSpec r) {
  roam_.push_back(std::move(r));
  return *this;
}
ClientSpec& ClientSpec::walks(WalkSpec w) {
  walk_.push_back(std::move(w));
  return *this;
}
ClientSpec& ClientSpec::relocation(client::RelocationMode mode) {
  relocation_ = mode;
  return *this;
}
ClientSpec& ClientSpec::dedup(bool on) {
  dedup_ = on;
  return *this;
}
ClientSpec& ClientSpec::client_side_filtering(bool on) {
  client_side_filtering_ = on;
  return *this;
}
ClientSpec& ClientSpec::notify(std::function<void(const client::Delivery&)> fn) {
  on_notify_ = std::move(fn);
  return *this;
}

// ---------------------------------------------------------------------------
// ScenarioBuilder
// ---------------------------------------------------------------------------

ScenarioBuilder& ScenarioBuilder::seed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::topology(TopologySpec spec) {
  topology_ = std::move(spec);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::locations(LocationSpec spec) {
  locations_ = spec;
  borrowed_locations_ = nullptr;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::locations(const location::LocationGraph* graph) {
  borrowed_locations_ = graph;
  locations_ = LocationSpec::none();
  return *this;
}
ScenarioBuilder& ScenarioBuilder::overlay(broker::OverlayConfig config) {
  overlay_ = std::move(config);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::broker(broker::BrokerConfig config) {
  overlay_.broker = std::move(config);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::routing(routing::Strategy strategy) {
  overlay_.broker.strategy = strategy;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::broker_link_delay(sim::DelayModel delay) {
  overlay_.broker_link_delay = delay;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::client_link_delay(sim::DelayModel delay) {
  overlay_.client_link_delay = delay;
  return *this;
}

ClientSpec& ScenarioBuilder::client(std::string name) {
  for (auto& c : clients_) {
    if (c.name_ == name) return c;  // refine the existing declaration
  }
  ClientSpec spec;
  spec.name_ = std::move(name);
  clients_.push_back(std::move(spec));
  return clients_.back();
}

ScenarioBuilder& ScenarioBuilder::phase(std::string name, sim::Duration duration,
                                        std::function<void(Scenario&)> on_enter) {
  REBECA_ASSERT(duration >= 0, "phase duration must be non-negative");
  phases_.push_back(Phase{std::move(name), duration, std::move(on_enter)});
  return *this;
}

ScenarioBuilder& ScenarioBuilder::shards(std::size_t n) {
  shards_ = n;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::shard_assignment(
    std::vector<std::size_t> assignment) {
  shard_assignment_ = std::move(assignment);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::checkpoint_every(sim::Duration interval) {
  REBECA_ASSERT(interval >= 0, "checkpoint interval must be non-negative");
  checkpoint_every_ = interval;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::expect_exactly_once(std::string client) {
  expectations_.push_back(
      Expectation{Expectation::Kind::exactly_once, std::move(client)});
  return *this;
}
ScenarioBuilder& ScenarioBuilder::expect_fifo(std::string client) {
  expectations_.push_back(
      Expectation{Expectation::Kind::fifo, std::move(client)});
  return *this;
}

std::unique_ptr<Scenario> ScenarioBuilder::build() {
  // Seed-derived stream for structural randomness (random topologies and
  // location graphs), independent of the simulation's own RNG so traffic
  // draws do not shift when the structure changes. Draw order (locations
  // first, then topology) is part of the determinism contract.
  util::Rng structure_rng(util::SplitMix64(seed_ ^ 0x5ce9a1105ULL).next());
  std::optional<location::LocationGraph> built_locations =
      locations_.build(structure_rng);
  net::Topology topo = topology_.build(structure_rng);

  std::size_t shard_n = std::min(shards_, topo.broker_count());
  auto scenario = std::unique_ptr<Scenario>(new Scenario(seed_, shard_n));
  Scenario& s = *scenario;

  s.owned_locations_ = std::move(built_locations);
  s.locations_ = borrowed_locations_ != nullptr
                     ? borrowed_locations_
                     : (s.owned_locations_ ? &*s.owned_locations_ : nullptr);

  broker::OverlayConfig overlay_cfg = overlay_;
  if (s.locations_ != nullptr) overlay_cfg.broker.locations = s.locations_;
  if (shard_n == 0) {
    s.overlay_ =
        std::make_unique<broker::Overlay>(*s.classic_, topo, overlay_cfg);
  } else {
    std::vector<std::size_t> assignment = shard_assignment_;
    if (assignment.empty()) {
      assignment = partition_brokers(topo, shard_n);
    } else {
      REBECA_ASSERT(assignment.size() == topo.broker_count(),
                    "shard_assignment needs one entry per broker");
      for (std::size_t a : assignment) {
        REBECA_ASSERT(a < shard_n, "shard_assignment entry " << a
                                                             << " out of range");
      }
    }
    const sim::Duration lookahead = partition_lookahead(
        topo, assignment, overlay_cfg.broker_link_delay,
        overlay_cfg.client_link_delay, /*has_clients=*/!clients_.empty());
    // Nothing crosses shards (single shard / single block): windows can
    // span whole phases.
    s.sharded_->set_lookahead(lookahead > 0 ? lookahead : sim::seconds(3600));
    s.overlay_ = std::make_unique<broker::Overlay>(*s.sharded_, topo,
                                                   overlay_cfg, assignment);
  }
  // Client-plane wiring below (attach, subscribe, flushes) schedules
  // events; attribute it to the control lane when sharded.
  Scenario::ControlScope control_scope(s);

  s.expectations_ = expectations_;
  s.checkpoint_every_ = checkpoint_every_;
  s.next_checkpoint_ = checkpoint_every_;
  s.phases_ = phases_;
  const std::string first_phase = phases_.empty() ? std::string() : phases_[0].name;
  // A typo'd phase name — or a workload bound to a phase schedule that
  // does not exist — would silently yield a workload that never starts
  // (or never stops) and a vacuously perfect report. Reject both.
  const auto check_phase = [&](const std::string& name, const char* what) {
    REBECA_ASSERT(!phases_.empty(),
                  what << " is bound to the phase schedule, but no phases are "
                          "declared — the workload would never start");
    if (name.empty()) return;
    const bool known = std::any_of(phases_.begin(), phases_.end(),
                                   [&](const Phase& p) { return p.name == name; });
    REBECA_ASSERT(known, what << " references unknown phase \"" << name << "\"");
  };
  // Default driver seeds derive from the scenario seed and declaration
  // index, so independent stochastic drivers never run in lockstep and
  // re-seeding the builder varies the workload too.
  std::uint64_t driver_index = 0;
  const auto driver_seed = [&](bool set, std::uint64_t explicit_seed) {
    ++driver_index;
    if (set) return explicit_seed;
    return util::SplitMix64(seed_ ^ (0xd51be15eedULL + driver_index)).next();
  };

  std::uint32_t next_auto_id = 1;
  for (const ClientSpec& spec : clients_) {
    client::ClientConfig cfg;
    cfg.id = ClientId(spec.id_.value_or(next_auto_id));
    next_auto_id = std::max(next_auto_id, cfg.id.value()) + 1;
    cfg.locations = s.locations_;
    cfg.relocation = spec.relocation_;
    cfg.dedup = spec.dedup_;
    cfg.client_side_filtering = spec.client_side_filtering_;

    client::Client& c = s.instantiate(spec.name_, cfg, spec.broker_);
    if (spec.on_notify_) c.on_notify = spec.on_notify_;
    if (spec.start_location_) {
      REBECA_ASSERT(s.locations_ != nullptr,
                    "client " << spec.name_ << " starts_at(" << *spec.start_location_
                              << ") but the scenario has no location graph");
      c.move_to(*spec.start_location_);
    }
    for (const filter::Filter& f : spec.advertisements_) c.advertise(f);
    for (const filter::Filter& f : spec.filters_) {
      s.members_.back().tracked_filters.push_back(f);
      c.subscribe(f);
    }
    for (const location::LdSpec& ld : spec.ld_subs_) c.subscribe(ld);
    s.members_.back().tracked =
        !s.members_.back().tracked_filters.empty() && spec.ld_subs_.empty();

    for (const PublishSpec& w : spec.publish_) {
      check_phase(w.start_phase, "publishes() from_phase");
      check_phase(w.stop_after_phase, "publishes() until_phase_end");
      workload::PublisherConfig pc;
      pc.rate = w.rate;
      pc.prototype = w.prototype;
      if (w.stamp_location) {
        REBECA_ASSERT(s.locations_ != nullptr,
                      "uniform_locations() needs a scenario location graph");
        pc.locations = s.locations_;
        pc.location_attr = w.location_attr;
      }
      pc.max_count = w.max_count;
      pc.seed = driver_seed(w.seed_set, w.seed);
      s.publishers_.push_back(Scenario::BoundPublisher{
          std::make_unique<workload::Publisher>(*s.exec_, c, std::move(pc)),
          w.start_phase.empty() ? first_phase : w.start_phase,
          w.stop_after_phase});
    }
    for (const RoamSpec& r : spec.roam_) {
      check_phase(r.start_phase, "roams() from_phase");
      workload::PhysicalMoverConfig mc;
      mc.itinerary = r.itinerary;
      mc.random_waypoint = r.random;
      mc.dwell = r.dwell;
      mc.gap = r.gap;
      mc.graceful = r.graceful;
      mc.max_hops = r.max_hops;
      mc.seed = driver_seed(r.seed_set, r.seed);
      Scenario::BoundMover m;
      m.roam = std::make_unique<workload::PhysicalMover>(*s.overlay_, c,
                                                         std::move(mc));
      m.start_phase = r.start_phase.empty() ? first_phase : r.start_phase;
      s.movers_.push_back(std::move(m));
    }
    for (const WalkSpec& w : spec.walk_) {
      check_phase(w.start_phase, "walks() from_phase");
      REBECA_ASSERT(s.locations_ != nullptr,
                    "walks() needs a scenario location graph");
      workload::LogicalMoverConfig mc;
      mc.locations = s.locations_;
      for (const std::string& loc : w.waypoints) {
        mc.waypoints.push_back(s.locations_->id_of(loc));
      }
      mc.delta = w.residence;
      mc.exponential_residence = w.exponential;
      mc.max_moves = w.max_moves;
      mc.seed = driver_seed(w.seed_set, w.seed);
      Scenario::BoundMover m;
      m.walk =
          std::make_unique<workload::LogicalMover>(*s.exec_, c, std::move(mc));
      m.start_phase = w.start_phase.empty() ? first_phase : w.start_phase;
      s.movers_.push_back(std::move(m));
    }
  }

  // Expectations must name declared clients; exactly-once additionally
  // needs the report's completeness tracking (static filters only).
  for (const Expectation& e : expectations_) {
    REBECA_ASSERT(s.member_index_.count(e.client) != 0,
                  "expectation references unknown client \"" << e.client << "\"");
    if (e.kind == Expectation::Kind::exactly_once) {
      REBECA_ASSERT(s.member(e.client).tracked,
                    "expect_exactly_once(" << e.client
                                           << ") needs a client whose declared "
                                              "subscriptions are all static "
                                              "filters (completeness tracking)");
    }
  }
  return scenario;
}

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

Scenario::Scenario(std::uint64_t seed, std::size_t shards)
    : seed_(seed), shards_(shards) {
  if (shards_ == 0) {
    classic_ = std::make_unique<sim::Simulation>(seed_);
    exec_ = classic_.get();
  } else {
    sharded_ = std::make_unique<sim::ShardedSimulation>(seed_, shards_);
    exec_ = &sharded_->control();
  }
}

void Scenario::engine_run_until(sim::TimePoint t) {
  if (classic_) {
    classic_->run_until(t);
  } else {
    sharded_->run_until(t);
  }
}

void Scenario::advance_to(sim::TimePoint t) {
  REBECA_ASSERT(t >= now(), "advancing into the past");
  if (checkpoint_every_ > 0) {
    while (next_checkpoint_ <= t) {
      engine_run_until(next_checkpoint_);
      checkpoints_.push_back(
          CheckpointRow{next_checkpoint_, overlay_->total_counters()});
      next_checkpoint_ += checkpoint_every_;
    }
  }
  engine_run_until(t);
}

Scenario::Member& Scenario::member(const std::string& name) {
  auto it = member_index_.find(name);
  REBECA_ASSERT(it != member_index_.end(), "no client named " << name);
  return members_[it->second];
}

const Scenario::Member& Scenario::member(const std::string& name) const {
  auto it = member_index_.find(name);
  REBECA_ASSERT(it != member_index_.end(), "no client named " << name);
  return members_[it->second];
}

client::Client& Scenario::client(const std::string& name) {
  return *member(name).client;
}

bool Scenario::has_client(const std::string& name) const {
  return member_index_.count(name) != 0;
}

std::uint64_t Scenario::published_by(const std::string& name) const {
  const ClientId id = member(name).client->id();
  return static_cast<std::uint64_t>(std::count_if(
      publications_.begin(), publications_.end(),
      [&](const filter::Notification& n) { return n.producer() == id; }));
}

client::Client& Scenario::instantiate(const std::string& name,
                                      client::ClientConfig config,
                                      std::optional<std::size_t> broker_index) {
  REBECA_ASSERT(member_index_.count(name) == 0, "duplicate client name " << name);
  // Duplicate ids would collide NotificationIds ((id << 32) | seq) and
  // silently merge two producers' streams under dedup — reject them.
  for (const Member& m : members_) {
    REBECA_ASSERT(m.client->id() != config.id,
                  "clients " << m.name << " and " << name
                             << " share id " << config.id);
  }
  Member m;
  m.name = name;
  m.client = std::make_unique<client::Client>(*exec_, std::move(config));
  m.client->on_publish = [this](const filter::Notification& n) {
    publications_.push_back(n);
  };
  member_index_.emplace(name, members_.size());
  members_.push_back(std::move(m));
  client::Client& c = *members_.back().client;
  if (broker_index) overlay_->connect_client(c, *broker_index);
  return c;
}

client::Client& Scenario::add_client(const std::string& name,
                                     std::optional<std::size_t> broker_index,
                                     client::ClientConfig config) {
  if (!config.id.valid()) {
    std::uint32_t max_id = 0;
    for (const Member& m : members_) {
      max_id = std::max(max_id, m.client->id().value());
    }
    config.id = ClientId(max_id + 1);
  }
  if (config.locations == nullptr) config.locations = locations_;
  ControlScope scope(*this);
  return instantiate(name, std::move(config), broker_index);
}

void Scenario::connect(const std::string& name, std::size_t broker_index) {
  ControlScope scope(*this);
  overlay_->connect_client(client(name), broker_index);
}

void Scenario::detach(const std::string& name, bool graceful) {
  ControlScope scope(*this);
  client::Client& c = client(name);
  if (graceful) {
    c.detach_gracefully();
  } else {
    c.detach_silently();
  }
}

bool Scenario::run_next_phase(sim::Duration step,
                              const std::function<void()>& between) {
  if (next_phase_ >= phases_.size()) return false;
  const Phase& p = phases_[next_phase_];
  {
    // Phase interventions and driver starts act on the client plane
    // while the engine is quiescent; under sharding they schedule as
    // the control lane.
    ControlScope scope(*this);
    if (p.on_enter) p.on_enter(*this);
    for (BoundPublisher& b : publishers_) {
      if (b.start_phase == p.name) b.driver->start();
    }
    for (BoundMover& m : movers_) {
      if (m.start_phase != p.name) continue;
      if (m.roam) m.roam->start();
      if (m.walk) m.walk->start();
    }
  }
  const sim::TimePoint end = now() + p.duration;
  while (step > 0 && end - now() > step) {
    advance_to(now() + step);
    if (between) between();
  }
  advance_to(end);
  {
    ControlScope scope(*this);
    for (BoundPublisher& b : publishers_) {
      if (b.stop_after_phase == p.name) b.driver->stop();
    }
  }
  ++next_phase_;
  return true;
}

void Scenario::run() {
  while (run_next_phase()) {
  }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

namespace {

LatencyStats latency_of(std::vector<sim::Duration> samples) {
  LatencyStats stats;
  stats.count = samples.size();
  if (samples.empty()) return stats;
  std::sort(samples.begin(), samples.end());
  sim::Duration sum = 0;
  for (sim::Duration d : samples) sum += d;
  const auto pct = [&](std::uint64_t k) {
    return samples[((samples.size() - 1) * k) / 100];
  };
  stats.mean = sum / static_cast<sim::Duration>(samples.size());
  stats.p50 = pct(50);
  stats.p90 = pct(90);
  stats.p99 = pct(99);
  stats.max = samples.back();
  return stats;
}

void print_latency(std::ostream& os, const LatencyStats& l) {
  os << "count " << l.count << " mean " << l.mean << "ns p50 " << l.p50
     << "ns p90 " << l.p90 << "ns p99 " << l.p99 << "ns max " << l.max << "ns";
}

}  // namespace

ScenarioReport Scenario::report() const {
  ScenarioReport r;
  r.seed = seed_;
  r.finished_at = now();
  r.published = publications_.size();
  r.messages = overlay_->total_counters();
  r.checkpoints = checkpoints_;
  for (std::size_t i = 0; i < overlay_->broker_count(); ++i) {
    r.pins_active += overlay_->broker(i).reexpose_pin_count();
  }

  // One pass over the log instead of one scan per client.
  std::map<ClientId, std::uint64_t> published_counts;
  for (const filter::Notification& n : publications_) {
    ++published_counts[n.producer()];
  }

  std::vector<sim::Duration> all_latencies;
  for (const Member& m : members_) {
    ClientReport cr;
    cr.name = m.name;
    const auto pub_it = published_counts.find(m.client->id());
    cr.published = pub_it != published_counts.end() ? pub_it->second : 0;
    cr.delivered = m.client->deliveries().size();
    cr.filtered = m.client->filtered_count();
    cr.duplicates = m.client->duplicate_count();

    std::vector<sim::Duration> latencies;
    latencies.reserve(m.client->deliveries().size());
    for (const client::Delivery& d : m.client->deliveries()) {
      latencies.push_back(d.delivered_at - d.notification.publish_time());
    }
    all_latencies.insert(all_latencies.end(), latencies.begin(), latencies.end());
    cr.latency = latency_of(std::move(latencies));

    if (m.tracked) {
      cr.tracked = true;
      std::vector<NotificationId> expected;
      for (const filter::Notification& n : publications_) {
        const bool matches =
            std::any_of(m.tracked_filters.begin(), m.tracked_filters.end(),
                        [&](const filter::Filter& f) { return f.matches(n); });
        if (matches) expected.push_back(n.id());
      }
      const metrics::CompletenessReport c =
          metrics::check_exactly_once(m.client->deliveries(), expected);
      cr.expected = c.expected;
      cr.missing = c.missing;
      cr.duplicates += c.duplicates;  // log-level duplicates (dedup off)
    }

    r.delivered += cr.delivered;
    r.missing += cr.missing;
    r.duplicates += cr.duplicates;
    r.clients.push_back(std::move(cr));
  }
  r.latency = latency_of(std::move(all_latencies));

  // Declarative QoS expectations (validated against members at build).
  for (const ScenarioBuilder::Expectation& e : expectations_) {
    const Member& m = member(e.client);
    ClientReport* cr = nullptr;
    for (ClientReport& c : r.clients) {
      if (c.name == e.client) cr = &c;
    }
    REBECA_ASSERT(cr != nullptr, "expectation client missing from report");
    switch (e.kind) {
      case ScenarioBuilder::Expectation::Kind::exactly_once:
        if (cr->missing != 0 || cr->duplicates != 0) {
          std::ostringstream os;
          os << "expect_exactly_once(" << e.client << "): missing "
             << cr->missing << " duplicates " << cr->duplicates;
          r.violations.push_back(os.str());
        }
        break;
      case ScenarioBuilder::Expectation::Kind::fifo: {
        const metrics::FifoReport f =
            metrics::check_sender_fifo(m.client->deliveries());
        cr->fifo_checked = true;
        cr->fifo_violations = f.violations;
        if (!f.ok()) {
          std::ostringstream os;
          os << "expect_fifo(" << e.client << "): " << f.violations << " of "
             << f.checked << " ordered pairs out of order";
          r.violations.push_back(os.str());
        }
        break;
      }
    }
  }
  return r;
}

const ClientReport& ScenarioReport::client(const std::string& name) const {
  for (const ClientReport& c : clients) {
    if (c.name == name) return c;
  }
  REBECA_ASSERT(false, "no client named " << name << " in report");
  return clients.front();  // unreachable
}

std::string ScenarioReport::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const ScenarioReport& r) {
  os << "scenario report (seed " << r.seed << ", finished at "
     << sim::FormatTime{r.finished_at} << ")\n";
  os << "  published " << r.published << " delivered " << r.delivered
     << " missing " << r.missing << " duplicates " << r.duplicates
     << " pins_active " << r.pins_active << "\n";
  os << "  latency: ";
  print_latency(os, r.latency);
  os << "\n  messages: " << r.messages << "\n";
  for (const ClientReport& c : r.clients) {
    os << "  client " << c.name << ": published " << c.published
       << " delivered " << c.delivered << " duplicates " << c.duplicates
       << " filtered " << c.filtered;
    if (c.tracked) {
      os << " expected " << c.expected << " missing " << c.missing;
    }
    if (c.fifo_checked) {
      os << " fifo_violations " << c.fifo_violations;
    }
    os << "\n    latency: ";
    print_latency(os, c.latency);
    os << "\n";
  }
  for (const CheckpointRow& cp : r.checkpoints) {
    os << "  checkpoint " << sim::FormatTime{cp.at} << ": " << cp.counters
       << "\n";
  }
  for (const std::string& v : r.violations) {
    os << "  expectation FAILED: " << v << "\n";
  }
  return os;
}

}  // namespace rebeca::scenario
