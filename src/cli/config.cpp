#include "src/cli/config.hpp"

#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

namespace rebeca::cli {

namespace {

using scenario::ScenarioBuilder;

[[noreturn]] void fail(const std::string& where, const std::string& msg) {
  throw JsonError("config field " + where + ": " + msg);
}

// ---------------------------------------------------------------------------
// Values, filters, notifications
// ---------------------------------------------------------------------------

filter::Value parse_value(const JsonValue& v, const std::string& where) {
  switch (v.kind()) {
    case JsonValue::Kind::boolean:
      return filter::Value(v.as_bool(where));
    case JsonValue::Kind::string:
      return filter::Value(v.as_string(where));
    case JsonValue::Kind::number: {
      const double d = v.as_number(where);
      // Integral values become int64 attributes — but only inside the
      // exactly-representable range (±2^53); beyond it the cast is UB
      // and the value stays a double.
      constexpr double kMaxExact = 9007199254740992.0;  // 2^53
      if (d >= -kMaxExact && d <= kMaxExact) {
        const auto i = static_cast<std::int64_t>(d);
        if (static_cast<double>(i) == d) return filter::Value(i);
      }
      return filter::Value(d);
    }
    default:
      fail(where, std::string("cannot use ") + v.kind_name() +
                      " as an attribute value");
  }
}

filter::Constraint parse_constraint(const JsonValue& v,
                                    const std::string& where) {
  // Shorthand: a bare scalar means equality.
  if (!v.is_object()) return filter::Constraint::eq(parse_value(v, where));
  if (v.size() != 1) {
    fail(where, "a constraint object holds exactly one operator key");
  }
  const auto& [op, operand] = v.members().front();
  const std::string at = where + "." + op;
  if (op == "eq") return filter::Constraint::eq(parse_value(operand, at));
  if (op == "ne") return filter::Constraint::ne(parse_value(operand, at));
  if (op == "lt") return filter::Constraint::lt(parse_value(operand, at));
  if (op == "le") return filter::Constraint::le(parse_value(operand, at));
  if (op == "gt") return filter::Constraint::gt(parse_value(operand, at));
  if (op == "ge") return filter::Constraint::ge(parse_value(operand, at));
  if (op == "prefix") {
    return filter::Constraint::prefix(operand.as_string(at));
  }
  if (op == "any") return filter::Constraint::any();
  if (op == "in") {
    std::set<filter::Value> values;
    for (const JsonValue& item : operand.items()) {
      values.insert(parse_value(item, at));
    }
    return filter::Constraint::in_set(std::move(values));
  }
  if (op == "range") {
    if (!operand.is_array() || operand.size() != 2) {
      fail(at, "range takes [lo, hi]");
    }
    return filter::Constraint::range(parse_value(operand.at(0), at),
                                     parse_value(operand.at(1), at));
  }
  fail(where, "unknown constraint operator \"" + op + "\"");
}

}  // namespace

filter::Filter parse_filter(const JsonValue& v, const std::string& where) {
  filter::Filter f;
  for (const auto& [attr, c] : v.members()) {
    f.where(attr, parse_constraint(c, where + "." + attr));
  }
  return f;
}

filter::Notification parse_notification(const JsonValue& v,
                                        const std::string& where) {
  filter::Notification n;
  for (const auto& [attr, value] : v.members()) {
    n.set(attr, parse_value(value, where + "." + attr));
  }
  return n;
}

namespace {

// ---------------------------------------------------------------------------
// Structural pieces
// ---------------------------------------------------------------------------

scenario::TopologySpec parse_topology(const JsonValue& v) {
  const std::string kind = v.string_or("kind", "chain");
  const std::size_t size = count_field(v, "size", 2, "topology");
  if (kind == "chain") return scenario::TopologySpec::chain(size);
  if (kind == "star") return scenario::TopologySpec::star(size);
  if (kind == "balanced_tree") {
    return scenario::TopologySpec::balanced_tree(
        count_field(v, "depth", 2, "topology"),
        count_field(v, "fanout", 2, "topology"));
  }
  if (kind == "random_tree") return scenario::TopologySpec::random_tree(size);
  fail("topology.kind", "unknown topology \"" + kind + "\"");
}

scenario::LocationSpec parse_locations(const JsonValue& v) {
  const std::string kind = v.string_or("kind", "none");
  if (kind == "none") return scenario::LocationSpec::none();
  if (kind == "line") {
    return scenario::LocationSpec::line(
        count_field(v, "size", 2, "locations"));
  }
  if (kind == "grid") {
    return scenario::LocationSpec::grid(
        count_field(v, "width", 2, "locations"),
        count_field(v, "height", 2, "locations"));
  }
  if (kind == "ring") {
    return scenario::LocationSpec::ring(
        count_field(v, "size", 3, "locations"));
  }
  if (kind == "fig7") return scenario::LocationSpec::paper_fig7();
  if (kind == "random") {
    return scenario::LocationSpec::random_connected(
        count_field(v, "size", 4, "locations"),
        count_field(v, "extra_edges", 0, "locations"));
  }
  fail("locations.kind", "unknown location graph \"" + kind + "\"");
}

}  // namespace

routing::Strategy parse_strategy(const std::string& name) {
  if (name == "flooding") return routing::Strategy::flooding;
  if (name == "simple") return routing::Strategy::simple;
  if (name == "identity") return routing::Strategy::identity;
  if (name == "covering") return routing::Strategy::covering;
  if (name == "merging") return routing::Strategy::merging;
  fail("routing", "unknown strategy \"" + name + "\"");
}

namespace {

/// Validated millisecond field: the DelayModel factories REBECA_ASSERT
/// their ranges and sim::millis casts double -> int64, so hostile
/// configs (negative, lo > hi, 1e308, NaN) must be rejected HERE with a
/// JsonError, not crash in the engine. 1e12 ms ~ 31 sim-years, far above
/// any real config and far below int64 tick overflow.
double delay_ms(double ms, const std::string& where) {
  if (!(ms >= 0 && ms <= 1e12)) {  // NaN fails both comparisons
    fail(where, "must be in [0, 1e12] milliseconds");
  }
  return ms;
}

sim::DelayModel parse_delay(const JsonValue& v, const std::string& where) {
  // Shorthand: a bare number is a fixed delay in milliseconds.
  if (v.is_number()) {
    return sim::DelayModel::fixed(
        sim::millis(delay_ms(v.as_number(where), where)));
  }
  const std::string kind = v.string_or("kind", "fixed");
  if (kind == "fixed") {
    return sim::DelayModel::fixed(
        sim::millis(delay_ms(v.number_or("ms", 1), where + ".ms")));
  }
  if (kind == "uniform") {
    const double lo = delay_ms(v.number_or("lo_ms", 0), where + ".lo_ms");
    const double hi = delay_ms(v.number_or("hi_ms", 1), where + ".hi_ms");
    if (lo > hi) fail(where, "lo_ms must be <= hi_ms");
    return sim::DelayModel::uniform(sim::millis(lo), sim::millis(hi));
  }
  if (kind == "exponential") {
    const double floor =
        delay_ms(v.number_or("floor_ms", 0), where + ".floor_ms");
    const double mean = delay_ms(v.number_or("mean_ms", 1), where + ".mean_ms");
    if (mean <= 0) fail(where + ".mean_ms", "mean_ms must be > 0");
    return sim::DelayModel::exponential(sim::millis(floor), sim::millis(mean));
  }
  fail(where + ".kind", "unknown delay model \"" + kind + "\"");
}

/// A "broker" duration field in milliseconds, range-checked like a delay.
sim::Duration duration_field(const JsonValue& v, const std::string& key,
                             sim::Duration fallback) {
  return duration_ms(v.number_or(key, sim::to_millis(fallback)),
                     "broker." + key);
}

}  // namespace

sim::Duration duration_ms(double ms, const std::string& where, bool positive) {
  const sim::Duration d = sim::millis(delay_ms(ms, where));
  if (positive && d <= 0) fail(where, "must be > 0 milliseconds");
  return d;
}

sim::Duration phase_end(sim::Duration end, sim::Duration duration,
                        const std::string& where, const std::string& name) {
  // end <= the bound on entry, so the subtraction cannot overflow.
  if (duration > sim::millis(1e12) - end) {
    fail(where + ".duration_ms",
         "phase \"" + name + "\" ends past 1e12 milliseconds");
  }
  return end + duration;
}

std::size_t count_field(const JsonValue& v, const std::string& key,
                        std::size_t fallback, const std::string& where) {
  const std::int64_t n = v.int_or(key, static_cast<std::int64_t>(fallback));
  if (n < 0) fail(where + "." + key, "must be >= 0");
  return static_cast<std::size_t>(n);
}

broker::BrokerConfig parse_broker(const JsonValue& v,
                                  broker::BrokerConfig base) {
  base.use_advertisements =
      v.bool_or("use_advertisements", base.use_advertisements);
  base.session_history =
      count_field(v, "session_history", base.session_history, "broker");
  base.virtual_capacity =
      count_field(v, "virtual_capacity", base.virtual_capacity, "broker");
  base.virtual_ttl = duration_field(v, "virtual_ttl_ms", base.virtual_ttl);
  base.relocation_timeout =
      duration_field(v, "relocation_timeout_ms", base.relocation_timeout);
  base.ld_presubscribe = v.bool_or("ld_presubscribe", base.ld_presubscribe);
  base.ld_widen_interval =
      duration_field(v, "ld_widen_interval_ms", base.ld_widen_interval);
  return base;
}

namespace {

location::UncertaintyProfile parse_profile(const JsonValue& v,
                                           const std::string& where) {
  const std::string kind = v.string_or("kind", "global_resub");
  if (kind == "global_resub") return location::UncertaintyProfile::global_resub();
  if (kind == "flooding") return location::UncertaintyProfile::flooding();
  if (kind == "explicit") {
    std::vector<std::size_t> steps;
    for (const JsonValue& s : v.get("steps", where).items()) {
      steps.push_back(static_cast<std::size_t>(s.as_int(where + ".steps")));
    }
    return location::UncertaintyProfile::explicit_steps(std::move(steps));
  }
  if (kind == "adaptive") {
    std::vector<sim::Duration> hops;
    if (const JsonValue* h = v.find("hop_delays_ms")) {
      for (const JsonValue& d : h->items()) {
        hops.push_back(duration_ms(d.as_number(where + ".hop_delays_ms"),
                                   where + ".hop_delays_ms"));
      }
    }
    return location::UncertaintyProfile::adaptive(
        duration_ms(v.number_or("delta_ms", 1000), where + ".delta_ms",
                    /*positive=*/true),
        std::move(hops));
  }
  fail(where + ".kind", "unknown uncertainty profile \"" + kind + "\"");
}

location::LdSpec parse_ld_spec(const JsonValue& v, const std::string& where) {
  location::LdSpec spec;
  if (const JsonValue* base = v.find("base")) {
    spec.base = parse_filter(*base, where + ".base");
  }
  spec.location_attr = v.string_or("location_attr", spec.location_attr);
  spec.vicinity_radius = static_cast<std::uint32_t>(
      v.int_or("vicinity_radius", spec.vicinity_radius));
  if (const JsonValue* p = v.find("profile")) {
    spec.profile = parse_profile(*p, where + ".profile");
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------------

/// A from_phase / until_phase_end reference: the name of a declared
/// phase, or a field error (the scenario would otherwise assert on it
/// at run time).
std::string phase_ref(const JsonValue& v, const std::string& where,
                      const std::set<std::string>& phases) {
  std::string name = v.as_string(where);
  if (phases.count(name) == 0) fail(where, "unknown phase \"" + name + "\"");
  return name;
}

void apply_client(const JsonValue& v, const std::string& where,
                  const std::set<std::string>& phases, ScenarioBuilder& b) {
  const std::string name = v.get("name", where).as_string(where + ".name");
  scenario::ClientSpec& c = b.client(name);
  if (const JsonValue* id = v.find("id")) {
    c.with_id(static_cast<std::uint32_t>(id->as_int(where + ".id")));
  }
  if (const JsonValue* broker = v.find("broker")) {
    c.at_broker(static_cast<std::size_t>(broker->as_int(where + ".broker")));
  }
  if (const JsonValue* loc = v.find("starts_at")) {
    c.starts_at(loc->as_string(where + ".starts_at"));
  }
  const std::string mode = v.string_or("relocation", "rebeca");
  if (mode == "rebeca") {
    c.relocation(client::RelocationMode::rebeca);
  } else if (mode == "naive") {
    c.relocation(client::RelocationMode::naive);
  } else {
    fail(where + ".relocation", "unknown mode \"" + mode + "\"");
  }
  c.dedup(v.bool_or("dedup", true));
  c.client_side_filtering(v.bool_or("client_side_filtering", true));

  if (const JsonValue* subs = v.find("subscribes")) {
    std::size_t i = 0;
    for (const JsonValue& f : subs->items()) {
      std::ostringstream w;
      w << where << ".subscribes[" << i++ << "]";
      c.subscribes(parse_filter(f, w.str()));
    }
  }
  if (const JsonValue* subs = v.find("subscribes_ld")) {
    std::size_t i = 0;
    for (const JsonValue& s : subs->items()) {
      std::ostringstream w;
      w << where << ".subscribes_ld[" << i++ << "]";
      c.subscribes(parse_ld_spec(s, w.str()));
    }
  }
  if (const JsonValue* advs = v.find("advertises")) {
    std::size_t i = 0;
    for (const JsonValue& f : advs->items()) {
      std::ostringstream w;
      w << where << ".advertises[" << i++ << "]";
      c.advertises(parse_filter(f, w.str()));
    }
  }

  if (const JsonValue* pubs = v.find("publishes")) {
    std::size_t i = 0;
    for (const JsonValue& p : pubs->items()) {
      std::ostringstream ws;
      ws << where << ".publishes[" << i++ << "]";
      const std::string w = ws.str();
      scenario::PublishSpec spec;
      if (const JsonValue* every = p.find("every_ms")) {
        spec.every(duration_ms(every->as_number(w + ".every_ms"),
                               w + ".every_ms", /*positive=*/true));
      } else if (const JsonValue* poisson = p.find("poisson_ms")) {
        spec.poisson(duration_ms(poisson->as_number(w + ".poisson_ms"),
                                 w + ".poisson_ms", /*positive=*/true));
      } else {
        fail(w, "publishes needs every_ms or poisson_ms");
      }
      spec.body(parse_notification(p.get("body", w), w + ".body"));
      if (p.bool_or("uniform_locations", false)) {
        spec.uniform_locations(p.string_or("location_attr", "location"));
      }
      spec.count(static_cast<std::uint64_t>(p.int_or("count", 0)));
      if (const JsonValue* seed = p.find("seed")) {
        spec.with_seed(static_cast<std::uint64_t>(seed->as_int(w + ".seed")));
      }
      if (const JsonValue* from = p.find("from_phase")) {
        spec.from_phase(phase_ref(*from, w + ".from_phase", phases));
      }
      if (const JsonValue* until = p.find("until_phase_end")) {
        spec.until_phase_end(
            phase_ref(*until, w + ".until_phase_end", phases));
      }
      c.publishes(std::move(spec));
    }
  }

  if (const JsonValue* roams = v.find("roams")) {
    std::size_t i = 0;
    for (const JsonValue& r : roams->items()) {
      std::ostringstream ws;
      ws << where << ".roams[" << i++ << "]";
      const std::string w = ws.str();
      scenario::RoamSpec spec;
      if (const JsonValue* route = r.find("route")) {
        std::vector<std::size_t> stops;
        for (const JsonValue& s : route->items()) {
          stops.push_back(static_cast<std::size_t>(s.as_int(w + ".route")));
        }
        spec.route(std::move(stops));
      }
      if (r.bool_or("random_waypoint", false)) spec.random_waypoint();
      const sim::Duration dwell =
          duration_ms(r.number_or("dwell_ms", 5000), w + ".dwell_ms");
      const sim::Duration gap =
          duration_ms(r.number_or("gap_ms", 1000), w + ".gap_ms");
      // A zero-length roam cycle would hop forever at one instant.
      if (dwell + gap == 0) {
        fail(w + ".dwell_ms", "dwell_ms + gap_ms must be > 0");
      }
      spec.dwelling(dwell);
      spec.dark_for(gap);
      if (r.bool_or("graceful", false)) spec.gracefully();
      spec.hops(static_cast<std::uint64_t>(r.int_or("hops", 0)));
      if (const JsonValue* seed = r.find("seed")) {
        spec.with_seed(static_cast<std::uint64_t>(seed->as_int(w + ".seed")));
      }
      if (const JsonValue* from = r.find("from_phase")) {
        spec.from_phase(phase_ref(*from, w + ".from_phase", phases));
      }
      c.roams(std::move(spec));
    }
  }

  if (const JsonValue* walks = v.find("walks")) {
    std::size_t i = 0;
    for (const JsonValue& wv : walks->items()) {
      std::ostringstream ws;
      ws << where << ".walks[" << i++ << "]";
      const std::string w = ws.str();
      scenario::WalkSpec spec;
      if (const JsonValue* route = wv.find("route")) {
        std::vector<std::string> stops;
        for (const JsonValue& s : route->items()) {
          stops.push_back(s.as_string(w + ".route"));
        }
        spec.route(std::move(stops));
      }
      spec.residing(duration_ms(wv.number_or("residence_ms", 1000),
                                w + ".residence_ms", /*positive=*/true));
      if (wv.bool_or("exponential_residence", false)) {
        spec.exponential_residence();
      }
      spec.moves(static_cast<std::uint64_t>(wv.int_or("moves", 0)));
      if (const JsonValue* seed = wv.find("seed")) {
        spec.with_seed(static_cast<std::uint64_t>(seed->as_int(w + ".seed")));
      }
      if (const JsonValue* from = wv.find("from_phase")) {
        spec.from_phase(phase_ref(*from, w + ".from_phase", phases));
      }
      c.walks(std::move(spec));
    }
  }
}

// ---------------------------------------------------------------------------
// Phases and on-enter actions
// ---------------------------------------------------------------------------

std::function<void(scenario::Scenario&)> parse_action(const JsonValue& v,
                                                      const std::string& where) {
  const std::string action = v.get("action", where).as_string(where + ".action");
  const auto client_of = [&]() {
    return v.get("client", where).as_string(where + ".client");
  };
  if (action == "connect") {
    const std::string client = client_of();
    const auto broker =
        static_cast<std::size_t>(v.get("broker", where).as_int(where + ".broker"));
    return [client, broker](scenario::Scenario& s) {
      s.connect(client, broker);
    };
  }
  if (action == "detach") {
    const std::string client = client_of();
    const bool graceful = v.bool_or("graceful", false);
    return [client, graceful](scenario::Scenario& s) {
      s.detach(client, graceful);
    };
  }
  if (action == "subscribe") {
    const std::string client = client_of();
    const filter::Filter f = parse_filter(v.get("filter", where), where + ".filter");
    return [client, f](scenario::Scenario& s) { s.client(client).subscribe(f); };
  }
  if (action == "publish") {
    const std::string client = client_of();
    const filter::Notification n =
        parse_notification(v.get("body", where), where + ".body");
    return [client, n](scenario::Scenario& s) { s.client(client).publish(n); };
  }
  if (action == "move") {
    const std::string client = client_of();
    const std::string to = v.get("to", where).as_string(where + ".to");
    return [client, to](scenario::Scenario& s) { s.client(client).move_to(to); };
  }
  fail(where + ".action", "unknown action \"" + action + "\"");
}

/// Appends one phase; `end` is the running end of the phases before it.
void apply_phase(const JsonValue& v, const std::string& where,
                 sim::Duration& end, ScenarioBuilder& b) {
  const std::string name = v.get("name", where).as_string(where + ".name");
  const sim::Duration duration = duration_ms(
      v.get("duration_ms", where).as_number(where + ".duration_ms"),
      where + ".duration_ms");
  end = phase_end(end, duration, where, name);
  std::function<void(scenario::Scenario&)> on_enter;
  if (const JsonValue* actions = v.find("on_enter")) {
    std::vector<std::function<void(scenario::Scenario&)>> steps;
    std::size_t i = 0;
    for (const JsonValue& a : actions->items()) {
      std::ostringstream w;
      w << where << ".on_enter[" << i++ << "]";
      steps.push_back(parse_action(a, w.str()));
    }
    on_enter = [steps = std::move(steps)](scenario::Scenario& s) {
      for (const auto& step : steps) step(s);
    };
  }
  b.phase(name, duration, std::move(on_enter));
}

// ---------------------------------------------------------------------------
// Whole document
// ---------------------------------------------------------------------------

void apply_config(const JsonValue& root, ScenarioBuilder& b) {
  if (!root.is_object()) {
    throw JsonError("config root must be a JSON object");
  }
  if (const JsonValue* topo = root.find("topology")) {
    b.topology(parse_topology(*topo));
  }
  if (const JsonValue* locs = root.find("locations")) {
    b.locations(parse_locations(*locs));
  }
  broker::OverlayConfig overlay;
  if (const JsonValue* br = root.find("broker")) {
    overlay.broker = parse_broker(*br, overlay.broker);
  }
  if (const JsonValue* routing = root.find("routing")) {
    overlay.broker.strategy = parse_strategy(routing->as_string("routing"));
  }
  if (const JsonValue* d = root.find("broker_link_delay")) {
    overlay.broker_link_delay = parse_delay(*d, "broker_link_delay");
  }
  if (const JsonValue* d = root.find("client_link_delay")) {
    overlay.client_link_delay = parse_delay(*d, "client_link_delay");
  }
  b.overlay(std::move(overlay));

  std::set<std::string> phase_names;
  std::size_t i = 0;
  for (const JsonValue& p : root.get("phases", "").items()) {
    std::ostringstream w;
    w << "phases[" << i++ << "]";
    phase_names.insert(p.get("name", w.str()).as_string(w.str() + ".name"));
  }
  i = 0;
  for (const JsonValue& c : root.get("clients", "").items()) {
    std::ostringstream w;
    w << "clients[" << i++ << "]";
    apply_client(c, w.str(), phase_names, b);
  }
  i = 0;
  sim::Duration end = 0;
  for (const JsonValue& p : root.get("phases", "").items()) {
    std::ostringstream w;
    w << "phases[" << i++ << "]";
    apply_phase(p, w.str(), end, b);
  }

  if (const JsonValue* cp = root.find("checkpoint_every_ms")) {
    b.checkpoint_every(duration_ms(cp->as_number("checkpoint_every_ms"),
                                   "checkpoint_every_ms"));
  }
  // Declarative QoS expectations, checked by every run's report():
  //   "expect": {"exactly_once": ["consumer"], "fifo": ["consumer"]}
  if (const JsonValue* expect = root.find("expect")) {
    if (const JsonValue* once = expect->find("exactly_once")) {
      for (const JsonValue& name : once->items()) {
        b.expect_exactly_once(name.as_string("expect.exactly_once"));
      }
    }
    if (const JsonValue* fifo = expect->find("fifo")) {
      for (const JsonValue& name : fifo->items()) {
        b.expect_fifo(name.as_string("expect.fifo"));
      }
    }
  }
}

scenario::SweepConfig parse_sweep(const JsonValue& root) {
  scenario::SweepConfig cfg;
  const JsonValue* sweep = root.find("sweep");
  if (sweep == nullptr) return cfg;
  if (const JsonValue* seeds = sweep->find("seeds")) {
    std::size_t i = 0;
    for (const JsonValue& s : seeds->items()) {
      const std::string where = "sweep.seeds[" + std::to_string(i++) + "]";
      const std::int64_t seed = s.as_int(where);
      if (seed < 0) fail(where, "must be >= 0");
      cfg.seeds.push_back(static_cast<std::uint64_t>(seed));
    }
  }
  cfg.base_seed = count_field(*sweep, "base_seed", 1, "sweep");
  cfg.runs = count_field(*sweep, "runs", 1, "sweep");
  cfg.threads = count_field(*sweep, "threads", 0, "sweep");
  return cfg;
}

std::size_t parse_shards(const JsonValue& root) {
  // Root-level: an engine knob of the scenario, applied by the sweep so
  // the thread budget can account for it.
  return static_cast<std::size_t>(root.int_or("shards", 0));
}

}  // namespace

RunSpec parse_config(const std::string& json_text) {
  // shared_ptr: the Declare closure outlives this frame and may be
  // copied into worker threads; the parsed tree is immutable from here.
  auto root = std::make_shared<const JsonValue>(JsonValue::parse(json_text));

  RunSpec spec;
  spec.name = root->string_or("name", "");
  spec.sweep = parse_sweep(*root);
  spec.sweep.shards = parse_shards(*root);
  spec.has_checkpoints = root->find("checkpoint_every_ms") != nullptr;
  spec.declare = [root](ScenarioBuilder& b) { apply_config(*root, b); };

  // Trial application: surface shape errors at load time with their
  // config path, not at seed 7 of 16 inside a worker thread.
  ScenarioBuilder trial;
  spec.declare(trial);
  return spec;
}

RunSpec load_config(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw JsonError("cannot open config file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_config(buf.str());
}

}  // namespace rebeca::cli
