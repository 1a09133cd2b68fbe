#include "src/cli/node_config.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "src/cli/config.hpp"
#include "src/cli/json.hpp"
#include "src/util/rng.hpp"

namespace rebeca::cli {

namespace {

[[noreturn]] void fail(const std::string& where, const std::string& what) {
  throw JsonError(where.empty() ? what : where + ": " + what);
}

// The topology parser duplicates rebeca_run's: that one builds a
// ScenarioBuilder spec; the node runtime needs the raw engine type.

net::Topology parse_topology(const JsonValue& v) {
  const std::string kind = v.string_or("kind", "chain");
  const std::size_t size = count_field(v, "size", 2, "topology");
  if (kind == "chain") return net::Topology::chain(size);
  if (kind == "star") return net::Topology::star(size);
  if (kind == "balanced_tree") {
    return net::Topology::balanced_tree(count_field(v, "depth", 2, "topology"),
                                        count_field(v, "fanout", 2, "topology"));
  }
  if (kind == "random_tree") {
    // Seeded: every process of the deployment derives the same tree
    // from the same config text.
    util::Rng rng(static_cast<std::uint64_t>(v.int_or("seed", 1)));
    return net::Topology::random_tree(size, rng);
  }
  fail("topology.kind", "unknown topology \"" + kind + "\"");
}

/// Phase name → [start, end) in virtual time.
struct PhaseWindow {
  sim::TimePoint start = 0;
  sim::TimePoint end = 0;
};

std::map<std::string, PhaseWindow> parse_phases(const JsonValue& root,
                                                sim::Duration& total) {
  std::map<std::string, PhaseWindow> windows;
  total = 0;
  const JsonValue* phases = root.find("phases");
  if (phases == nullptr) return windows;
  std::size_t i = 0;
  for (const JsonValue& p : phases->items()) {
    std::ostringstream w;
    w << "phases[" << i++ << "]";
    const std::string name = p.get("name", w.str()).as_string(w.str() + ".name");
    const sim::Duration d = duration_ms(
        p.get("duration_ms", w.str()).as_number(w.str() + ".duration_ms"),
        w.str() + ".duration_ms");
    const sim::Duration end = phase_end(total, d, w.str(), name);
    windows[name] = PhaseWindow{total, end};
    total = end;
  }
  return windows;
}

PhaseWindow window_of(const std::map<std::string, PhaseWindow>& phases,
                      const std::string& name, const std::string& where) {
  auto it = phases.find(name);
  if (it == phases.end()) fail(where, "unknown phase \"" + name + "\"");
  return it->second;
}

transport::NodeClientSpec parse_client(
    const JsonValue& v, const std::string& where, std::size_t index,
    const std::map<std::string, PhaseWindow>& phases) {
  transport::NodeClientSpec c;
  c.name = v.get("name", where).as_string(where + ".name");
  c.id = static_cast<std::uint32_t>(
      v.int_or("id", static_cast<std::int64_t>(index + 1)));
  c.broker = static_cast<std::size_t>(v.int_or("broker", 0));

  if (const JsonValue* subs = v.find("subscribes")) {
    std::size_t i = 0;
    for (const JsonValue& f : subs->items()) {
      std::ostringstream w;
      w << where << ".subscribes[" << i++ << "]";
      c.subscribes.push_back(parse_filter(f, w.str()));
    }
  }

  if (const JsonValue* pubs = v.find("publishes")) {
    std::size_t i = 0;
    for (const JsonValue& p : pubs->items()) {
      std::ostringstream ws;
      ws << where << ".publishes[" << i++ << "]";
      const std::string w = ws.str();
      transport::PublishDrive d;
      if (const JsonValue* every = p.find("every_ms")) {
        d.every = duration_ms(every->as_number(w + ".every_ms"),
                              w + ".every_ms", /*positive=*/true);
      } else if (const JsonValue* poisson = p.find("poisson_ms")) {
        d.poisson = duration_ms(poisson->as_number(w + ".poisson_ms"),
                                w + ".poisson_ms", /*positive=*/true);
      } else {
        fail(w, "publishes needs every_ms or poisson_ms");
      }
      d.body = parse_notification(p.get("body", w), w + ".body");
      d.count = static_cast<std::uint64_t>(p.int_or("count", 0));
      d.seed = static_cast<std::uint64_t>(p.int_or("seed", 1));
      if (const JsonValue* from = p.find("from_phase")) {
        d.start = window_of(phases, from->as_string(w + ".from_phase"),
                            w + ".from_phase")
                      .start;
      }
      if (const JsonValue* until = p.find("until_phase_end")) {
        d.stop = window_of(phases, until->as_string(w + ".until_phase_end"),
                           w + ".until_phase_end")
                     .end;
      }
      c.publishes.push_back(std::move(d));
    }
  }

  if (const JsonValue* roams = v.find("roams")) {
    std::size_t i = 0;
    for (const JsonValue& r : roams->items()) {
      std::ostringstream ws;
      ws << where << ".roams[" << i++ << "]";
      const std::string w = ws.str();
      transport::RoamDrive d;
      if (const JsonValue* route = r.find("route")) {
        for (const JsonValue& s : route->items()) {
          d.route.push_back(static_cast<std::size_t>(s.as_int(w + ".route")));
        }
      }
      if (d.route.empty()) fail(w, "roams needs a non-empty route");
      d.dwell = duration_ms(r.number_or("dwell_ms", 5000), w + ".dwell_ms");
      d.gap = duration_ms(r.number_or("gap_ms", 1000), w + ".gap_ms");
      // A zero-length roam cycle would hop forever at one instant.
      if (d.dwell + d.gap == 0) {
        fail(w + ".dwell_ms", "dwell_ms + gap_ms must be > 0");
      }
      d.hops = static_cast<std::uint64_t>(r.int_or("hops", 0));
      if (const JsonValue* from = r.find("from_phase")) {
        d.start = window_of(phases, from->as_string(w + ".from_phase"),
                            w + ".from_phase")
                      .start;
      }
      c.roams.push_back(std::move(d));
    }
  }
  return c;
}

transport::TransportOpts parse_transport(const JsonValue& root) {
  transport::TransportOpts opts;
  const JsonValue* t = root.find("transport");
  if (t == nullptr) return opts;
  opts.host = t->string_or("host", opts.host);
  opts.port_base =
      static_cast<std::uint16_t>(t->int_or("port_base", opts.port_base));
  opts.rendezvous_dir = t->string_or("rendezvous_dir", opts.rendezvous_dir);
  opts.time_scale = t->number_or("time_scale", opts.time_scale);
  return opts;
}

}  // namespace

transport::NodeSpec parse_node_config(const std::string& json_text) {
  const JsonValue root = JsonValue::parse(json_text);
  if (!root.is_object()) {
    throw JsonError("config root must be a JSON object");
  }

  transport::NodeSpec spec;
  spec.name = root.string_or("name", "");
  if (const JsonValue* topo = root.find("topology")) {
    spec.topology = parse_topology(*topo);
  }
  if (const JsonValue* br = root.find("broker")) {
    spec.broker = parse_broker(*br, spec.broker);
  }
  if (const JsonValue* routing = root.find("routing")) {
    spec.broker.strategy = parse_strategy(routing->as_string("routing"));
  }

  const auto phases = parse_phases(root, spec.total_duration);
  if (spec.total_duration == 0) spec.total_duration = sim::seconds(5);

  if (const JsonValue* clients = root.find("clients")) {
    std::size_t i = 0;
    for (const JsonValue& c : clients->items()) {
      std::ostringstream w;
      w << "clients[" << i << "]";
      spec.clients.push_back(parse_client(c, w.str(), i, phases));
      ++i;
    }
  }

  spec.transport = parse_transport(root);
  return spec;
}

transport::NodeSpec load_node_config(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw JsonError("cannot open config file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_node_config(buf.str());
}

}  // namespace rebeca::cli
