#include "perfbench/src/sim_run.hpp"

#include <time.h>

#include <chrono>
#include <limits>
#include <memory>
#include <utility>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds consumed by this process so far.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

scenario::ScenarioBuilder declare(const Plan& plan, std::size_t shards) {
  scenario::ScenarioBuilder b;
  b.seed(plan.seed)
      .topology(scenario::TopologySpec::balanced_tree(plan.tree_depth, plan.tree_fanout))
      .routing(routing::Strategy::covering)
      .broker_link_delay(sim::DelayModel::uniform(sim::millis(3), sim::millis(7)))
      .client_link_delay(sim::DelayModel::uniform(sim::micros(500), sim::micros(1500)))
      .shards(shards);
  if (plan.grid_w != 0) {
    b.locations(scenario::LocationSpec::grid(plan.grid_w, plan.grid_h));
  }
  for (const ClientPlan& c : plan.clients) {
    scenario::ClientSpec& cs = b.client(c.name).with_id(c.id).at_broker(c.broker);
    for (const filter::Filter& f : c.filters) cs.subscribes(f);
    if (c.ld) cs.subscribes(*c.ld).starts_at(grid_name(c.start_x, c.start_y));
    if (!c.filters.empty() && !c.ld) {
      b.expect_exactly_once(c.name).expect_fifo(c.name);
    }
  }
  return b;
}

// Each client's inputs are replayed as a chain of exec() events: one
// pending event per driver, like the library's own publishers.
void publish_from(scenario::Scenario& s, client::Client& c, const ClientPlan& p,
                  std::size_t k, sim::TimePoint base, Tracer& tracer) {
  s.exec().post_at(base + p.publications[k].at, [&s, &c, &p, k, base, &tracer] {
    {
      auto span = tracer.span("client.publish");
      c.publish(p.publications[k].body);
    }
    if (k + 1 < p.publications.size()) publish_from(s, c, p, k + 1, base, tracer);
  });
}

void roam_from(scenario::Scenario& s, client::Client& c, const ClientPlan& p,
               std::size_t k, sim::TimePoint base, Tracer& tracer) {
  const RoamStep& step = p.roams[k];
  s.exec().post_at(base + step.leave, [&s, &c, &p, k, base, &tracer] {
    {
      auto span = tracer.span("client.detach");
      c.detach_silently();
    }
    s.exec().post_at(base + p.roams[k].arrive, [&s, &c, &p, k, base, &tracer] {
      {
        auto span = tracer.span("client.connect");
        s.overlay().connect_client(c, p.roams[k].to);
      }
      if (k + 1 < p.roams.size()) roam_from(s, c, p, k + 1, base, tracer);
    });
  });
}

void walk_from(scenario::Scenario& s, client::Client& c, const ClientPlan& p,
               std::size_t k, sim::TimePoint base, Tracer& tracer) {
  s.exec().post_at(base + p.walks[k].at, [&s, &c, &p, k, base, &tracer] {
    {
      auto span = tracer.span("client.move_to");
      c.move_to(grid_name(p.walks[k].x, p.walks[k].y));
    }
    if (k + 1 < p.walks.size()) walk_from(s, c, p, k + 1, base, tracer);
  });
}

void start_traffic(scenario::Scenario& s, const Plan& plan, Tracer& tracer) {
  const sim::TimePoint base = s.now();
  for (const ClientPlan& p : plan.clients) {
    client::Client& c = s.client(p.name);
    if (!p.publications.empty()) publish_from(s, c, p, 0, base, tracer);
    if (!p.roams.empty()) roam_from(s, c, p, 0, base, tracer);
    if (!p.walks.empty()) walk_from(s, c, p, 0, base, tracer);
  }
}

std::vector<double> reloc_gaps(scenario::Scenario& s, const Plan& plan) {
  const sim::TimePoint base = plan.settle;
  std::vector<double> out;
  for (const ClientPlan& p : plan.clients) {
    if (p.roams.empty()) continue;
    const auto& log = s.client(p.name).deliveries();
    for (const RoamStep& step : p.roams) {
      const sim::TimePoint dark = base + step.leave;
      const sim::TimePoint back = base + step.arrive;
      sim::TimePoint first = std::numeric_limits<sim::TimePoint>::max();
      for (const client::Delivery& d : log) {
        const sim::TimePoint pub = d.notification.publish_time();
        if (pub >= dark && pub < back && d.delivered_at >= back) {
          first = std::min(first, d.delivered_at);
        }
      }
      if (first != std::numeric_limits<sim::TimePoint>::max()) {
        out.push_back(sim::to_millis(first - back));
      }
    }
  }
  return out;
}

}  // namespace

Gauges broker_gauges(broker::Overlay& overlay) {
  Gauges g;
  for (const char* name :
       {"routing_entries", "routing_tags", "match_index_entries", "cover_index_entries",
        "virtuals", "ld_transits", "pins_active", "pending_moveouts",
        "reexposed_filters", "replayed", "replay_truncated"}) {
    g[name] = 0;
  }
  for (std::size_t i = 0; i < overlay.broker_count(); ++i) {
    const broker::Broker& b = overlay.broker(i);
    g["routing_entries"] += static_cast<double>(b.routing_entry_count());
    g["routing_tags"] += static_cast<double>(b.routing_tag_count());
    g["match_index_entries"] += static_cast<double>(b.match_index_entries());
    g["cover_index_entries"] += static_cast<double>(b.cover_index_entries());
    g["virtuals"] += static_cast<double>(b.virtual_count());
    g["ld_transits"] += static_cast<double>(b.ld_transit_count());
    g["pins_active"] += static_cast<double>(b.reexpose_pin_count());
    g["pending_moveouts"] += static_cast<double>(b.pending_moveout_count());
    g["reexposed_filters"] += static_cast<double>(b.reexposed_filters());
    g["replayed"] += static_cast<double>(b.replayed_notifications());
    g["replay_truncated"] += static_cast<double>(b.replay_truncated());
  }
  return g;
}

SimResult run_sim(const Plan& plan, Tracer& tracer, std::size_t shards,
                  const SettleHook& after_settle) {
  scenario::ScenarioBuilder b = declare(plan, shards);
  b.phase("settle", plan.settle);
  b.phase("traffic", plan.traffic, [&plan, &tracer](scenario::Scenario& s) {
    start_traffic(s, plan, tracer);
  });
  b.phase("drain", plan.drain);

  SimResult r;
  double cpu = cpu_seconds();
  // CPU seconds of this step, restarting the count for the next one.
  const auto step = [&cpu] {
    const double now = cpu_seconds();
    return now - std::exchange(cpu, now);
  };
  std::unique_ptr<scenario::Scenario> s;
  {
    auto span = tracer.span("scenario.build");
    s = b.build();
  }
  r.build_s = step();
  {
    auto span = tracer.span("scenario.settle");
    s->run_next_phase();
  }
  r.settle_s = step();

  r.at_settle = broker_gauges(s->overlay());
  if (after_settle) after_settle(*s);

  const std::uint64_t before = s->overlay().total_counters().total();
  const auto wall = Clock::now();
  step();
  {
    auto span = tracer.span("scenario.traffic");
    s->run_next_phase();
    r.traffic_messages = s->overlay().total_counters().total() - before;
    span.set_count(r.traffic_messages);
  }
  r.traffic_s = step();
  r.traffic_wall_s = since(wall);
  {
    auto span = tracer.span("scenario.drain");
    s->run_next_phase();
  }
  r.drain_s = step();
  {
    auto span = tracer.span("scenario.report");
    r.report = s->report();
  }
  r.report_s = step();

  r.report_text = r.report.to_string();
  r.at_end = broker_gauges(s->overlay());
  r.reloc_gap_ms = reloc_gaps(*s, plan);
  return r;
}

double settle_seconds(const Plan& plan) {
  scenario::ScenarioBuilder b = declare(plan, 0);
  b.phase("settle", plan.settle);
  const double cpu = cpu_seconds();
  auto s = b.build();
  s->run_next_phase();
  return cpu_seconds() - cpu;
}

}  // namespace perfbench
