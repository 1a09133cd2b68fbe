#include "perfbench/src/probes.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "src/location/location_graph.hpp"
#include "src/routing/match_index.hpp"
#include "src/routing/strategy.hpp"
#include "src/transport/session.hpp"
#include "src/transport/wire.hpp"

namespace perfbench {

namespace {

// Results the optimizer must not discard.
volatile std::uint64_t g_sink = 0;

struct LocalSub {
  SubKey key;
  filter::Filter f;
};

/// Every publication of the plan, thinned to at most `limit` evenly
/// spaced picks, with the producer's broker.
std::vector<std::pair<std::size_t, const filter::Notification*>> sample_publications(
    const Plan& plan, std::size_t limit) {
  std::vector<std::pair<std::size_t, const filter::Notification*>> all;
  for (const ClientPlan& c : plan.clients) {
    for (const Publication& p : c.publications) all.emplace_back(c.broker, &p.body);
  }
  if (all.size() <= limit) return all;
  std::vector<std::pair<std::size_t, const filter::Notification*>> out;
  for (std::size_t i = 0; i < limit; ++i) out.push_back(all[i * all.size() / limit]);
  return out;
}

std::vector<filter::Filter> plan_filters(const Plan& plan) {
  std::vector<filter::Filter> out;
  for (const ClientPlan& c : plan.clients) {
    out.insert(out.end(), c.filters.begin(), c.filters.end());
    if (c.ld) out.push_back(c.ld->base);
  }
  return out;
}

std::string describe(const routing::ForwardSet& fs) {
  std::ostringstream os;
  os << fs.size() << " entries";
  for (const auto& [f, tags] : fs) {
    os << " " << f << "{" << tags.size() << "}";
    if (os.tellp() > 300) break;
  }
  return os.str();
}

}  // namespace

RoutingReplay replay_routing(scenario::Scenario& s, const Plan& plan, Tracer& tracer) {
  const net::Topology& topo = s.topology();
  broker::Overlay& overlay = s.overlay();
  const std::size_t n = topo.broker_count();
  const routing::Strategy strategy = routing::Strategy::covering;

  // Broker links in LinkId order: link k joins edges()[k].
  std::vector<std::vector<std::pair<LinkId, std::size_t>>> links(n);
  for (std::size_t k = 0; k < topo.edges().size(); ++k) {
    const auto [a, b] = topo.edges()[k];
    links[a].emplace_back(LinkId(static_cast<std::uint32_t>(k)), b);
    links[b].emplace_back(LinkId(static_cast<std::uint32_t>(k)), a);
  }
  // Local static subscriptions, in the broker's (client, sub) key order.
  std::vector<std::vector<LocalSub>> locals(n);
  for (const ClientPlan& c : plan.clients) {
    for (std::size_t j = 0; j < c.filters.size(); ++j) {
      locals[c.broker].push_back(
          LocalSub{SubKey{ClientId(c.id), static_cast<std::uint32_t>(j + 1)}, c.filters[j]});
    }
  }
  for (auto& l : locals) {
    std::sort(l.begin(), l.end(),
              [](const LocalSub& a, const LocalSub& b) { return a.key < b.key; });
  }
  const routing::ForwardSet empty;
  const auto received = [&](std::size_t neighbour, LinkId link) -> const routing::ForwardSet& {
    const routing::ForwardSet* fs = overlay.broker(neighbour).forwarded_to(link);
    return fs != nullptr ? *fs : empty;
  };

  RoutingReplay r;
  for (std::size_t b = 0; b < n; ++b) {
    for (const auto& [link, neighbour] : links[b]) {
      std::vector<routing::ForwardInput> inputs;
      for (const auto& [other, via] : links[b]) {
        if (other == link) continue;
        for (const auto& [f, tags] : received(via, other)) inputs.push_back({f, tags});
      }
      for (const LocalSub& l : locals[b]) inputs.push_back({l.f, {l.key}});
      r.inputs += inputs.size();

      routing::ForwardSet target;
      {
        auto span = tracer.span("routing.compute_forward_set");
        target = routing::compute_forward_set(strategy, inputs, routing::AdminIndex::index);
      }
      const routing::ForwardSet& sent = received(b, link);
      ++r.targets;
      if (target == sent) {
        ++r.agree;
      } else if (r.mismatches.size() < 3) {
        r.mismatches.push_back("broker " + std::to_string(b) + " link " +
                               std::to_string(link.value()) + ": replayed " +
                               describe(target) + " / forwarded " + describe(sent));
      }
      {
        auto span = tracer.span("routing.diff");
        g_sink = g_sink + routing::diff_forward_sets(sent, target).steps.size();
      }
      // The covered inputs of every forwarded entry.
      routing::ForwardSet hop;
      for (const routing::ForwardInput& in : inputs) {
        hop[in.f].insert(in.tags.begin(), in.tags.end());
      }
      {
        auto span = tracer.span("routing.covered_by");
        span.set_count(target.size());
        for (const auto& entry : target) {
          g_sink = g_sink + routing::covered_by(entry.first, hop).size();
        }
      }
      // Moveout plans for every key the neighbour's table serves.
      const routing::ForwardSet& table = received(neighbour, link);
      std::set<SubKey> keys;
      for (const auto& entry : table) keys.insert(entry.second.begin(), entry.second.end());
      if (!keys.empty()) {
        auto span = tracer.span("routing.plan_moveout");
        span.set_count(keys.size());
        for (const SubKey& key : keys) {
          g_sink = g_sink + routing::plan_moveout(strategy, key, table).steps.size();
        }
      }
    }
  }

  // Data plane: a MatchIndex replica per broker, and each sampled
  // publication routed hop by hop from its producer's broker.
  std::vector<routing::MatchIndex> index(n);
  for (std::size_t b = 0; b < n; ++b) {
    for (const auto& [link, via] : links[b]) {
      for (const auto& entry : received(via, link)) index[b].add_remote(link, entry.first);
    }
    for (const LocalSub& l : locals[b]) index[b].upsert_local(l.key, l.f);
  }
  std::map<LinkId, std::pair<std::size_t, std::size_t>> ends;
  for (std::size_t k = 0; k < topo.edges().size(); ++k) {
    ends[LinkId(static_cast<std::uint32_t>(k))] = topo.edges()[k];
  }
  routing::MatchHits hits;
  std::vector<std::pair<std::size_t, LinkId>> frontier;
  for (const auto& [origin, note] : sample_publications(plan, 1500)) {
    auto span = tracer.span("routing.match_collect");
    std::uint64_t queries = 0;
    frontier.assign(1, {origin, LinkId{}});
    while (!frontier.empty()) {
      const auto [b, from] = frontier.back();
      frontier.pop_back();
      index[b].collect(*note, hits);
      ++queries;
      std::uint64_t useful = hits.locals.size();
      for (LinkId l : hits.links) {
        if (l == from) continue;
        ++useful;
        const auto [x, y] = ends.at(l);
        frontier.emplace_back(x == b ? y : x, l);
      }
      r.match_hits += useful;
      if (useful != 0) ++r.match_useful;
    }
    r.match_queries += queries;
    span.set_count(queries);
  }
  return r;
}

void probe_filters(const Plan& plan, Tracer& tracer) {
  const std::vector<filter::Filter> filters = plan_filters(plan);
  std::vector<const filter::Notification*> notes;
  for (const auto& [b, note] : sample_publications(plan, 256)) notes.push_back(note);
  if (filters.empty() || notes.empty()) return;

  // Enough repetitions that each batch runs for milliseconds.
  const std::size_t pairs = filters.size() * notes.size();
  const std::size_t match_reps = std::max<std::size_t>(1, 400000 / pairs);
  {
    auto span = tracer.span("filter.matches");
    std::uint64_t hit = 0;
    for (std::size_t rep = 0; rep < match_reps; ++rep) {
      for (const filter::Filter& f : filters) {
        for (const filter::Notification* note : notes) hit += f.matches(*note) ? 1 : 0;
      }
    }
    g_sink = g_sink + hit;
    span.set_count(match_reps * pairs);
  }
  const std::size_t cover_pairs = filters.size() * filters.size();
  const std::size_t cover_reps = std::max<std::size_t>(1, 200000 / cover_pairs);
  {
    auto span = tracer.span("filter.covers");
    std::uint64_t hit = 0;
    for (std::size_t rep = 0; rep < cover_reps; ++rep) {
      for (const filter::Filter& f : filters) {
        for (const filter::Filter& g : filters) hit += f.covers(g) ? 1 : 0;
      }
    }
    g_sink = g_sink + hit;
    span.set_count(cover_reps * cover_pairs);
  }
  // Ordered ForwardSet inserts, counting the Filter::operator< calls.
  struct CountingLess {
    std::uint64_t* calls;
    bool operator()(const filter::Filter& a, const filter::Filter& b) const {
      ++*calls;
      return a < b;
    }
  };
  {
    auto span = tracer.span("filter.less");
    std::uint64_t calls = 0;
    const std::size_t reps = std::max<std::size_t>(1, 20000 / filters.size());
    for (std::size_t rep = 0; rep < reps; ++rep) {
      std::map<filter::Filter, std::set<SubKey>, CountingLess> fs(CountingLess{&calls});
      for (const filter::Filter& f : filters) fs.emplace(f, std::set<SubKey>{});
      g_sink = g_sink + fs.size();
    }
    span.set_count(calls);
  }
}

void probe_locations(const Plan& plan, Tracer& tracer) {
  const std::size_t w = plan.grid_w != 0 ? plan.grid_w : 6;
  const std::size_t h = plan.grid_h != 0 ? plan.grid_h : 6;
  // Radii in use: vicinity + the profile's per-hop slack (q_0 = 0 at
  // the border broker, q_1 = 1 beyond it under global_resub).
  std::set<std::size_t> radii;
  for (const ClientPlan& c : plan.clients) {
    if (!c.ld) continue;
    for (std::size_t hop = 0; hop < 2; ++hop) {
      radii.insert(c.ld->vicinity_radius + c.ld->profile.steps(hop));
    }
  }
  if (radii.empty()) radii = {0, 1, 2, 3};
  const location::LocationGraph graph = location::LocationGraph::grid(w, h);
  for (std::size_t x = 0; x < w; ++x) {
    for (std::size_t y = 0; y < h; ++y) {
      const LocationId id = graph.id_of(grid_name(x, y));
      for (std::size_t q : radii) {
        const location::LocationSet* set = nullptr;
        {
          auto span = tracer.span("location.ploc");
          set = &graph.ploc(id, q);
        }
        auto span = tracer.span("location.constraint_for");
        g_sink = g_sink + graph.constraint_for(*set).values().size();
      }
    }
  }
}

namespace {

std::vector<net::Message> message_mix(const Plan& plan) {
  std::vector<net::Message> mix;
  std::uint64_t seq = 0;
  for (const auto& [b, note] : sample_publications(plan, 512)) {
    mix.emplace_back(net::PublishMsg{*note});
    mix.emplace_back(net::DeliverMsg{SubKey{ClientId(1), 1}, net::StampedNotification{*note, ++seq}});
  }
  for (const ClientPlan& c : plan.clients) {
    for (std::size_t j = 0; j < c.filters.size(); ++j) {
      mix.emplace_back(net::SubscribeMsg{
          c.filters[j], {SubKey{ClientId(c.id), static_cast<std::uint32_t>(j + 1)}}});
    }
  }
  return mix;
}

}  // namespace

double probe_wire(const Plan& plan, Tracer& tracer) {
  const std::vector<net::Message> mix = message_mix(plan);
  if (mix.empty()) return 0;
  const std::size_t reps = std::max<std::size_t>(1, 100000 / mix.size());
  std::vector<std::string> encoded(mix.size());
  {
    auto span = tracer.span("transport.encode");
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::size_t i = 0; i < mix.size(); ++i) encoded[i] = transport::encode_message(mix[i]);
    }
    span.set_count(reps * mix.size());
  }
  {
    auto span = tracer.span("transport.decode");
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (const std::string& bytes : encoded) {
        g_sink = g_sink + transport::decode_message(bytes).index();
      }
    }
    span.set_count(reps * encoded.size());
  }
  std::size_t bytes = 0;
  for (const std::string& e : encoded) bytes += e.size();
  return static_cast<double>(bytes) / static_cast<double>(encoded.size());
}

double probe_session(const Plan& plan, Tracer& tracer) {
  std::vector<std::string> payloads;
  for (const auto& [b, note] : sample_publications(plan, 256)) {
    payloads.push_back(transport::encode_message(net::Message{net::ClientPublishMsg{*note}}));
  }
  if (payloads.empty()) return 0;
  constexpr int kMessages = 20000;
  transport::RealtimeExecutor exec;
  std::unique_ptr<transport::PeerSession> server;
  std::atomic<int> received{0};
  transport::Acceptor acceptor(
      exec, "127.0.0.1", 0, [&](transport::Conn conn, transport::SessionHello) {
        server = std::make_unique<transport::PeerSession>(
            exec, std::move(conn),
            [&](std::string payload) {
              g_sink = g_sink + transport::decode_message(payload).index();
              if (received.fetch_add(1) + 1 == kMessages) exec.stop();
            },
            [] {});
        server->send_frame(transport::kFrameWelcome,
                           transport::encode_welcome(transport::SessionWelcome{1, 0}));
      });

  auto span = tracer.span("transport.session");
  span.set_count(kMessages);
  const auto t0 = std::chrono::steady_clock::now();
  bool dialed_ok = false;
  std::thread sender([&] {
    auto dialed = transport::dial("127.0.0.1", acceptor.port(), transport::SessionHello{},
                                  std::chrono::milliseconds(5000));
    if (!dialed) {
      exec.stop();
      return;
    }
    for (int i = 0; i < kMessages; ++i) {
      if (!dialed->first.write_frame(transport::kFrameMsg,
                                     payloads[static_cast<std::size_t>(i) % payloads.size()])) {
        exec.stop();
        return;
      }
    }
    dialed_ok = true;
    // Hold the conn open until the receiver has drained the stream.
    while (received.load() < kMessages && !exec.stopped()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  exec.run();
  sender.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (server) server->close();
  acceptor.close();
  if (!dialed_ok || received.load() < kMessages) return 0;
  return kMessages / secs;
}

}  // namespace perfbench
