#include "perfbench/src/plan.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "src/net/topology.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

using filter::Constraint;
using filter::Filter;
using filter::Notification;

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::fanout: return "fanout";
    case Workload::roam: return "roam";
    case Workload::walk: return "walk";
    case Workload::tcp: return "tcp";
  }
  return "?";
}

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::fanout, Workload::roam, Workload::walk, Workload::tcp}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

std::size_t Plan::broker_count() const {
  std::size_t n = 1;
  std::size_t level = 1;
  for (std::size_t d = 0; d < tree_depth; ++d) {
    level *= tree_fanout;
    n += level;
  }
  return n;
}

std::size_t Plan::publication_count() const {
  std::size_t n = 0;
  for (const ClientPlan& c : clients) n += c.publications.size();
  return n;
}

std::size_t Plan::move_count() const {
  std::size_t n = 0;
  for (const ClientPlan& c : clients) n += c.roams.size() + c.walks.size();
  return n;
}

std::size_t Plan::subscriber_count() const {
  std::size_t n = 0;
  for (const ClientPlan& c : clients) {
    if (!c.filters.empty() || c.ld) ++n;
  }
  return n;
}

std::string grid_name(std::size_t x, std::size_t y) {
  return "g" + std::to_string(x) + "_" + std::to_string(y);
}

std::size_t default_subscribers(Workload w) {
  switch (w) {
    case Workload::fanout: return 40;
    case Workload::roam: return 40;
    case Workload::walk: return 32;
    case Workload::tcp: return 2;
  }
  return 1;
}

namespace {

constexpr std::int64_t kTopics = 4;
constexpr std::int64_t kSymbols = 256;
constexpr std::int64_t kPriceMax = 999;
constexpr std::int64_t kVolumeMax = 99;

std::string topic(std::int64_t i) { return "t" + std::to_string(i); }

std::string symbol(std::int64_t i) {
  std::string digits = std::to_string(i);
  return "s" + std::string(3 - digits.size(), '0') + digits;
}

/// A varied notification: every attribute drawn independently.
Notification random_notification(util::Rng& rng) {
  return Notification()
      .set("topic", topic(rng.uniform_i64(0, kTopics - 1)))
      .set("sym", symbol(rng.uniform_i64(0, kSymbols - 1)))
      .set("price", rng.uniform_i64(0, kPriceMax))
      .set("vol", rng.uniform_i64(0, kVolumeMax));
}

/// The i-th subscription of the selectivity mix. The shape cycles
/// through eq / range / prefix / in-set so every population has the same
/// mix; only positions and members are drawn, so the expected match rate
/// of each filter does not depend on the seed.
Filter mixed_filter(util::Rng& rng, std::size_t i) {
  const std::string t = topic(rng.uniform_i64(0, kTopics - 1));
  switch (i % 4) {
    case 0:
      return Filter()
          .where("topic", Constraint::eq(t))
          .where("sym", Constraint::eq(symbol(rng.uniform_i64(0, kSymbols - 1))));
    case 1: {
      // Overlapping ranges of three widths: wide ranges cover narrow
      // ones on the same topic, so covering aggregates them.
      static constexpr std::int64_t kWidths[] = {100, 200, 400};
      const std::int64_t w = kWidths[(i / 4) % 3];
      const std::int64_t lo = rng.uniform_i64(0, kPriceMax - w);
      return Filter()
          .where("topic", Constraint::eq(t))
          .where("price", Constraint::range(lo, lo + w));
    }
    case 2: {
      // Ten symbols share each three-character prefix.
      const std::int64_t p = rng.uniform_i64(0, 24);
      return Filter()
          .where("topic", Constraint::eq(t))
          .where("sym", Constraint::prefix(symbol(p * 10).substr(0, 3)));
    }
    default: {
      static constexpr std::size_t kSizes[] = {8, 16, 32, 64};
      const std::size_t k = kSizes[(i / 4) % 4];
      std::set<filter::Value> members;
      while (members.size() < k) {
        members.insert(filter::Value(symbol(rng.uniform_i64(0, kSymbols - 1))));
      }
      return Filter().where("sym", Constraint::in_set(std::move(members)));
    }
  }
}

/// Poisson send times from 0 until `until` (exclusive), mean gap `mean`.
std::vector<sim::Duration> poisson_times(util::Rng& rng, sim::Duration mean,
                                         sim::Duration until) {
  std::vector<sim::Duration> out;
  sim::Duration t = 0;
  for (;;) {
    t += 1 + static_cast<sim::Duration>(rng.exponential(static_cast<double>(mean)));
    if (t >= until) return out;
    out.push_back(t);
  }
}

/// Border brokers (leaves), grouped by the root's subtree they sit in.
/// Clients are spread round-robin over the subtrees and drawn within
/// one, so the mix of short (same subtree) and long (across the root)
/// paths is the same for every seed.
using Leaves = std::vector<std::vector<std::size_t>>;

Leaves leaves_of(const Plan& p) {
  const net::Topology topo = net::Topology::balanced_tree(p.tree_depth, p.tree_fanout);
  Leaves groups(std::max<std::size_t>(1, topo.neighbors(0).size()));
  for (std::size_t b = 1; b < topo.broker_count(); ++b) {
    if (topo.neighbors(b).size() != 1) continue;
    const std::size_t child = topo.path(0, b)[1];
    const auto& top = topo.neighbors(0);
    groups[static_cast<std::size_t>(std::find(top.begin(), top.end(), child) - top.begin())]
        .push_back(b);
  }
  return groups;
}

std::size_t pick_leaf(util::Rng& rng, const Leaves& leaves, std::size_t i) {
  const auto& group = leaves[i % leaves.size()];
  return group[rng.index(group.size())];
}

void add_producers(Plan& p, util::Rng& rng, const Leaves& leaves, std::size_t count,
                   sim::Duration mean_gap, bool stamp_location) {
  for (std::size_t i = 0; i < count; ++i) {
    ClientPlan c;
    c.name = "pub" + std::to_string(i);
    c.id = static_cast<std::uint32_t>(10001 + i);
    c.broker = pick_leaf(rng, leaves, i);
    for (sim::Duration at : poisson_times(rng, mean_gap, p.traffic - sim::millis(100))) {
      Notification n = random_notification(rng);
      if (stamp_location) {
        n.set("location", grid_name(rng.index(p.grid_w), rng.index(p.grid_h)));
      }
      c.publications.push_back(Publication{at, std::move(n)});
    }
    p.clients.push_back(std::move(c));
  }
}

void add_static_subscribers(Plan& p, util::Rng& rng, std::size_t count,
                            const Leaves& leaves) {
  for (std::size_t i = 0; i < count; ++i) {
    ClientPlan c;
    c.name = "sub" + std::to_string(i);
    c.id = static_cast<std::uint32_t>(1 + i);
    c.broker = pick_leaf(rng, leaves, i);
    c.filters.push_back(mixed_filter(rng, i));
    p.clients.push_back(std::move(c));
  }
}

/// Random-waypoint roaming over the border brokers inside the traffic
/// phase: three hops per roamer, each a dwell, a 150 ms dark gap and a
/// re-attach at a leaf of the next root subtree. Only the start offset,
/// the dwell times and the leaves are drawn, so every seed moves the
/// same number of times over paths of the same lengths.
void add_roams(ClientPlan& c, util::Rng& rng, const Leaves& leaves) {
  const sim::Duration gap = sim::millis(150);
  std::size_t at = c.broker;
  sim::Duration t = sim::millis(100) + rng.uniform_i64(0, sim::millis(300));
  for (std::size_t hop = 0; hop < 3; ++hop) {
    std::size_t to = at;
    for (std::size_t k = hop + 1; to == at; ++k) to = pick_leaf(rng, leaves, k);
    c.roams.push_back(RoamStep{t, t + gap, to});
    at = to;
    t += gap + sim::millis(400) + rng.uniform_i64(0, sim::millis(200));
  }
}

/// A random walk on the grid: a fixed number of moves at jittered,
/// evenly spaced times before `end`.
void add_walk(ClientPlan& c, const Plan& p, util::Rng& rng, std::size_t moves,
              sim::Duration end) {
  std::size_t x = c.start_x;
  std::size_t y = c.start_y;
  const sim::Duration step = end / static_cast<sim::Duration>(moves + 1);
  for (std::size_t k = 1; k <= moves; ++k) {
    const sim::Duration t =
        static_cast<sim::Duration>(k) * step + rng.uniform_i64(-step / 4, step / 4);
    std::vector<std::pair<std::size_t, std::size_t>> next;
    if (x > 0) next.emplace_back(x - 1, y);
    if (x + 1 < p.grid_w) next.emplace_back(x + 1, y);
    if (y > 0) next.emplace_back(x, y - 1);
    if (y + 1 < p.grid_h) next.emplace_back(x, y + 1);
    std::tie(x, y) = next[rng.index(next.size())];
    c.walks.push_back(WalkStep{t, x, y});
  }
}

}  // namespace

Plan make_plan(Workload w, std::uint64_t seed, std::size_t subscribers) {
  Plan p;
  p.workload = w;
  p.seed = seed;
  const std::size_t n = subscribers != 0 ? subscribers : default_subscribers(w);
  // Independent streams per concern, so resizing one population leaves
  // the draws of the others unchanged.
  util::Rng sub_rng(util::SplitMix64(seed ^ 0x5b5b5b5bULL).next());
  util::Rng pub_rng(util::SplitMix64(seed ^ 0x9a9a9a9aULL).next());
  util::Rng move_rng(util::SplitMix64(seed ^ 0x3c3c3c3cULL).next());

  switch (w) {
    case Workload::fanout: {
      const auto leaves = leaves_of(p);
      p.traffic = sim::seconds(2);
      add_static_subscribers(p, sub_rng, n, leaves);
      add_producers(p, pub_rng, leaves, 16, sim::millis(4), false);
      break;
    }
    case Workload::roam: {
      const auto leaves = leaves_of(p);
      p.traffic = sim::seconds(3);
      add_static_subscribers(p, sub_rng, n, leaves);
      // Every third subscriber roams (about 30%).
      for (std::size_t i = 0; i < n; i += 3) {
        add_roams(p.clients[i], move_rng, leaves);
      }
      add_producers(p, pub_rng, leaves, 8, sim::millis(20), false);
      break;
    }
    case Workload::walk: {
      const auto leaves = leaves_of(p);
      p.traffic = sim::seconds(3);
      p.grid_w = 6;
      p.grid_h = 6;
      // A few static tracked subscribers give loss_ratio its base.
      add_static_subscribers(p, sub_rng, std::max<std::size_t>(2, n * 3 / 8), leaves);
      for (std::size_t i = 0; i < n; ++i) {
        ClientPlan c;
        c.name = "walker" + std::to_string(i);
        c.id = static_cast<std::uint32_t>(5001 + i);
        c.broker = pick_leaf(sub_rng, leaves, i);
        location::LdSpec spec;
        spec.base = Filter().where("topic", Constraint::eq(topic(static_cast<std::int64_t>(i) % kTopics)));
        spec.vicinity_radius = static_cast<std::uint32_t>(i % 3);
        spec.profile = location::UncertaintyProfile::global_resub();
        c.ld = std::move(spec);
        c.start_x = sub_rng.index(p.grid_w);
        c.start_y = sub_rng.index(p.grid_h);
        add_walk(c, p, move_rng, 6, p.traffic - sim::millis(200));
        p.clients.push_back(std::move(c));
      }
      add_producers(p, pub_rng, leaves, 8, sim::millis(7), true);
      break;
    }
    case Workload::tcp: {
      // Brokers 0 - 1. The producer sits at broker 0, a static
      // subscriber at broker 1, and a roamer that moves 1 -> 0 -> 1 -> 0
      // with short dark gaps. The stream is an open loop at a fixed
      // rate (one publication every 500 us). --size does not apply.
      p.tree_depth = 1;
      p.tree_fanout = 1;
      p.settle = sim::millis(500);
      p.traffic = sim::millis(1600);
      p.drain = sim::millis(500);
      const Filter all = Filter().where("price", Constraint::ge(std::int64_t{0}));
      ClientPlan sub;
      sub.name = "sub";
      sub.id = 1;
      sub.broker = 1;
      sub.filters.push_back(all);
      ClientPlan roamer = sub;
      roamer.name = "roamer";
      roamer.id = 2;
      for (int k = 0; k < 3; ++k) {
        const sim::Duration leave = sim::millis(300 + 400 * k);
        roamer.roams.push_back(RoamStep{leave, leave + sim::millis(50), k % 2 == 0 ? 0u : 1u});
      }
      ClientPlan producer;
      producer.name = "pub";
      producer.id = 10001;
      producer.broker = 0;
      for (sim::Duration at = sim::micros(500); at < p.traffic - sim::millis(100);
           at += sim::micros(500)) {
        producer.publications.push_back(Publication{at, random_notification(pub_rng)});
      }
      p.clients = {sub, roamer, producer};
      break;
    }
  }
  return p;
}

}  // namespace perfbench
