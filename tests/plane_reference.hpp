// The broker's planes against their linear references, on live state.
//
// A broker answers every routing question through two incremental
// indexes: the notification data plane (MatchIndex) and the admin plane
// (CoverIndex, plus the indexed covering pass of compute_forward_set).
// The linear table scans those indexes replaced are kept here, and only
// here, as the oracle: PlaneReference re-runs each scan on a broker's
// live tables and compares it with what the indexes answer on the same
// state; the routing tables themselves are cross-checked between the
// two ends of each link once an example run has drained (audit_peers).
// matcher_equivalence_test audits the data plane and
// admin_index_equivalence_test the admin plane. Both step every
// checked-in example config on the classic kernel and on the sharded
// engine (1 and 4 shards), plus one hand-built scenario under every
// aggregating strategy with location-dependent clients, and audit every
// broker between steps, so the comparison covers the intermediate
// states of relocations, moveouts and re-expose handshakes, not just
// the settled end state.
#ifndef REBECA_TESTS_PLANE_REFERENCE_HPP
#define REBECA_TESTS_PLANE_REFERENCE_HPP

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/broker/broker.hpp"
#include "src/broker/overlay.hpp"
#include "src/cli/config.hpp"
#include "src/scenario/scenario.hpp"

namespace rebeca::broker::testing {

using filter::Filter;
using filter::Notification;
using routing::ForwardInput;
using routing::ForwardSet;
using routing::MatchHits;

/// The friend of Broker named in broker.hpp. Each check pairs one index
/// query with the linear scan the broker ran before the index existed.
struct PlaneReference {
  /// Compares the data plane of `b` (MatchIndex) against its reference
  /// for each probe notification; returns one line per disagreement
  /// (empty when the broker is consistent).
  static std::vector<std::string> audit_data(
      const Broker& b, const std::vector<Notification>& probes) {
    std::vector<std::string> out;
    check_matching(b, probes, out);
    return out;
  }

  /// Compares the admin plane of `b` (CoverIndex's per-link views and
  /// queries, the sent sets, and the indexed forward set) against its
  /// references; same result shape as audit_data.
  static std::vector<std::string> audit_admin(const Broker& b) {
    std::vector<std::string> out;
    check_views(b, out);
    check_sent(b, out);
    check_junctions(b, out);
    check_moveouts(b, out);
    check_covered_inputs(b, out);
    check_forward_sets(b, out);
    return out;
  }

  /// Every filter in the broker's tables: remote entries, local
  /// subscriptions, virtual counterparts and LD transit state.
  static std::vector<Filter> probe_filters(const Broker& b) {
    std::set<Filter> filters;
    for (const auto& [lid, fs] : tables(b)) {
      for (const auto& [f, tags] : fs) filters.insert(f);
    }
    for (const auto& [client, session] : b.sessions_) {
      for (const auto& [sub_id, sub] : session.subs) filters.insert(sub.concrete);
    }
    for (const auto& [key, v] : b.virtuals_) filters.insert(v.f);
    for (const auto& [key, t] : b.ld_) filters.insert(t.concrete);
    return {filters.begin(), filters.end()};
  }

  /// Quiescent peer agreement, on every link of `b` to another broker:
  /// what `b` sent is exactly the routing table the peer keeps for the
  /// link. Holds only once no admin message is in flight; same result
  /// shape as audit_data.
  static std::vector<std::string> audit_peers(const Broker& b) {
    std::vector<std::string> out;
    for (const auto& [lid, link] : b.links_by_id_) {
      const auto* peer = dynamic_cast<const Broker*>(&link->peer_of(b));
      if (peer == nullptr) continue;
      const ForwardSet table = peer->cover_index_.remote_table(lid);
      const ForwardSet& sent = b.sent_.at(lid);
      if (table != sent) {
        std::ostringstream os;
        os << where(b) << "sent toward broker" << peer->id_ << " on " << lid
           << ": " << show(sent) << " vs its table " << show(table);
        out.push_back(os.str());
      }
    }
    return out;
  }

 private:
  /// Each broker link's routing table, in LinkId order (read off
  /// CoverIndex's remote plane, the broker's only copy).
  static std::map<LinkId, ForwardSet> tables(const Broker& b) {
    std::map<LinkId, ForwardSet> out;
    for (const auto& [lid, link] : b.links_by_id_) {
      out.emplace(lid, b.cover_index_.remote_table(lid));
    }
    return out;
  }

  template <typename T>
  static std::string show(const std::vector<T>& v) {
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < v.size(); ++i) os << (i ? " " : "") << v[i];
    os << ']';
    return os.str();
  }

  static std::string show(const ForwardSet& fs) {
    std::ostringstream os;
    for (const auto& [f, tags] : fs) {
      os << f << "->{";
      for (const SubKey& k : tags) os << k << ' ';
      os << "} ";
    }
    return os.str();
  }

  static std::string where(const Broker& b) {
    std::ostringstream os;
    os << "broker" << b.id_ << " @" << b.sim_.now() << ": ";
    return os.str();
  }

  /// The four route_notification scans: remote tables and LD transits
  /// per link, local subscriptions, virtual counterparts.
  static MatchHits linear_collect(const Broker& b, const Notification& n) {
    MatchHits hits;
    for (const auto& [lid, fs] : tables(b)) {
      if (std::any_of(fs.begin(), fs.end(),
                      [&](const auto& e) { return e.first.matches(n); })) {
        hits.links.push_back(lid);
      }
    }
    for (const auto& [key, transit] : b.ld_) {
      if (transit.concrete.matches(n)) hits.links.push_back(transit.toward);
    }
    for (const auto& [client, session] : b.sessions_) {
      for (const auto& [sub_id, sub] : session.subs) {
        if (sub.concrete.matches(n)) hits.locals.push_back(sub.key);
      }
    }
    for (const auto& [key, v] : b.virtuals_) {
      if (v.f.matches(n)) hits.virtuals.push_back(key);
    }
    std::sort(hits.links.begin(), hits.links.end());
    hits.links.erase(std::unique(hits.links.begin(), hits.links.end()),
                     hits.links.end());
    return hits;
  }

  static void check_matching(const Broker& b,
                             const std::vector<Notification>& probes,
                             std::vector<std::string>& out) {
    MatchHits indexed;
    for (const Notification& n : probes) {
      const MatchHits ref = linear_collect(b, n);
      b.index_.collect(n, indexed);
      if (ref.links != indexed.links || ref.locals != indexed.locals ||
          ref.virtuals != indexed.virtuals) {
        out.push_back(where(b) + "collect(" + n.to_string() + "): links " +
                      show(ref.links) + " vs " + show(indexed.links) +
                      ", locals " + show(ref.locals) + " vs " +
                      show(indexed.locals) + ", virtuals " +
                      show(ref.virtuals) + " vs " + show(indexed.virtuals));
      }
    }
  }

  /// Exclude links to probe with: none, and every broker link.
  static std::vector<LinkId> excludes(const Broker& b) {
    std::vector<LinkId> ex{LinkId{}};
    for (const net::Link* link : b.broker_links_) ex.push_back(link->id());
    return ex;
  }

  /// dispatch_fetch / on_fetch: the tagged-junction walk and the
  /// covering fallback walk over the remote tables.
  static void check_junctions(const Broker& b, std::vector<std::string>& out) {
    const auto remote = tables(b);
    std::set<SubKey> keys;
    for (const auto& [lid, fs] : remote) {
      for (const auto& [f, tags] : fs) keys.insert(tags.begin(), tags.end());
    }
    const auto filters = probe_filters(b);
    std::vector<LinkId> indexed;
    for (const LinkId ex : excludes(b)) {
      for (const SubKey& key : keys) {
        std::vector<LinkId> ref;
        for (const auto& [lid, fs] : remote) {
          if (lid == ex) continue;
          if (std::any_of(fs.begin(), fs.end(), [&](const auto& e) {
                return e.second.count(key) != 0;
              })) {
            ref.push_back(lid);
          }
        }
        b.cover_index_.links_serving(key, ex, indexed);
        if (ref != indexed) {
          std::ostringstream os;
          os << where(b) << "links_serving(" << key << ", exclude " << ex
             << "): " << show(ref) << " vs " << show(indexed);
          out.push_back(os.str());
        }
      }
      for (const Filter& f : filters) {
        std::vector<LinkId> ref;
        for (const auto& [lid, fs] : remote) {
          if (lid == ex) continue;
          if (std::any_of(fs.begin(), fs.end(), [&](const auto& e) {
                return e.first.covers(f);
              })) {
            ref.push_back(lid);
          }
        }
        b.cover_index_.covering_links(f, ex, indexed);
        if (ref != indexed) {
          std::ostringstream os;
          os << where(b) << "covering_links(" << f << ", exclude " << ex
             << "): " << show(ref) << " vs " << show(indexed);
          out.push_back(os.str());
        }
      }
    }
  }

  /// begin_moveout: the keyed plan_moveout table walk.
  static void check_moveouts(const Broker& b, std::vector<std::string>& out) {
    for (const auto& [lid, fs] : tables(b)) {
      std::set<SubKey> keys;
      for (const auto& [f, tags] : fs) keys.insert(tags.begin(), tags.end());
      for (const SubKey& key : keys) {
        const auto ref = routing::plan_moveout(b.config_.strategy, key, fs);
        const auto indexed = routing::plan_moveout(
            b.config_.strategy, b.cover_index_.tagged_filters(lid, key));
        const bool same =
            ref.ack_barriers == indexed.ack_barriers &&
            std::equal(ref.steps.begin(), ref.steps.end(),
                       indexed.steps.begin(), indexed.steps.end(),
                       [](const auto& x, const auto& y) {
                         return x.kind == y.kind && x.f == y.f;
                       });
        if (!same) {
          std::ostringstream os;
          os << where(b) << "plan_moveout(link " << lid << ", " << key
             << "): " << ref.steps.size() << " steps/" << ref.ack_barriers
             << " barriers vs " << indexed.steps.size() << " steps/"
             << indexed.ack_barriers << " barriers";
          out.push_back(os.str());
        }
      }
    }
  }

  /// The forward-set inputs toward `exclude` by the table scan the broker
  /// ran before CoverIndex held them: remote entries of the other links,
  /// then local subscriptions, then virtual counterparts, each skipping
  /// location-dependent state (it travels on its own plane).
  static std::vector<ForwardInput> scanned_inputs(const Broker& b,
                                                  LinkId exclude) {
    std::vector<ForwardInput> inputs;
    for (const auto& [lid, fs] : tables(b)) {
      if (lid == exclude) continue;
      for (const auto& [f, tags] : fs) inputs.push_back({f, tags});
    }
    for (const auto& [client, session] : b.sessions_) {
      for (const auto& [sub_id, sub] : session.subs) {
        if (!sub.is_ld()) inputs.push_back({sub.concrete, {sub.key}});
      }
    }
    for (const auto& [key, v] : b.virtuals_) {
      if (!v.ld) inputs.push_back({v.f, {key}});
    }
    return inputs;
  }

  /// refresh_link: each link's forward view against the two-argument
  /// (pairwise-scan) forward set over the table-scanned inputs.
  static void check_views(const Broker& b, std::vector<std::string>& out) {
    for (const net::Link* link : b.broker_links_) {
      const ForwardSet ref = routing::compute_forward_set(
          b.config_.strategy, scanned_inputs(b, link->id()));
      const ForwardSet view = b.cover_index_.forward_set(link->id());
      if (ref != view) {
        std::ostringstream os;
        os << where(b) << "view toward " << link->id() << ": " << show(ref)
           << " vs " << show(view);
        out.push_back(os.str());
      }
    }
  }

  /// refresh_link's invariant: outside the view's dirty set and the
  /// link's re-expose pins, what the broker sent equals the view's
  /// forward set minus what the advertisements disallow.
  static void check_sent(const Broker& b, std::vector<std::string>& out) {
    for (const net::Link* link : b.broker_links_) {
      const LinkId lid = link->id();
      ForwardSet target = b.cover_index_.forward_set(lid);
      std::erase_if(target, [&](const auto& entry) {
        return !b.adv_allows(lid, entry.first);
      });
      std::set<Filter> skip;
      for (const auto& e : b.cover_index_.dirty(lid)) skip.insert(*e.f);
      if (auto pit = b.reexpose_pins_.find(lid); pit != b.reexpose_pins_.end()) {
        for (const auto& [pin, movers] : pit->second) skip.insert(pin);
      }
      const ForwardSet& sent = b.sent_.at(lid);
      std::set<Filter> keys;
      for (const auto& [f, tags] : target) keys.insert(f);
      for (const auto& [f, tags] : sent) keys.insert(f);
      for (const Filter& f : keys) {
        if (skip.count(f) != 0) continue;
        const auto t = target.find(f);
        const auto s = sent.find(f);
        const bool same = (t == target.end()) == (s == sent.end()) &&
                          (t == target.end() || t->second == s->second);
        if (!same) {
          std::ostringstream os;
          os << where(b) << "sent toward " << lid << " diverges on " << f
             << ": target " << show(target) << " vs sent " << show(sent);
          out.push_back(os.str());
        }
      }
    }
  }

  /// The forward-set inputs toward `lid`, identity-collapsed.
  static ForwardSet collapsed_inputs(const Broker& b, LinkId lid) {
    ForwardSet inputs;
    for (const auto& in : scanned_inputs(b, lid)) {
      inputs[in.f].insert(in.tags.begin(), in.tags.end());
    }
    return inputs;
  }

  /// answer_reexpose: covered_by over the collapsed inputs.
  static void check_covered_inputs(const Broker& b,
                                   std::vector<std::string>& out) {
    const auto filters = probe_filters(b);
    for (const LinkId ex : excludes(b)) {
      const ForwardSet inputs = collapsed_inputs(b, ex);
      for (const Filter& f : filters) {
        const ForwardSet ref = routing::covered_by(f, inputs);
        const ForwardSet indexed = b.cover_index_.covered_inputs(f, ex);
        if (ref != indexed) {
          std::ostringstream os;
          os << where(b) << "covered_inputs(" << f << ", exclude " << ex
             << "): " << show(ref) << " vs " << show(indexed);
          out.push_back(os.str());
        }
      }
    }
  }

  /// refresh_link: the two-argument (pairwise-scan) forward set.
  static void check_forward_sets(const Broker& b,
                                 std::vector<std::string>& out) {
    for (const net::Link* link : b.broker_links_) {
      const auto inputs = scanned_inputs(b, link->id());
      const ForwardSet ref =
          routing::compute_forward_set(b.config_.strategy, inputs);
      const ForwardSet indexed = routing::compute_forward_set(
          b.config_.strategy, inputs, routing::AdminIndex::index);
      if (ref != indexed) {
        std::ostringstream os;
        os << where(b) << "forward set toward " << link->id() << ": "
           << show(ref) << " vs " << show(indexed);
        out.push_back(os.str());
      }
    }
  }
};

}  // namespace rebeca::broker::testing

namespace rebeca::testutil {

using broker::testing::PlaneReference;
using filter::Notification;
using filter::Value;

inline std::vector<std::string> example_configs() {
  const std::filesystem::path dir =
      std::filesystem::path(REBECA_SOURCE_DIR) / "examples" / "configs";
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// Data-plane probes: every distinct attribute content published so far,
/// plus variants of each with one attribute replaced by NaN (equal to
/// every number, which the index must not miss) or by a boundary value
/// of the filters installed anywhere in the overlay on that attribute
/// (each operand, and numeric operands +-1).
inline std::vector<Notification> probes_of(scenario::Scenario& s) {
  std::map<filter::AttrId, std::set<Value>> boundaries;
  for (std::size_t i = 0; i < s.overlay().broker_count(); ++i) {
    for (const auto& f : PlaneReference::probe_filters(s.overlay().broker(i))) {
      for (const auto& term : f.terms()) {
        auto& values = boundaries[term.attr];
        // NaN has no place in an ordered set; the NaN variants cover it.
        const auto add = [&](const Value& v) {
          if (!v.is_nan()) values.insert(v);
        };
        const auto& c = term.c;
        for (const Value& v : c.values()) add(v);
        for (const Value& v : {c.operand(), c.hi()}) {
          add(v);
          if (v.is_numeric()) {
            add(Value(*v.numeric() - 1));
            add(Value(*v.numeric() + 1));
          }
        }
      }
    }
  }

  std::set<std::vector<std::pair<std::uint32_t, Value>>> seen;
  std::vector<Notification> probes;
  const auto add = [&](const Notification& n) {
    std::vector<std::pair<std::uint32_t, Value>> content;
    for (const auto& attr : n.attrs()) {
      content.emplace_back(attr.id.value(), attr.value);
    }
    if (seen.insert(std::move(content)).second) probes.push_back(n);
  };
  for (const Notification& n : s.publications()) add(n);
  const std::size_t published = probes.size();
  for (std::size_t i = 0; i < published; ++i) {
    const Notification n = probes[i];
    for (const auto& attr : n.attrs()) {
      Notification variant = n;
      variant.set(attr.id, Value(std::nan("")));
      add(variant);
      for (const Value& v : boundaries[attr.id]) {
        variant.set(attr.id, v);
        add(variant);
      }
    }
  }
  return probes;
}

/// The plane a test audits.
enum class Plane { data, admin };

/// Audits `plane` on every broker; returns the number of disagreements
/// and fails the test with the first few.
inline std::size_t audit_all(scenario::Scenario& s, Plane plane) {
  const auto probes =
      plane == Plane::data ? probes_of(s) : std::vector<Notification>{};
  std::size_t failures = 0;
  for (std::size_t i = 0; i < s.overlay().broker_count(); ++i) {
    const broker::Broker& br = s.overlay().broker(i);
    const auto mismatches = plane == Plane::data
                                ? PlaneReference::audit_data(br, probes)
                                : PlaneReference::audit_admin(br);
    for (const std::string& m : mismatches) {
      if (failures++ < 5) ADD_FAILURE() << m;
    }
  }
  return failures;
}

/// Audits that saw each kind of transient broker state at least once,
/// so a scenario cannot silently stop exercising a plane.
struct Coverage {
  std::size_t audits = 0;
  std::size_t with_virtuals = 0;
  std::size_t with_ld_transits = 0;
  std::size_t with_pending_moveouts = 0;
};

/// Steps the scenario phase by phase in 20 ms slices, auditing every
/// broker at each slice and phase end until the first disagreement. A
/// `quiescent` scenario (no admin message in flight at its end) also
/// gets the peer-agreement audit at the end.
inline Coverage step_and_audit(scenario::ScenarioBuilder& b, Plane plane,
                               bool quiescent = false) {
  auto s = b.build();
  Coverage seen;
  std::size_t failures = 0;
  const auto audit = [&] {
    if (failures > 0) return;  // report the first inconsistent state only
    ++seen.audits;
    failures += audit_all(*s, plane);
    std::size_t virtuals = 0, transits = 0, moveouts = 0;
    for (std::size_t i = 0; i < s->overlay().broker_count(); ++i) {
      const broker::Broker& br = s->overlay().broker(i);
      virtuals += br.virtual_count();
      transits += br.ld_transit_count();
      moveouts += br.pending_moveout_count();
    }
    seen.with_virtuals += virtuals > 0 ? 1 : 0;
    seen.with_ld_transits += transits > 0 ? 1 : 0;
    seen.with_pending_moveouts += moveouts > 0 ? 1 : 0;
  };
  while (failures == 0 && s->run_next_phase(sim::millis(20), audit)) {
    audit();
  }
  if (quiescent && failures == 0) {
    for (std::size_t i = 0; i < s->overlay().broker_count(); ++i) {
      for (const std::string& m :
           PlaneReference::audit_peers(s->overlay().broker(i))) {
        if (failures++ < 5) ADD_FAILURE() << m;
      }
    }
  }
  EXPECT_EQ(failures, 0u);
  EXPECT_GT(seen.audits, 10u);
  EXPECT_FALSE(s->publications().empty());
  return seen;
}

/// Steps every example config at shards {0, 1, 4}, auditing `plane`;
/// the admin plane also gets the peer-agreement audit once each run
/// has drained.
inline void audit_example_configs(Plane plane) {
  const auto configs = example_configs();
  ASSERT_FALSE(configs.empty());
  std::size_t with_virtuals = 0;
  std::size_t with_pending_moveouts = 0;
  for (const std::string& path : configs) {
    SCOPED_TRACE(path);
    const cli::RunSpec spec = cli::load_config(path);
    for (const std::size_t shards : {std::size_t{0}, std::size_t{1},
                                     std::size_t{4}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      scenario::ScenarioBuilder b;
      spec.declare(b);
      b.seed(11).shards(shards);
      const Coverage seen =
          step_and_audit(b, plane, /*quiescent=*/plane == Plane::admin);
      with_virtuals += seen.with_virtuals;
      with_pending_moveouts += seen.with_pending_moveouts;
    }
  }
  // The audits caught relocations mid-flight, not only settled tables.
  EXPECT_GT(with_virtuals, 0u);
  EXPECT_GT(with_pending_moveouts, 0u);
}

/// Steps a hand-built scenario under every forwarding strategy, auditing
/// `plane`. No peer-agreement audit: the roamers are still relocating
/// when the drain phase ends (re-expose acks in flight).
inline void audit_aggregation_scenario(Plane plane) {
  // The example configs route by covering or flooding and hold no
  // location-dependent subscriptions; this scenario fills the gaps: every
  // forwarding strategy, LD transit state, pre-subscribe widening of LD
  // virtual counterparts, and roaming subscribers whose filters cover
  // one another.
  using filter::Constraint;
  using filter::Filter;
  for (const routing::Strategy strategy :
       {routing::Strategy::simple, routing::Strategy::identity,
        routing::Strategy::covering, routing::Strategy::merging}) {
    SCOPED_TRACE(routing::strategy_name(strategy));
    broker::BrokerConfig cfg;
    cfg.strategy = strategy;
    cfg.ld_presubscribe = true;
    cfg.ld_widen_interval = sim::millis(200);
    scenario::ScenarioBuilder b;
    b.seed(5)
        .topology(scenario::TopologySpec::balanced_tree(2, 2))
        .locations(scenario::LocationSpec::grid(4, 4))
        .broker(cfg);

    location::LdSpec near;
    near.base = Filter().where("service", Constraint::eq("parking"));
    near.vicinity_radius = 1;
    near.profile = location::UncertaintyProfile::explicit_steps({0, 1, 2});
    b.client("walker")
        .at_broker(3)
        .starts_at("g0_0")
        .subscribes(near)
        .walks(scenario::WalkSpec()
                   .route({"g1_0", "g1_1", "g2_1", "g2_2", "g3_2"})
                   .residing(sim::millis(300))
                   .from_phase("traffic"));
    location::LdSpec wide = near;
    wide.vicinity_radius = 0;
    wide.profile = location::UncertaintyProfile::global_resub();
    b.client("ld-roamer")
        .at_broker(4)
        .starts_at("g3_3")
        .subscribes(wide)
        .roams(scenario::RoamSpec()
                   .route({6, 5})
                   .dwelling(sim::millis(400))
                   .dark_for(sim::millis(300))
                   .from_phase("traffic"));

    // Nested price filters (gt 10 covers gt 20 covers range [25, 40]),
    // mergeable siblings, and a set/prefix mix, on roaming and static
    // subscribers at different leaves.
    b.client("broad")
        .at_broker(3)
        .subscribes(Filter().where("topic", Constraint::eq("stock"))
                        .where("price", Constraint::gt(10)))
        .roams(scenario::RoamSpec()
                   .route({6, 4, 5})
                   .dwelling(sim::millis(350))
                   .dark_for(sim::millis(60))
                   .from_phase("traffic"));
    b.client("narrow")
        .at_broker(5)
        .subscribes(Filter().where("topic", Constraint::eq("stock"))
                        .where("price", Constraint::gt(20)))
        .subscribes(Filter().where("topic", Constraint::eq("stock"))
                        .where("price", Constraint::range(25, 40)));
    b.client("siblings")
        .at_broker(6)
        .subscribes(Filter().where("sym", Constraint::eq("A")))
        .subscribes(Filter().where("sym", Constraint::eq("B")))
        .subscribes(Filter().where("sym", Constraint::in_set(
                                              {filter::Value("A"),
                                               filter::Value("C")})))
        .roams(scenario::RoamSpec()
                   .route({3, 6})
                   .dwelling(sim::millis(500))
                   .dark_for(sim::millis(100))
                   .from_phase("traffic"));
    b.client("prefix")
        .at_broker(4)
        .subscribes(Filter().where("sym", Constraint::prefix("A"))
                        .where("price", Constraint::le(30)));

    b.client("sensors")
        .at_broker(5)
        .publishes(scenario::PublishSpec()
                       .poisson(sim::millis(40))
                       .body(Notification().set("service", "parking"))
                       .uniform_locations()
                       .with_seed(3)
                       .from_phase("traffic")
                       .until_phase_end("traffic"));
    b.client("ticker")
        .at_broker(0)
        .publishes(scenario::PublishSpec()
                       .poisson(sim::millis(50))
                       .body(Notification()
                                 .set("topic", "stock")
                                 .set("sym", "A")
                                 .set("price", 30))
                       .with_seed(4)
                       .from_phase("traffic")
                       .until_phase_end("traffic"));
    b.phase("settle", sim::millis(300));
    b.phase("traffic", sim::seconds(2));
    b.phase("drain", sim::millis(500));
    const Coverage seen = step_and_audit(b, plane);
    EXPECT_GT(seen.with_ld_transits, 0u);
    EXPECT_GT(seen.with_virtuals, 0u);
    if (routing::strategy_aggregates(strategy)) {
      EXPECT_GT(seen.with_pending_moveouts, 0u);
    }
  }
}

}  // namespace rebeca::testutil

#endif  // REBECA_TESTS_PLANE_REFERENCE_HPP
