// The Rebeca-style content-based broker (paper Sec. 2, 4, 5).
//
// One class implements all three broker roles of Fig. 1: border brokers
// hold client sessions; inner brokers only route. (The paper's "local
// broker" lives inside the Client library.) A broker owns four kinds of
// routing state:
//
//   cover_index_  filters received from neighbor brokers (per link) — the
//              routing table of Sec. 2.2, with serving-subscription tags
//              (index_ mirrors its entries for notification matching)
//   sessions_  local client sessions with per-subscription delivery
//              sequence numbers and a bounded delivery history
//   virtuals_  "virtual counterparts" of disconnected clients that keep
//              buffering matching notifications (Sec. 4.1)
//   ld_        location-dependent subscription state of subscriptions
//              passing through this broker (Sec. 5)
//
// Subscription forwarding follows the change, not the table: the admin
// index keeps each link's target forward set up to date at every state
// change and marks the filters whose target entry changed; the broker
// sends only those — an ordered program whose upserts precede its prunes
// (see routing/strategy.hpp). Removing a virtual counterpart simply
// removes its input and the diffs prune the old path; where the relocation protocol itself must prune a
// covering entry (the fetch path under covering/merging routing), the
// two-phase uncover-before-prune handshake (ReExposeMsg/ReExposeAckMsg)
// first re-exposes every covered downstream subscription hop by hop.
#ifndef REBECA_BROKER_BROKER_HPP
#define REBECA_BROKER_BROKER_HPP

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/location/ld_spec.hpp"
#include "src/location/location_graph.hpp"
#include "src/net/endpoint.hpp"
#include "src/net/link.hpp"
#include "src/net/message.hpp"
#include "src/routing/cover_index.hpp"
#include "src/routing/match_index.hpp"
#include "src/routing/strategy.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/lane_check.hpp"
#include "src/util/ring_buffer.hpp"

namespace rebeca::broker {

namespace testing {
/// Test-only audit seam (defined under tests/): re-runs the linear table
/// scans the indexes replaced on a broker's live state and compares them
/// with what index_ and cover_index_ answer.
struct PlaneReference;
}  // namespace testing

struct BrokerConfig {
  routing::Strategy strategy = routing::Strategy::covering;
  /// Forward subscriptions only toward overlapping advertisements
  /// (Rebeca's advertisement-based pruning; Fig. 5 junction semantics).
  bool use_advertisements = false;
  /// Two-phase uncover-before-prune relocation moveouts (aggregating
  /// strategies): before the mover's filter is pruned from an old-path
  /// routing entry, the downstream broker re-exposes every subscription
  /// the filter covers and acks; only then does the entry go. Disable
  /// only to demonstrate the covered-bystander hazard (tests).
  bool uncover_before_prune = true;
  /// Delivered-notification history kept per session subscription, so a
  /// silently disconnected client can be replayed from its last received
  /// sequence number even though in-flight deliveries were lost.
  std::size_t session_history = 4096;
  /// Capacity of a virtual counterpart's buffer (0 = unbounded). The
  /// paper: completeness "within the boundaries of time and/or space
  /// limitations of buffering approaches".
  std::size_t virtual_capacity = 65536;
  /// Virtual counterparts are garbage-collected after this much virtual
  /// time without a fetch (0 = never).
  sim::Duration virtual_ttl = 0;
  /// A relocating session flushes its live buffer and goes active if no
  /// replay arrived in time (e.g. the old broker's state had already
  /// been garbage-collected).
  sim::Duration relocation_timeout = sim::seconds(30);
  /// Location graph for location-dependent subscriptions (may be null if
  /// the deployment never uses them).
  const location::LocationGraph* locations = nullptr;
  /// Pre-subscribe extension (paper Sec. 6 future work): while a
  /// location-dependent subscription's client is disconnected, its
  /// virtual counterpart widens the location sets by one movement step
  /// per interval — the client's possible locations keep spreading — so
  /// that on reconnection at *any* broker the buffered notifications can
  /// be replayed and filtered by the client's actual location (flooding
  /// epoch semantics across physical roaming).
  bool ld_presubscribe = false;
  sim::Duration ld_widen_interval = sim::seconds(1);
};

class Broker final : public net::Endpoint {
 public:
  Broker(sim::Executor& sim, NodeId id, BrokerConfig config);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const BrokerConfig& config() const { return config_; }

  /// Overlay wiring.
  void attach_broker_link(net::Link& link);
  void attach_client_link(net::Link& link);

  // --- net::Endpoint ---
  void handle_message(net::Link& from, const net::Message& msg) override;
  void handle_link_down(net::Link& link) override;
  [[nodiscard]] std::string endpoint_name() const override;

  // --- introspection (tests, benches) ---
  /// Number of remote routing-table entries (filters) across all links.
  [[nodiscard]] std::size_t routing_entry_count() const {
    return cover_index_.remote_entry_count();
  }
  /// Total serving tags across remote entries (simple-routing's logical
  /// table size: one row per subscription).
  [[nodiscard]] std::size_t routing_tag_count() const {
    return cover_index_.remote_tag_count();
  }
  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }
  [[nodiscard]] std::size_t virtual_count() const { return virtuals_.size(); }
  [[nodiscard]] std::size_t ld_transit_count() const { return ld_.size(); }
  [[nodiscard]] std::uint64_t replayed_notifications() const {
    return replayed_notifications_;
  }
  /// Notifications reported lost to bounded buffering across all replays
  /// this broker emitted (the ReplayMsg::truncated sum).
  [[nodiscard]] std::uint64_t replay_truncated() const {
    return replay_truncated_;
  }
  /// Concrete location set currently installed for an LD subscription
  /// passing through (or anchored at) this broker; nullopt if absent.
  [[nodiscard]] std::optional<location::LocationSet> ld_concrete_set(
      const SubKey& key) const;
  /// Filters currently forwarded to the given neighbor (testing).
  [[nodiscard]] const routing::ForwardSet* forwarded_to(LinkId link) const;
  /// Moveouts whose prune is still awaiting the downstream re-expose ack
  /// (the intermediate epoch state between "relocation committed" and
  /// "old path pruned").
  [[nodiscard]] std::size_t pending_moveout_count() const;
  /// Cumulative filters this broker force-re-exposed upstream on
  /// ReExposeMsg requests (the uncover traffic, for benches).
  [[nodiscard]] std::uint64_t reexposed_filters() const {
    return reexposed_filters_;
  }
  /// Re-expose pins currently held open across all links (churn
  /// visibility: each pin is a filter ridden redundantly on the wire
  /// until its covering conflict resolves or decay evicts it).
  [[nodiscard]] std::size_t reexpose_pin_count() const;
  /// Live entries in the notification match index (all four planes).
  [[nodiscard]] std::size_t match_index_entries() const {
    return index_.entry_count();
  }
  /// Live entries in the admin-plane covering index: the forward-set
  /// inputs (remote entries, non-LD local subs and virtuals).
  [[nodiscard]] std::size_t cover_index_entries() const {
    return cover_index_.entry_count();
  }

 private:
  friend struct testing::PlaneReference;

  // ---------- session-side state ----------
  struct LocalSub {
    SubKey key;
    net::SubscriptionSpec spec;
    filter::Filter concrete;  // matching filter at this broker
    std::uint64_t epoch = 0;
    std::uint64_t next_seq = 1;  // next delivery sequence number
    util::RingBuffer<net::StampedNotification> history;
    // relocation
    bool relocating = false;
    std::uint64_t reported_last_seq = 0;
    std::vector<filter::Notification> pending_live;
    std::set<NotificationId> replay_seen;
    sim::EventHandle relocation_timer;
    // location-dependent state (spec holds LdSpec)
    LocationId loc;
    std::uint64_t move_seq = 0;
    location::LocationSet concrete_set;
    std::vector<LinkId> ld_forwarded;

    [[nodiscard]] bool is_ld() const { return net::is_location_dependent(spec); }
  };

  struct Session {
    ClientId client;
    net::Link* link = nullptr;
    std::map<std::uint32_t, LocalSub> subs;
  };

  /// Virtual counterpart of a (disconnected) client's subscription.
  struct VirtualSub {
    SubKey key;
    filter::Filter f;
    bool ld = false;
    std::uint64_t epoch = 0;
    std::uint64_t next_seq = 1;
    util::RingBuffer<net::StampedNotification> buffer;
    // The session died while itself waiting for a replay (client moved
    // twice quickly): hold unstamped arrivals until the upstream replay
    // arrives, then merge; if a fetch already waits, answer it then.
    bool awaiting_replay = false;
    std::uint64_t reported_last_seq = 0;
    std::vector<filter::Notification> pre_replay;
    std::set<NotificationId> replay_seen;
    bool fetch_pending = false;
    std::uint64_t fetch_epoch = 0;
    std::uint64_t fetch_last_seq = 0;
    LinkId fetch_reply;
    // LD cleanup bookkeeping
    location::LdSpec ld_spec;
    LocationId ld_loc;
    std::vector<LinkId> ld_forwarded;
    std::uint64_t ld_move_seq = 0;
    // pre-subscribe widening (extension, see BrokerConfig)
    std::uint32_t widen_steps = 0;
    sim::EventHandle widen_timer;
    sim::EventHandle ttl_timer;
  };

  /// LD subscription state at a transit broker (paper Fig. 6: broker at
  /// filter index `hop` holds the ball of q_hop movement steps).
  struct LdTransit {
    SubKey key;
    location::LdSpec spec;
    LocationId loc;
    std::uint32_t hop = 1;
    std::uint64_t move_seq = 0;
    std::uint32_t extra_steps = 0;  // pre-subscribe widening
    LinkId toward;  // link in the direction of the consumer
    filter::Filter concrete;
    location::LocationSet concrete_set;
    std::vector<LinkId> forwarded;
  };

  struct AdvEntry {
    filter::Filter f;
    bool from_client = false;
    LinkId from_link;
  };

  /// Reverse-path breadcrumb for replay routing (laid by RelocateSubMsg
  /// on the new path and by FetchMsg on the old path).
  struct Crumb {
    std::uint64_t epoch = 0;
    LinkId toward_new;
  };

  /// Uncover-before-prune moveout in flight on one old-path link: the
  /// mover's key stays tagged in the link's table — traffic keeps flowing
  /// down the old path, protecting covered bystanders — until the
  /// downstream broker acks that it re-exposed everything the filters
  /// cover. This is the relocation state machine's intermediate state
  /// between "relocation committed" (fetch dispatched) and "old path
  /// pruned".
  struct PendingMoveout {
    std::uint64_t epoch = 0;
    std::vector<filter::Filter> prune;  // entries to drop once acked
    std::size_t acks_outstanding = 0;
  };

  /// A ReExposeMsg this broker could not answer yet because its own
  /// downstream moveout for the key is still pending: the covered
  /// filters that will surface from below are not in the tables yet.
  /// Answered when the last downstream ack lands — the ack barrier is
  /// transitive along the old path.
  struct DeferredReexpose {
    LinkId reply;
    filter::Filter f;
    std::uint64_t epoch = 0;
  };

  // ---------- message handlers ----------
  void on_publish(net::Link& from, const filter::Notification& n);
  void on_subscribe(net::Link& from, const net::SubscribeMsg& m);
  void on_unsubscribe(net::Link& from, const net::UnsubscribeMsg& m);
  void on_advertise(net::Link& from, const net::AdvertiseMsg& m, bool from_client);
  void on_unadvertise(net::Link& from, const net::UnadvertiseMsg& m);
  void on_relocate_sub(net::Link& from, const net::RelocateSubMsg& m);
  void on_fetch(net::Link& from, const net::FetchMsg& m);
  void on_reexpose(net::Link& from, const net::ReExposeMsg& m);
  void on_reexpose_ack(net::Link& from, const net::ReExposeAckMsg& m);
  void on_replay(net::Link& from, const net::ReplayMsg& m);
  void on_ld_subscribe(net::Link& from, const net::LdSubscribeMsg& m);
  void on_ld_unsubscribe(net::Link& from, const net::LdUnsubscribeMsg& m);
  void on_ld_move(net::Link& from, const net::LdMoveMsg& m);
  void on_client_hello(net::Link& from, const net::ClientHelloMsg& m);
  void on_client_bye(net::Link& from, const net::ClientByeMsg& m);
  void on_client_subscribe(net::Link& from, const net::ClientSubscribeMsg& m);
  void on_client_unsubscribe(net::Link& from, const net::ClientUnsubscribeMsg& m);
  void on_client_move(net::Link& from, const net::ClientMoveMsg& m);

  // ---------- forwarding machinery ----------
  /// Reconciles sent_[link] with the link's effective target — its
  /// view's forward set, plus kept re-expose pins, minus what the
  /// advertisements disallow — over the view's dirty filters and the
  /// link's pins only.
  void refresh_link(net::Link& link);
  void refresh_all_links();
  /// Marks dirty the whole view whose filters `adv` gates.
  void mark_adv_dirty(const AdvEntry& adv);
  [[nodiscard]] bool adv_allows(LinkId link, const filter::Filter& f) const;

  // ---------- notification path ----------
  void route_notification(const filter::Notification& n, const net::Link* from);
  void deliver_to_sub(Session& session, LocalSub& sub, const filter::Notification& n);
  /// Buffers a matching notification into a virtual counterpart.
  void buffer_to_virtual(VirtualSub& v, const filter::Notification& n);

  // ---------- session/virtual helpers ----------
  Session* session_of_link(LinkId link);
  LocalSub* find_local_sub(const SubKey& key);
  Session* find_session(ClientId client);
  void install_sub(Session& session, const SubKey& key,
                   const net::SubscriptionSpec& spec, LocationId loc,
                   std::uint64_t epoch, std::uint64_t last_seq, bool relocate);
  /// Junction check: if this broker serves `key` (tagged entries) — or
  /// covers `f` — in a direction other than `exclude`, re-points that
  /// state and dispatches FetchMsg along it.
  enum class Junction { none, covering, tagged };
  Junction dispatch_fetch(const SubKey& key, const filter::Filter& f,
                          std::uint64_t epoch, std::uint64_t last_seq,
                          LinkId exclude);
  /// The old-path directions (≠ exclude) a fetch for `key` follows:
  /// the links whose entries are tagged with it, else its LD transit's
  /// consumer link (both `tagged`), else those covering `f`.
  Junction old_directions(const SubKey& key, const filter::Filter& f,
                          LinkId exclude, std::vector<net::Link*>& out);
  /// Runs the planned moveout of `key` from `link`'s table: untags shared
  /// entries now; for dying entries either primes the two-phase
  /// re-expose/ack handshake (aggregating strategies with
  /// uncover_before_prune) or prunes immediately.
  void begin_moveout(net::Link& link, const SubKey& key, std::uint64_t epoch);
  /// Executes a moveout's deferred prunes (ack barrier passed).
  void finish_moveout(net::Link& link, const SubKey& key);
  /// CoverIndex::untag_remote, mirrored into index_.
  void untag_entry(LinkId link, const filter::Filter& f, const SubKey& key);
  /// Computes and sends the re-expose set for `f` toward `to`, then acks.
  void answer_reexpose(net::Link& to, const SubKey& key,
                       const filter::Filter& f, std::uint64_t epoch);
  void remove_local_sub(Session& session, std::uint32_t sub_id, bool propagate);
  void virtualize_session(Session& session);
  void emit_replay(VirtualSub& v, net::Link& to, std::uint64_t epoch,
                   std::uint64_t last_seq);
  void drop_virtual(const SubKey& key);
  void schedule_virtual_ttl(VirtualSub& v);
  void finish_relocation(Session& session, LocalSub& sub, const net::ReplayMsg& m);
  void flush_relocation_timeout(ClientId client, std::uint32_t sub_id,
                                std::uint64_t epoch);

  // ---------- LD helpers ----------
  [[nodiscard]] const location::LocationGraph& locations() const;
  void ld_apply_move(LocalSub& sub, LocationId loc);
  /// Pre-subscribe widening tick for a disconnected LD subscription.
  void widen_ld_virtual(const SubKey& key, std::uint64_t epoch);
  void schedule_ld_widen(VirtualSub& v);

  void send(net::Link& link, net::Message msg) { link.send(*this, std::move(msg)); }

  sim::Executor& sim_;
  /// Debug-only: the lane that owns this broker (lane_check.hpp).
  sim::LaneAffinity lane_affinity_;
  NodeId id_;
  BrokerConfig config_;

  std::vector<net::Link*> broker_links_;  // attach order (canonical scan order)
  // Pointer-VALUED maps are deliberate and PTR-ORDER-clean: iteration
  // follows the LinkId key, so link addresses never reach event, message
  // or report order. Only pointer-KEYED ordered containers are hazards.
  std::map<LinkId, net::Link*> links_by_id_;  // broker links only
  std::set<LinkId> client_links_;

  std::map<LinkId, routing::ForwardSet> sent_;
  std::map<AdvId, AdvEntry> advs_;
  std::map<LinkId, std::set<AdvId>> sent_advs_;

  std::map<ClientId, Session> sessions_;
  std::map<LinkId, ClientId> session_by_link_;
  std::map<SubKey, VirtualSub> virtuals_;
  std::map<SubKey, LdTransit> ld_;
  std::map<SubKey, Crumb> crumbs_;
  /// Per old-path link: moveouts awaiting the downstream re-expose ack.
  std::map<LinkId, std::map<SubKey, PendingMoveout>> moveouts_;
  std::map<SubKey, std::vector<DeferredReexpose>> deferred_reexpose_;
  /// Filters this broker force-re-exposed toward a link on a ReExposeMsg
  /// request, each tagged with the mover keys whose moveouts forced it:
  /// pinned into that link's target forward set until the covering
  /// conflict resolves — the pin reappears in the computed target, its
  /// backing inputs disappear, or (pin decay, the churn rule) the target
  /// holds a covering entry served by someone *other* than the recorded
  /// movers, so the covered subscriber is represented again. Without the
  /// pin the very next refresh would re-aggregate the filter away while
  /// the mover's covering input is still alive, reopening the hazard.
  std::map<LinkId, std::map<filter::Filter, std::set<SubKey>>> reexpose_pins_;

  /// Incremental notification match index over all four filter planes
  /// (remote tables, local subs, virtuals, LD transits); the data plane
  /// route_notification queries.
  routing::MatchIndex index_;
  mutable routing::MatchHits match_hits_;  // query scratch

  /// Admin-plane covering index over the forward-set inputs (remote
  /// tables, non-LD local subs and virtuals), maintained next to index_
  /// at every table mutation. It is the routing table and the only copy
  /// of those inputs (one call per remote-table event), keeps
  /// each broker link's forward view (refresh_link reconciles its dirty
  /// filters), and is the admin plane answer_reexpose / dispatch_fetch /
  /// begin_moveout / on_fetch query. Invariant: outside a link's dirty
  /// set, sent_[link] equals the link's effective target (refresh_link).
  routing::CoverIndex cover_index_;
  mutable std::vector<LinkId> cover_links_;  // query scratch

  std::uint64_t replayed_notifications_ = 0;
  std::uint64_t replay_truncated_ = 0;
  std::uint64_t reexposed_filters_ = 0;
};

}  // namespace rebeca::broker

#endif  // REBECA_BROKER_BROKER_HPP
