#include "src/broker/broker.hpp"

#include <algorithm>
#include <sstream>

#include "src/util/assert.hpp"
#include "src/util/logging.hpp"

namespace rebeca::broker {

Broker::Broker(sim::Executor& sim, NodeId id, BrokerConfig config)
    : sim_(sim), id_(id), config_(std::move(config)),
      cover_index_(config_.strategy) {
  lane_affinity_.bind(&sim_);
}

void Broker::attach_broker_link(net::Link& link) {
  REBECA_LANE_ASSERT(lane_affinity_, "Broker", "attach_broker_link");
  REBECA_ASSERT(link.connects(*this), "link does not connect this broker");
  broker_links_.push_back(&link);
  links_by_id_.emplace(link.id(), &link);
  sent_[link.id()];
  cover_index_.add_view(link.id());
}

void Broker::attach_client_link(net::Link& link) {
  REBECA_LANE_ASSERT(lane_affinity_, "Broker", "attach_client_link");
  REBECA_ASSERT(link.connects(*this), "link does not connect this broker");
  client_links_.insert(link.id());
}

std::string Broker::endpoint_name() const {
  std::ostringstream os;
  os << "broker" << id_;
  return os.str();
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void Broker::handle_message(net::Link& from, const net::Message& msg) {
  REBECA_LANE_ASSERT(lane_affinity_, "Broker", "handle_message");
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, net::PublishMsg>) {
          on_publish(from, m.n);
        } else if constexpr (std::is_same_v<T, net::SubscribeMsg>) {
          on_subscribe(from, m);
        } else if constexpr (std::is_same_v<T, net::UnsubscribeMsg>) {
          on_unsubscribe(from, m);
        } else if constexpr (std::is_same_v<T, net::AdvertiseMsg>) {
          on_advertise(from, m, /*from_client=*/false);
        } else if constexpr (std::is_same_v<T, net::UnadvertiseMsg>) {
          on_unadvertise(from, m);
        } else if constexpr (std::is_same_v<T, net::RelocateSubMsg>) {
          on_relocate_sub(from, m);
        } else if constexpr (std::is_same_v<T, net::FetchMsg>) {
          on_fetch(from, m);
        } else if constexpr (std::is_same_v<T, net::ReExposeMsg>) {
          on_reexpose(from, m);
        } else if constexpr (std::is_same_v<T, net::ReExposeAckMsg>) {
          on_reexpose_ack(from, m);
        } else if constexpr (std::is_same_v<T, net::ReplayMsg>) {
          on_replay(from, m);
        } else if constexpr (std::is_same_v<T, net::LdSubscribeMsg>) {
          on_ld_subscribe(from, m);
        } else if constexpr (std::is_same_v<T, net::LdUnsubscribeMsg>) {
          on_ld_unsubscribe(from, m);
        } else if constexpr (std::is_same_v<T, net::LdMoveMsg>) {
          on_ld_move(from, m);
        } else if constexpr (std::is_same_v<T, net::ClientHelloMsg>) {
          on_client_hello(from, m);
        } else if constexpr (std::is_same_v<T, net::ClientByeMsg>) {
          on_client_bye(from, m);
        } else if constexpr (std::is_same_v<T, net::ClientSubscribeMsg>) {
          on_client_subscribe(from, m);
        } else if constexpr (std::is_same_v<T, net::ClientUnsubscribeMsg>) {
          on_client_unsubscribe(from, m);
        } else if constexpr (std::is_same_v<T, net::ClientPublishMsg>) {
          on_publish(from, m.n);
        } else if constexpr (std::is_same_v<T, net::ClientAdvertiseMsg>) {
          on_advertise(from, net::AdvertiseMsg{m.id, m.f}, /*from_client=*/true);
        } else if constexpr (std::is_same_v<T, net::ClientUnadvertiseMsg>) {
          on_unadvertise(from, net::UnadvertiseMsg{m.id});
        } else if constexpr (std::is_same_v<T, net::ClientMoveMsg>) {
          on_client_move(from, m);
        } else if constexpr (std::is_same_v<T, net::DeliverMsg>) {
          REBECA_ASSERT(false, "broker received a DeliverMsg");
        }
      },
      msg);
}

// ---------------------------------------------------------------------------
// Forwarding machinery
// ---------------------------------------------------------------------------

bool Broker::adv_allows(LinkId link, const filter::Filter& f) const {
  if (!config_.use_advertisements) return true;
  for (const auto& [id, adv] : advs_) {
    if (adv.from_client) continue;  // local producers don't pull subs outward
    if (adv.from_link == link && adv.f.overlaps(f)) return true;
  }
  return false;
}

namespace {

using ViewEntry = routing::CoverIndex::ViewEntry;

/// One re-expose pin judged at a refresh: `natural` is the pin's entry
/// in the natural target (`f` borrows the pin map's key); `keep` forces
/// it into the target with its natural tags.
struct PinVerdict {
  ViewEntry natural;
  bool keep = false;
};

/// The pin rule (see Broker::reexpose_pins_) for one link's pins, in
/// Filter order. A pin decays when the natural target holds it
/// (`natural(pin).elected`), when no input backs it any more (empty
/// tags), or when a target entry covering it — a natural one
/// (`superseded(pin, serves_no_mover)`) or an earlier kept pin — serves
/// none of its movers.
template <typename Natural, typename Superseded>
std::vector<PinVerdict> judge_pins(
    const std::map<filter::Filter, std::set<SubKey>>& pins, Natural natural,
    Superseded superseded) {
  std::vector<PinVerdict> out;
  out.reserve(pins.size());
  for (const auto& [pin, movers] : pins) {
    PinVerdict v{natural(pin), false};
    v.natural.f = &pin;
    const auto serves_no_mover = [&](const std::set<SubKey>& tags) {
      return std::none_of(movers.begin(), movers.end(),
                          [&](const SubKey& k) { return tags.count(k) != 0; });
    };
    v.keep = !v.natural.elected && !v.natural.tags.empty() &&
             !superseded(pin, serves_no_mover) &&
             std::none_of(out.begin(), out.end(), [&](const PinVerdict& w) {
               return w.keep && w.natural.f->covers(pin) &&
                      serves_no_mover(w.natural.tags);
             });
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace

void Broker::refresh_link(net::Link& link) {
  const LinkId lid = link.id();
  auto& sent = sent_[lid];
  // Re-expose pins: filters force-exposed on this link by the moveout
  // protocol stay in the target until the covering conflict resolves —
  // the natural target contains them again (the covering input died and
  // aggregation now elects them itself), their own backing inputs are
  // gone (the covered subscriber left too), or — pin decay, the churn
  // rule — the target holds a covering entry served by subscribers other
  // than the recorded movers: the covered filter has a live wire
  // representative again, so the pin would only ride redundantly. Pins
  // are judged at every refresh.
  static const std::map<filter::Filter, std::set<SubKey>> kNoPins;
  auto pit = reexpose_pins_.find(lid);
  const auto& pins = pit != reexpose_pins_.end() ? pit->second : kNoPins;
  std::vector<PinVerdict> verdicts;
  // Natural target entries that may differ from sent, in Filter order.
  std::vector<ViewEntry> wanted;
  routing::ForwardSet target;  // merging: owns wanted filters not in sent
  if (config_.strategy == routing::Strategy::merging) {
    // Merging re-merges the whole elected set, so its target is no
    // function of the dirty filters alone: reconcile it and sent in full.
    target = cover_index_.forward_set(lid);
    verdicts = judge_pins(
        pins,
        [&](const filter::Filter& pin) {
          ViewEntry e = cover_index_.entry(lid, pin);
          e.elected = target.count(pin) != 0;
          return e;
        },
        [&](const filter::Filter& pin, const auto& serves_no_mover) {
          return std::any_of(target.begin(), target.end(), [&](const auto& t) {
            return t.first.covers(pin) && serves_no_mover(t.second);
          });
        });
    for (auto& [f, t] : target) wanted.push_back({&f, true, std::move(t)});
    for (const auto& [f, tags] : sent) {
      if (target.count(f) == 0) wanted.push_back({&f, false, {}});
    }
    std::inplace_merge(
        wanted.begin(), wanted.begin() + target.size(), wanted.end(),
        [](const ViewEntry& x, const ViewEntry& y) { return *x.f < *y.f; });
  } else {
    // Only the dirty filters and the pins can differ from what was sent.
    std::vector<ViewEntry> covering;
    verdicts = judge_pins(
        pins,
        [&](const filter::Filter& pin) { return cover_index_.entry(lid, pin); },
        [&](const filter::Filter& pin, const auto& serves_no_mover) {
          cover_index_.elected_covering(lid, pin, covering);
          return std::any_of(covering.begin(), covering.end(),
                             [&](const ViewEntry& e) {
                               return serves_no_mover(e.tags);
                             });
        });
    wanted = cover_index_.dirty(lid);
  }
  if (!verdicts.empty()) {
    // Merge the pins into the wanted entries: a kept pin replaces its
    // filter's entry, any other pin joins unless its filter is listed.
    std::vector<ViewEntry> merged;
    merged.reserve(wanted.size() + verdicts.size());
    auto w = wanted.begin();
    for (const PinVerdict& v : verdicts) {
      while (w != wanted.end() && *w->f < *v.natural.f) {
        merged.push_back(std::move(*w++));
      }
      const bool listed = w != wanted.end() && !(*v.natural.f < *w->f);
      if (listed && !v.keep) {
        merged.push_back(std::move(*w++));
        continue;
      }
      if (listed) ++w;
      merged.push_back(v.natural);
      merged.back().elected = v.natural.elected || v.keep;
    }
    merged.insert(merged.end(), std::make_move_iterator(w),
                  std::make_move_iterator(wanted.end()));
    wanted = std::move(merged);
  }
  if (config_.use_advertisements) {
    for (ViewEntry& e : wanted) {
      if (e.elected && !adv_allows(lid, *e.f)) e.elected = false;
    }
  }
  // The ordered program diff_forward_sets would emit — upserts strictly
  // before prunes, so on the FIFO link a covered filter is installed at
  // the peer before its covering representative disappears.
  for (ViewEntry& e : wanted) {
    if (!e.elected) continue;
    auto [it, fresh] = sent.try_emplace(*e.f);
    if (!fresh && it->second == e.tags) continue;
    it->second = e.tags;
    send(link, net::SubscribeMsg{*e.f, std::move(e.tags)});
  }
  for (const ViewEntry& e : wanted) {
    auto it = e.elected ? sent.end() : sent.find(*e.f);
    if (it == sent.end()) continue;
    send(link, net::UnsubscribeMsg{*e.f});  // e.f may borrow sent's key
    sent.erase(it);
  }
  if (pit != reexpose_pins_.end()) {
    auto it = pit->second.begin();
    for (const PinVerdict& v : verdicts) {
      it = v.keep ? std::next(it) : pit->second.erase(it);
    }
    if (pit->second.empty()) reexpose_pins_.erase(pit);
  }
  cover_index_.clear_dirty(lid);
}

void Broker::mark_adv_dirty(const AdvEntry& adv) {
  // adv_allows reads only the broker-sourced advertisements of the link
  // a filter would travel on: every filter of that link's view may flip.
  if (config_.use_advertisements && !adv.from_client &&
      links_by_id_.count(adv.from_link) != 0) {
    cover_index_.mark_all_dirty(adv.from_link);
  }
}

void Broker::refresh_all_links() {
  for (net::Link* link : broker_links_) refresh_link(*link);
}

// ---------------------------------------------------------------------------
// Admin handlers
// ---------------------------------------------------------------------------

void Broker::on_subscribe(net::Link& from, const net::SubscribeMsg& m) {
  if (cover_index_.upsert_remote(from.id(), m.f, m.tags)) {
    index_.add_remote(from.id(), m.f);
  }
  refresh_all_links();
}

void Broker::on_unsubscribe(net::Link& from, const net::UnsubscribeMsg& m) {
  if (cover_index_.remove_remote(from.id(), m.f)) {
    index_.remove_remote(from.id(), m.f);
  }
  refresh_all_links();
}

void Broker::untag_entry(LinkId link, const filter::Filter& f,
                         const SubKey& key) {
  if (cover_index_.untag_remote(link, f, key)) index_.remove_remote(link, f);
}

void Broker::on_advertise(net::Link& from, const net::AdvertiseMsg& m,
                          bool from_client) {
  AdvEntry& adv = advs_[m.id];
  mark_adv_dirty(adv);  // a re-advertisement may move the id between links
  adv = AdvEntry{m.f, from_client, from.id()};
  mark_adv_dirty(adv);
  // Advertisements flood (dedup per link), as in Rebeca.
  for (net::Link* link : broker_links_) {
    if (link->id() == from.id()) continue;
    if (sent_advs_[link->id()].insert(m.id).second) {
      send(*link, net::AdvertiseMsg{m.id, m.f});
    }
  }
  // A new advertisement from `from` may unlock subscription forwarding
  // toward it.
  if (!from_client && config_.use_advertisements) {
    refresh_link(from);
  }
}

void Broker::on_unadvertise(net::Link& from, const net::UnadvertiseMsg& m) {
  auto it = advs_.find(m.id);
  if (it == advs_.end()) return;
  const bool was_client = it->second.from_client;
  mark_adv_dirty(it->second);
  advs_.erase(it);
  for (net::Link* link : broker_links_) {
    if (link->id() == from.id()) continue;
    if (sent_advs_[link->id()].erase(m.id) != 0) {
      send(*link, net::UnadvertiseMsg{m.id});
    }
  }
  if (!was_client && config_.use_advertisements) {
    refresh_link(from);
  }
}

// ---------------------------------------------------------------------------
// Notification path
// ---------------------------------------------------------------------------

void Broker::on_publish(net::Link& from, const filter::Notification& n) {
  route_notification(n, &from);
}

void Broker::route_notification(const filter::Notification& n,
                                const net::Link* from) {
  const bool flooding = config_.strategy == routing::Strategy::flooding;

  // One counting query over all four planes; destinations are applied
  // in canonical order: links in attach order, local subs and virtuals
  // in ascending key order.
  index_.collect(n, match_hits_);
  for (net::Link* link : broker_links_) {
    if (from != nullptr && link->id() == from->id()) continue;
    const bool forward =
        flooding || std::binary_search(match_hits_.links.begin(),
                                       match_hits_.links.end(), link->id());
    if (forward) send(*link, net::PublishMsg{n});
  }
  for (const SubKey& key : match_hits_.locals) {
    auto sit = sessions_.find(key.client);
    if (sit == sessions_.end()) continue;
    auto it = sit->second.subs.find(key.sub);
    if (it == sit->second.subs.end()) continue;
    deliver_to_sub(sit->second, it->second, n);
  }
  for (const SubKey& key : match_hits_.virtuals) {
    auto it = virtuals_.find(key);
    if (it == virtuals_.end()) continue;
    buffer_to_virtual(it->second, n);
  }
}

void Broker::buffer_to_virtual(VirtualSub& v, const filter::Notification& n) {
  if (v.awaiting_replay) {
    // The virtual is itself waiting for an upstream replay (the client
    // moved twice quickly): hold unstamped arrivals until it lands.
    v.pre_replay.push_back(n);
  } else {
    v.buffer.push(net::StampedNotification{n, v.next_seq++});
  }
}

void Broker::deliver_to_sub(Session& session, LocalSub& sub,
                            const filter::Notification& n) {
  if (sub.relocating) {
    sub.pending_live.push_back(n);
    return;
  }
  net::StampedNotification sn{n, sub.next_seq++};
  sub.history.push(sn);
  REBECA_ASSERT(session.link != nullptr, "session without link");
  send(*session.link, net::DeliverMsg{sub.key, std::move(sn)});
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::optional<location::LocationSet> Broker::ld_concrete_set(
    const SubKey& key) const {
  auto it = ld_.find(key);
  if (it != ld_.end()) return it->second.concrete_set;
  for (const auto& [client, session] : sessions_) {
    for (const auto& [sub_id, sub] : session.subs) {
      if (sub.key == key && sub.is_ld()) return sub.concrete_set;
    }
  }
  return std::nullopt;
}

const routing::ForwardSet* Broker::forwarded_to(LinkId link) const {
  auto it = sent_.find(link);
  return it == sent_.end() ? nullptr : &it->second;
}

std::size_t Broker::pending_moveout_count() const {
  std::size_t n = 0;
  for (const auto& [link, pending] : moveouts_) n += pending.size();
  return n;
}

std::size_t Broker::reexpose_pin_count() const {
  std::size_t n = 0;
  for (const auto& [link, pins] : reexpose_pins_) n += pins.size();
  return n;
}

// ---------------------------------------------------------------------------
// Small helpers shared by the mobility/location translation units
// ---------------------------------------------------------------------------

Broker::Session* Broker::session_of_link(LinkId link) {
  auto it = session_by_link_.find(link);
  if (it == session_by_link_.end()) return nullptr;
  auto sit = sessions_.find(it->second);
  return sit == sessions_.end() ? nullptr : &sit->second;
}

Broker::LocalSub* Broker::find_local_sub(const SubKey& key) {
  auto sit = sessions_.find(key.client);
  if (sit == sessions_.end()) return nullptr;
  auto it = sit->second.subs.find(key.sub);
  return it == sit->second.subs.end() ? nullptr : &it->second;
}

Broker::Session* Broker::find_session(ClientId client) {
  auto it = sessions_.find(client);
  return it == sessions_.end() ? nullptr : &it->second;
}

const location::LocationGraph& Broker::locations() const {
  REBECA_ASSERT(config_.locations != nullptr,
                "broker " << id_ << " has no location graph configured");
  return *config_.locations;
}

}  // namespace rebeca::broker
