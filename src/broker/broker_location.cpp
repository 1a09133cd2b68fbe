// Logical mobility: location-dependent subscriptions (paper Sec. 5).
//
// The consumer's border broker holds F_1 = ploc(loc, q_1) and forwards
// per-hop instantiations upstream; a broker at filter index i installs
// F_i = ploc(loc, q_i) as a concrete `location in {…}` filter. The
// client-side filter F_0 (perfect filtering at the exact myloc vicinity)
// lives in the Client library.
//
// A location change propagates hop by hop (on_ld_move) and stops at the
// first broker whose concrete set did not change: BFS balls compose
// (ploc(x, q+r) = ∪_{z∈ploc(x,q)} ploc(z, r)), so an unchanged set at
// radius q implies unchanged sets at every radius ≥ q, and the
// uncertainty profile is non-decreasing in the hop index. This is the
// "restricted flooding" of Sec. 5.2 — the admin-message savings that
// Fig. 9 quantifies.
#include "src/broker/broker.hpp"
#include "src/util/assert.hpp"
#include "src/util/logging.hpp"

namespace rebeca::broker {

void Broker::on_ld_subscribe(net::Link& from, const net::LdSubscribeMsg& m) {
  auto [it, inserted] = ld_.try_emplace(m.key);
  LdTransit& t = it->second;
  t.key = m.key;
  t.spec = m.spec;
  t.loc = m.loc;
  t.hop = m.hop;
  t.toward = from.id();
  t.concrete_set = m.spec.concrete_set(locations(), m.loc, m.hop);
  t.concrete = m.spec.concrete_filter(locations(), m.loc, m.hop);
  index_.upsert_transit(m.key, t.toward, t.concrete);
  if (!inserted) {
    // Re-anchored (the consumer attached to a different border broker):
    // the state is simply upserted with the new consumer direction; the
    // stale anchor's cleanup will be ignored because it arrives from the
    // wrong direction.
    t.move_seq = 0;
  }
  t.forwarded.clear();
  for (net::Link* link : broker_links_) {
    if (link->id() == from.id()) continue;
    send(*link, net::LdSubscribeMsg{m.key, m.spec, m.loc, m.hop + 1});
    t.forwarded.push_back(link->id());
  }
}

void Broker::on_ld_unsubscribe(net::Link& from, const net::LdUnsubscribeMsg& m) {
  auto it = ld_.find(m.key);
  if (it == ld_.end()) return;
  // Cleanup is only valid arriving from the consumer's direction; a
  // stale unsubscribe from a previous anchor must not tear down the
  // re-anchored path.
  if (it->second.toward != from.id()) return;
  const std::vector<LinkId> forwarded = it->second.forwarded;
  ld_.erase(it);
  index_.remove_transit(m.key);
  for (LinkId lid : forwarded) {
    auto lit = links_by_id_.find(lid);
    if (lit != links_by_id_.end()) {
      send(*lit->second, net::LdUnsubscribeMsg{m.key});
    }
  }
}

void Broker::on_ld_move(net::Link& from, const net::LdMoveMsg& m) {
  auto it = ld_.find(m.key);
  if (it == ld_.end()) return;  // unsubscribed in the meantime
  LdTransit& t = it->second;
  if (t.toward != from.id()) return;  // stale path
  if (m.move_seq <= t.move_seq) return;  // out-of-date update

  location::LocationSet next_set =
      t.spec.concrete_set(locations(), m.loc, t.hop, m.extra_steps);
  const bool changed = !location::set_equal(next_set, t.concrete_set);
  t.loc = m.loc;
  t.move_seq = m.move_seq;
  t.extra_steps = m.extra_steps;
  if (!changed) return;  // stop rule: all farther sets are unchanged too

  t.concrete_set = std::move(next_set);
  t.concrete = t.spec.concrete_filter(locations(), m.loc, t.hop, m.extra_steps);
  index_.upsert_transit(m.key, t.toward, t.concrete);
  for (LinkId lid : t.forwarded) {
    auto lit = links_by_id_.find(lid);
    if (lit != links_by_id_.end()) {
      send(*lit->second,
           net::LdMoveMsg{m.key, m.loc, t.hop + 1, m.move_seq, m.extra_steps});
    }
  }
}

void Broker::on_client_move(net::Link& from, const net::ClientMoveMsg& m) {
  Session* session = session_of_link(from.id());
  if (session == nullptr || session->client != m.client) {
    REBECA_WARN("broker " << id_ << ": move from unknown client " << m.client);
    return;
  }
  for (auto& [sub_id, sub] : session->subs) {
    if (!sub.is_ld()) continue;
    ld_apply_move(sub, m.loc);
  }
}

void Broker::ld_apply_move(LocalSub& sub, LocationId loc) {
  const auto& spec = std::get<location::LdSpec>(sub.spec);
  location::LocationSet next_set = spec.concrete_set(locations(), loc, 1);
  const bool changed = !location::set_equal(next_set, sub.concrete_set);
  sub.loc = loc;
  ++sub.move_seq;
  if (!changed) return;  // border set unchanged ⇒ every upstream set too

  sub.concrete_set = std::move(next_set);
  sub.concrete = spec.concrete_filter(locations(), loc, 1);
  index_.upsert_local(sub.key, sub.concrete);
  for (LinkId lid : sub.ld_forwarded) {
    auto lit = links_by_id_.find(lid);
    if (lit != links_by_id_.end()) {
      send(*lit->second, net::LdMoveMsg{sub.key, loc, 2, sub.move_seq, 0});
    }
  }
}

// ---------------------------------------------------------------------------
// Pre-subscribe widening (extension of paper Sec. 6 future work)
// ---------------------------------------------------------------------------

void Broker::schedule_ld_widen(VirtualSub& v) {
  if (!config_.ld_presubscribe || !v.ld) return;
  // Once the ball saturates, upstream sets are all-of-L too; nothing
  // further to widen.
  if (config_.locations != nullptr &&
      v.ld_spec.concrete_set(locations(), v.ld_loc, 1, v.widen_steps).size() ==
          locations().size()) {
    return;
  }
  const SubKey key = v.key;
  const std::uint64_t epoch = v.epoch;
  v.widen_timer = sim_.schedule_after(
      config_.ld_widen_interval,
      [this, key, epoch] { widen_ld_virtual(key, epoch); });
}

void Broker::widen_ld_virtual(const SubKey& key, std::uint64_t epoch) {
  auto it = virtuals_.find(key);
  if (it == virtuals_.end() || it->second.epoch != epoch) return;
  VirtualSub& v = it->second;
  v.widen_steps += 1;
  v.f = v.ld_spec.concrete_filter(locations(), v.ld_loc, 1, v.widen_steps);
  index_.upsert_virtual(key, v.f);
  ++v.ld_move_seq;
  for (LinkId lid : v.ld_forwarded) {
    auto lit = links_by_id_.find(lid);
    if (lit != links_by_id_.end()) {
      send(*lit->second,
           net::LdMoveMsg{key, v.ld_loc, 2, v.ld_move_seq, v.widen_steps});
    }
  }
  schedule_ld_widen(v);
}

}  // namespace rebeca::broker
