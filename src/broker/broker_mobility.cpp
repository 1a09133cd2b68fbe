// Physical mobility: the relocation protocol of paper Sec. 4.
//
// Life of a relocation (Fig. 5):
//  1. The client's link to the old border broker goes down; the border
//     turns its session state into "virtual counterparts" that keep
//     buffering matching notifications (virtualize_session).
//  2. The client reconnects elsewhere and its hello re-issues each
//     subscription with the last received sequence number
//     (on_client_hello → install_sub with relocate=true). The new border
//     first propagates the subscription normally (refresh_all_links) and
//     then sends RelocateSubMsg — in that order, so on every FIFO link
//     the new delivery path is installed before the hunt passes, closing
//     the loss window at the junction.
//  3. A broker that finds state serving the key (or covering the filter)
//     in another direction is the junction (on_relocate_sub): it answers
//     with FetchMsg down the old path and stops the hunt.
//  4. FetchMsg re-points per-key state as it travels (on_fetch) and lays
//     breadcrumbs; the old border replays its buffer (emit_replay) and
//     garbage-collects. Removing the virtual removes a forwarding input,
//     so the diff machinery prunes the old path automatically. Where the
//     protocol itself must drop a routing entry that dies with the mover
//     (begin_moveout), aggregating strategies run the two-phase
//     uncover-before-prune handshake: the entry stays routable while a
//     ReExposeMsg travels down the old path, each hop re-exposes every
//     subscription the mover's filter covers (deferring its ack behind
//     its own downstream barrier), and only the returning ReExposeAckMsg
//     releases the prune — so a covered bystander's delivery path is
//     never interrupted.
//  5. The replay follows the breadcrumbs to the new border, which
//     delivers replayed notifications before its own buffered live ones
//     (finish_relocation), deduplicating by notification id.
#include <algorithm>

#include "src/broker/broker.hpp"
#include "src/util/assert.hpp"
#include "src/util/logging.hpp"

namespace rebeca::broker {

// ---------------------------------------------------------------------------
// Client session management
// ---------------------------------------------------------------------------

void Broker::on_client_hello(net::Link& from, const net::ClientHelloMsg& m) {
  REBECA_ASSERT(client_links_.count(from.id()) != 0,
                "hello on a non-client link");
  Session& session = sessions_[m.client];
  session.client = m.client;
  session.link = &from;
  session_by_link_[from.id()] = m.client;

  for (const auto& resub : m.resubs) {
    install_sub(session, resub.key, resub.spec, resub.loc, resub.epoch,
                resub.last_seq, /*relocate=*/true);
  }
}

void Broker::on_client_bye(net::Link& from, const net::ClientByeMsg& m) {
  auto it = sessions_.find(m.client);
  if (it == sessions_.end()) return;
  Session& session = it->second;
  // Graceful sign-off: tear everything down right away, no virtuals.
  std::vector<std::uint32_t> ids;
  for (const auto& [sub_id, sub] : session.subs) ids.push_back(sub_id);
  for (auto sub_id : ids) remove_local_sub(session, sub_id, /*propagate=*/true);
  session_by_link_.erase(from.id());
  sessions_.erase(it);
  // Server-side close: with the session gone, the link-down handler has
  // nothing left to virtualize.
  from.cut(*this);
}

void Broker::on_client_subscribe(net::Link& from, const net::ClientSubscribeMsg& m) {
  Session* session = session_of_link(from.id());
  REBECA_ASSERT(session != nullptr, "subscribe before hello");
  install_sub(*session, m.key, m.spec, m.loc, /*epoch=*/0, /*last_seq=*/0,
              /*relocate=*/false);
}

void Broker::on_client_unsubscribe(net::Link& from,
                                   const net::ClientUnsubscribeMsg& m) {
  Session* session = session_of_link(from.id());
  if (session == nullptr) return;
  remove_local_sub(*session, m.key.sub, /*propagate=*/true);
}

void Broker::install_sub(Session& session, const SubKey& key,
                         const net::SubscriptionSpec& spec, LocationId loc,
                         std::uint64_t epoch, std::uint64_t last_seq,
                         bool relocate) {
  REBECA_ASSERT(key.client == session.client, "sub key/client mismatch");

  // Reconnect at the same broker: merge with the virtual counterpart and
  // replay locally — no network protocol needed.
  auto vit = virtuals_.find(key);

  auto [it, inserted] = session.subs.try_emplace(key.sub);
  LocalSub& sub = it->second;
  if (!inserted && epoch != 0 && epoch <= sub.epoch) return;  // stale re-issue
  sub.key = key;
  sub.spec = spec;
  sub.epoch = epoch;
  sub.history = util::RingBuffer<net::StampedNotification>(config_.session_history);
  sub.reported_last_seq = last_seq;

  if (net::is_location_dependent(spec)) {
    // Location-dependent subscriptions anchor at this border: the border
    // holds F_1 (paper Fig. 6) and propagates per-hop instantiations
    // upstream.
    const auto& ld = std::get<location::LdSpec>(spec);
    sub.loc = loc;
    sub.concrete_set = ld.concrete_set(locations(), loc, 1);
    sub.concrete = ld.concrete_filter(locations(), loc, 1);
    sub.next_seq = last_seq + 1;
    index_.upsert_local(key, sub.concrete);
    // LD subscriptions are no forward-set input; drop a non-LD
    // predecessor under the same key.
    cover_index_.remove_local(key);

    if (vit != virtuals_.end()) {
      // Same-broker reconnect: replay the buffered backlog locally (the
      // client-side filter F_0 drops whatever its actual location has
      // left behind).
      VirtualSub& v = vit->second;
      sub.next_seq = v.next_seq;
      for (const auto& sn : v.buffer) {
        if (sn.seq <= last_seq) continue;
        send(*session.link, net::DeliverMsg{key, sn});
        sub.history.push(sn);
      }
      v.widen_timer.cancel();
      v.ttl_timer.cancel();
      index_.remove_virtual(key);
      cover_index_.remove_virtual(key);
      virtuals_.erase(vit);
      refresh_all_links();
    } else if (config_.ld_presubscribe && relocate && epoch > 0) {
      // Pre-subscribe extension (paper Sec. 6 future work): hunt down
      // the old anchor's buffered notifications before re-anchoring.
      // Every broker holds LD transit state for the key (LD state
      // floods), so this border's own transit points toward the old
      // border — the fetch follows it; FIFO puts the fetch ahead of the
      // re-anchor flood on those links.
      sub.relocating = true;
      dispatch_fetch(key, sub.concrete, epoch, last_seq, LinkId::invalid());
      const std::uint64_t timeout_epoch = epoch;
      const ClientId client = session.client;
      const std::uint32_t sub_id = key.sub;
      sub.relocation_timer = sim_.schedule_after(
          config_.relocation_timeout, [this, client, sub_id, timeout_epoch] {
            flush_relocation_timeout(client, sub_id, timeout_epoch);
          });
    }

    // (Re-)anchor: this border is hop 1 now; the flood upserts transit
    // state everywhere toward the new consumer direction.
    if (ld_.erase(key) != 0) index_.remove_transit(key);
    sub.ld_forwarded.clear();
    for (net::Link* link : broker_links_) {
      send(*link, net::LdSubscribeMsg{key, ld, loc, /*hop=*/2});
      sub.ld_forwarded.push_back(link->id());
    }
    return;
  }

  sub.concrete = std::get<filter::Filter>(spec);
  index_.upsert_local(key, sub.concrete);
  cover_index_.upsert_local(key, sub.concrete);

  if (vit != virtuals_.end()) {
    // Same-broker reconnect (paper: "reconnects at the same or a
    // different broker"). Deliver the buffered backlog directly.
    VirtualSub& v = vit->second;
    if (v.awaiting_replay) {
      // The session died mid-relocation and the client came back here:
      // restore the waiting state; the in-flight replay will complete it.
      sub.relocating = true;
      sub.pending_live.assign(v.pre_replay.begin(), v.pre_replay.end());
      sub.replay_seen = v.replay_seen;
      sub.reported_last_seq = v.reported_last_seq;
      drop_virtual(key);  // cancels both timers before erasing
      const std::uint64_t timeout_epoch = sub.epoch;
      const ClientId client = session.client;
      const std::uint32_t sub_id = key.sub;
      sub.relocation_timer = sim_.schedule_after(
          config_.relocation_timeout,
          [this, client, sub_id, timeout_epoch] {
            flush_relocation_timeout(client, sub_id, timeout_epoch);
          });
      return;
    }
    sub.next_seq = v.next_seq;
    for (const auto& sn : v.buffer) {
      if (sn.seq <= last_seq) continue;
      send(*session.link, net::DeliverMsg{key, sn});
      sub.history.push(sn);
    }
    // drop_virtual, not a bare erase: a TTL (or widen) timer left armed
    // here would fire against a LATER virtual with the same key — under
    // epoch-0 workloads (naive clients, plain re-subscribes) the epoch
    // guard cannot tell them apart and the stale timer drops the new
    // counterpart.
    drop_virtual(key);
    return;
  }

  if (!relocate || epoch == 0) {
    // Fresh subscription: plain propagation, no relocation machinery.
    sub.next_seq = last_seq + 1;
    refresh_all_links();
    return;
  }

  // Relocation: buffer live arrivals until the replay lands. Propagate
  // the subscription BEFORE the hunt (see file comment on FIFO order).
  sub.relocating = true;
  refresh_all_links();
  // The new border may itself lie on the old delivery path (the client
  // moved toward its producers): then IT is the junction and must fetch
  // directly — an advertisement-pruned hunt would never look toward the
  // old border. A covering-only match is not proof (it may point at an
  // unrelated subscriber), so the hunt still goes out in that case.
  if (dispatch_fetch(key, sub.concrete, epoch, last_seq, LinkId::invalid()) !=
      Junction::tagged) {
    for (net::Link* link : broker_links_) {
      if (!adv_allows(link->id(), sub.concrete)) continue;
      send(*link, net::RelocateSubMsg{key, sub.concrete, epoch, last_seq});
    }
  }
  const std::uint64_t timeout_epoch = sub.epoch;
  const ClientId client = session.client;
  const std::uint32_t sub_id = key.sub;
  sub.relocation_timer = sim_.schedule_after(
      config_.relocation_timeout, [this, client, sub_id, timeout_epoch] {
        flush_relocation_timeout(client, sub_id, timeout_epoch);
      });
}

void Broker::remove_local_sub(Session& session, std::uint32_t sub_id,
                              bool propagate) {
  auto it = session.subs.find(sub_id);
  if (it == session.subs.end()) return;
  LocalSub& sub = it->second;
  sub.relocation_timer.cancel();
  index_.remove_local(sub.key);
  cover_index_.remove_local(sub.key);
  if (sub.is_ld()) {
    for (LinkId lid : sub.ld_forwarded) {
      auto lit = links_by_id_.find(lid);
      if (lit != links_by_id_.end()) {
        send(*lit->second, net::LdUnsubscribeMsg{sub.key});
      }
    }
    session.subs.erase(it);
    return;
  }
  session.subs.erase(it);
  if (propagate) refresh_all_links();
}

void Broker::handle_link_down(net::Link& link) {
  REBECA_LANE_ASSERT(lane_affinity_, "Broker", "handle_link_down");
  if (client_links_.count(link.id()) != 0) {
    Session* session = session_of_link(link.id());
    if (session != nullptr) {
      virtualize_session(*session);
      session_by_link_.erase(link.id());
      sessions_.erase(session->client);
    }
    return;
  }
  // Broker-broker links are assumed stable (paper Sec. 2.1: the broker
  // graph is fixed); a partition would need repair machinery the paper
  // does not describe.
  REBECA_WARN("broker " << id_ << ": broker link " << link.id()
                        << " went down — partitions are unsupported");
}

void Broker::virtualize_session(Session& session) {
  for (auto& [sub_id, sub] : session.subs) {
    sub.relocation_timer.cancel();
    VirtualSub v;
    v.key = sub.key;
    v.f = sub.concrete;
    v.ld = sub.is_ld();
    v.epoch = sub.epoch;
    v.next_seq = sub.next_seq;
    v.buffer = util::RingBuffer<net::StampedNotification>(config_.virtual_capacity);
    // Seed with the delivery history: deliveries in flight at the cut
    // were lost, and the client will report the sequence number of the
    // last one it actually received.
    for (const auto& sn : sub.history) v.buffer.push(sn);
    if (sub.relocating) {
      v.awaiting_replay = true;
      v.reported_last_seq = sub.reported_last_seq;
      v.pre_replay = std::move(sub.pending_live);
      v.replay_seen = std::move(sub.replay_seen);
    }
    if (v.ld) {
      v.ld_spec = std::get<location::LdSpec>(sub.spec);
      v.ld_loc = sub.loc;
      v.ld_forwarded = sub.ld_forwarded;
      v.ld_move_seq = sub.move_seq;
    }
    auto [it, inserted] = virtuals_.insert_or_assign(sub.key, std::move(v));
    index_.remove_local(sub.key);
    index_.upsert_virtual(sub.key, it->second.f);
    cover_index_.remove_local(sub.key);
    if (!it->second.ld) cover_index_.upsert_virtual(sub.key, it->second.f);
    schedule_virtual_ttl(it->second);
    schedule_ld_widen(it->second);
  }
  // The virtuals replace the session subs as forwarding inputs.
  refresh_all_links();
}

void Broker::schedule_virtual_ttl(VirtualSub& v) {
  if (config_.virtual_ttl <= 0) return;
  const SubKey key = v.key;
  const std::uint64_t epoch = v.epoch;
  v.ttl_timer = sim_.schedule_after(config_.virtual_ttl, [this, key, epoch] {
    auto it = virtuals_.find(key);
    if (it == virtuals_.end() || it->second.epoch != epoch) return;
    REBECA_INFO("broker " << id_ << ": virtual counterpart " << key
                          << " expired unfetched");
    drop_virtual(key);
  });
}

void Broker::drop_virtual(const SubKey& key) {
  auto it = virtuals_.find(key);
  if (it == virtuals_.end()) return;
  VirtualSub& v = it->second;
  v.ttl_timer.cancel();
  v.widen_timer.cancel();
  if (v.ld) {
    for (LinkId lid : v.ld_forwarded) {
      auto lit = links_by_id_.find(lid);
      if (lit != links_by_id_.end()) {
        send(*lit->second, net::LdUnsubscribeMsg{key});
      }
    }
  }
  index_.remove_virtual(key);
  cover_index_.remove_virtual(key);
  virtuals_.erase(it);
  refresh_all_links();
}

// ---------------------------------------------------------------------------
// Relocation protocol
// ---------------------------------------------------------------------------

void Broker::on_relocate_sub(net::Link& from, const net::RelocateSubMsg& m) {
  // Epoch-deduplicated breadcrumb for the eventual replay.
  auto cit = crumbs_.find(m.key);
  if (cit != crumbs_.end() && cit->second.epoch >= m.epoch) return;
  crumbs_[m.key] = Crumb{m.epoch, from.id()};

  // Old border broker reached directly (chain topologies, or the hunt
  // walked the whole old path).
  auto vit = virtuals_.find(m.key);
  if (vit != virtuals_.end()) {
    VirtualSub& v = vit->second;
    if (v.awaiting_replay) {
      v.fetch_pending = true;
      v.fetch_epoch = m.epoch;
      v.fetch_last_seq = m.last_seq;
      v.fetch_reply = from.id();
      return;
    }
    emit_replay(v, from, m.epoch, m.last_seq);
    drop_virtual(m.key);
    return;
  }

  if (LocalSub* local = find_local_sub(m.key); local != nullptr) {
    // The client is attached here and the hunt is older than its state.
    if (m.epoch <= local->epoch) return;
    REBECA_WARN("broker " << id_ << ": relocate " << m.key
                          << " with newer epoch than live session — dropped");
    return;
  }

  // Junction detection (paper Sec. 4.2: the fetch is "directed towards
  // both matching advertisements and covering filters"). Per-key tags
  // identify the junction exactly and stop the hunt; a mere covering
  // match dispatches fetches too, but lets the hunt continue — under
  // aggregation the coverage may point at an unrelated subscriber, and
  // only the covering invariant along the producers' paths guarantees
  // one fetch branch reaches the old border. Fetches are deduplicated
  // per epoch, so the extra branches die out benignly.
  if (dispatch_fetch(m.key, m.f, m.epoch, m.last_seq, from.id()) ==
      Junction::tagged) {
    return;  // exact junction; the hunt stops
  }

  // Keep hunting toward the producers.
  for (net::Link* link : broker_links_) {
    if (link->id() == from.id()) continue;
    if (!adv_allows(link->id(), m.f)) continue;
    send(*link, net::RelocateSubMsg{m});
  }
}

Broker::Junction Broker::dispatch_fetch(const SubKey& key,
                                        const filter::Filter& f,
                                        std::uint64_t epoch,
                                        std::uint64_t last_seq, LinkId exclude) {
  std::vector<net::Link*> old_dirs;
  const Junction kind = old_directions(key, f, exclude, old_dirs);
  if (kind == Junction::none) return kind;

  // This broker is (a candidate) junction: fetch first (relocation
  // latency is unaffected by the uncover handshake, which runs
  // concurrently), then start the moveout of the key from each old
  // direction. Entries whose covered downstream filters must be
  // re-exposed stay routable until the ack barrier passes.
  for (net::Link* link : old_dirs) {
    send(*link, net::FetchMsg{key, f, epoch, last_seq});
    begin_moveout(*link, key, epoch);
  }
  refresh_all_links();
  return kind;
}

Broker::Junction Broker::old_directions(const SubKey& key,
                                        const filter::Filter& f,
                                        LinkId exclude,
                                        std::vector<net::Link*>& out) {
  // Each of the three cases yields unique links in ascending LinkId
  // order, so `out` is canonical: an address sort would let allocator
  // layout pick the FetchMsg emission order (rebeca-lint PTR-ORDER).
  out.clear();
  cover_index_.links_serving(key, exclude, cover_links_);
  for (LinkId lid : cover_links_) out.push_back(links_by_id_.at(lid));
  if (auto lit = ld_.find(key);
      out.empty() && lit != ld_.end() && lit->second.toward != exclude) {
    auto link_it = links_by_id_.find(lit->second.toward);
    if (link_it != links_by_id_.end()) out.push_back(link_it->second);
  }
  if (!out.empty()) return Junction::tagged;
  cover_index_.covering_links(f, exclude, cover_links_);
  for (LinkId lid : cover_links_) out.push_back(links_by_id_.at(lid));
  return out.empty() ? Junction::none : Junction::covering;
}

// ---------------------------------------------------------------------------
// Uncover-before-prune moveouts (the two-phase protocol)
// ---------------------------------------------------------------------------

void Broker::begin_moveout(net::Link& link, const SubKey& key,
                           std::uint64_t epoch) {
  const LinkId lid = link.id();
  // The (filter → tag count) candidates in Filter order, read off the
  // cover index's per-link table instead of re-walking every entry's
  // tag set.
  auto program = routing::plan_moveout(config_.strategy,
                                       cover_index_.tagged_filters(lid, key));
  if (program.empty()) return;
  const bool two_phase =
      config_.uncover_before_prune && program.ack_barriers > 0;
  PendingMoveout pending;
  pending.epoch = epoch;
  for (auto& step : program.steps) {
    switch (step.kind) {
      case routing::MoveoutStep::Kind::untag:
        // Other subscriptions keep the entry alive; routing unchanged.
        untag_entry(lid, step.f, key);
        break;
      case routing::MoveoutStep::Kind::reexpose:
        if (two_phase) {
          send(link, net::ReExposeMsg{key, step.f, epoch});
          ++pending.acks_outstanding;
        }
        break;
      case routing::MoveoutStep::Kind::prune:
        if (two_phase) {
          // Ack barrier: the entry stays tagged and routable until the
          // downstream re-exposures are confirmed installed.
          pending.prune.push_back(step.f);
        } else {
          untag_entry(lid, step.f, key);
        }
        break;
    }
  }
  // A later epoch (the client moved again before the ack) replaces the
  // pending record; stale acks are epoch-filtered.
  if (two_phase) moveouts_[lid][key] = std::move(pending);
}

void Broker::finish_moveout(net::Link& link, const SubKey& key) {
  auto lit = moveouts_.find(link.id());
  if (lit == moveouts_.end()) return;
  auto pit = lit->second.find(key);
  if (pit == lit->second.end()) return;
  PendingMoveout pending = std::move(pit->second);
  lit->second.erase(pit);
  if (lit->second.empty()) moveouts_.erase(lit);

  for (const auto& f : pending.prune) untag_entry(link.id(), f, key);
  refresh_all_links();

  // Serve re-expose requests that waited on this barrier — unless the
  // key is still mid-moveout on yet another link.
  auto dit = deferred_reexpose_.find(key);
  if (dit == deferred_reexpose_.end()) return;
  for (const auto& [lid, pend] : moveouts_) {
    if (pend.count(key) != 0) return;
  }
  auto deferred = std::move(dit->second);
  deferred_reexpose_.erase(dit);
  for (const auto& d : deferred) {
    auto l = links_by_id_.find(d.reply);
    if (l != links_by_id_.end()) answer_reexpose(*l->second, key, d.f, d.epoch);
  }
}

void Broker::on_reexpose(net::Link& from, const net::ReExposeMsg& m) {
  // Transitive ack barrier: while this broker's own downstream moveout
  // for the key is pending, the covered filters that will surface from
  // below are not in the tables yet — defer the answer until the last
  // downstream ack lands (finish_moveout).
  for (const auto& [lid, pend] : moveouts_) {
    if (lid != from.id() && pend.count(m.key) != 0) {
      deferred_reexpose_[m.key].push_back({from.id(), m.f, m.epoch});
      return;
    }
  }
  answer_reexpose(from, m.key, m.f, m.epoch);
}

void Broker::answer_reexpose(net::Link& to, const SubKey& key,
                             const filter::Filter& f, std::uint64_t epoch) {
  const LinkId lid = to.id();
  // The re-expose set: every forwarding input toward `to` that f covers
  // (remote hops, local sessions, virtual counterparts — the inputs the
  // forward-set computation sees, identity-collapsed) minus the mover's
  // own tag and whatever is already on the wire.
  routing::ForwardSet expose = cover_index_.covered_inputs(f, lid);

  auto& sentfs = sent_[lid];
  for (auto& [g, tags] : expose) {
    tags.erase(key);
    if (tags.empty()) continue;
    if (config_.use_advertisements && !adv_allows(lid, g)) continue;
    // Pin the filter into this link's target set: without the pin the
    // next refresh would re-aggregate it away while the mover's covering
    // input is still alive, reopening the hazard. The mover key rides
    // along so pin decay can tell the mover's covering entry apart from
    // a later independent subscriber's.
    reexpose_pins_[lid][g].insert(key);
    auto sit = sentfs.find(g);
    if (sit != sentfs.end() && sit->second == tags) continue;
    sentfs[g] = tags;
    cover_index_.mark_dirty(lid, g);  // sent_ left the view's target
    ++reexposed_filters_;
    send(to, net::SubscribeMsg{g, std::move(tags)});
  }
  // FIFO puts the re-exposures ahead of the ack: when the requester
  // prunes, every covered filter is already installed on its side.
  send(to, net::ReExposeAckMsg{key, epoch});
  // Immediately re-evaluate the pins on this link: a pin whose covering
  // conflict is already over (the mover's input died before we answered,
  // or another subscriber's covering entry represents it) decays now
  // instead of riding the wire until some unrelated admin event happens
  // to refresh this link. The eviction's prune trails the subscriptions
  // and the ack on the FIFO link, so the requester always installs the
  // re-exposed filters (and their covering representative) first.
  refresh_link(to);
}

void Broker::on_reexpose_ack(net::Link& from, const net::ReExposeAckMsg& m) {
  auto lit = moveouts_.find(from.id());
  if (lit == moveouts_.end()) return;
  auto pit = lit->second.find(m.key);
  if (pit == lit->second.end() || pit->second.epoch != m.epoch) return;
  if (--pit->second.acks_outstanding > 0) return;
  finish_moveout(from, m.key);
}

void Broker::on_fetch(net::Link& from, const net::FetchMsg& m) {
  auto vit = virtuals_.find(m.key);
  if (vit != virtuals_.end()) {
    VirtualSub& v = vit->second;
    if (v.awaiting_replay) {
      v.fetch_pending = true;
      v.fetch_epoch = m.epoch;
      v.fetch_last_seq = m.last_seq;
      v.fetch_reply = from.id();
      return;
    }
    emit_replay(v, from, m.epoch, m.last_seq);
    drop_virtual(m.key);
    return;
  }

  auto cit = crumbs_.find(m.key);
  if (cit != crumbs_.end() && cit->second.epoch >= m.epoch) return;
  crumbs_[m.key] = Crumb{m.epoch, from.id()};

  // The entry flip of Fig. 5 step 5 ("pointing into the direction of
  // B4") happens implicitly: the new border's SubscribeMsg precedes the
  // hunt and the fetch on every FIFO link, so wherever the new path is
  // needed it is already installed; here we only move the key out of the
  // old direction and remember the reverse path for the replay.

  // Continue along the old path (the LD transit state needs no erase
  // here: the re-anchor flood trailing the fetch re-points it).
  std::vector<net::Link*> old_dirs;
  old_directions(m.key, m.f, from.id(), old_dirs);
  for (net::Link* link : old_dirs) {
    send(*link, net::FetchMsg{m});
    begin_moveout(*link, m.key, m.epoch);
  }
  refresh_all_links();
}

void Broker::emit_replay(VirtualSub& v, net::Link& to, std::uint64_t epoch,
                         std::uint64_t last_seq) {
  net::ReplayMsg reply;
  reply.key = v.key;
  reply.epoch = epoch;
  reply.next_seq = v.next_seq;
  for (const auto& sn : v.buffer) {
    if (sn.seq <= last_seq) continue;
    reply.batch.push_back(sn);
  }
  // Truncation accounting: the buffer's retained window is contiguous and
  // ends at next_seq - 1, so the oldest sequence number still available
  // is next_seq - size(). Everything between the client's last received
  // number and that point is gone for good — evicted by RingBuffer
  // overflow (dropped() > 0) or never retained because the session
  // history was bounded at virtualization time. Deriving the floor from
  // the retained window rather than the filtered batch keeps the report
  // honest when the batch comes out empty even though notifications the
  // client never saw were evicted.
  const std::uint64_t oldest_available = v.next_seq - v.buffer.size();
  if (oldest_available > last_seq + 1) {
    reply.truncated = oldest_available - (last_seq + 1);
  }
  replayed_notifications_ += reply.batch.size();
  replay_truncated_ += reply.truncated;
  send(to, std::move(reply));
}

void Broker::on_replay(net::Link& from, const net::ReplayMsg& m) {
  (void)from;  // replay routing follows breadcrumbs, not the arrival link
  // Case 1: the relocating session lives here — complete it.
  if (LocalSub* sub = find_local_sub(m.key); sub != nullptr && sub->relocating &&
                                             sub->epoch == m.epoch) {
    Session* session = find_session(m.key.client);
    REBECA_ASSERT(session != nullptr, "sub without session");
    finish_relocation(*session, *sub, m);
    return;
  }

  // Case 2: a virtual counterpart here is waiting for this replay (the
  // client moved on before it arrived): merge, then serve a pending
  // fetch if one is queued.
  auto vit = virtuals_.find(m.key);
  if (vit != virtuals_.end() && vit->second.awaiting_replay &&
      vit->second.epoch == m.epoch) {
    VirtualSub& v = vit->second;
    v.awaiting_replay = false;
    util::RingBuffer<net::StampedNotification> merged(config_.virtual_capacity);
    std::set<NotificationId> seen;
    for (const auto& sn : m.batch) {
      merged.push(sn);
      seen.insert(sn.notification.id());
    }
    std::uint64_t next_seq = m.next_seq;
    for (const auto& n : v.pre_replay) {
      if (seen.count(n.id()) != 0) continue;
      merged.push(net::StampedNotification{n, next_seq++});
    }
    v.buffer = std::move(merged);
    v.next_seq = next_seq;
    v.pre_replay.clear();
    if (v.fetch_pending) {
      auto lit = links_by_id_.find(v.fetch_reply);
      if (lit != links_by_id_.end()) {
        emit_replay(v, *lit->second, v.fetch_epoch, v.fetch_last_seq);
        drop_virtual(m.key);
      }
    }
    return;
  }

  // Case 3: in transit — follow the breadcrumb laid by the hunt/fetch.
  auto cit = crumbs_.find(m.key);
  if (cit != crumbs_.end() && cit->second.epoch == m.epoch) {
    const LinkId toward = cit->second.toward_new;
    crumbs_.erase(cit);
    if (auto lit = links_by_id_.find(toward); lit != links_by_id_.end()) {
      send(*lit->second, net::ReplayMsg{m});
      return;
    }
  }
  REBECA_WARN("broker " << id_ << ": unroutable replay for " << m.key
                        << " epoch " << m.epoch);
}

void Broker::finish_relocation(Session& session, LocalSub& sub,
                               const net::ReplayMsg& m) {
  sub.relocation_timer.cancel();
  REBECA_ASSERT(session.link != nullptr, "relocating session without link");

  // Replayed (old-location) notifications first — paper Sec. 4.1:
  // "delivers the old messages from B6 first before delivering the 'new'
  // messages from its own buffer to guarantee the correct delivery
  // order".
  for (const auto& sn : m.batch) {
    sub.replay_seen.insert(sn.notification.id());
    sub.history.push(sn);
    send(*session.link, net::DeliverMsg{sub.key, sn});
  }
  std::uint64_t next_seq = m.next_seq;
  for (const auto& n : sub.pending_live) {
    if (sub.replay_seen.count(n.id()) != 0) continue;  // duplicate path
    net::StampedNotification sn{n, next_seq++};
    sub.history.push(sn);
    send(*session.link, net::DeliverMsg{sub.key, sn});
  }
  sub.pending_live.clear();
  sub.next_seq = next_seq;
  sub.relocating = false;
}

void Broker::flush_relocation_timeout(ClientId client, std::uint32_t sub_id,
                                      std::uint64_t epoch) {
  Session* session = find_session(client);
  if (session == nullptr) return;
  auto it = session->subs.find(sub_id);
  if (it == session->subs.end()) return;
  LocalSub& sub = it->second;
  if (!sub.relocating || sub.epoch != epoch) return;
  REBECA_WARN("broker " << id_ << ": relocation of " << sub.key
                        << " timed out — flushing live buffer");
  sub.relocating = false;
  // Continue from whichever is further along: the client's reported
  // sequence number or the stamping position this session already
  // reached. Resetting to reported+1 alone reuses numbers the client saw
  // from in-flight pre-cut deliveries, and a later replay would skip the
  // reused range as "already delivered" — silently losing notifications.
  sub.next_seq = std::max(sub.next_seq, sub.reported_last_seq + 1);
  for (const auto& n : sub.pending_live) {
    net::StampedNotification sn{n, sub.next_seq++};
    sub.history.push(sn);
    send(*session->link, net::DeliverMsg{sub.key, sn});
  }
  sub.pending_live.clear();
}

}  // namespace rebeca::broker
