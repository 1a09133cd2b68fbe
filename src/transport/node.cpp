#include "src/transport/node.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <utility>

#include "src/transport/wire.hpp"
#include "src/util/assert.hpp"

namespace rebeca::transport {

namespace {

constexpr std::chrono::milliseconds kDialTimeout(30000);

/// Stable per-client session id (the client mints it once; every
/// reconnect presents it again).
std::uint64_t session_id_of(std::uint32_t client) {
  return (0x5E55ull << 32) | client;
}

/// Decode a frame payload and inject it into the local link as if the
/// remote endpoint had sent it. Malformed frames are dropped loudly: a
/// wire error is a peer bug, not a reason to kill the process.
void inject(net::Link& link, SessionPort& port, const std::string& bytes) {
  try {
    link.send(port, decode_message(bytes));
  } catch (const WireError& e) {
    std::cerr << "[transport] dropping malformed frame: " << e.what() << "\n";
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// SessionPort
// ---------------------------------------------------------------------------

void SessionPort::set_session(PeerSession* session) {
  session_ = session;
  if (session_ == nullptr || !unsent_) return;
  for (const net::Message& msg : *unsent_) session_->send_message(msg);
  unsent_.reset();
}

void SessionPort::handle_message(net::Link& from, const net::Message& msg) {
  (void)from;
  // Entity → socket. Frames wait for the peer's first session (brokers
  // forward on a link whose peer may still be starting, and never resend
  // what they sent); once a session is lost they are dropped, exactly
  // like messages on a cut simulated link.
  if (session_ != nullptr) {
    session_->send_message(msg);
  } else if (unsent_) {
    unsent_->push_back(msg);
  }
}

// ---------------------------------------------------------------------------
// AddressBook
// ---------------------------------------------------------------------------

void AddressBook::announce(std::size_t broker, std::uint16_t port) const {
  if (opts_.port_base != 0 || opts_.rendezvous_dir.empty()) return;
  const std::string path =
      opts_.rendezvous_dir + "/broker_" + std::to_string(broker) + ".port";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << port << "\n";
  }
  // Atomic publish: dialers either see the complete file or none.
  std::rename(tmp.c_str(), path.c_str());
}

std::uint16_t AddressBook::wait_port(std::size_t broker,
                                     std::chrono::milliseconds timeout) const {
  if (opts_.port_base != 0) {
    return static_cast<std::uint16_t>(opts_.port_base + broker);
  }
  REBECA_ASSERT(!opts_.rendezvous_dir.empty(),
                "transport needs port_base or a rendezvous dir");
  const std::string path =
      opts_.rendezvous_dir + "/broker_" + std::to_string(broker) + ".port";
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    std::ifstream in(path);
    int port = 0;
    if (in >> port && port > 0 && port <= 65535) {
      return static_cast<std::uint16_t>(port);
    }
    if (std::chrono::steady_clock::now() >= deadline) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

// ---------------------------------------------------------------------------
// BrokerNode
// ---------------------------------------------------------------------------

BrokerNode::BrokerNode(const NodeSpec& spec, std::size_t index)
    : index_(index), opts_(spec.transport), addresses_(opts_),
      exec_(/*seed=*/index + 1, opts_.time_scale),
      broker_(exec_, NodeId(static_cast<std::uint32_t>(index)), spec.broker) {
  REBECA_ASSERT(spec.topology.has_value(), "broker node needs a topology");
  REBECA_ASSERT(index < spec.topology->broker_count(),
                "broker index " << index << " out of range");

  // One slot per neighbor: link + proxy exist before any traffic, so the
  // broker's view of its overlay wiring is complete from the start.
  for (std::size_t neighbor : spec.topology->neighbors(index)) {
    PeerSlot slot;
    slot.neighbor = neighbor;
    slot.port = std::make_unique<SessionPort>(
        "peer-broker" + std::to_string(neighbor));
    slot.link = std::make_unique<net::Link>(
        LinkId(next_link_id_++), exec_, broker_, *slot.port,
        sim::DelayModel::fixed(0));
    broker_.attach_broker_link(*slot.link);
    peers_.push_back(std::move(slot));
  }
  peers_ready_ = peers_.empty();

  const std::uint16_t listen_port =
      opts_.port_base != 0
          ? static_cast<std::uint16_t>(opts_.port_base + index)
          : 0;
  acceptor_.emplace(exec_, opts_.host, listen_port,
                    [this](Conn conn, SessionHello hello) {
                      on_hello(std::move(conn), hello);
                    });
  addresses_.announce(index_, acceptor_->port());
}

BrokerNode::~BrokerNode() {
  stop();
  for (std::thread& t : dialers_) {
    if (t.joinable()) t.join();
  }
  if (acceptor_) acceptor_->close();
}

std::uint16_t BrokerNode::port() const { return acceptor_->port(); }

void BrokerNode::stop() { exec_.stop(); }

BrokerNode::PeerSlot* BrokerNode::slot_of(std::size_t neighbor) {
  for (PeerSlot& slot : peers_) {
    if (slot.neighbor == neighbor) return &slot;
  }
  return nullptr;
}

void BrokerNode::run() {
  // Tree edge (a, b), a < b: b dials a. Each dial runs on its own
  // thread (the peer may not have bound yet); success posts the conn
  // back onto the executor.
  for (const PeerSlot& slot : peers_) {
    if (slot.neighbor >= index_) continue;
    const std::size_t neighbor = slot.neighbor;
    dialers_.emplace_back([this, neighbor] {
      const std::uint16_t port = addresses_.wait_port(neighbor, kDialTimeout);
      if (port == 0) {
        std::cerr << "[broker" << index_ << "] no address for broker"
                  << neighbor << "\n";
        exec_.stop();
        return;
      }
      SessionHello hello;
      hello.kind = SessionHello::Kind::broker;
      hello.node = static_cast<std::uint32_t>(index_);
      auto dialed = dial(addresses_.host(), port, hello, kDialTimeout);
      if (!dialed) {
        std::cerr << "[broker" << index_ << "] cannot reach broker"
                  << neighbor << "\n";
        exec_.stop();
        return;
      }
      // rebeca-lint: allow(LANE-ESCAPE, posts onto this node's own executor; the node outlives exec_.run() so `this` is valid for every drained event)
      exec_.post([this, neighbor, conn = std::move(dialed->first)]() mutable {
        bind_peer(neighbor, std::move(conn), /*echo_session=*/0);
      });
    });
  }
  exec_.run();
}

void BrokerNode::on_hello(Conn conn, const SessionHello& hello) {
  if (hello.kind == SessionHello::Kind::broker) {
    bind_peer(hello.node, std::move(conn), hello.session);
    return;
  }
  if (!peers_ready_) {
    // Withhold the WELCOME until the broker overlay is wired: the
    // client blocks in dial() and sends nothing in the meantime, so no
    // admin traffic can race the peer links.
    waiting_clients_.emplace_back(std::move(conn), hello);
    return;
  }
  admit_client(std::move(conn), hello);
}

void BrokerNode::bind_peer(std::size_t neighbor, Conn conn,
                           std::uint64_t echo_session) {
  PeerSlot* slot = slot_of(neighbor);
  if (slot == nullptr) {
    std::cerr << "[broker" << index_ << "] hello from non-neighbor broker"
              << neighbor << "\n";
    return;
  }
  const bool already_connected = slot->session != nullptr;
  SessionPort* port = slot->port.get();
  net::Link* link = slot->link.get();
  auto session = std::make_unique<PeerSession>(
      exec_, std::move(conn),
      [link, port](std::string bytes) { inject(*link, *port, bytes); },
      [this, neighbor] {
        // A broker peer dying mid-run is unrecoverable in v1 (no
        // broker-broker resume yet): report and keep serving what we
        // can. Follow-up: WAN reconnect with admin-state resync.
        std::cerr << "[broker" << index_ << "] lost broker" << neighbor
                  << "\n";
        if (PeerSlot* s = slot_of(neighbor)) s->port->set_session(nullptr);
      });
  // Accept side replies WELCOME (the dialer is blocked waiting on it).
  if (neighbor > index_) {
    session->send_frame(
        kFrameWelcome,
        encode_welcome(SessionWelcome{
            echo_session, static_cast<std::uint32_t>(index_)}));
  }
  slot->session = std::move(session);
  port->set_session(slot->session.get());

  if (!already_connected && ++peers_connected_ == peers_.size()) {
    peers_ready_ = true;
    for (auto& [waiting_conn, waiting_hello] : waiting_clients_) {
      admit_client(std::move(waiting_conn), waiting_hello);
    }
    waiting_clients_.clear();
  }
}

void BrokerNode::admit_client(Conn conn, const SessionHello& hello) {
  const std::uint64_t conn_id = next_conn_id_++;
  ClientConn cc;
  cc.session_id = hello.session;
  cc.port = std::make_unique<SessionPort>(
      "client" + std::to_string(hello.client) + "/s" +
      std::to_string(hello.session) + "." + std::to_string(hello.attempt));
  cc.link = std::make_unique<net::Link>(LinkId(next_link_id_++), exec_,
                                        broker_, *cc.port,
                                        sim::DelayModel::fixed(0));
  broker_.attach_client_link(*cc.link);
  SessionPort* port = cc.port.get();
  net::Link* link = cc.link.get();
  cc.session = std::make_unique<PeerSession>(
      exec_, std::move(conn),
      [link, port](std::string bytes) { inject(*link, *port, bytes); },
      [this, conn_id] { client_gone(conn_id); });
  // The WELCOME releases the client: it will now send its hello message
  // (with resubscriptions when roaming) through the fully wired broker.
  cc.session->send_frame(
      kFrameWelcome,
      encode_welcome(
          SessionWelcome{hello.session, static_cast<std::uint32_t>(index_)}));
  port->set_session(cc.session.get());
  clients_.emplace(conn_id, std::move(cc));
}

void BrokerNode::client_gone(std::uint64_t conn_id) {
  auto it = clients_.find(conn_id);
  if (it == clients_.end()) return;
  ClientConn& cc = it->second;
  cc.port->set_session(nullptr);
  // Socket EOF == radio silence: cutting the link runs the exact
  // virtualization path a simulated silent detach runs (the broker
  // starts buffering into the virtual counterpart).
  cc.link->cut(*cc.port);
  // Deferred reclamation: the session object may still have events in
  // flight this turn. Link and port must outlive the broker's Link*
  // registration, so they retire instead of dying.
  // rebeca-lint: allow(LANE-ESCAPE, posts onto this node's own executor; the node outlives exec_.run() so `this` is valid for every drained event)
  exec_.post([this, conn_id] {
    auto node = clients_.extract(conn_id);
    if (node.empty()) return;
    node.mapped().session.reset();
    retired_.push_back(std::move(node.mapped()));
  });
}

// ---------------------------------------------------------------------------
// ClientBundle
// ---------------------------------------------------------------------------

ClientBundle::ClientBundle(const NodeSpec& spec)
    : spec_(spec), addresses_(spec.transport),
      exec_(/*seed=*/0x5EED, spec.transport.time_scale) {
  for (const NodeClientSpec& cs : spec_.clients) {
    BundleClient bc;
    bc.spec = cs;
    bc.session_id = session_id_of(cs.id);
    bc.at_broker = cs.broker;
    client::ClientConfig cfg;
    cfg.id = ClientId(cs.id);
    bc.entity = std::make_unique<client::Client>(exec_, cfg);
    bc.entity->on_publish = [this](const filter::Notification& n) {
      published_.push_back(n);
    };
    // Subscribe while disconnected: the first attach's hello carries
    // the subscriptions, mirroring the simulated scenario start.
    for (const filter::Filter& f : cs.subscribes) {
      bc.sub_ids.push_back(bc.entity->subscribe(f));
    }
    for (const PublishDrive& pd : cs.publishes) {
      bc.pub_rngs.emplace_back(pd.seed);
    }
    clients_.push_back(std::move(bc));
  }
}

ClientBundle::~ClientBundle() {
  stop();
  for (std::thread& t : dialers_) {
    if (t.joinable()) t.join();
  }
}

void ClientBundle::stop() { exec_.stop(); }

int ClientBundle::run() {
  for (std::size_t ci = 0; ci < clients_.size(); ++ci) start_client(ci);
  exec_.schedule_at(spec_.total_duration, [this] { exec_.stop(); });
  exec_.run();
  for (std::thread& t : dialers_) {
    if (t.joinable()) t.join();
  }
  dialers_.clear();
  for (BundleClient& bc : clients_) {
    if (bc.session) {
      bc.port->set_session(nullptr);
      bc.session->close();
    }
  }
  return check_completeness();
}

void ClientBundle::start_client(std::size_t ci) {
  BundleClient& bc = clients_[ci];
  for (std::size_t di = 0; di < bc.spec.publishes.size(); ++di) {
    const PublishDrive& pd = bc.spec.publishes[di];
    exec_.schedule_at(pd.start, [this, ci, di] {
      publish_tick(ci, di, clients_[ci].spec.publishes[di].count);
    });
  }
  schedule_roams(ci);
  connect_client(ci, bc.spec.broker);
}

void ClientBundle::connect_client(std::size_t ci, std::size_t broker_index) {
  BundleClient& bc = clients_[ci];
  SessionHello hello;
  hello.kind = SessionHello::Kind::client;
  hello.client = bc.spec.id;
  hello.session = bc.session_id;
  hello.attempt = bc.attempt;
  dialers_.emplace_back([this, ci, broker_index, hello] {
    const std::uint16_t port =
        addresses_.wait_port(broker_index, kDialTimeout);
    if (port == 0) {
      std::cerr << "[clients] no address for broker" << broker_index << "\n";
      exec_.stop();
      return;
    }
    auto dialed = dial(addresses_.host(), port, hello, kDialTimeout);
    if (!dialed) {
      std::cerr << "[clients] cannot reach broker" << broker_index << "\n";
      exec_.stop();
      return;
    }
    // rebeca-lint: allow(LANE-ESCAPE, posts onto this node's own executor; the node outlives exec_.run() so `this` is valid for every drained event)
    exec_.post([this, ci, conn = std::move(dialed->first)]() mutable {
      attach_with(ci, std::move(conn));
    });
  });
}

void ClientBundle::attach_with(std::size_t ci, Conn conn) {
  BundleClient& bc = clients_[ci];
  auto port = std::make_unique<SessionPort>(
      "broker" + std::to_string(bc.at_broker) + "@" +
      std::to_string(bc.attempt));
  auto link = std::make_unique<net::Link>(LinkId(next_link_id_++), exec_,
                                          *bc.entity, *port,
                                          sim::DelayModel::fixed(0));
  SessionPort* port_raw = port.get();
  net::Link* link_raw = link.get();
  bc.session = std::make_unique<PeerSession>(
      exec_, std::move(conn),
      [link_raw, port_raw](std::string bytes) {
        inject(*link_raw, *port_raw, bytes);
      },
      [this, ci] {
        // Broker vanished under us. Cut locally so the client notices;
        // a scheduled roam (or the end of the run) takes it from here.
        BundleClient& c = clients_[ci];
        std::cerr << "[clients] lost broker" << c.at_broker << " for "
                  << c.spec.name << "\n";
        if (c.port) c.port->set_session(nullptr);
        if (c.entity->connected()) c.entity->detach_silently();
      });
  port->set_session(bc.session.get());
  if (bc.port) bc.old_ports.push_back(std::move(bc.port));
  if (bc.link) bc.old_links.push_back(std::move(bc.link));
  bc.port = std::move(port);
  bc.link = std::move(link);
  bc.ever_attached = true;
  // attach() sends the hello: fresh subs install plainly; on a roam
  // reconnect the (epoch, last_seq) pairs arm the fetch/replay
  // recovery at the new border broker.
  bc.entity->attach(*bc.link);
}

void ClientBundle::disconnect_client(std::size_t ci) {
  BundleClient& bc = clients_[ci];
  // Order matters and mirrors a silent radio loss: the client-side link
  // dies first (in-flight deliveries are lost), then the socket EOF
  // tells the old broker, which virtualizes the session and buffers.
  if (bc.entity->connected()) bc.entity->detach_silently();
  if (bc.port) bc.port->set_session(nullptr);
  if (bc.session) {
    bc.session->close();
    bc.session.reset();
  }
}

void ClientBundle::publish_tick(std::size_t ci, std::size_t di,
                                std::uint64_t remaining) {
  BundleClient& bc = clients_[ci];
  const PublishDrive& pd = bc.spec.publishes[di];
  if (pd.stop != 0 && exec_.now() >= pd.stop) return;
  // Publish even while detached: the client library queues the
  // notification and flushes it on the next attach (pub/sub adherence —
  // a roaming producer keeps producing).
  bc.entity->publish(pd.body);
  if (pd.count != 0 && --remaining == 0) return;
  const sim::Duration gap =
      pd.every != 0
          ? pd.every
          : static_cast<sim::Duration>(
                bc.pub_rngs[di].exponential(static_cast<double>(pd.poisson)));
  exec_.schedule_after(gap, [this, ci, di, remaining] {
    publish_tick(ci, di, remaining);
  });
}

void ClientBundle::schedule_roams(std::size_t ci) {
  BundleClient& bc = clients_[ci];
  for (std::size_t ri = 0; ri < bc.spec.roams.size(); ++ri) {
    const RoamDrive& rd = bc.spec.roams[ri];
    if (rd.route.empty()) continue;
    const std::uint64_t hops =
        rd.hops != 0 ? rd.hops : static_cast<std::uint64_t>(rd.route.size());
    exec_.schedule_at(rd.start + rd.dwell, [this, ci, ri, hops] {
      roam_hop(ci, ri, 0, hops);
    });
  }
}

void ClientBundle::roam_hop(std::size_t ci, std::size_t ri,
                            std::size_t stop_index, std::uint64_t hops_left) {
  if (hops_left == 0) return;
  BundleClient& bc = clients_[ci];
  const RoamDrive& rd = bc.spec.roams[ri];
  const std::size_t target = rd.route[stop_index % rd.route.size()];
  disconnect_client(ci);
  // Dark for `gap`, then re-attach at the target broker: same session
  // id, bumped attempt — the session survives the address change.
  exec_.schedule_after(rd.gap, [this, ci, target] {
    BundleClient& c = clients_[ci];
    ++c.attempt;
    c.at_broker = target;
    connect_client(ci, target);
  });
  exec_.schedule_after(rd.gap + rd.dwell,
                       [this, ci, ri, stop_index, hops_left] {
                         roam_hop(ci, ri, stop_index + 1, hops_left - 1);
                       });
}

int ClientBundle::check_completeness() {
  bool lossless = true;
  std::uint64_t total_expected = 0;
  std::uint64_t total_missing = 0;
  for (BundleClient& bc : clients_) {
    // Delivered notification ids per subscription handle.
    std::map<std::uint32_t, std::set<NotificationId>> got;
    for (const client::Delivery& d : bc.entity->deliveries()) {
      got[d.sub].insert(d.notification.id());
    }
    for (std::size_t si = 0; si < bc.spec.subscribes.size(); ++si) {
      const filter::Filter& f = bc.spec.subscribes[si];
      const std::uint32_t sub = bc.sub_ids[si];
      std::uint64_t expected = 0;
      std::uint64_t missing = 0;
      for (const filter::Notification& n : published_) {
        if (!f.matches(n)) continue;
        ++expected;
        if (got[sub].count(n.id()) == 0) ++missing;
      }
      total_expected += expected;
      total_missing += missing;
      if (missing != 0) lossless = false;
      std::cout << "client " << bc.spec.name << " sub " << sub
                << ": expected " << expected << " delivered "
                << (expected - missing) << " missing " << missing
                << " duplicates " << bc.entity->duplicate_count() << "\n";
    }
  }
  std::cout << "bundle: " << published_.size() << " publications, "
            << total_expected << " expected deliveries, " << total_missing
            << " missing" << (lossless ? " (complete)" : " (LOSSY)") << "\n";
  if (expect_complete_ && !lossless) return 1;
  return 0;
}

}  // namespace rebeca::transport
