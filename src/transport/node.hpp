// Process-level runtime: one broker (or a bundle of clients) per OS
// process, wired over the TCP session layer.
//
// The design keeps every entity (Broker, Client, their Links) 100%
// unmodified: each remote peer appears locally as a SessionPort — a
// net::Endpoint proxy joined to the entity by an ordinary classic Link
// with zero delay on a RealtimeExecutor. Outgoing messages flow
// entity → Link → SessionPort → wire codec → socket; the socket's
// reader thread posts incoming frames onto the executor, which decodes
// and injects them through the same Link. All entity code runs
// single-threaded on the executor; sockets are the only concurrency.
//
// Deployment shape (one host, loopback, v1):
//
//   rebeca-node --config cfg.json --broker 0     # one broker process
//   rebeca-node --config cfg.json --broker 1 ...
//   rebeca-node --config cfg.json --clients      # all clients, one process
//
// Broker i listens on transport.port_base + i, or — when port_base is
// 0 — on an ephemeral port announced through a rendezvous directory
// (broker_<i>.port files, written atomically). For tree edge (a, b)
// with a < b, b dials a. A broker defers client admission until every
// neighbor-broker session is up, because attach_broker_link does not
// re-forward existing subscriptions: admin traffic must never race the
// peer wiring.
//
// Mobility: a client's moveto() is a real socket teardown. The bundle
// cuts the local link (Client behaves exactly as under the simulated
// PhysicalMover), closes the socket (the old broker sees EOF and
// virtualizes the session — same path as a simulated link cut), waits
// out the gap, then dials the next broker with the SAME session id and
// a bumped attempt counter. Client::attach re-issues subscriptions
// with (epoch, last_seq) and the existing RelocateSub/Fetch/Replay
// machinery recovers the gap losslessly.
#ifndef REBECA_TRANSPORT_NODE_HPP
#define REBECA_TRANSPORT_NODE_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/broker/broker.hpp"
#include "src/client/client.hpp"
#include "src/net/link.hpp"
#include "src/net/topology.hpp"
#include "src/transport/realtime.hpp"
#include "src/transport/session.hpp"

namespace rebeca::transport {

// ---------------------------------------------------------------------------
// Deployment description (built by cli/node_config from the JSON file)
// ---------------------------------------------------------------------------

struct TransportOpts {
  std::string host = "127.0.0.1";
  /// Broker i listens on port_base + i; 0 = ephemeral ports announced
  /// via the rendezvous directory.
  std::uint16_t port_base = 0;
  std::string rendezvous_dir;
  /// Wall seconds per virtual second (see RealtimeExecutor).
  double time_scale = 1.0;
};

/// One periodic publisher, with phase offsets already resolved to
/// absolute virtual times.
struct PublishDrive {
  filter::Notification body;
  sim::Duration every = 0;    // fixed period; 0 = poisson
  sim::Duration poisson = 0;  // mean inter-arrival; 0 = every
  std::uint64_t count = 0;    // 0 = unbounded
  std::uint64_t seed = 1;
  sim::TimePoint start = 0;
  sim::TimePoint stop = 0;  // 0 = run to the end
};

/// A scripted physical roam: dwell at the current broker, go dark for
/// `gap`, re-attach at the next stop.
struct RoamDrive {
  std::vector<std::size_t> route;  // brokers visited after the start one
  sim::Duration dwell = sim::seconds(5);
  sim::Duration gap = sim::seconds(1);
  std::uint64_t hops = 0;  // 0 = whole route once
  sim::TimePoint start = 0;
};

struct NodeClientSpec {
  std::string name;
  std::uint32_t id = 0;
  std::size_t broker = 0;  // initial attach point
  std::vector<filter::Filter> subscribes;
  std::vector<PublishDrive> publishes;
  std::vector<RoamDrive> roams;
};

/// Everything a rebeca-node process needs, parsed once from the config.
struct NodeSpec {
  std::string name;
  std::optional<net::Topology> topology;
  broker::BrokerConfig broker;
  std::vector<NodeClientSpec> clients;
  /// Sum of the config's phases: when the client bundle stops.
  sim::Duration total_duration = sim::seconds(5);
  TransportOpts transport;
};

// ---------------------------------------------------------------------------
// Building blocks
// ---------------------------------------------------------------------------

/// Local stand-in for a remote peer: terminates the entity's Link and
/// forwards across the socket. Incoming frames are injected by the node
/// runtime via Link::send(*port, msg).
class SessionPort final : public net::Endpoint {
 public:
  explicit SessionPort(std::string name) : name_(std::move(name)) {}

  /// Attaches (or, with null, detaches) the peer's session. The first
  /// attach flushes, in order, the frames handed over before it.
  void set_session(PeerSession* session);
  [[nodiscard]] PeerSession* session() const { return session_; }

  void handle_message(net::Link& from, const net::Message& msg) override;
  void handle_link_down(net::Link& link) override { (void)link; }
  [[nodiscard]] std::string endpoint_name() const override { return name_; }

 private:
  std::string name_;
  PeerSession* session_ = nullptr;
  /// Frames awaiting the first session; disengaged once it attached.
  std::optional<std::vector<net::Message>> unsent_{std::in_place};
};

/// Maps broker index → (host, port). With port_base the mapping is
/// arithmetic; with a rendezvous directory it polls broker_<i>.port
/// files (written atomically by each broker on bind).
class AddressBook {
 public:
  explicit AddressBook(TransportOpts opts) : opts_(std::move(opts)) {}

  [[nodiscard]] const std::string& host() const { return opts_.host; }

  /// Publishes a broker's bound port (rendezvous mode only; no-op with
  /// port_base).
  void announce(std::size_t broker, std::uint16_t port) const;

  /// Resolves a broker's port, polling the rendezvous file until the
  /// wall deadline. 0 on timeout. Blocking — call off the executor.
  [[nodiscard]] std::uint16_t wait_port(std::size_t broker,
                                        std::chrono::milliseconds timeout) const;

 private:
  TransportOpts opts_;
};

// ---------------------------------------------------------------------------
// Broker process
// ---------------------------------------------------------------------------

class BrokerNode {
 public:
  BrokerNode(const NodeSpec& spec, std::size_t index);
  ~BrokerNode();

  /// Binds, connects to lower-index neighbors, serves until stop().
  void run();
  /// Thread-safe (callable from a signal-watcher thread).
  void stop();

  [[nodiscard]] std::uint16_t port() const;
  [[nodiscard]] const broker::Broker& broker() const { return broker_; }

 private:
  /// One neighbor broker: link + proxy exist from construction (the
  /// broker is attached immediately); the session arrives when the
  /// socket connects.
  struct PeerSlot {
    std::size_t neighbor = 0;
    std::unique_ptr<SessionPort> port;
    std::unique_ptr<net::Link> link;
    std::unique_ptr<PeerSession> session;
  };

  /// One connected client socket, keyed by a local admission counter
  /// (session ids repeat across reconnects by design).
  struct ClientConn {
    std::uint64_t session_id = 0;
    std::unique_ptr<SessionPort> port;
    std::unique_ptr<net::Link> link;
    std::unique_ptr<PeerSession> session;
  };

  void on_hello(Conn conn, const SessionHello& hello);
  void bind_peer(std::size_t neighbor, Conn conn, std::uint64_t echo_session);
  void admit_client(Conn conn, const SessionHello& hello);
  void client_gone(std::uint64_t conn_id);
  [[nodiscard]] PeerSlot* slot_of(std::size_t neighbor);

  const std::size_t index_;
  const TransportOpts opts_;
  AddressBook addresses_;
  RealtimeExecutor exec_;
  broker::Broker broker_;
  std::optional<Acceptor> acceptor_;
  std::vector<PeerSlot> peers_;
  std::size_t peers_connected_ = 0;
  bool peers_ready_ = false;
  /// Client conns held back until all broker peers are up (their
  /// WELCOME is withheld, so the client has not sent anything yet).
  std::vector<std::pair<Conn, SessionHello>> waiting_clients_;
  std::map<std::uint64_t, ClientConn> clients_;
  /// Links/ports of departed clients. The Broker keeps raw Link*
  /// registrations forever (the simulators never destroy links either),
  /// so a dead client's link and proxy endpoint must outlive it; only
  /// the socket session is reclaimed.
  std::vector<ClientConn> retired_;
  std::uint64_t next_conn_id_ = 1;
  std::uint32_t next_link_id_ = 1;
  std::vector<std::thread> dialers_;
};

// ---------------------------------------------------------------------------
// Client-bundle process
// ---------------------------------------------------------------------------

/// Runs every client of the config in one process: their subscriptions,
/// publish drives and roams, against remote broker processes. On finish
/// it can check delivery completeness: every logged publication that
/// matches a client's subscription must have been delivered (the
/// --expect-complete smoke criterion; exactly-once is the client
/// library's dedup).
class ClientBundle {
 public:
  explicit ClientBundle(const NodeSpec& spec);
  ~ClientBundle();

  /// Runs the bundle to the end of the phase schedule. Returns the
  /// process exit code: 0, or 1 when expect_complete() found losses.
  int run();
  void stop();

  void set_expect_complete(bool v) { expect_complete_ = v; }

 private:
  struct BundleClient {
    NodeClientSpec spec;
    std::unique_ptr<client::Client> entity;
    std::uint64_t session_id = 0;
    std::uint32_t attempt = 0;
    std::size_t at_broker = 0;
    bool ever_attached = false;
    std::unique_ptr<SessionPort> port;
    std::unique_ptr<net::Link> link;
    std::unique_ptr<PeerSession> session;
    /// subscribe() handles, parallel to spec.subscribes.
    std::vector<std::uint32_t> sub_ids;
    /// One RNG per publish drive (inter-arrival draws).
    std::vector<util::Rng> pub_rngs;
    /// Links/ports of past attachments (see BrokerNode::retired_).
    std::vector<std::unique_ptr<SessionPort>> old_ports;
    std::vector<std::unique_ptr<net::Link>> old_links;
  };

  void start_client(std::size_t ci);
  void connect_client(std::size_t ci, std::size_t broker_index);
  void attach_with(std::size_t ci, Conn conn);
  void disconnect_client(std::size_t ci);
  void publish_tick(std::size_t ci, std::size_t di, std::uint64_t remaining);
  void schedule_roams(std::size_t ci);
  void roam_hop(std::size_t ci, std::size_t ri, std::size_t stop_index,
                std::uint64_t hops_left);
  [[nodiscard]] int check_completeness();

  const NodeSpec spec_;
  AddressBook addresses_;
  RealtimeExecutor exec_;
  std::vector<BundleClient> clients_;
  /// Every publication from every bundle client, in publish order.
  std::vector<filter::Notification> published_;
  bool expect_complete_ = false;
  std::uint32_t next_link_id_ = 1;
  /// Dial threads are spawned from the executor thread (which is also
  /// the thread inside run()) — never concurrently — and joined after
  /// the loop exits.
  std::vector<std::thread> dialers_;
};

}  // namespace rebeca::transport

#endif  // REBECA_TRANSPORT_NODE_HPP
