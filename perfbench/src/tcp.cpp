#include "perfbench/src/tcp.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/client/client.hpp"
#include "src/metrics/checkers.hpp"
#include "src/transport/node.hpp"
#include "src/transport/wire.hpp"

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using transport::Conn;

constexpr std::size_t kClosedLoopMessages = 20000;
constexpr std::size_t kWindow = 64;  // closed-loop publications in flight
constexpr auto kTimeout = std::chrono::seconds(20);
constexpr std::size_t kMinIterations = 3;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The broker processes of one deployment. The destructor stops them
/// (SIGTERM, then SIGKILL after a grace period) and reaps every one.
class BrokerProcesses {
 public:
  BrokerProcesses(const std::string& node, const std::string& config,
                  const std::string& dir, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::string index = std::to_string(i);
      const std::string log = dir + "/broker" + index + ".log";
      std::vector<std::string> args = {node, "--config", config, "--broker", index,
                                       "--rendezvous", dir};
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      posix_spawn_file_actions_t actions;
      posix_spawn_file_actions_init(&actions);
      posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
      posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log.c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
      pid_t pid = 0;
      const int rc = posix_spawn(&pid, node.c_str(), &actions, nullptr, argv.data(), environ);
      posix_spawn_file_actions_destroy(&actions);
      if (rc != 0) throw std::runtime_error("cannot start " + node);
      pids_.push_back(pid);
    }
  }
  BrokerProcesses(const BrokerProcesses&) = delete;
  BrokerProcesses& operator=(const BrokerProcesses&) = delete;
  ~BrokerProcesses() {
    for (pid_t pid : pids_) ::kill(pid, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    for (pid_t pid : pids_) {
      int status = 0;
      while (::waitpid(pid, &status, WNOHANG) == 0) {
        if (Clock::now() > deadline) {
          ::kill(pid, SIGKILL);
          ::waitpid(pid, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }

  /// Largest peak resident set among the brokers, MiB.
  [[nodiscard]] double peak_rss_mb() const {
    double peak = 0;
    for (pid_t pid : pids_) peak = std::max(peak, perfbench::peak_rss_mb(pid));
    return peak;
  }

 private:
  std::vector<pid_t> pids_;
};

/// One client of this process and its current broker session.
struct Endpoint {
  std::string name;
  std::unique_ptr<client::Client> entity;
  std::uint64_t session_id = 0;
  std::uint32_t attempt = 0;
  std::unique_ptr<transport::SessionPort> port;
  std::unique_ptr<net::Link> link;
  std::unique_ptr<transport::PeerSession> session;
  // A broker keeps raw Link* registrations for the whole run, so
  // earlier attachments' links and ports outlive their sockets.
  std::vector<std::unique_ptr<transport::SessionPort>> old_ports;
  std::vector<std::unique_ptr<net::Link>> old_links;
};

struct IterationResult {
  double setup_s = 0;
  double closed_loop_s = 0;
  double peak_rss_mb = 0;
  std::vector<double> latency_ms;  // open loop, from the due send time
  std::vector<double> lag_ms;      // how late each open-loop send ran
  std::vector<double> reloc_gap_ms;
  std::uint64_t link_messages = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t expected = 0;  // tracked deliveries (both subscribers)
  std::uint64_t lost = 0;      // missing + duplicates + FIFO violations
};

/// One deployment: brokers up, clients subscribed, a closed loop, an
/// open loop with the roamer's re-dials, a completeness check. All
/// client work runs on the executor (this thread); sockets add one
/// reader thread per session and a transient dialer per re-dial.
class Iteration {
 public:
  Iteration(const Options& o, const Plan& plan, std::size_t index)
      : o_(o), plan_(plan), exec_(o.seed, 1.0) {
    dir_ = o.out_dir + "/tcp-" + std::to_string(::getpid()) + "-" + std::to_string(index);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    config_ = dir_ + "/node.json";
    std::ofstream(config_)
        << "{\"name\": \"perfbench_tcp\", \"topology\": {\"kind\": \"chain\", \"size\": 2},"
           " \"routing\": \"covering\", \"clients\": [], \"phases\": [],"
           " \"transport\": {\"host\": \"127.0.0.1\", \"port_base\": 0}}\n";
    for (const ClientPlan& c : plan.clients) {
      Endpoint e;
      e.name = c.name;
      client::ClientConfig cfg;
      cfg.id = ClientId(c.id);
      e.entity = std::make_unique<client::Client>(exec_, cfg);
      e.session_id = (0xBE7Cull << 32) | c.id;
      for (const filter::Filter& f : c.filters) e.entity->subscribe(f);
      endpoints_.push_back(std::move(e));
    }
  }
  Iteration(const Iteration&) = delete;
  Iteration& operator=(const Iteration&) = delete;

  ~Iteration() {
    for (std::thread& t : dialers_) {
      if (t.joinable()) t.join();
    }
    for (Endpoint& e : endpoints_) {
      if (e.port) e.port->set_session(nullptr);
      if (e.session) e.session->close();
    }
    brokers_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  IterationResult run() {
    const auto start = Clock::now();
    transport::TransportOpts opts;
    opts.rendezvous_dir = dir_;
    const transport::AddressBook addresses(opts);
    brokers_ = std::make_unique<BrokerProcesses>(o_.node_binary, config_, dir_, 2);
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
      Conn conn = dial(addresses, i, plan_.clients[i].broker);
      exec_.post([this, i, c = std::move(conn)]() mutable { attach(i, std::move(c)); });
    }
    publisher().on_publish = [this](const filter::Notification& n) { published_.push_back(n); };
    for (std::size_t i : {kSub, kRoamer}) {
      endpoints_[i].entity->on_notify = [this, i](const client::Delivery& d) { on_delivery(i, d); };
    }
    exec_.post([this, start] { probe(start); });
    // Watchdog: a stuck deployment ends the loop (and fails the gate).
    exec_.schedule_after(std::chrono::duration_cast<std::chrono::nanoseconds>(kTimeout).count(),
                         [this] {
                           timed_out_ = true;
                           exec_.stop();
                         });
    exec_.run();
    for (std::thread& t : dialers_) t.join();
    dialers_.clear();
    r_.peak_rss_mb = brokers_->peak_rss_mb();
    check();
    if (timed_out_) r_.lost += 1;
    return r_;
  }

 private:
  static constexpr std::size_t kSub = 0, kRoamer = 1, kPublisher = 2;

  client::Client& publisher() { return *endpoints_[kPublisher].entity; }

  Conn dial(const transport::AddressBook& addresses, std::size_t i, std::size_t broker) {
    Endpoint& e = endpoints_[i];
    transport::SessionHello hello;
    hello.kind = transport::SessionHello::Kind::client;
    hello.client = e.entity->id().value();
    hello.session = e.session_id;
    hello.attempt = e.attempt;
    const auto timeout = std::chrono::duration_cast<std::chrono::milliseconds>(kTimeout);
    const std::uint16_t port = addresses.wait_port(broker, timeout);
    std::optional<std::pair<Conn, transport::SessionWelcome>> dialed;
    if (port != 0) dialed = transport::dial(addresses.host(), port, hello, timeout);
    if (!dialed) throw std::runtime_error("cannot reach broker " + std::to_string(broker));
    return std::move(dialed->first);
  }

  void attach(std::size_t i, Conn conn) {
    Endpoint& e = endpoints_[i];
    auto port = std::make_unique<transport::SessionPort>(e.name + "@" + std::to_string(e.attempt));
    auto link = std::make_unique<net::Link>(LinkId(next_link_++), exec_, *e.entity, *port,
                                            sim::DelayModel::fixed(0), &counters_);
    net::Link* link_raw = link.get();
    transport::SessionPort* port_raw = port.get();
    e.session = std::make_unique<transport::PeerSession>(
        exec_, std::move(conn),
        [link_raw, port_raw](std::string bytes) {
          link_raw->send(*port_raw, transport::decode_message(bytes));
        },
        [this] { exec_.stop(); });  // a broker died: end the iteration
    port->set_session(e.session.get());
    if (e.port) e.old_ports.push_back(std::move(e.port));
    if (e.link) e.old_links.push_back(std::move(e.link));
    e.port = std::move(port);
    e.link = std::move(link);
    e.entity->attach(*e.link);
  }

  // ---- setup: probe until both subscribers receive ----
  void probe(Clock::time_point start) {
    if (received_[kSub] != 0 && received_[kRoamer] != 0) {
      r_.setup_s = since(start);
      closed_loop();
      return;
    }
    publisher().publish(plan_.clients[kPublisher].publications.front().body);
    exec_.schedule_after(sim::millis(2), [this, start] { probe(start); });
  }

  // ---- closed loop: kWindow publications in flight ----
  void closed_loop() {
    tracked_from_ = published_.size() + 1;  // producer_seq of the next publication
    closed_start_ = Clock::now();
    for (std::size_t k = 0; k < kWindow; ++k) publish_next_closed();
  }

  void publish_next_closed() {
    const auto& pubs = plan_.clients[kPublisher].publications;
    const std::size_t k = published_.size() + 1 - tracked_from_;
    publisher().publish(pubs[k % pubs.size()].body);
  }

  // ---- open loop: the plan's fixed-rate schedule, timed from due ----
  void open_loop() {
    r_.closed_loop_s = since(closed_start_);
    open_from_ = published_.size() + 1;
    const sim::TimePoint base = exec_.now();
    const auto& pubs = plan_.clients[kPublisher].publications;
    for (std::size_t k = 0; k < pubs.size(); ++k) {
      const sim::TimePoint due = base + pubs[k].at;
      due_.push_back(due);
      exec_.post_at(due, [this, k, due] {
        r_.lag_ms.push_back(sim::to_millis(exec_.now() - due));
        publisher().publish(plan_.clients[kPublisher].publications[k].body);
        if (k + 1 == plan_.clients[kPublisher].publications.size()) drain();
      });
    }
    for (const RoamStep& step : plan_.clients[kRoamer].roams) {
      exec_.post_at(base + step.leave, [this] { leave(); });
      exec_.post_at(base + step.arrive, [this, to = step.to] { redial(to); });
    }
  }

  void leave() {
    Endpoint& e = endpoints_[kRoamer];
    e.entity->detach_silently();
    e.port->set_session(nullptr);
    e.session->close();
    e.session.reset();
    dark_from_ = exec_.now();
  }

  void redial(std::size_t broker) {
    Endpoint& e = endpoints_[kRoamer];
    ++e.attempt;
    redial_at_ = exec_.now();
    gap_seen_ = false;
    dialers_.emplace_back([this, broker] {
      transport::TransportOpts opts;
      opts.rendezvous_dir = dir_;
      try {
        Conn conn = dial(transport::AddressBook(opts), kRoamer, broker);
        exec_.post([this, c = std::move(conn)]() mutable { attach(kRoamer, std::move(c)); });
      } catch (const std::exception&) {
        exec_.stop();
      }
    });
  }

  void drain() {
    const std::uint64_t want = published_.size() + 1 - tracked_from_;
    if (tracked_[kSub] >= want && tracked_[kRoamer] >= want) {
      exec_.stop();
      return;
    }
    exec_.schedule_after(sim::millis(2), [this] { drain(); });
  }

  void on_delivery(std::size_t i, const client::Delivery& d) {
    ++received_[i];
    const std::uint64_t seq = d.notification.producer_seq();
    if (tracked_from_ == 0 || seq < tracked_from_) return;
    ++tracked_[i];
    ++r_.deliveries;
    if (open_from_ == 0) {
      // Closed loop: the static subscriber's receipts pace the sender.
      if (i == kSub) {
        const std::uint64_t received = tracked_[kSub];
        if (received == kClosedLoopMessages) {
          open_loop();
        } else if (published_.size() + 1 - tracked_from_ < kClosedLoopMessages) {
          publish_next_closed();
        }
      }
      return;
    }
    if (seq < open_from_) return;
    if (i == kSub) {
      r_.latency_ms.push_back(sim::to_millis(d.delivered_at - due_[seq - open_from_]));
    } else if (!gap_seen_ && redial_at_ != 0 && d.notification.publish_time() >= dark_from_ &&
               d.notification.publish_time() < redial_at_) {
      gap_seen_ = true;
      r_.reloc_gap_ms.push_back(sim::to_millis(d.delivered_at - redial_at_));
    }
  }

  void check() {
    std::vector<NotificationId> expected;
    for (const filter::Notification& n : published_) {
      if (tracked_from_ != 0 && n.producer_seq() >= tracked_from_) expected.push_back(n.id());
    }
    for (std::size_t i : {kSub, kRoamer}) {
      const auto& log = endpoints_[i].entity->deliveries();
      std::vector<client::Delivery> tracked;
      for (const client::Delivery& d : log) {
        if (d.notification.producer_seq() >= tracked_from_) tracked.push_back(d);
      }
      const metrics::CompletenessReport c = metrics::check_exactly_once(tracked, expected);
      const metrics::FifoReport f = metrics::check_sender_fifo(log);
      r_.expected += c.expected;
      r_.lost += c.missing + c.duplicates + f.violations;
    }
    if (expected.empty()) r_.lost += 1;
    r_.link_messages = counters_.total();
  }

  const Options& o_;
  const Plan& plan_;
  transport::RealtimeExecutor exec_;
  std::string dir_;
  std::string config_;
  std::unique_ptr<BrokerProcesses> brokers_;
  metrics::MessageCounters counters_;
  std::vector<Endpoint> endpoints_;  // sub, roamer, publisher (plan order)
  std::vector<std::thread> dialers_;
  std::uint32_t next_link_ = 1;
  std::vector<filter::Notification> published_;
  std::uint64_t received_[2] = {0, 0};  // all deliveries, sub and roamer
  std::uint64_t tracked_[2] = {0, 0};   // deliveries of tracked publications
  std::uint64_t tracked_from_ = 0;
  std::uint64_t open_from_ = 0;
  std::vector<sim::TimePoint> due_;
  Clock::time_point closed_start_;
  sim::TimePoint dark_from_ = 0;
  sim::TimePoint redial_at_ = 0;
  bool gap_seen_ = false;
  bool timed_out_ = false;
  IterationResult r_;
};

}  // namespace

RunResult run_tcp(const Options& o, std::ostream& log) {
  if (o.node_binary.empty()) throw std::runtime_error("the tcp workload needs --node");
  const Plan plan = make_plan(Workload::tcp, o.seed);
  if (o.trace) {
    // Layers below transport are traced on an in-process simulation of
    // the same deployment and inputs; transport gets its own probes.
    log << "tcp traced run: per-layer metrics of the simulated twin deployment\n";
    return run_simulated(o, plan, log);
  }
  log << "workload tcp: 2 rebeca-node brokers on loopback, closed loop of "
      << kClosedLoopMessages << " (window " << kWindow << "), open loop of "
      << plan.clients[2].publications.size() << " at 2000/s, "
      << plan.clients[1].roams.size() << " roamer re-dials\n";
  RunResult r;
  std::vector<double> setup, closed, rss, latency, lag, gaps;
  std::uint64_t messages = 0, deliveries = 0;
  const auto start = Clock::now();
  std::size_t n = 0;
  do {
    Iteration it(o, plan, n++);
    const IterationResult x = it.run();
    setup.push_back(x.setup_s);
    closed.push_back(x.closed_loop_s);
    rss.push_back(x.peak_rss_mb);
    latency.insert(latency.end(), x.latency_ms.begin(), x.latency_ms.end());
    lag.insert(lag.end(), x.lag_ms.begin(), x.lag_ms.end());
    gaps.insert(gaps.end(), x.reloc_gap_ms.begin(), x.reloc_gap_ms.end());
    messages += x.link_messages;
    deliveries += x.deliveries;
    r.attempted += x.expected;
    r.failed += x.lost;
  } while (since(start) < static_cast<double>(o.seconds) || n < kMinIterations);

  if (r.failed != 0) {
    r.failures.push_back("lost " + std::to_string(r.failed) + " of " +
                         std::to_string(r.attempted) + " tracked tcp deliveries");
  }
  if (latency.empty()) r.failures.push_back("no open-loop deliveries");
  auto& v = r.values;
  v["setup_s"] = median(setup);
  v["run_s"] = median(closed);
  v["peak_rss_mb"] = median(rss);
  v["latency_p50_ms"] = quantile(latency, 0.5);
  v["latency_p99_ms"] = quantile(latency, 0.99);
  v["msgs_per_delivery"] =
      deliveries == 0 ? 0.0 : static_cast<double>(messages) / static_cast<double>(deliveries);
  v["loss_ratio"] = r.attempted == 0 ? 0.0
                                     : static_cast<double>(r.failed) /
                                           static_cast<double>(r.attempted);
  v["iterations"] = static_cast<double>(n);
  v["tcp_msgs_per_s"] = static_cast<double>(kClosedLoopMessages) / median(closed);
  v["tcp_latency_p50_ms"] = v["latency_p50_ms"];
  v["tcp_latency_p99_ms"] = v["latency_p99_ms"];
  v["tcp_reloc_gap_ms"] = median(gaps);
  v["gen_lag_p99_ms"] = quantile(lag, 0.99);
  r.samples = latency.size();
  r.correct = r.failures.empty() && r.failed == 0;
  return r;
}

}  // namespace perfbench
