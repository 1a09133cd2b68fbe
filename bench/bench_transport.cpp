// Transport perf trajectory: wire-codec throughput and end-to-end
// loopback session throughput.
//
//   bench_transport [--json]
//
// --json emits one flat object (metric -> value) for CI's
// BENCH_transport.json perf-trajectory artifact.
#include <chrono>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "bench/bench_args.hpp"
#include "src/net/message.hpp"
#include "src/transport/session.hpp"
#include "src/transport/wire.hpp"

using namespace rebeca;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             Clock::now() - start)
      .count();
}

filter::Notification bench_notification() {
  filter::Notification n;
  n.set("topic", std::string("stock"));
  n.set("symbol", std::string("REB"));
  n.set("price", std::int64_t(42));
  n.set("volume", std::int64_t(100000));
  n.set("urgent", false);
  n.stamp(NotificationId(1), ClientId(1), 1, sim::millis(1));
  return n;
}

filter::Filter bench_filter() {
  return filter::Filter()
      .where("topic", filter::Constraint::eq(
                          filter::Value(std::string("stock"))))
      .where("price", filter::Constraint::range(filter::Value(std::int64_t(10)),
                                                filter::Value(std::int64_t(90))))
      .where("symbol", filter::Constraint::prefix("RE"));
}

/// Encode + decode round trips per second for a publish (data plane)
/// and a subscribe (admin plane).
void bench_codec(std::map<std::string, double>& out) {
  const net::Message publish = net::ClientPublishMsg{bench_notification()};
  const net::Message subscribe =
      net::SubscribeMsg{bench_filter(), {SubKey{ClientId(1), 1}}};

  for (const auto& [name, msg] :
       {std::pair<std::string, const net::Message*>{"publish", &publish},
        {"subscribe", &subscribe}}) {
    constexpr int kIters = 200000;
    std::size_t bytes = 0;
    const auto start = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      const std::string encoded = transport::encode_message(*msg);
      bytes += encoded.size();
      const net::Message decoded = transport::decode_message(encoded);
      (void)decoded;
    }
    const double secs = seconds_since(start);
    out["codec_" + name + "_roundtrips_per_sec"] = kIters / secs;
    out["codec_" + name + "_bytes"] =
        static_cast<double>(bytes) / kIters;
  }
}

/// Messages per second through a real loopback socket pair: encoded on
/// the sender, framed, read by the receiver's reader thread, decoded on
/// the receiving executor. This is the whole per-message transport
/// path minus the broker logic.
void bench_session(std::map<std::string, double>& out) {
  constexpr int kMessages = 50000;
  transport::RealtimeExecutor exec;
  std::unique_ptr<transport::PeerSession> server;
  int received = 0;

  transport::Acceptor acceptor(
      exec, "127.0.0.1", 0,
      [&](transport::Conn conn, transport::SessionHello) {
        server = std::make_unique<transport::PeerSession>(
            exec, std::move(conn),
            [&](std::string payload) {
              const net::Message m = transport::decode_message(payload);
              (void)m;
              if (++received == kMessages) exec.stop();
            },
            [] {});
        server->send_frame(
            transport::kFrameWelcome,
            transport::encode_welcome(transport::SessionWelcome{1, 0}));
      });

  const auto start = Clock::now();
  std::thread sender([&] {
    auto dialed =
        transport::dial("127.0.0.1", acceptor.port(),
                        transport::SessionHello{},
                        std::chrono::milliseconds(5000));
    if (!dialed) return;
    const std::string payload = transport::encode_message(
        net::Message{net::ClientPublishMsg{bench_notification()}});
    for (int i = 0; i < kMessages; ++i) {
      dialed->first.write_frame(transport::kFrameMsg, payload);
    }
    // Hold the conn open until the receiver drains (EOF would race the
    // tail of the stream into the silenced-close path).
    while (received < kMessages) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  exec.run();
  sender.join();
  const double secs = seconds_since(start);
  out["session_loopback_msgs_per_sec"] = kMessages / secs;
  server->close();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args(argc, argv, "[--json]", 0, {"--json"});
  const bool json = args.flag("--json");
  std::map<std::string, double> metrics;
  bench_codec(metrics);
  bench_session(metrics);

  if (json) {
    std::cout << "{";
    bool first = true;
    for (const auto& [k, v] : metrics) {
      if (!first) std::cout << ", ";
      std::cout << "\"" << k << "\": " << v;
      first = false;
    }
    std::cout << "}\n";
  } else {
    std::cout << "transport bench\n";
    for (const auto& [k, v] : metrics) {
      std::cout << "  " << k << ": " << v << "\n";
    }
  }
  return 0;
}
