// rebeca-node: one broker (or one bundle of clients) per OS process,
// over the real TCP transport.
//
//   rebeca-node --config cfg.json --broker 0 --rendezvous /tmp/r &
//   rebeca-node --config cfg.json --broker 1 --rendezvous /tmp/r &
//   rebeca-node --config cfg.json --broker 2 --rendezvous /tmp/r &
//   rebeca-node --config cfg.json --clients --rendezvous /tmp/r
//       --expect-complete
//
// The client-bundle process runs the config's phase schedule and exits;
// broker processes serve until --duration-ms elapses or SIGTERM/SIGINT.
#include <atomic>
#include <csignal>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "src/cli/node_config.hpp"

namespace {

// Written by the signal handler AND the main thread, read by the
// watcher thread: needs to be both async-signal-safe (lock-free
// atomic) and a synchronization point (volatile sig_atomic_t alone is
// a cross-thread data race).
std::atomic<int> g_signalled{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "signal handler needs a lock-free atomic");

void on_signal(int) { g_signalled.store(1); }

void usage() {
  std::cerr <<
      "usage: rebeca-node --config FILE (--broker N | --clients) [options]\n"
      "\n"
      "  --config FILE       node config (rebeca-run schema + \"transport\")\n"
      "  --broker N          run broker index N of the topology\n"
      "  --clients           run every client of the config in this process\n"
      "  --rendezvous DIR    port-file directory (overrides config)\n"
      "  --port-base P       fixed ports: broker i at P+i (overrides config)\n"
      "  --time-scale S      wall seconds per virtual second\n"
      "  --duration-ms D     broker lifetime (default: run until signal)\n"
      "  --expect-complete   clients: exit 1 unless every matching\n"
      "                      publication was delivered\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::optional<std::size_t> broker_index;
  bool clients = false;
  std::string rendezvous;
  int port_base = -1;
  double time_scale = 0.0;
  std::int64_t duration_ms = 0;
  bool expect_complete = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "rebeca-node: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--config") {
      config_path = next();
    } else if (arg == "--broker") {
      broker_index = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--clients") {
      clients = true;
    } else if (arg == "--rendezvous") {
      rendezvous = next();
    } else if (arg == "--port-base") {
      port_base = std::stoi(next());
    } else if (arg == "--time-scale") {
      time_scale = std::stod(next());
    } else if (arg == "--duration-ms") {
      duration_ms = std::stoll(next());
    } else if (arg == "--expect-complete") {
      expect_complete = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "rebeca-node: unknown option " << arg << "\n";
      usage();
      return 2;
    }
  }

  if (config_path.empty() || (clients == broker_index.has_value())) {
    usage();
    return 2;
  }

  rebeca::transport::NodeSpec spec;
  try {
    spec = rebeca::cli::load_node_config(config_path);
  } catch (const std::exception& e) {
    // A bad config is a failed run (exit 1, as in rebeca-run); exit 2 is
    // for a bad command line.
    std::cerr << "rebeca-node: " << e.what() << "\n";
    return 1;
  }
  if (!rendezvous.empty()) spec.transport.rendezvous_dir = rendezvous;
  if (port_base >= 0) {
    spec.transport.port_base = static_cast<std::uint16_t>(port_base);
  }
  if (time_scale > 0.0) spec.transport.time_scale = time_scale;

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  try {
    if (clients) {
      rebeca::transport::ClientBundle bundle(spec);
      bundle.set_expect_complete(expect_complete);
      // A signal must still unwind run() cleanly (stop() is
      // thread-safe), so poll the flag from the side.
      std::thread watcher([&bundle] {
        while (g_signalled == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        bundle.stop();
      });
      const int rc = bundle.run();
      g_signalled = 1;  // also releases the watcher on a natural finish
      watcher.join();
      return rc;
    }

    rebeca::transport::BrokerNode node(spec, *broker_index);
    // rebeca-lint: allow(DET-CLOCK, wall-clock process driver; bounds the real runtime of a deployment)
    const auto started = std::chrono::steady_clock::now();
    std::thread watcher([&node, started, duration_ms] {
      for (;;) {
        if (g_signalled != 0) break;
        if (duration_ms > 0 &&
            // rebeca-lint: allow(DET-CLOCK, wall-clock process driver; bounds the real runtime of a deployment)
            std::chrono::steady_clock::now() - started >=
                std::chrono::milliseconds(duration_ms)) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      node.stop();
    });
    std::cerr << "[broker" << *broker_index << "] listening on "
              << spec.transport.host << ":" << node.port() << "\n";
    node.run();
    g_signalled = 1;
    watcher.join();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "rebeca-node: " << e.what() << "\n";
    return 1;
  }
}
