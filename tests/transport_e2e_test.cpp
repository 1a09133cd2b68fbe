// End-to-end over real processes: spawns one rebeca-node per broker of
// the checked-in transport_tour config plus a client-bundle process,
// and requires a complete run — every matching publication delivered,
// across the consumer's mid-run moveto between broker processes — also
// when one broker process starts well after the others.
//
// This is the CI smoke criterion as a ctest. Needs the rebeca-node
// binary (REBECA_BINARY_DIR) next to this test in the build tree.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

std::string shell_quote(const std::string& s) { return "'" + s + "'"; }

std::string node_binary() {
  return std::string(REBECA_BINARY_DIR) + "/rebeca-node";
}

/// Runs the tour: brokers in the background with a hard lifetime cap,
/// the client bundle in the foreground. Broker 1 starts `late_ms` after
/// the others. Checks that the bundle exits 0 (--expect-complete makes
/// missing deliveries exit 1) and reports nothing missing.
void expect_complete_tour(int late_ms) {
  const std::string binary = node_binary();
  const std::string config =
      std::string(REBECA_SOURCE_DIR) + "/examples/configs/transport_tour.json";

  std::string rdz = ::testing::TempDir() + "rebeca_e2e_XXXXXX";
  ASSERT_NE(::mkdtemp(rdz.data()), nullptr);

  const auto start_broker = [&](int b) {
    std::ostringstream os;
    os << shell_quote(binary) << " --config " << shell_quote(config)
       << " --broker " << b << " --rendezvous " << shell_quote(rdz)
       << " --duration-ms 30000 2>" << shell_quote(rdz) << "/broker" << b
       << ".log & pids=\"$pids $!\"; ";
    return os.str();
  };
  std::ostringstream cmd;
  cmd << "pids=''; ";
  for (int b = 0; b < 3; ++b) {
    if (b != 1 || late_ms == 0) cmd << start_broker(b);
  }
  cmd << "( " << shell_quote(binary) << " --config " << shell_quote(config)
      << " --clients --rendezvous " << shell_quote(rdz)
      << " --expect-complete > " << shell_quote(rdz)
      << "/clients.log 2>&1 ) & bundle=$!; ";
  if (late_ms != 0) {
    cmd << "sleep " << late_ms / 1000.0 << "; " << start_broker(1);
  }
  // Tear the brokers down by PID (never the whole process group: this
  // test lives in it too) and surface the bundle's verdict.
  cmd << "wait $bundle; rc=$?; kill $pids 2>/dev/null; wait; exit $rc";

  const int rc = std::system(cmd.str().c_str());  // system() is sh -c
  std::ifstream log(rdz + "/clients.log");
  std::ostringstream log_text;
  log_text << log.rdbuf();
  EXPECT_EQ(rc, 0) << "client bundle output:\n" << log_text.str();
  // The bundle's own report must agree: something was published, and
  // nothing went missing.
  EXPECT_NE(log_text.str().find(" 0 missing (complete)"), std::string::npos)
      << log_text.str();
}

TEST(TransportEndToEnd, MultiProcessTourCompletes) {
  if (!std::ifstream(node_binary())) {
    GTEST_SKIP() << "rebeca-node not built at " << node_binary();
  }
  expect_complete_tour(/*late_ms=*/0);
}

// Broker 1 (the producer's) comes up 1.5 s after the others. Broker 0
// forwards the consumer's subscription toward it before that link's
// session exists; the frames must wait for the session, not vanish.
TEST(TransportEndToEnd, TourCompletesWhenABrokerStartsLate) {
  if (!std::ifstream(node_binary())) {
    GTEST_SKIP() << "rebeca-node not built at " << node_binary();
  }
  expect_complete_tour(/*late_ms=*/1500);
}

}  // namespace
