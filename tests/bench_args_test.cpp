// Bench command lines: BenchArgs parses positive numbers and flags, and
// a real bench binary (bench_sharded_scaling) exits 0 on --help and 2 on
// a bad argument, printing its usage either way. Needs the bench binary
// (REBECA_BINARY_DIR) next to this test in the build tree.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_args.hpp"

namespace rebeca::bench {
namespace {

const std::string& bench_binary() {
  static const std::string path =
      std::string(REBECA_BINARY_DIR) + "/bench_sharded_scaling";
  return path;
}

/// Runs bench_sharded_scaling with `args`; returns its exit code and
/// fills `out` with its stdout and stderr.
int run_bench(const std::string& args, std::string& out) {
  const std::string cmd = "'" + bench_binary() + "' " + args + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  out.clear();
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(BenchArgs, ParsesPositiveNumbersAndFlags) {
  std::vector<std::string> words = {"bench", "3", "--json", "2.5"};
  std::vector<char*> argv;
  for (auto& w : words) argv.push_back(w.data());
  const BenchArgs args(static_cast<int>(argv.size()), argv.data(), "", 3,
                       {"--json"});
  EXPECT_EQ(args.count(0, 7), 3u);
  EXPECT_DOUBLE_EQ(args.real(1, 1.0), 2.5);
  EXPECT_EQ(args.count(2, 7), 7u);  // absent: the fallback
  EXPECT_TRUE(args.flag("--json"));
  EXPECT_FALSE(args.flag("--csv-series"));
}

TEST(BenchArgs, ShardedScalingHelpExitsZero) {
  if (!std::ifstream(bench_binary())) GTEST_SKIP() << "bench not built";
  std::string out;
  EXPECT_EQ(run_bench("--help", out), 0) << out;
  EXPECT_NE(out.find("usage: bench_sharded_scaling"), std::string::npos)
      << out;
}

TEST(BenchArgs, ShardedScalingBadArgumentExitsTwo) {
  if (!std::ifstream(bench_binary())) GTEST_SKIP() << "bench not built";
  for (const char* bad : {"abc", "0", "-3", "2x", "1 0", "1 -0.5", "1 nan",
                          "1 2 3", "--bogus"}) {
    std::string out;
    EXPECT_EQ(run_bench(bad, out), 2) << "args: " << bad << "\n" << out;
    EXPECT_NE(out.find("usage: bench_sharded_scaling"), std::string::npos)
        << "args: " << bad << "\n" << out;
  }
}

}  // namespace
}  // namespace rebeca::bench
