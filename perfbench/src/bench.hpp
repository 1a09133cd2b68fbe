// One benchmark run: argument validation, the measured loop for each
// workload, the correctness gate, and the result line.
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "perfbench/src/metrics.hpp"
#include "perfbench/src/plan.hpp"

namespace perfbench {

struct Options {
  Workload workload = Workload::fanout;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  bool trace = false;
  std::size_t size = 0;     // subscribers; 0 = the workload's default
  std::string metric;       // "" = print every metric in the table
  std::string out_dir = ".bench_build/traces";  // spans, tcp rendezvous
  std::string node_binary;  // rebeca-node, for the tcp workload
};

/// Parses argv; nullopt with a message in `error` on any invalid or
/// unknown argument (the caller prints usage and exits with code 2).
[[nodiscard]] std::optional<Options> parse_args(const std::vector<std::string>& args,
                                                std::string& error);

[[nodiscard]] const char* usage();

/// Outcome of one run.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per gate failure
  Values values;                      // every metric measured
  std::uint64_t samples = 0;          // latency samples behind the percentiles
  std::string summary;                // trace summary (traced runs)
};

/// Runs a simulated workload's plan on the classic kernel: untraced
/// (end-to-end metrics) or traced (per-layer metrics and the probes).
[[nodiscard]] RunResult run_simulated(const Options& o, const Plan& plan, std::ostream& log);

/// Runs the workload: untraced (end-to-end metrics) or traced
/// (per-layer metrics). `log` receives progress and the human table.
[[nodiscard]] RunResult run_benchmark(const Options& o, std::ostream& log);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_HPP
