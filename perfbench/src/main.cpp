// perfbench: the repository benchmark. Runs one seeded workload and
// prints its metrics; the last stdout line is the JSON result.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "perfbench/src/bench.hpp"

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (const std::string& a : args) {
    if (a == "--help" || a == "-h") {
      std::cout << perfbench::usage();
      return 0;
    }
  }
  std::string error;
  const auto options = perfbench::parse_args(args, error);
  if (!options) {
    std::cerr << "perfbench: " << error << "\n" << perfbench::usage();
    return 2;
  }
  try {
    const perfbench::RunResult r = perfbench::run_benchmark(*options, std::cout);
    const auto& defs = options->trace ? perfbench::per_layer_metrics()
                                      : perfbench::end_to_end_metrics();
    std::cout << perfbench::result_line(r.correct, std::max<std::uint64_t>(1, r.attempted),
                                        r.failed, defs, r.values)
              << std::endl;
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
