// The tcp workload: two rebeca-node broker processes on loopback, driven
// by this process as publisher, static subscriber and roamer.
#ifndef PERFBENCH_TCP_HPP
#define PERFBENCH_TCP_HPP

#include <ostream>

#include "perfbench/src/bench.hpp"

namespace perfbench {

[[nodiscard]] RunResult run_tcp(const Options& o, std::ostream& log);

}  // namespace perfbench

#endif  // PERFBENCH_TCP_HPP
