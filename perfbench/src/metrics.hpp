// The metric catalogue and the result line.
//
// End-to-end metrics are printed by untraced runs, per-layer metrics by
// traced runs; the names and units here are the ones BENCHMARK.json
// declares (a test keeps the two equal).
#ifndef PERFBENCH_METRICS_HPP
#define PERFBENCH_METRICS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();
/// Printed in the human-readable table only (not in the result line):
/// figures that exist on some workloads but not all.
[[nodiscard]] const std::vector<MetricDef>& extra_metrics();
[[nodiscard]] const MetricDef* find_metric(const std::string& name);

using Values = std::map<std::string, double>;

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}
/// with every metric of `defs`. Throws std::logic_error when `values`
/// lacks one of them.
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<MetricDef>& defs,
                                      const Values& values);

/// Shortest round-trip decimal form of `v` (all significant digits).
[[nodiscard]] std::string number(double v);

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Peak resident set (VmHWM) in MiB of process `pid`; 0 = this process.
[[nodiscard]] double peak_rss_mb(int pid = 0);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_HPP
