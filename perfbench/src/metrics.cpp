#include "perfbench/src/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"run_s", "s"},
      {"peak_rss_mb", "MB"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"msgs_per_delivery", "msg/delivery"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"scenario.build_s", "s"},
        {"scenario.settle_s", "s"},
        {"scenario.traffic_s", "s"},
        {"scenario.drain_s", "s"},
        {"scenario.report_s", "s"},
        {"scenario.settle_growth_exp", "ratio"},
        {"sim.us_per_msg", "us"},
        {"sim.sharded4_speedup", "ratio"},
    };
    for (const char* c : {"notification", "delivery", "sub_admin", "relocation", "reexpose",
                          "replay", "loc_update", "client_ctl", "dropped"}) {
      d.push_back({std::string("net.msgs.") + c, "count"});
    }
    for (const char* g : {"routing_entries", "routing_tags", "match_index_entries",
                          "cover_index_entries", "virtuals", "ld_transits"}) {
      d.push_back({std::string("broker.") + g + ".settle", "count"});
      d.push_back({std::string("broker.") + g, "count"});
    }
    for (const char* g : {"pins_active", "pending_moveouts", "reexposed_filters", "replayed",
                          "replay_truncated"}) {
      d.push_back({std::string("broker.") + g, "count"});
    }
    const std::vector<MetricDef> rest = {
        {"routing.forward_set_us", "us"},
        {"routing.forward_set_p99_us", "us"},
        {"routing.forward_set_inputs", "count"},
        {"routing.diff_us", "us"},
        {"routing.forward_set_agree", "ratio"},
        {"routing.match_ns", "ns"},
        {"routing.match_hits", "count"},
        {"routing.match_useful_ratio", "ratio"},
        {"routing.covered_inputs_us", "us"},
        {"routing.moveout_plan_us", "us"},
        {"filter.matches_ns", "ns"},
        {"filter.covers_ns", "ns"},
        {"filter.less_ns", "ns"},
        {"location.ploc_us", "us"},
        {"location.constraint_for_us", "us"},
        {"location.updates_per_move", "ratio"},
        {"client.filtered_ratio", "ratio"},
        {"client.duplicates", "count"},
        {"transport.encode_ns", "ns"},
        {"transport.decode_ns", "ns"},
        {"transport.bytes_per_msg", "B"},
        {"transport.session_msgs_per_s", "1/s"},
        {"workload.publications", "count"},
        {"workload.moves", "count"},
        {"loss_ratio", "ratio"},
        {"trace.overhead_ratio", "ratio"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

const std::vector<MetricDef>& extra_metrics() {
  static const std::vector<MetricDef> defs = {
      {"loss_ratio", "ratio"},
      {"latency_samples", "count"},
      {"reloc_gap_ms", "ms"},
      {"iterations", "count"},
      {"tcp_msgs_per_s", "1/s"},
      {"tcp_latency_p50_ms", "ms"},
      {"tcp_latency_p99_ms", "ms"},
      {"tcp_reloc_gap_ms", "ms"},
      {"gen_lag_p99_ms", "ms"},
  };
  return defs;
}

const MetricDef* find_metric(const std::string& name) {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics(), &extra_metrics()}) {
    for (const MetricDef& d : *list) {
      if (d.name == name) return &d;
    }
  }
  return nullptr;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<MetricDef>& defs, const Values& values) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end()) throw std::logic_error("metric " + d.name + " was not measured");
    os << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": " << number(it->second)
       << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb(int pid) {
  std::ifstream status(pid == 0 ? std::string("/proc/self/status")
                                : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
    }
  }
  return 0;
}

}  // namespace perfbench
