// JSON scenario configs: the declarative surface of `rebeca-run`.
//
// A config file holds everything a ScenarioBuilder declaration holds —
// topology, location graph, broker/overlay tuning, clients with
// subscriptions/advertisements/workloads/movement, the phase schedule
// with imperative on-enter actions, and the sweep settings — so a new
// workload is a new file, not a recompile. See README ("rebeca-run")
// for the schema; examples/configs/ has runnable exemplars.
//
// parse_config validates the JSON shape eagerly (throwing JsonError with
// the offending config path) and returns a thread-safe Declare closure:
// the sweep may invoke it concurrently, once per seed.
#ifndef REBECA_CLI_CONFIG_HPP
#define REBECA_CLI_CONFIG_HPP

#include <string>

#include "src/cli/json.hpp"
#include "src/scenario/sweep.hpp"

namespace rebeca::cli {

/// A loaded config: scenario declaration + sweep settings.
struct RunSpec {
  std::string name;
  scenario::ScenarioSweep::Declare declare;
  scenario::SweepConfig sweep;
  /// Config declared "checkpoint_every_ms" (--csv-series needs it or a
  /// --checkpoint-ms override — checked before the sweep runs).
  bool has_checkpoints = false;
};

/// Parses a config document. Throws JsonError on malformed JSON or
/// config shape errors.
[[nodiscard]] RunSpec parse_config(const std::string& json_text);

/// Reads and parses a config file. Throws JsonError (also for I/O).
[[nodiscard]] RunSpec load_config(const std::string& path);

// ---- exposed for tests ----
[[nodiscard]] filter::Filter parse_filter(const JsonValue& v,
                                          const std::string& where);
[[nodiscard]] filter::Notification parse_notification(const JsonValue& v,
                                                      const std::string& where);

// ---- shared with the rebeca-node loader (node_config.cpp) ----
/// A routing strategy name ("flooding" ... "merging").
[[nodiscard]] routing::Strategy parse_strategy(const std::string& name);
/// The "broker" stanza over `base`: durations must lie in [0, 1e12] ms
/// and counts must be >= 0, or JsonError names the field.
[[nodiscard]] broker::BrokerConfig parse_broker(const JsonValue& v,
                                                broker::BrokerConfig base);
/// A millisecond field as a duration: JsonError naming `where` unless it
/// lies in [0, 1e12] ms and, where `positive` (periods, residence
/// times), is at least 1 ns.
[[nodiscard]] sim::Duration duration_ms(double ms, const std::string& where,
                                        bool positive = false);
/// The running end of a phase list after appending phase `name` (at
/// `where`) of `duration`: JsonError naming `where`.duration_ms if the
/// end passes 1e12 ms, where summed durations would near int64 ticks.
[[nodiscard]] sim::Duration phase_end(sim::Duration end,
                                      sim::Duration duration,
                                      const std::string& where,
                                      const std::string& name);
/// Integer field `key` of `v` (`fallback` if absent) as a count:
/// JsonError naming `where`.`key` if negative.
[[nodiscard]] std::size_t count_field(const JsonValue& v,
                                      const std::string& key,
                                      std::size_t fallback,
                                      const std::string& where);

}  // namespace rebeca::cli

#endif  // REBECA_CLI_CONFIG_HPP
