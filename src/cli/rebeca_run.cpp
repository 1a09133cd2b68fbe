// rebeca-run: execute a JSON scenario config without recompiling.
//
//   rebeca-run examples/configs/fig2.json
//   rebeca-run cfg.json --runs 16 --threads 4 --csv
//
// Prints the single-run ScenarioReport (one seed) or the sweep's
// mean ± CI aggregate table (several seeds); --csv / --csv-runs switch
// to machine-readable output. --expect-complete turns the run into a
// smoke check: exit non-zero if any seed missed or duplicated a
// notification (used by CI).
#include <cstring>
#include <iostream>
#include <string>

#include "src/cli/config.hpp"

namespace {

int usage(const char* argv0, int code) {
  std::ostream& os = code == 0 ? std::cout : std::cerr;
  os << "usage: " << argv0 << " <config.json> [options]\n"
     << "\n"
     << "options:\n"
     << "  --runs N           override sweep run count (seeds base_seed..+N-1)\n"
     << "  --seed S           override sweep base seed\n"
     << "  --threads N        override the worker-thread budget (0 = hardware);\n"
     << "                     split between concurrent runs and shards\n"
     << "  --shards N         override intra-scenario shards (config \"shards\");\n"
     << "                     N >= 1 selects the sharded engine, whose equal-seed\n"
     << "                     reports are byte-identical for any N\n"
     << "  --report           print every per-seed scenario report\n"
     << "  --csv              print the aggregate as CSV (metric per row)\n"
     << "  --csv-runs         print per-seed metric rows as CSV\n"
     << "  --csv-series       print the checkpoint message-count time series as\n"
     << "                     CSV (needs checkpoints, see --checkpoint-ms)\n"
     << "  --checkpoint-ms N  override the checkpoint interval\n"
     << "                     (config \"checkpoint_every_ms\")\n"
     << "  --expect-complete  exit 1 unless every seed delivered everything\n"
     << "                     exactly once (missing == duplicates == 0) and\n"
     << "                     every declared \"expect\" assertion held\n"
     << "  --help             this text\n"
     << "\n"
     << "The config schema is documented in README.md (\"rebeca-run\");\n"
     << "examples/configs/ holds runnable exemplars.\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  bool csv = false;
  bool csv_runs = false;
  bool csv_series = false;
  bool per_seed_reports = false;
  bool expect_complete = false;
  long override_runs = -1;
  long long override_seed = -1;
  long override_threads = -1;
  long override_shards = -1;
  double override_checkpoint_ms = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_number = [&](long long& out) {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        return false;
      }
      out = std::atoll(argv[++i]);
      return true;
    };
    long long n = 0;
    if (arg == "--help" || arg == "-h") return usage(argv[0], 0);
    if (arg == "--csv") {
      csv = true;
    } else if (arg == "--csv-runs") {
      csv_runs = true;
    } else if (arg == "--csv-series") {
      csv_series = true;
    } else if (arg == "--report") {
      per_seed_reports = true;
    } else if (arg == "--expect-complete") {
      expect_complete = true;
    } else if (arg == "--runs") {
      if (!next_number(n) || n <= 0) return usage(argv[0], 2);
      override_runs = static_cast<long>(n);
    } else if (arg == "--seed") {
      if (!next_number(n) || n < 0) return usage(argv[0], 2);
      override_seed = n;
    } else if (arg == "--threads") {
      if (!next_number(n) || n < 0) return usage(argv[0], 2);
      override_threads = static_cast<long>(n);
    } else if (arg == "--shards") {
      if (!next_number(n) || n < 0) return usage(argv[0], 2);
      override_shards = static_cast<long>(n);
    } else if (arg == "--checkpoint-ms") {
      if (!next_number(n) || n <= 0) return usage(argv[0], 2);
      override_checkpoint_ms = static_cast<double>(n);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option " << arg << "\n";
      return usage(argv[0], 2);
    } else if (config_path.empty()) {
      config_path = arg;
    } else {
      std::cerr << "more than one config file given\n";
      return usage(argv[0], 2);
    }
  }
  if (config_path.empty()) return usage(argv[0], 2);

  rebeca::cli::RunSpec spec;
  try {
    spec = rebeca::cli::load_config(config_path);
  } catch (const std::exception& e) {
    std::cerr << config_path << ": " << e.what() << "\n";
    return 1;
  }
  if (override_runs > 0) {
    spec.sweep.runs = static_cast<std::size_t>(override_runs);
    spec.sweep.seeds.clear();  // --runs regenerates from base_seed
  }
  if (override_seed >= 0) {
    spec.sweep.base_seed = static_cast<std::uint64_t>(override_seed);
    spec.sweep.seeds.clear();
  }
  if (override_threads >= 0) {
    spec.sweep.threads = static_cast<std::size_t>(override_threads);
  }
  if (override_shards >= 0) {
    spec.sweep.shards = static_cast<std::size_t>(override_shards);
  }
  if (override_checkpoint_ms > 0) {
    const auto base = spec.declare;
    const double ms = override_checkpoint_ms;
    spec.declare = [base, ms](rebeca::scenario::ScenarioBuilder& b) {
      base(b);
      b.checkpoint_every(rebeca::sim::millis(ms));
    };
    spec.has_checkpoints = true;
  }
  // Fail before the sweep runs, not after a multi-minute run.
  if (csv_series && !spec.has_checkpoints) {
    std::cerr << config_path
              << ": --csv-series needs checkpoints — set \"checkpoint_every_ms\""
                 " in the config or pass --checkpoint-ms\n";
    return 1;
  }

  // Semantic errors surface here, not at load: broker indices are
  // checked against the built topology, phase references against the
  // schedule, client ids against each other (REBECA_ASSERT throws).
  rebeca::scenario::SweepResult result;
  try {
    rebeca::scenario::ScenarioSweep sweep(spec.declare);
    result = sweep.run(spec.sweep);
  } catch (const std::exception& e) {
    std::cerr << config_path << ": " << e.what() << "\n";
    return 1;
  }

  if (!spec.name.empty() && !csv && !csv_runs && !csv_series) {
    std::cout << spec.name << "\n";
  }
  if (per_seed_reports) {
    for (const auto& report : result.reports) std::cout << report << "\n";
  }
  if (csv_series) {
    std::cout << result.csv_series();
  } else if (csv_runs) {
    std::cout << result.csv_runs();
  } else if (csv) {
    std::cout << result.csv();
  } else if (result.reports.size() == 1 && !per_seed_reports) {
    std::cout << result.reports.front();
  } else if (!per_seed_reports || result.reports.size() > 1) {
    std::cout << result.table();
  }

  if (expect_complete) {
    bool ok = true;
    for (const auto& report : result.reports) {
      if (report.missing != 0 || report.duplicates != 0) {
        std::cerr << "seed " << report.seed << ": missing " << report.missing
                  << " duplicates " << report.duplicates << "\n";
        ok = false;
      }
      for (const auto& violation : report.violations) {
        std::cerr << "seed " << report.seed << ": " << violation << "\n";
        ok = false;
      }
    }
    if (!ok) {
      std::cerr << "--expect-complete FAILED\n";
      return 1;
    }
    // stderr: keeps --csv / --csv-runs stdout machine-readable.
    std::cerr << "complete: every seed delivered exactly once"
                 " and met every declared expectation\n";
  }
  return 0;
}
