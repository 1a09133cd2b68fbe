// Command-line validation shared by the scenario bench mains.
//
// Every bench takes a few optional positional numbers (seed count,
// worker threads, seconds of load) and maybe a --flag. BenchArgs checks
// them all up front:
//
//   * `--help` / `-h` prints the usage on stdout and exits 0;
//   * an argument that is not a positive number, more positional
//     arguments than the bench takes, or an unknown `--flag` prints the
//     reason and the usage on stderr and exits 2.
//
//   const bench::BenchArgs args(argc, argv, "[runs] [threads]", 2);
//   cfg.runs = args.count(0, 5);
#ifndef REBECA_BENCH_BENCH_ARGS_HPP
#define REBECA_BENCH_BENCH_ARGS_HPP

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/str_cat.hpp"

namespace rebeca::bench {

class BenchArgs {
 public:
  /// `synopsis` follows the program name in the usage line; `positional`
  /// is how many positional arguments the bench accepts; `flags` lists
  /// the `--flags` it accepts, anywhere on the line.
  BenchArgs(int argc, char** argv, std::string_view synopsis,
            std::size_t positional,
            std::initializer_list<std::string_view> flags = {})
      : usage_(usage_line(argc > 0 ? argv[0] : "bench", synopsis)) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        std::cout << usage_;
        std::exit(0);
      }
      if (arg.size() > 2 && arg.substr(0, 2) == "--") {
        if (std::find(flags.begin(), flags.end(), arg) == flags.end()) {
          fail(util::str_cat("unknown option '", arg, "'"));
        }
        flags_.push_back(arg);
      } else {
        positional_.push_back(arg);
      }
    }
    if (positional_.size() > positional) {
      fail(util::str_cat("too many arguments (takes at most ", positional,
                         ")"));
    }
  }

  /// Positional argument `i` (0-based) as a positive integer, or
  /// `fallback` when it is absent.
  [[nodiscard]] std::size_t count(std::size_t i, std::size_t fallback) const {
    if (i >= positional_.size()) return fallback;
    const std::string_view arg = positional_[i];
    unsigned long long value = 0;
    const auto [end, ec] =
        std::from_chars(arg.data(), arg.data() + arg.size(), value);
    if (ec != std::errc{} || end != arg.data() + arg.size() || value == 0) {
      fail(util::str_cat("expected a positive integer, got '", arg, "'"));
    }
    return static_cast<std::size_t>(value);
  }

  /// Positional argument `i` (0-based) as a positive finite number, or
  /// `fallback` when it is absent.
  [[nodiscard]] double real(std::size_t i, double fallback) const {
    if (i >= positional_.size()) return fallback;
    const std::string_view arg = positional_[i];
    double value = 0;
    const auto [end, ec] =
        std::from_chars(arg.data(), arg.data() + arg.size(), value);
    if (ec != std::errc{} || end != arg.data() + arg.size() ||
        !std::isfinite(value) || value <= 0) {
      fail(util::str_cat("expected a positive number, got '", arg, "'"));
    }
    return value;
  }

  /// True when `--flag` was given.
  [[nodiscard]] bool flag(std::string_view name) const {
    return std::find(flags_.begin(), flags_.end(), name) != flags_.end();
  }

 private:
  static std::string usage_line(std::string_view program,
                                std::string_view synopsis) {
    const auto slash = program.find_last_of('/');
    if (slash != std::string_view::npos) program.remove_prefix(slash + 1);
    std::string line = "usage: ";
    line += program;
    if (!synopsis.empty()) {
      line += ' ';
      line += synopsis;
    }
    line += '\n';
    return line;
  }

  [[noreturn]] void fail(const std::string& why) const {
    std::cerr << "error: " << why << '\n' << usage_;
    std::exit(2);
  }

  std::string usage_;
  std::vector<std::string_view> positional_;
  std::vector<std::string_view> flags_;
};

}  // namespace rebeca::bench

#endif  // REBECA_BENCH_BENCH_ARGS_HPP
