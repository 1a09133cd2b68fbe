// Spans the benchmark records around its own calls into each layer.
//
// A span is one call (or one batch of calls) into a layer: its name
// ("scenario.settle", "routing.compute_forward_set", ...), wall start and
// end, the span that was open when it began (its parent), the run it
// belongs to (one scenario build-to-report iteration), and a work count
// (messages, calls in a batch). Spans stay in memory and are written out
// once, when the benchmark ends. A disabled tracer records nothing and
// its scopes cost one branch, so untraced runs measure the program alone.
#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the span list, -1 = root
  std::uint32_t run = 0;
  std::uint64_t count = 1;  // work items covered by this span

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Closes its span on destruction; set_count() records the work done.
  class Scope {
   public:
    Scope(Tracer* tracer, std::int32_t index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->end(index_);
    }
    void set_count(std::uint64_t n) {
      if (tracer_ != nullptr) tracer_->spans_[static_cast<std::size_t>(index_)].count = n;
    }

   private:
    Tracer* tracer_;
    std::int32_t index_;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_run(std::uint32_t run) { run_ = run; }

  [[nodiscard]] Scope span(const char* name) {
    if (!enabled_) return Scope(nullptr, -1);
    return Scope(this, begin(name));
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line: name, start_ns, end_ns, parent, run, count.
  void write_jsonl(std::ostream& os) const;

 private:
  std::int32_t begin(const char* name);
  void end(std::int32_t index);
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::uint32_t run_ = 0;
  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Self time of span i: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
[[nodiscard]] std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Aggregate per span name: summed inclusive and self time, calls, work.
struct NameTotals {
  double total_s = 0;
  double self_s = 0;
  std::uint64_t spans = 0;
  std::uint64_t count = 0;
};
[[nodiscard]] std::map<std::string, NameTotals> totals_by_name(
    const std::vector<Span>& spans);

/// The layer of a span: its name up to the first '.'.
[[nodiscard]] std::string layer_of(const std::string& name);

/// Durations (seconds) of every span named `name`, in recording order.
[[nodiscard]] std::vector<double> durations(const std::vector<Span>& spans,
                                            const std::string& name);

/// Per-call seconds of every span named `name` (duration / count).
[[nodiscard]] std::vector<double> per_item(const std::vector<Span>& spans,
                                           const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HPP
