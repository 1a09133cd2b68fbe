#include "perfbench/src/trace.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

std::int32_t Tracer::begin(const char* name) {
  Span s;
  s.name = name;
  s.start_ns = now_ns();
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  spans_.push_back(std::move(s));
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::end(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Scopes are RAII, so spans close in reverse order of opening.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::write_jsonl(std::ostream& os) const {
  for (const Span& s : spans_) {
    os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
       << ",\"run\":" << s.run << ",\"count\":" << s.count << "}\n";
  }
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, p.start_ns);
      hi = std::min(hi, p.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = static_cast<double>(p.end_ns - p.start_ns - covered) * 1e-9;
  }
  return self;
}

std::map<std::string, NameTotals> totals_by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = out[spans[i].name];
    t.total_s += spans[i].seconds();
    t.self_s += self[i];
    t.spans += 1;
    t.count += spans[i].count;
  }
  return out;
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::vector<double> durations(const std::vector<Span>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

std::vector<double> per_item(const std::vector<Span>& spans,
                             const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name && s.count > 0) {
      out.push_back(s.seconds() / static_cast<double>(s.count));
    }
  }
  return out;
}

}  // namespace perfbench
