#include "src/location/location_graph.hpp"

#include <algorithm>
#include <queue>

#include "src/util/assert.hpp"
#include "src/util/str_cat.hpp"

namespace rebeca::location {

LocationId LocationGraph::add(const std::string& name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const LocationId id(static_cast<std::uint32_t>(names_.size()));
  names_.push_back(name);
  index_.emplace(name, id);
  adjacency_.emplace_back();
  ball_cache_.balls.emplace_back();
  return id;
}

void LocationGraph::connect(LocationId a, LocationId b) {
  REBECA_ASSERT(a.value() < size() && b.value() < size(), "location out of range");
  REBECA_ASSERT(a != b, "self-loops are implicit (staying is always allowed)");
  auto& na = adjacency_[a.value()];
  if (std::find(na.begin(), na.end(), b) != na.end()) return;
  na.push_back(b);
  adjacency_[b.value()].push_back(a);
  // Topology changed: memoized balls are stale.
  for (auto& per_loc : ball_cache_.balls) per_loc.clear();
}

void LocationGraph::connect(const std::string& a, const std::string& b) {
  connect(add(a), add(b));
}

const std::string& LocationGraph::name(LocationId id) const {
  REBECA_ASSERT(id.value() < size(), "location out of range");
  return names_[id.value()];
}

LocationId LocationGraph::id_of(const std::string& name) const {
  auto it = index_.find(name);
  REBECA_ASSERT(it != index_.end(), "unknown location '" << name << "'");
  return it->second;
}

const std::vector<LocationId>& LocationGraph::neighbors(LocationId id) const {
  REBECA_ASSERT(id.value() < size(), "location out of range");
  return adjacency_[id.value()];
}

LocationSet LocationGraph::all() const {
  LocationSet s;
  s.reserve(size());
  for (std::uint32_t i = 0; i < size(); ++i) s.emplace_back(i);
  return s;
}

const LocationSet& LocationGraph::ploc(LocationId x, std::size_t q) const {
  REBECA_ASSERT(x.value() < size(), "location out of range");
  // Balls saturate at the graph size; clamp q so the cache stays small.
  q = std::min(q, size());
  const std::lock_guard<std::mutex> lock(ball_cache_.mutex);
  auto& per_loc = ball_cache_.balls[x.value()];
  if (per_loc.size() > q) return per_loc[q];

  // Extend the cached ball sequence with BFS layers up to q.
  if (per_loc.empty()) per_loc.push_back(LocationSet{x});
  while (per_loc.size() <= q) {
    const LocationSet& prev = per_loc.back();
    LocationSet next = prev;
    for (LocationId u : prev) {
      for (LocationId v : adjacency_[u.value()]) next.push_back(v);
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    per_loc.push_back(std::move(next));
  }
  return per_loc[q];
}

LocationSet LocationGraph::ploc_of_set(const LocationSet& base, std::size_t q) const {
  LocationSet result;
  for (LocationId x : base) result = set_union(result, ploc(x, q));
  return result;
}

std::size_t LocationGraph::saturation_steps(LocationId x) const {
  for (std::size_t q = 0; q <= size(); ++q) {
    if (ploc(x, q).size() == size()) return q;
  }
  REBECA_ASSERT(false, "movement graph is disconnected at " << name(x));
  return size();
}

std::size_t LocationGraph::max_saturation_steps() const {
  std::size_t result = 0;
  for (std::uint32_t i = 0; i < size(); ++i) {
    result = std::max(result, saturation_steps(LocationId(i)));
  }
  return result;
}

filter::Constraint LocationGraph::constraint_for(const LocationSet& set) const {
  std::set<filter::Value> values;
  for (LocationId id : set) values.insert(filter::Value(name(id)));
  return filter::Constraint::in_set(std::move(values));
}

LocationGraph LocationGraph::paper_fig7() {
  LocationGraph g;
  g.add("a");
  g.add("b");
  g.add("c");
  g.add("d");
  g.connect("a", "b");
  g.connect("a", "c");
  g.connect("b", "d");
  g.connect("c", "d");
  return g;
}

LocationGraph LocationGraph::line(std::size_t n) {
  REBECA_ASSERT(n >= 1, "line needs at least one location");
  LocationGraph g;
  for (std::size_t i = 0; i < n; ++i) g.add(util::str_cat("l", i));
  for (std::size_t i = 0; i + 1 < n; ++i) {
    g.connect(LocationId(static_cast<std::uint32_t>(i)),
              LocationId(static_cast<std::uint32_t>(i + 1)));
  }
  return g;
}

LocationGraph LocationGraph::grid(std::size_t w, std::size_t h) {
  REBECA_ASSERT(w >= 1 && h >= 1, "grid needs positive dimensions");
  LocationGraph g;
  auto name_of = [](std::size_t x, std::size_t y) {
    return util::str_cat("g", x, "_", y);
  };
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) g.add(name_of(x, y));
  }
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      if (x + 1 < w) g.connect(name_of(x, y), name_of(x + 1, y));
      if (y + 1 < h) g.connect(name_of(x, y), name_of(x, y + 1));
    }
  }
  return g;
}

LocationGraph LocationGraph::ring(std::size_t n) {
  REBECA_ASSERT(n >= 3, "ring needs at least three locations");
  LocationGraph g;
  for (std::size_t i = 0; i < n; ++i) g.add(util::str_cat("r", i));
  for (std::size_t i = 0; i < n; ++i) {
    g.connect(LocationId(static_cast<std::uint32_t>(i)),
              LocationId(static_cast<std::uint32_t>((i + 1) % n)));
  }
  return g;
}

LocationGraph LocationGraph::random_connected(std::size_t n, std::size_t extra_edges,
                                              util::Rng& rng) {
  REBECA_ASSERT(n >= 1, "graph needs at least one location");
  LocationGraph g;
  for (std::size_t i = 0; i < n; ++i) g.add(util::str_cat("x", i));
  for (std::size_t i = 1; i < n; ++i) {
    g.connect(LocationId(static_cast<std::uint32_t>(rng.index(i))),
              LocationId(static_cast<std::uint32_t>(i)));
  }
  for (std::size_t e = 0; e < extra_edges && n >= 2; ++e) {
    const auto a = rng.index(n);
    auto b = rng.index(n);
    if (a == b) continue;  // skip; determinism beats exact edge counts
    g.connect(LocationId(static_cast<std::uint32_t>(a)),
              LocationId(static_cast<std::uint32_t>(b)));
  }
  return g;
}

bool set_contains(const LocationSet& s, LocationId x) {
  return std::binary_search(s.begin(), s.end(), x);
}

LocationSet set_union(const LocationSet& a, const LocationSet& b) {
  LocationSet out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

LocationSet set_difference(const LocationSet& a, const LocationSet& b) {
  LocationSet out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

bool set_equal(const LocationSet& a, const LocationSet& b) { return a == b; }

}  // namespace rebeca::location
