// Locations, movement graphs and the ploc function (paper Sec. 5.1).
//
// A LocationGraph formalizes "which locations can be reached from which
// locations in one movement step of the consumer" (Fig. 7). From it,
// ploc(x, q) — the set of possible locations after at most q steps —
// is a BFS ball around x. Staying put is always a possible move, so
// ploc(x, q) ⊆ ploc(x, q+1) (the paper's Equation 1) holds by
// construction.
//
// Locations are interned: the graph maps names to dense LocationId
// values, so location sets are cheap bitset-like sorted vectors and
// compose directly into `in {…}` filter constraints.
#ifndef REBECA_LOCATION_LOCATION_GRAPH_HPP
#define REBECA_LOCATION_LOCATION_GRAPH_HPP

#include <cstddef>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/filter/constraint.hpp"
#include "src/util/domain_ids.hpp"
#include "src/util/rng.hpp"

namespace rebeca::location {

/// A sorted, duplicate-free set of location ids.
using LocationSet = std::vector<LocationId>;

class LocationGraph {
 public:
  LocationGraph() = default;

  /// Adds (or finds) a location by name and returns its id.
  LocationId add(const std::string& name);

  /// Adds an undirected movement edge between two locations.
  void connect(LocationId a, LocationId b);
  void connect(const std::string& a, const std::string& b);

  [[nodiscard]] std::size_t size() const { return names_.size(); }
  [[nodiscard]] const std::string& name(LocationId id) const;
  [[nodiscard]] LocationId id_of(const std::string& name) const;
  [[nodiscard]] bool contains(const std::string& name) const {
    return index_.count(name) != 0;
  }
  [[nodiscard]] const std::vector<LocationId>& neighbors(LocationId id) const;

  /// All locations, sorted by id.
  [[nodiscard]] LocationSet all() const;

  /// ploc(x, q): locations reachable from x in at most q movement steps
  /// (BFS ball; includes x). Results are memoized — the broker network
  /// evaluates ploc on every location update.
  [[nodiscard]] const LocationSet& ploc(LocationId x, std::size_t q) const;

  /// Ball around a set: ∪_{x∈S} ploc(x, q).
  [[nodiscard]] LocationSet ploc_of_set(const LocationSet& base, std::size_t q) const;

  /// Eccentricity of x: smallest q with ploc(x, q) == all().
  [[nodiscard]] std::size_t saturation_steps(LocationId x) const;

  /// Largest eccentricity over all locations (graph "radius horizon").
  [[nodiscard]] std::size_t max_saturation_steps() const;

  /// Renders a location set as an `in {…}` constraint over the given
  /// attribute values (location names as strings).
  [[nodiscard]] filter::Constraint constraint_for(const LocationSet& set) const;

  // ---- builders for the shapes used in tests and experiments ----

  /// The 4-location movement graph of the paper's Fig. 7:
  /// a–b, a–c, b–d, c–d (a square; a and d are not adjacent, nor b and c).
  static LocationGraph paper_fig7();

  /// A line of n locations: l0 – l1 – ... – l(n-1).
  static LocationGraph line(std::size_t n);

  /// A w×h grid (streets of a city; rooms of a floor).
  static LocationGraph grid(std::size_t w, std::size_t h);

  /// A cycle of n locations.
  static LocationGraph ring(std::size_t n);

  /// Random connected graph: a random spanning tree plus `extra_edges`
  /// uniformly random chords. Deterministic given the RNG state.
  static LocationGraph random_connected(std::size_t n, std::size_t extra_edges,
                                        util::Rng& rng);

 private:
  std::vector<std::string> names_;
  std::map<std::string, LocationId> index_;
  std::vector<std::vector<LocationId>> adjacency_;
  // Memo: per location, ball per radius (filled lazily, monotone). The
  // inner container is a deque so references returned by ploc() survive
  // later cache growth. One graph serves every broker of a scenario, and
  // under the sharded engine brokers on different lanes call ploc() at
  // the same time, so filling the memo takes the lock. A copy of the
  // graph starts with an empty memo.
  struct BallCache {
    std::mutex mutex;
    std::vector<std::deque<LocationSet>> balls;  // indexed by LocationId

    BallCache() = default;
    BallCache(const BallCache& other) : balls(other.balls.size()) {}
    BallCache& operator=(const BallCache& other) {
      if (this != &other) balls.assign(other.balls.size(), {});
      return *this;
    }
  };
  mutable BallCache ball_cache_;
};

/// Set helpers (sorted-vector semantics).
[[nodiscard]] bool set_contains(const LocationSet& s, LocationId x);
[[nodiscard]] LocationSet set_union(const LocationSet& a, const LocationSet& b);
[[nodiscard]] LocationSet set_difference(const LocationSet& a, const LocationSet& b);
[[nodiscard]] bool set_equal(const LocationSet& a, const LocationSet& b);

}  // namespace rebeca::location

#endif  // REBECA_LOCATION_LOCATION_GRAPH_HPP
