// The location model: movement graphs, ploc, and the paper's Table 1
// (values of ploc(x,t) on the Fig. 7 movement graph).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "src/location/location_graph.hpp"
#include "src/util/assert.hpp"

namespace rebeca::location {
namespace {

std::vector<std::string> names_of(const LocationGraph& g, const LocationSet& s) {
  std::vector<std::string> out;
  for (auto id : s) out.push_back(g.name(id));
  std::sort(out.begin(), out.end());
  return out;
}

using Names = std::vector<std::string>;

TEST(LocationGraph, InternsNames) {
  LocationGraph g;
  auto a = g.add("kitchen");
  auto b = g.add("hall");
  EXPECT_EQ(g.add("kitchen"), a);  // idempotent
  EXPECT_EQ(g.size(), 2u);
  EXPECT_EQ(g.name(a), "kitchen");
  EXPECT_EQ(g.id_of("hall"), b);
  EXPECT_TRUE(g.contains("hall"));
  EXPECT_FALSE(g.contains("attic"));
}

TEST(LocationGraph, UnknownLocationThrows) {
  LocationGraph g;
  EXPECT_THROW((void)g.id_of("nowhere"), util::AssertionError);
}

TEST(LocationGraph, SelfLoopRejected) {
  LocationGraph g;
  auto a = g.add("a");
  EXPECT_THROW(g.connect(a, a), util::AssertionError);
}

// ---------------------------------------------------------------------------
// Paper Table 1: ploc on the Fig. 7 graph (a–b, a–c, b–d, c–d).
// ---------------------------------------------------------------------------

TEST(Ploc, PaperTable1) {
  auto g = LocationGraph::paper_fig7();
  const auto a = g.id_of("a"), b = g.id_of("b"), c = g.id_of("c"), d = g.id_of("d");

  // t = 0: current location only.
  EXPECT_EQ(names_of(g, g.ploc(a, 0)), Names{"a"});
  EXPECT_EQ(names_of(g, g.ploc(b, 0)), Names{"b"});
  EXPECT_EQ(names_of(g, g.ploc(c, 0)), Names{"c"});
  EXPECT_EQ(names_of(g, g.ploc(d, 0)), Names{"d"});

  // t = 1: one movement step (Table 1, row 1).
  EXPECT_EQ(names_of(g, g.ploc(a, 1)), (Names{"a", "b", "c"}));
  EXPECT_EQ(names_of(g, g.ploc(b, 1)), (Names{"a", "b", "d"}));
  EXPECT_EQ(names_of(g, g.ploc(c, 1)), (Names{"a", "c", "d"}));
  EXPECT_EQ(names_of(g, g.ploc(d, 1)), (Names{"b", "c", "d"}));

  // t = 2 and t = 3: everything (Table 1, rows 2-3).
  for (auto x : {a, b, c, d}) {
    EXPECT_EQ(names_of(g, g.ploc(x, 2)), (Names{"a", "b", "c", "d"}));
    EXPECT_EQ(names_of(g, g.ploc(x, 3)), (Names{"a", "b", "c", "d"}));
  }
}

// ---------------------------------------------------------------------------
// Structural properties
// ---------------------------------------------------------------------------

TEST(Ploc, Equation1Monotonicity) {
  // Paper Eq. 1: ploc(x, q) ⊆ ploc(x, q+1).
  util::Rng rng(17);
  auto g = LocationGraph::random_connected(40, 25, rng);
  for (std::uint32_t x = 0; x < g.size(); ++x) {
    for (std::size_t q = 0; q + 1 <= g.size(); ++q) {
      const auto& small = g.ploc(LocationId(x), q);
      const auto& big = g.ploc(LocationId(x), q + 1);
      EXPECT_TRUE(std::includes(big.begin(), big.end(), small.begin(), small.end()))
          << "Eq. 1 violated at x=" << x << " q=" << q;
      if (small.size() == g.size()) break;
    }
  }
}

TEST(Ploc, BallCompositionLemma) {
  // ploc(x, q+r) == ∪_{z ∈ ploc(x,q)} ploc(z, r): the lemma behind the
  // location-update stop rule (broker_location.cpp).
  util::Rng rng(23);
  auto g = LocationGraph::random_connected(25, 12, rng);
  for (std::uint32_t x = 0; x < g.size(); x += 3) {
    for (std::size_t q = 0; q <= 3; ++q) {
      for (std::size_t r = 0; r <= 3; ++r) {
        const auto direct = g.ploc(LocationId(x), q + r);
        const auto composed = g.ploc_of_set(g.ploc(LocationId(x), q), r);
        EXPECT_EQ(direct, composed) << "x=" << x << " q=" << q << " r=" << r;
      }
    }
  }
}

TEST(Ploc, StopRuleSoundness) {
  // If ploc(x,q) == ploc(y,q) then ploc(x,q') == ploc(y,q') for q' >= q —
  // the reason a broker may stop forwarding a location update when its
  // own set is unchanged.
  util::Rng rng(29);
  auto g = LocationGraph::random_connected(30, 15, rng);
  for (std::uint32_t x = 0; x < g.size(); x += 2) {
    for (std::uint32_t y = 0; y < g.size(); y += 3) {
      for (std::size_t q = 0; q <= 4; ++q) {
        if (g.ploc(LocationId(x), q) != g.ploc(LocationId(y), q)) continue;
        for (std::size_t qq = q; qq <= q + 3; ++qq) {
          EXPECT_EQ(g.ploc(LocationId(x), qq), g.ploc(LocationId(y), qq));
        }
      }
    }
  }
}

TEST(Ploc, SaturationSteps) {
  auto line = LocationGraph::line(5);  // l0..l4
  EXPECT_EQ(line.saturation_steps(line.id_of("l0")), 4u);
  EXPECT_EQ(line.saturation_steps(line.id_of("l2")), 2u);
  EXPECT_EQ(line.max_saturation_steps(), 4u);

  auto fig7 = LocationGraph::paper_fig7();
  EXPECT_EQ(fig7.max_saturation_steps(), 2u);
}

TEST(Ploc, GridBallSizes) {
  auto g = LocationGraph::grid(5, 5);
  const auto center = g.id_of("g2_2");
  EXPECT_EQ(g.ploc(center, 0).size(), 1u);
  EXPECT_EQ(g.ploc(center, 1).size(), 5u);   // von-Neumann neighborhood
  EXPECT_EQ(g.ploc(center, 2).size(), 13u);  // diamond of radius 2
  const auto corner = g.id_of("g0_0");
  EXPECT_EQ(g.ploc(corner, 1).size(), 3u);
}

TEST(Ploc, RingBalls) {
  auto g = LocationGraph::ring(8);
  const auto x = g.id_of("r0");
  EXPECT_EQ(g.ploc(x, 1).size(), 3u);
  EXPECT_EQ(g.ploc(x, 3).size(), 7u);
  EXPECT_EQ(g.ploc(x, 4).size(), 8u);
  EXPECT_EQ(g.saturation_steps(x), 4u);
}

TEST(Ploc, CacheInvalidatedByNewEdges) {
  auto g = LocationGraph::line(4);
  const auto l0 = g.id_of("l0");
  EXPECT_EQ(g.ploc(l0, 1).size(), 2u);
  g.connect("l0", "l3");  // shortcut
  EXPECT_EQ(g.ploc(l0, 1).size(), 3u);
}

TEST(Ploc, ConstraintForSetMatchesLocationNames) {
  auto g = LocationGraph::paper_fig7();
  auto c = g.constraint_for(g.ploc(g.id_of("a"), 1));
  EXPECT_TRUE(c.matches(filter::Value("a")));
  EXPECT_TRUE(c.matches(filter::Value("b")));
  EXPECT_TRUE(c.matches(filter::Value("c")));
  EXPECT_FALSE(c.matches(filter::Value("d")));
}

// ---------------------------------------------------------------------------
// Set helpers
// ---------------------------------------------------------------------------

TEST(Ploc, ConcurrentCallersShareOneGraph) {
  // Brokers on different lanes of the sharded engine query one graph at
  // once; the lazily filled ball memo must not race.
  const LocationGraph reference = LocationGraph::grid(8, 8);
  std::vector<std::vector<LocationSet>> expected(reference.size());
  for (std::uint32_t x = 0; x < reference.size(); ++x) {
    for (std::size_t q = 0; q <= 15; ++q) {
      expected[x].push_back(reference.ploc(LocationId(x), q));
    }
  }

  const LocationGraph shared = LocationGraph::grid(8, 8);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < shared.size(); ++i) {
        const std::uint32_t x = (i * 7 + t * 16) % shared.size();
        for (std::size_t q = 0; q <= 15; ++q) {
          if (shared.ploc(LocationId(x), q) != expected[x][q]) ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(LocationSets, UnionDifferenceContains) {
  LocationSet a{LocationId(1), LocationId(3), LocationId(5)};
  LocationSet b{LocationId(3), LocationId(4)};
  EXPECT_EQ(set_union(a, b),
            (LocationSet{LocationId(1), LocationId(3), LocationId(4), LocationId(5)}));
  EXPECT_EQ(set_difference(a, b), (LocationSet{LocationId(1), LocationId(5)}));
  EXPECT_TRUE(set_contains(a, LocationId(3)));
  EXPECT_FALSE(set_contains(a, LocationId(4)));
  EXPECT_TRUE(set_equal(a, a));
  EXPECT_FALSE(set_equal(a, b));
}

TEST(LocationGraph, DisconnectedGraphSaturationThrows) {
  LocationGraph g;
  g.add("x");
  g.add("y");  // never connected
  EXPECT_THROW((void)g.saturation_steps(g.id_of("x")), util::AssertionError);
}

}  // namespace
}  // namespace rebeca::location
