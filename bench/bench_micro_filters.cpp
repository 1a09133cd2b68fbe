// Ablation A4: filter-engine micro-benchmarks (google-benchmark) —
// match / cover / overlap / merge throughput, and ploc ball computation.
// The broker's routing decision is "assumed to be an atomic operation"
// (paper Sec. 2.2); these numbers say what that atom costs.
#include <benchmark/benchmark.h>

#include <set>
#include <vector>

#include "src/filter/filter.hpp"
#include "src/location/location_graph.hpp"
#include "src/routing/match_index.hpp"
#include "src/util/rng.hpp"
#include "src/util/str_cat.hpp"

using namespace rebeca;

namespace {

filter::Filter make_filter(std::size_t constraints) {
  filter::Filter f;
  f.where("service", filter::Constraint::eq("parking"));
  if (constraints > 1) f.where("cost", filter::Constraint::lt(3.0));
  if (constraints > 2) f.where("size", filter::Constraint::ge("compact"));
  if (constraints > 3) {
    f.where("location", filter::Constraint::in_set(
                            {filter::Value("a"), filter::Value("b"),
                             filter::Value("c"), filter::Value("d")}));
  }
  return f;
}

filter::Notification make_notification() {
  return filter::Notification()
      .set("service", "parking")
      .set("cost", 2.5)
      .set("size", "compact")
      .set("location", "b")
      .set("ts", 123456);
}

void BM_FilterMatch(benchmark::State& state) {
  const auto f = make_filter(static_cast<std::size_t>(state.range(0)));
  const auto n = make_notification();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.matches(n));
  }
}
BENCHMARK(BM_FilterMatch)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_FilterCovers(benchmark::State& state) {
  const auto broad = make_filter(2);
  const auto narrow = make_filter(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(broad.covers(narrow));
  }
}
BENCHMARK(BM_FilterCovers)->Arg(2)->Arg(4);

void BM_FilterOverlaps(benchmark::State& state) {
  const auto a = make_filter(3);
  const auto b = make_filter(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.overlaps(b));
  }
}
BENCHMARK(BM_FilterOverlaps);

void BM_FilterMerge(benchmark::State& state) {
  filter::Filter a, b;
  a.where("sym", filter::Constraint::eq("AAA"));
  b.where("sym", filter::Constraint::eq("BBB"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.try_merge(b));
  }
}
BENCHMARK(BM_FilterMerge);

void BM_InSetMatch(benchmark::State& state) {
  std::set<filter::Value> values;
  for (int i = 0; i < state.range(0); ++i) {
    values.insert(filter::Value(util::str_cat("loc", i)));
  }
  const auto c = filter::Constraint::in_set(std::move(values));
  const filter::Value probe("loc" + std::to_string(state.range(0) / 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.matches(probe));
  }
}
BENCHMARK(BM_InSetMatch)->Arg(4)->Arg(64)->Arg(1024);

void BM_PlocBall(benchmark::State& state) {
  auto g = location::LocationGraph::grid(32, 32);
  const auto center = g.id_of("g16_16");
  const auto radius = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    // Rebuild a fresh graph cache every 512 iterations to measure the
    // BFS cost, not just the memo lookup.
    benchmark::DoNotOptimize(g.ploc(center, radius));
  }
}
BENCHMARK(BM_PlocBall)->Arg(1)->Arg(4)->Arg(16);

void BM_PlocBallUncached(benchmark::State& state) {
  const auto radius = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto g = location::LocationGraph::grid(16, 16);
    const auto center = g.id_of("g8_8");
    state.ResumeTiming();
    benchmark::DoNotOptimize(g.ploc(center, radius));
  }
}
BENCHMARK(BM_PlocBallUncached)->Arg(2)->Arg(8);

void BM_ConstraintForSet(benchmark::State& state) {
  auto g = location::LocationGraph::grid(16, 16);
  const auto ball = g.ploc(g.id_of("g8_8"), static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.constraint_for(ball));
  }
}
BENCHMARK(BM_ConstraintForSet)->Arg(2)->Arg(8);

// ---------------------------------------------------------------------------
// The per-hop matching decision: linear scans vs. the counting
// MatchIndex over the same filter population. The linear scan is the
// reference the tests hold the broker's data plane to; the index must win
// by >= 2x at >= 1k distinct filters per hop.
// ---------------------------------------------------------------------------

/// A hop's filter population: distinct filters spread over a handful of
/// attributes, mixing equality, bound, range, and set constraints, split
/// across four neighbor links like a broker's remote tables.
std::vector<filter::Filter> make_hop_filters(std::size_t n) {
  std::vector<filter::Filter> filters;
  filters.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    filter::Filter f;
    f.where("service", filter::Constraint::eq("quote"));
    switch (i % 4) {
      case 0:
        f.where("sym", filter::Constraint::eq(util::str_cat("S", i)));
        break;
      case 1:
        f.where("px", filter::Constraint::lt(static_cast<int>(100 + i)));
        break;
      case 2:
        f.where("px", filter::Constraint::range(
                          filter::Value(static_cast<int>(i)),
                          filter::Value(static_cast<int>(i + 40))));
        break;
      default:
        f.where("venue", filter::Constraint::in_set(
                             {filter::Value(util::str_cat("X", i % 8)),
                              filter::Value(util::str_cat("Y", i % 8))}));
        break;
    }
    filters.push_back(std::move(f));
  }
  return filters;
}

filter::Notification hop_probe() {
  return filter::Notification()
      .set("service", "quote")
      .set("sym", "S3")
      .set("px", 120)
      .set("venue", "X1")
      .set("ts", 123456);
}

void BM_HopMatchLinear(benchmark::State& state) {
  const auto filters = make_hop_filters(static_cast<std::size_t>(state.range(0)));
  const auto n = hop_probe();
  for (auto _ : state) {
    std::size_t hits = 0;
    for (const auto& f : filters) hits += f.matches(n) ? 1 : 0;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HopMatchLinear)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_HopMatchIndex(benchmark::State& state) {
  const auto filters = make_hop_filters(static_cast<std::size_t>(state.range(0)));
  routing::MatchIndex index;
  for (std::size_t i = 0; i < filters.size(); ++i) {
    index.add_remote(LinkId(static_cast<std::uint32_t>(i % 4)), filters[i]);
  }
  const auto n = hop_probe();
  routing::MatchHits hits;
  for (auto _ : state) {
    index.collect(n, hits);
    benchmark::DoNotOptimize(hits.links.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HopMatchIndex)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

// The same hop decision over a logical-mobility population: every filter
// is an in_set of 8-64 locations (a ploc ball turned into a set at this
// hop), so the linear path scans set members and the index answers each
// probe from its equality postings.
std::vector<filter::Filter> make_in_set_hop_filters(std::size_t n) {
  util::Rng rng(12);
  std::vector<filter::Filter> filters;
  filters.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::set<filter::Value> ball;
    const std::size_t size = 8 + rng.index(57);
    while (ball.size() < size) {
      ball.insert(filter::Value(util::str_cat("L", rng.index(256))));
    }
    filter::Filter f;
    f.where("service", filter::Constraint::eq("parking"));
    f.where("location", filter::Constraint::in_set(std::move(ball)));
    filters.push_back(std::move(f));
  }
  return filters;
}

filter::Notification in_set_hop_probe() {
  return filter::Notification()
      .set("service", "parking")
      .set("location", "L17")
      .set("ts", 123456);
}

void BM_HopMatchInSetLinear(benchmark::State& state) {
  const auto filters =
      make_in_set_hop_filters(static_cast<std::size_t>(state.range(0)));
  const auto n = in_set_hop_probe();
  for (auto _ : state) {
    std::size_t hits = 0;
    for (const auto& f : filters) hits += f.matches(n) ? 1 : 0;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HopMatchInSetLinear)->Arg(64)->Arg(1024);

void BM_HopMatchInSetIndex(benchmark::State& state) {
  const auto filters =
      make_in_set_hop_filters(static_cast<std::size_t>(state.range(0)));
  routing::MatchIndex index;
  for (std::size_t i = 0; i < filters.size(); ++i) {
    index.add_remote(LinkId(static_cast<std::uint32_t>(i % 4)), filters[i]);
  }
  const auto n = in_set_hop_probe();
  routing::MatchHits hits;
  for (auto _ : state) {
    index.collect(n, hits);
    benchmark::DoNotOptimize(hits.links.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HopMatchInSetIndex)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
