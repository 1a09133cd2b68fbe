// Ablation A5: routing-engine micro-benchmarks (google-benchmark) —
// forward-set computation per strategy as the subscription population
// grows; the per-hop forwarding decision and the admin-plane relations,
// each as a *Linear/*Index pair (the reference function the tests hold
// the broker to vs. the index the broker runs); and end-to-end publish
// cost through a simulated broker chain.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>

#include "src/broker/overlay.hpp"
#include "src/client/client.hpp"
#include "src/net/topology.hpp"
#include "src/routing/cover_index.hpp"
#include "src/routing/match_index.hpp"
#include "src/routing/strategy.hpp"
#include "src/util/str_cat.hpp"

using namespace rebeca;

namespace {

std::vector<routing::ForwardInput> make_inputs(std::size_t n) {
  std::vector<routing::ForwardInput> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    filter::Filter f;
    f.where("service", filter::Constraint::eq("quote"));
    switch (i % 3) {
      case 0:
        f.where("px", filter::Constraint::lt(static_cast<int>(100 + i)));
        break;
      case 1:
        f.where("sym", filter::Constraint::eq(util::str_cat("S", i % 16)));
        break;
      default:
        f.where("px", filter::Constraint::range(
                          filter::Value(static_cast<int>(i)),
                          filter::Value(static_cast<int>(i + 40))));
        break;
    }
    inputs.push_back({std::move(f),
                      {SubKey{ClientId(static_cast<std::uint32_t>(i)), 1}}});
  }
  return inputs;
}

void BM_ForwardSet(benchmark::State& state, routing::Strategy strategy) {
  const auto inputs = make_inputs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::compute_forward_set(strategy, inputs));
  }
}
BENCHMARK_CAPTURE(BM_ForwardSet, simple, routing::Strategy::simple)
    ->Arg(8)->Arg(64)->Arg(256);
BENCHMARK_CAPTURE(BM_ForwardSet, identity, routing::Strategy::identity)
    ->Arg(8)->Arg(64)->Arg(256);
BENCHMARK_CAPTURE(BM_ForwardSet, covering, routing::Strategy::covering)
    ->Arg(8)->Arg(64)->Arg(256);
BENCHMARK_CAPTURE(BM_ForwardSet, merging, routing::Strategy::merging)
    ->Arg(8)->Arg(64);

/// The per-hop forwarding decision — "does any of this link's table
/// entries match?" — over a table of N distinct filters, as the linear
/// scan and as a MatchIndex query. The >= 2x index advantage at >= 1k
/// filters is this redesign's acceptance bar (see also the HopMatch pair
/// in bench_micro_filters, which isolates the pure matching cost).
void BM_HopDecisionLinear(benchmark::State& state) {
  const auto inputs = make_inputs(static_cast<std::size_t>(state.range(0)));
  const auto fs = routing::compute_forward_set(routing::Strategy::simple, inputs);
  const auto n = filter::Notification()
                     .set("service", "quote")
                     .set("sym", "S7")
                     .set("px", 1000000);  // matches nothing: full scan
  for (auto _ : state) {
    const bool forward = std::any_of(fs.begin(), fs.end(), [&](const auto& e) {
      return e.first.matches(n);
    });
    benchmark::DoNotOptimize(forward);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HopDecisionLinear)->Arg(64)->Arg(1024)->Arg(4096);

void BM_HopDecisionIndex(benchmark::State& state) {
  const auto inputs = make_inputs(static_cast<std::size_t>(state.range(0)));
  const auto fs = routing::compute_forward_set(routing::Strategy::simple, inputs);
  routing::MatchIndex index;
  for (const auto& [f, tags] : fs) index.add_remote(LinkId(1), f);
  const auto n = filter::Notification()
                     .set("service", "quote")
                     .set("sym", "S7")
                     .set("px", 1000000);
  routing::MatchHits hits;
  for (auto _ : state) {
    index.collect(n, hits);
    benchmark::DoNotOptimize(hits.links.empty());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HopDecisionIndex)->Arg(64)->Arg(1024)->Arg(4096);

/// The admin-plane covering collapse — the O(n²) reference pairwise pass
/// vs the CoverEngine-backed pass. The >= 2x index advantage at >= 1k
/// filters is the covering-index acceptance bar.
void BM_CollapseCoveringLinear(benchmark::State& state) {
  const auto inputs = make_inputs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing::compute_forward_set(routing::Strategy::covering, inputs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CollapseCoveringLinear)->Arg(64)->Arg(1024)->Arg(4096);

void BM_CollapseCoveringIndex(benchmark::State& state) {
  const auto inputs = make_inputs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::compute_forward_set(
        routing::Strategy::covering, inputs, routing::AdminIndex::index));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CollapseCoveringIndex)->Arg(64)->Arg(1024)->Arg(4096);

/// The re-expose query (answer_reexpose): every forwarding input a
/// narrow mover filter covers, as the linear covered_by scan over the
/// collapsed table vs one CoverIndex query.
void BM_CoveredByLinear(benchmark::State& state) {
  const auto inputs = make_inputs(static_cast<std::size_t>(state.range(0)));
  routing::ForwardSet fs;
  for (const auto& in : inputs) fs[in.f].insert(in.tags.begin(), in.tags.end());
  filter::Filter f;
  f.where("service", filter::Constraint::eq("quote"));
  f.where("px", filter::Constraint::lt(140));
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::covered_by(f, fs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CoveredByLinear)->Arg(64)->Arg(1024)->Arg(4096);

void BM_CoveredByIndex(benchmark::State& state) {
  const auto inputs = make_inputs(static_cast<std::size_t>(state.range(0)));
  routing::CoverIndex index;
  std::uint32_t i = 0;
  for (const auto& in : inputs) {
    index.upsert_remote(LinkId(1 + (i++ % 4)), in.f, in.tags);
  }
  filter::Filter f;
  f.where("service", filter::Constraint::eq("quote"));
  f.where("px", filter::Constraint::lt(140));
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.covered_inputs(f, LinkId(99)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CoveredByIndex)->Arg(64)->Arg(1024)->Arg(4096);

/// A moveout burst (begin_moveout's planning step): the moveout program
/// for one key over a large hop table, linear tag scan vs the cover
/// index's per-link table walk.
void BM_MoveoutPlanLinear(benchmark::State& state) {
  const auto inputs = make_inputs(static_cast<std::size_t>(state.range(0)));
  const SubKey mover{ClientId(7), 1};
  routing::ForwardSet fs;
  std::size_t i = 0;
  for (const auto& in : inputs) {
    auto& tags = fs[in.f];
    tags.insert(in.tags.begin(), in.tags.end());
    if (i++ % 8 == 0) tags.insert(mover);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing::plan_moveout(routing::Strategy::covering, mover, fs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MoveoutPlanLinear)->Arg(64)->Arg(1024)->Arg(4096);

void BM_MoveoutPlanIndex(benchmark::State& state) {
  const auto inputs = make_inputs(static_cast<std::size_t>(state.range(0)));
  const SubKey mover{ClientId(7), 1};
  routing::CoverIndex index;
  std::size_t i = 0;
  for (const auto& in : inputs) {
    auto tags = in.tags;
    if (i++ % 8 == 0) tags.insert(mover);
    index.upsert_remote(LinkId(1), in.f, tags);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::plan_moveout(
        routing::Strategy::covering, index.tagged_filters(LinkId(1), mover)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MoveoutPlanIndex)->Arg(64)->Arg(1024)->Arg(4096);

void BM_ForwardDiff(benchmark::State& state) {
  const auto inputs = make_inputs(static_cast<std::size_t>(state.range(0)));
  auto sent = routing::compute_forward_set(routing::Strategy::covering, inputs);
  auto inputs2 = inputs;
  inputs2.pop_back();
  auto target = routing::compute_forward_set(routing::Strategy::covering, inputs2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::diff_forward_sets(sent, target));
  }
}
BENCHMARK(BM_ForwardDiff)->Arg(64)->Arg(256);

/// End-to-end: one publish through an 8-broker chain with 32 consumers,
/// per routing strategy.
void BM_PublishThroughChain(benchmark::State& state) {
  const auto strategy = static_cast<routing::Strategy>(state.range(0));
  sim::Simulation sim(3);
  broker::OverlayConfig cfg;
  cfg.broker.strategy = strategy;
  broker::Overlay overlay(sim, net::Topology::chain(8), cfg);

  std::vector<std::unique_ptr<client::Client>> consumers;
  for (std::uint32_t i = 0; i < 32; ++i) {
    client::ClientConfig cc;
    cc.id = ClientId(i + 1);
    consumers.push_back(std::make_unique<client::Client>(sim, cc));
    overlay.connect_client(*consumers.back(), i % 8);
    filter::Filter f;
    f.where("sym", filter::Constraint::eq(util::str_cat("S", i % 4)));
    consumers.back()->subscribe(std::move(f));
  }
  client::ClientConfig pc;
  pc.id = ClientId(1000);
  client::Client producer(sim, pc);
  overlay.connect_client(producer, 7);
  sim.run_until(sim::seconds(1));

  int i = 0;
  for (auto _ : state) {
    producer.publish(
        filter::Notification().set("sym", util::str_cat("S", i++ % 4)));
    sim.run_until(sim.now() + sim::millis(100));
  }
}
BENCHMARK(BM_PublishThroughChain)
    ->Arg(static_cast<long>(routing::Strategy::flooding))
    ->Arg(static_cast<long>(routing::Strategy::simple))
    ->Arg(static_cast<long>(routing::Strategy::covering));

}  // namespace

BENCHMARK_MAIN();
