// CoverIndex correctness: the counting covering index must agree with
// naive linear Filter::covers scans on every corpus we can generate —
// across every routing strategy's forward-set shapes, across the three
// input planes (remote tables, local subscriptions, virtual
// counterparts), and across incremental churn; and each per-link forward
// view, maintained through that churn, must equal the forward set
// recomputed from scratch, as must a consumer fed only its dirty set. The index is the broker's
// only admin plane and its only copy of the forward-set inputs, so its
// routing rests on this agreement (and on collapse_covering_indexed
// reproducing the reference pass's tie-breaks exactly, tested here at
// the strategy layer); admin_index_equivalence_test re-checks it on live
// broker tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "src/routing/cover_index.hpp"
#include "src/routing/strategy.hpp"
#include "src/util/rng.hpp"
#include "src/util/str_cat.hpp"

namespace rebeca::routing {
namespace {

using filter::Constraint;
using filter::Filter;
using filter::Value;

// ---------------------------------------------------------------------------
// Corpus generation: the same small universe as match_index_test, so
// covering relations actually occur.
// ---------------------------------------------------------------------------

const std::vector<std::string>& attr_pool() {
  static const std::vector<std::string> pool = {
      "service", "cost", "size", "location", "sym", "flag"};
  return pool;
}

Value random_value(util::Rng& rng) {
  switch (rng.index(6)) {
    case 0: return Value(static_cast<int>(rng.uniform_i64(-5, 20)));
    case 1: return Value(rng.uniform_real(-2.0, 12.0));
    case 2: return Value(static_cast<double>(rng.uniform_i64(-5, 20)));
    case 3: return Value(util::str_cat("s", rng.uniform_u64(0, 9)));
    case 4: return Value(rng.bernoulli(0.5));
    default:
      // Huge int64s past 2^53: the eq-bucket double normalization must
      // not conflate them (Value::equals is not transitive there).
      return Value(static_cast<std::int64_t>(
          (1LL << 53) + static_cast<std::int64_t>(rng.uniform_u64(0, 3))));
  }
}

Constraint random_constraint(util::Rng& rng) {
  switch (rng.index(10)) {
    case 0: return Constraint::any();
    case 1: return Constraint::eq(random_value(rng));
    case 2: return Constraint::ne(random_value(rng));
    case 3: return Constraint::lt(Value(static_cast<int>(rng.uniform_i64(-5, 20))));
    case 4: return Constraint::le(Value(rng.uniform_real(-2.0, 12.0)));
    case 5: return Constraint::gt(Value(util::str_cat("s", rng.uniform_u64(0, 9))));
    case 6: return Constraint::ge(Value(static_cast<int>(rng.uniform_i64(-5, 20))));
    case 7: {
      std::set<Value> values;
      const std::size_t n = 1 + rng.index(4);
      for (std::size_t i = 0; i < n; ++i) values.insert(random_value(rng));
      return Constraint::in_set(std::move(values));
    }
    case 8: return Constraint::prefix("s" + std::string(rng.bernoulli(0.5) ? "1" : ""));
    default: {
      const auto lo = static_cast<int>(rng.uniform_i64(-5, 10));
      const auto hi = lo + static_cast<int>(rng.uniform_u64(0, 10));
      return Constraint::range(Value(lo), Value(hi));
    }
  }
}

Filter random_filter(util::Rng& rng) {
  Filter f;
  const std::size_t n = rng.index(4);  // 0..3 constraints; 0 = cover-all
  for (std::size_t i = 0; i < n; ++i) {
    f.where(rng.pick(attr_pool()), random_constraint(rng));
  }
  return f;
}

// ---------------------------------------------------------------------------
// Engine level: covers_of / covered_by_of == naive scans
// ---------------------------------------------------------------------------

struct NaiveEngine {
  std::map<std::uint32_t, Filter> live;

  [[nodiscard]] std::vector<std::uint32_t> covers_of(const Filter& f) const {
    std::vector<std::uint32_t> out;
    for (const auto& [slot, g] : live) {
      if (g.covers(f)) out.push_back(slot);
    }
    return out;
  }
  [[nodiscard]] std::vector<std::uint32_t> covered_by_of(const Filter& f) const {
    std::vector<std::uint32_t> out;
    for (const auto& [slot, g] : live) {
      if (f.covers(g)) out.push_back(slot);
    }
    return out;
  }
};

void expect_engine_same(const CoverEngine& engine, const NaiveEngine& naive,
                        const Filter& probe) {
  std::vector<std::uint32_t> got;
  engine.covers_of(probe, got);
  EXPECT_EQ(naive.covers_of(probe), got)
      << "covers_of diverges on " << probe.to_string();
  engine.covered_by_of(probe, got);
  EXPECT_EQ(naive.covered_by_of(probe), got)
      << "covered_by_of diverges on " << probe.to_string();
}

TEST(CoverEngine, AgreesWithLinearAcrossStrategies) {
  const Strategy strategies[] = {Strategy::flooding, Strategy::simple,
                                 Strategy::identity, Strategy::covering,
                                 Strategy::merging};
  util::Rng rng(20260808);
  for (std::uint64_t corpus = 0; corpus < 40; ++corpus) {
    std::vector<ForwardInput> inputs;
    const std::size_t subs = 1 + rng.index(24);
    for (std::size_t i = 0; i < subs; ++i) {
      inputs.push_back(
          {random_filter(rng),
           {SubKey{ClientId(static_cast<std::uint32_t>(i + 1)), 1}}});
    }
    for (const Strategy strategy : strategies) {
      // The engine's population is exactly the filters a broker's tables
      // would hold under this strategy.
      const ForwardSet fs = compute_forward_set(strategy, inputs);

      CoverEngine engine;
      NaiveEngine naive;
      std::vector<Filter> registered;
      for (const auto& [f, tags] : fs) {
        const std::uint32_t slot = engine.add(&f);
        naive.live[slot] = f;
        registered.push_back(f);
      }

      // Probe with fresh random filters AND with every registered filter
      // (self-coverage, equivalence classes, exact-duplicate handling).
      for (std::size_t probe = 0; probe < 15; ++probe) {
        expect_engine_same(engine, naive, random_filter(rng));
      }
      for (const Filter& f : registered) expect_engine_same(engine, naive, f);
    }
  }
}

/// The filters behind a query's slots, sorted: engines that registered
/// the same filters in different slots answer alike.
std::vector<Filter> filters_of(const CoverEngine& engine,
                               const std::vector<std::uint32_t>& slots) {
  std::vector<Filter> out;
  for (const std::uint32_t slot : slots) out.push_back(*engine.filter_of(slot));
  std::sort(out.begin(), out.end());
  return out;
}

TEST(CoverEngine, ChurnedEngineMatchesFreshEngine) {
  // Removals recycle slots and splice bound lists; an engine after heavy
  // add/remove churn must answer exactly like one freshly built from the
  // surviving filters.
  util::Rng rng(7);
  for (std::uint64_t corpus = 0; corpus < 10; ++corpus) {
    std::map<std::uint32_t, Filter> pool;  // stable storage, by id
    std::map<std::uint32_t, std::uint32_t> slot_of;  // id -> churned slot
    CoverEngine churned;
    std::uint32_t next_id = 0;
    const std::size_t steps = 20 + rng.index(60);
    for (std::size_t step = 0; step < steps; ++step) {
      if (slot_of.empty() || rng.bernoulli(0.6)) {
        const std::uint32_t id = next_id++;
        const Filter& f = pool.emplace(id, random_filter(rng)).first->second;
        slot_of[id] = churned.add(&f);
      } else {
        auto it = slot_of.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng.index(slot_of.size())));
        churned.remove(it->second);
        pool.erase(it->first);
        slot_of.erase(it);
      }
    }
    CoverEngine fresh;
    for (const auto& [id, f] : pool) fresh.add(&f);
    ASSERT_EQ(churned.live(), fresh.live());

    std::vector<std::uint32_t> a, b;
    for (std::size_t probe = 0; probe < 20; ++probe) {
      const Filter p = random_filter(rng);
      churned.covers_of(p, a);
      fresh.covers_of(p, b);
      EXPECT_EQ(filters_of(churned, a), filters_of(fresh, b))
          << "covers_of diverges on " << p.to_string();
      churned.covered_by_of(p, a);
      fresh.covered_by_of(p, b);
      EXPECT_EQ(filters_of(churned, a), filters_of(fresh, b))
          << "covered_by_of diverges on " << p.to_string();
    }
  }
}

// ---------------------------------------------------------------------------
// Strategy level: the indexed collapse is byte-identical to the
// reference pass — including its deterministic equivalence tie-break.
// ---------------------------------------------------------------------------

TEST(CoverIndexStrategy, IndexedForwardSetEqualsLinear) {
  const Strategy strategies[] = {Strategy::flooding, Strategy::simple,
                                 Strategy::identity, Strategy::covering,
                                 Strategy::merging};
  util::Rng rng(314159);
  for (std::uint64_t corpus = 0; corpus < 60; ++corpus) {
    std::vector<ForwardInput> inputs;
    const std::size_t subs = rng.index(30);
    for (std::size_t i = 0; i < subs; ++i) {
      // Shared tag space so tag-union grouping is exercised too.
      inputs.push_back(
          {random_filter(rng),
           {SubKey{ClientId(static_cast<std::uint32_t>(rng.index(8) + 1)),
                   static_cast<std::uint32_t>(rng.index(3) + 1)}}});
    }
    for (const Strategy strategy : strategies) {
      const ForwardSet linear = compute_forward_set(strategy, inputs);
      const ForwardSet indexed =
          compute_forward_set(strategy, inputs, AdminIndex::index);
      EXPECT_EQ(linear, indexed)
          << "strategy " << strategy_name(strategy) << ", corpus " << corpus;
    }
  }
}

// ---------------------------------------------------------------------------
// Broker-plane level: CoverIndex consumer queries under churn
// ---------------------------------------------------------------------------

struct NaiveIndex {
  std::map<LinkId, ForwardSet> remote;
  std::map<SubKey, Filter> locals;
  std::map<SubKey, Filter> virtuals;

  // CoverIndex::untag_remote: drops `key`, and the entry with its last
  // tag; true when the entry went.
  bool untag(LinkId link, const Filter& f, const SubKey& key) {
    auto lit = remote.find(link);
    if (lit == remote.end()) return false;
    auto it = lit->second.find(f);
    if (it == lit->second.end() || it->second.erase(key) == 0 ||
        !it->second.empty()) {
      return false;
    }
    lit->second.erase(it);
    if (lit->second.empty()) remote.erase(lit);
    return true;
  }

  // The broker's table-scan input collection: remote entries of the
  // other links, then locals, then virtuals.
  [[nodiscard]] std::vector<ForwardInput> forward_inputs(LinkId exclude) const {
    std::vector<ForwardInput> inputs;
    for (const auto& [link, fs] : remote) {
      if (link == exclude) continue;
      for (const auto& [g, tags] : fs) inputs.push_back({g, tags});
    }
    for (const auto& [key, g] : locals) inputs.push_back({g, {key}});
    for (const auto& [key, g] : virtuals) inputs.push_back({g, {key}});
    return inputs;
  }

  // Mirrors Broker::answer_reexpose's linear arm: identity-collapse of
  // the inputs, then routing::covered_by.
  [[nodiscard]] ForwardSet covered_inputs(const Filter& f,
                                          LinkId exclude) const {
    ForwardSet inputs;
    for (const auto& in : forward_inputs(exclude)) {
      inputs[in.f].insert(in.tags.begin(), in.tags.end());
    }
    return covered_by(f, inputs);
  }

  [[nodiscard]] std::vector<LinkId> covering_links(const Filter& f,
                                                   LinkId exclude) const {
    std::vector<LinkId> out;
    for (const auto& [link, fs] : remote) {
      if (link == exclude) continue;
      for (const auto& [g, tags] : fs) {
        if (g.covers(f)) {
          out.push_back(link);
          break;
        }
      }
    }
    return out;
  }

  [[nodiscard]] std::vector<LinkId> links_serving(const SubKey& key,
                                                  LinkId exclude) const {
    std::vector<LinkId> out;
    for (const auto& [link, fs] : remote) {
      if (link == exclude) continue;
      for (const auto& [g, tags] : fs) {
        if (tags.count(key) != 0) {
          out.push_back(link);
          break;
        }
      }
    }
    return out;
  }

  [[nodiscard]] std::vector<MoveoutCandidate> tagged_filters(
      LinkId link, const SubKey& key) const {
    std::vector<MoveoutCandidate> out;
    auto it = remote.find(link);
    if (it == remote.end()) return out;
    for (const auto& [f, tags] : it->second) {
      if (tags.count(key) != 0) out.push_back({f, tags.size()});
    }
    return out;
  }
};

void expect_index_same(const CoverIndex& index, const NaiveIndex& naive,
                       const Filter& probe, const SubKey& probe_key,
                       LinkId exclude) {
  EXPECT_EQ(naive.covered_inputs(probe, exclude),
            index.covered_inputs(probe, exclude))
      << "covered_inputs diverges on " << probe.to_string();
  std::vector<LinkId> links;
  index.covering_links(probe, exclude, links);
  EXPECT_EQ(naive.covering_links(probe, exclude), links)
      << "covering_links diverges on " << probe.to_string();
  index.links_serving(probe_key, exclude, links);
  EXPECT_EQ(naive.links_serving(probe_key, exclude), links);
  for (std::uint32_t l = 1; l <= 3; ++l) {
    const auto want = naive.tagged_filters(LinkId(l), probe_key);
    const auto got = index.tagged_filters(LinkId(l), probe_key);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].f, got[i].f);
      EXPECT_EQ(want[i].tag_count, got[i].tag_count);
    }
  }
}

TEST(CoverIndex, AgreesWithLinearUnderChurn) {
  util::Rng rng(42);
  CoverIndex index;
  NaiveIndex naive;
  std::vector<std::pair<LinkId, Filter>> live_remote;
  std::uint32_t next_key = 1;
  std::vector<SubKey> live_locals, live_virtuals;
  std::vector<SubKey> key_pool;
  for (std::uint32_t k = 1; k <= 12; ++k) {
    key_pool.push_back(SubKey{ClientId(k), 1});
  }

  const auto random_tags = [&](util::Rng& r) {
    std::set<SubKey> tags;
    const std::size_t n = 1 + r.index(3);
    for (std::size_t i = 0; i < n; ++i) tags.insert(r.pick(key_pool));
    return tags;
  };

  for (std::size_t step = 0; step < 2000; ++step) {
    switch (rng.index(8)) {
      case 0: {  // upsert remote (fresh entry or tag-replace)
        const LinkId link(static_cast<std::uint32_t>(rng.uniform_u64(1, 3)));
        const bool fresh = live_remote.empty() || rng.bernoulli(0.6);
        const Filter f = fresh ? random_filter(rng) : rng.pick(live_remote).second;
        const auto tags = random_tags(rng);
        index.upsert_remote(link, f, tags);
        auto& slot = naive.remote[link][f];
        if (slot.empty() &&
            std::find(live_remote.begin(), live_remote.end(),
                      std::make_pair(link, f)) == live_remote.end()) {
          live_remote.emplace_back(link, f);
        }
        slot = tags;
        break;
      }
      case 1: {  // untag remote (the last tag drops the entry)
        if (live_remote.empty()) break;
        const std::size_t i = rng.index(live_remote.size());
        const auto [link, f] = live_remote[i];
        const SubKey key = rng.pick(key_pool);
        const bool dropped = naive.untag(link, f, key);
        EXPECT_EQ(dropped, index.untag_remote(link, f, key));
        if (dropped) {
          live_remote.erase(live_remote.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      }
      case 2: {  // remove remote
        if (live_remote.empty()) break;
        const std::size_t i = rng.index(live_remote.size());
        const auto [link, f] = live_remote[i];
        live_remote.erase(live_remote.begin() + static_cast<std::ptrdiff_t>(i));
        index.remove_remote(link, f);
        naive.remote[link].erase(f);
        if (naive.remote[link].empty()) naive.remote.erase(link);
        break;
      }
      case 3: {  // add or replace local
        const bool fresh = live_locals.empty() || rng.bernoulli(0.75);
        const SubKey key =
            fresh ? SubKey{ClientId(next_key++), 1} : rng.pick(live_locals);
        const Filter f = random_filter(rng);
        index.upsert_local(key, f);
        naive.locals[key] = f;
        if (fresh) live_locals.push_back(key);
        break;
      }
      case 4: {  // remove local
        if (live_locals.empty()) break;
        const std::size_t i = rng.index(live_locals.size());
        index.remove_local(live_locals[i]);
        naive.locals.erase(live_locals[i]);
        live_locals.erase(live_locals.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      case 5: {  // add or replace virtual
        const bool fresh = live_virtuals.empty() || rng.bernoulli(0.75);
        const SubKey key =
            fresh ? SubKey{ClientId(next_key++), 2} : rng.pick(live_virtuals);
        const Filter f = random_filter(rng);
        index.upsert_virtual(key, f);
        naive.virtuals[key] = f;
        if (fresh) live_virtuals.push_back(key);
        break;
      }
      case 6: {  // remove virtual
        if (live_virtuals.empty()) break;
        const std::size_t i = rng.index(live_virtuals.size());
        index.remove_virtual(live_virtuals[i]);
        naive.virtuals.erase(live_virtuals[i]);
        live_virtuals.erase(live_virtuals.begin() +
                            static_cast<std::ptrdiff_t>(i));
        break;
      }
      default: {  // probe
        const Filter probe = random_filter(rng);
        const SubKey probe_key = rng.pick(key_pool);
        const LinkId exclude(
            static_cast<std::uint32_t>(rng.uniform_u64(0, 3)));
        expect_index_same(index, naive, probe, probe_key, exclude);
        break;
      }
    }
  }
  // Final sweep: drain everything and verify emptiness.
  for (const auto& [link, f] : live_remote) index.remove_remote(link, f);
  for (const SubKey& k : live_locals) index.remove_local(k);
  for (const SubKey& k : live_virtuals) index.remove_virtual(k);
  EXPECT_EQ(index.entry_count(), 0u);
  EXPECT_TRUE(index.covered_inputs(random_filter(rng), LinkId{}).empty());
}

// ---------------------------------------------------------------------------
// Per-link forward views: the maintained set is the recomputed one
// ---------------------------------------------------------------------------

/// A consumer of one view's dirty set, as Broker::refresh_link consumes
/// it: elected dirty filters are (re)sent with their tags, the others
/// pruned.
void reconcile(CoverIndex& index, LinkId link, ForwardSet& sent) {
  for (const auto& e : index.dirty(link)) {
    if (e.elected) {
      sent[*e.f] = e.tags;
    } else {
      sent.erase(*e.f);
    }
  }
  index.clear_dirty(link);
}

/// Filters whose covering relations the random generator rarely hits:
/// a chain price > 10 ≻ price > 20 ≻ price in [25, 40], and three
/// structurally distinct, mutually covering spellings of x == 5.
std::vector<Filter> view_pool() {
  return {
      Filter().where("price", Constraint::gt(10)),
      Filter().where("price", Constraint::gt(20)),
      Filter().where("price", Constraint::range(25, 40)),
      Filter().where("flag", Constraint::eq(5)),
      Filter().where("flag", Constraint::range(Value(5), Value(5))),
      Filter().where("flag", Constraint::in_set({Value(5)})),
  };
}

TEST(CoverIndexViews, MaintainedSetsEqualRecomputeUnderChurn) {
  const Strategy strategies[] = {Strategy::flooding, Strategy::simple,
                                 Strategy::identity, Strategy::covering,
                                 Strategy::merging};
  const std::vector<Filter> pool = view_pool();
  for (const Strategy strategy : strategies) {
    SCOPED_TRACE(strategy_name(strategy));
    // The consumer tracks the elected set; merging merges it later.
    const Strategy elected =
        strategy == Strategy::merging ? Strategy::covering : strategy;
    util::Rng rng(99);
    CoverIndex index(strategy);
    NaiveIndex naive;
    std::map<LinkId, ForwardSet> sent;
    const auto check = [&](LinkId link) {
      const auto inputs = naive.forward_inputs(link);
      ASSERT_EQ(compute_forward_set(strategy, inputs), index.forward_set(link))
          << "view toward " << link;
      reconcile(index, link, sent[link]);
      ASSERT_EQ(compute_forward_set(elected, inputs), sent[link])
          << "dirty reconciliation toward " << link;
    };
    // Link 3's view registers after the first inputs arrive.
    index.add_view(LinkId(1));
    index.add_view(LinkId(2));
    std::vector<std::pair<LinkId, Filter>> live_remote;
    std::vector<SubKey> live_locals, live_virtuals;
    std::uint32_t next_key = 100;
    const auto some_filter = [&] {
      return rng.bernoulli(0.4) ? rng.pick(pool) : random_filter(rng);
    };
    const auto some_tags = [&] {
      std::set<SubKey> tags;
      for (std::size_t i = 0, n = rng.index(3); i < n; ++i) {
        tags.insert(SubKey{ClientId(static_cast<std::uint32_t>(rng.index(6) + 1)), 1});
      }
      return tags;
    };
    for (std::size_t step = 0; step < 1500; ++step) {
      if (step == 40) index.add_view(LinkId(3));
      switch (rng.index(8)) {
        case 0: {  // fresh remote entry (may be tag-less)
          const LinkId link(static_cast<std::uint32_t>(rng.uniform_u64(1, 3)));
          const Filter f = some_filter();
          if (naive.remote[link].count(f) != 0) break;
          const auto tags = some_tags();
          index.upsert_remote(link, f, tags);
          naive.remote[link][f] = tags;
          live_remote.emplace_back(link, f);
          break;
        }
        case 1: {  // tag-only upsert
          if (live_remote.empty()) break;
          const auto [link, f] = rng.pick(live_remote);
          const auto tags = some_tags();
          index.upsert_remote(link, f, tags);
          naive.remote[link][f] = tags;
          break;
        }
        case 2: {  // untag (the last tag drops the entry)
          if (live_remote.empty()) break;
          const std::size_t i = rng.index(live_remote.size());
          const auto [link, f] = live_remote[i];
          const SubKey key{ClientId(static_cast<std::uint32_t>(rng.index(6) + 1)), 1};
          const bool dropped = naive.untag(link, f, key);
          ASSERT_EQ(dropped, index.untag_remote(link, f, key));
          if (dropped) {
            live_remote.erase(live_remote.begin() + static_cast<std::ptrdiff_t>(i));
          }
          break;
        }
        case 3: {  // remove remote
          if (live_remote.empty()) break;
          const std::size_t i = rng.index(live_remote.size());
          const auto [link, f] = live_remote[i];
          live_remote.erase(live_remote.begin() + static_cast<std::ptrdiff_t>(i));
          index.remove_remote(link, f);
          naive.remote[link].erase(f);
          if (naive.remote[link].empty()) naive.remote.erase(link);
          break;
        }
        case 4: {  // add or replace a local
          const bool fresh = live_locals.empty() || rng.bernoulli(0.7);
          const SubKey key = fresh ? SubKey{ClientId(next_key++), 1}
                                   : rng.pick(live_locals);
          const Filter f = some_filter();
          index.upsert_local(key, f);
          naive.locals[key] = f;
          if (fresh) live_locals.push_back(key);
          break;
        }
        case 5: {  // add or replace a virtual
          const bool fresh = live_virtuals.empty() || rng.bernoulli(0.7);
          const SubKey key = fresh ? SubKey{ClientId(next_key++), 2}
                                   : rng.pick(live_virtuals);
          const Filter f = some_filter();
          index.upsert_virtual(key, f);
          naive.virtuals[key] = f;
          if (fresh) live_virtuals.push_back(key);
          break;
        }
        default: {  // remove a local or a virtual
          auto& live = rng.bernoulli(0.5) ? live_locals : live_virtuals;
          if (live.empty()) break;
          const std::size_t i = rng.index(live.size());
          if (&live == &live_locals) {
            index.remove_local(live[i]);
            naive.locals.erase(live[i]);
          } else {
            index.remove_virtual(live[i]);
            naive.virtuals.erase(live[i]);
          }
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      // Consumers reconcile at their own pace: dirty marks accumulate.
      for (std::uint32_t l = 1; l <= (step >= 40 ? 3u : 2u); ++l) {
        if (rng.bernoulli(0.5)) check(LinkId(l));
      }
    }
    for (std::uint32_t l = 1; l <= 3; ++l) check(LinkId(l));
  }
}

TEST(CoverIndexViews, RemovingAMaximalFilterReElectsWhatItCovered) {
  const std::vector<Filter> pool = view_pool();
  const Filter& f = pool[0];  // price > 10
  const Filter& g = pool[1];  // price > 20
  const Filter& h = pool[2];  // price in [25, 40]
  CoverIndex index(Strategy::covering);
  index.add_view(LinkId(1));
  const SubKey kf{ClientId(1), 1}, kg{ClientId(2), 1}, kh{ClientId(3), 1};
  index.upsert_local(kh, h);
  index.upsert_remote(LinkId(2), g, {kg});
  index.upsert_local(kf, f);
  // Link 2's own entry is no input toward link 2.
  index.add_view(LinkId(2));
  EXPECT_EQ(index.forward_set(LinkId(1)), (ForwardSet{{f, {kf}}}));
  EXPECT_EQ(index.forward_set(LinkId(2)), (ForwardSet{{f, {kf}}}));

  // Every election change was marked: h and g elected then evicted, f
  // elected — reported in Filter order.
  std::set<Filter> dirty;
  for (const auto& e : index.dirty(LinkId(1))) {
    dirty.insert(*e.f);
    EXPECT_EQ(e.elected, *e.f == f);
  }
  EXPECT_EQ(dirty, (std::set<Filter>{f, g, h}));
  index.clear_dirty(LinkId(1));
  index.clear_dirty(LinkId(2));

  index.remove_local(kf);  // f ≻ g ≻ h: g takes over, h stays covered
  EXPECT_EQ(index.forward_set(LinkId(1)), (ForwardSet{{g, {kg}}}));
  EXPECT_EQ(index.forward_set(LinkId(2)), (ForwardSet{{h, {kh}}}));
  const auto d1 = index.dirty(LinkId(1));
  ASSERT_EQ(d1.size(), 2u);
  EXPECT_TRUE(*d1[0].f < *d1[1].f);
  index.clear_dirty(LinkId(1));

  index.remove_remote(LinkId(2), g);
  EXPECT_EQ(index.forward_set(LinkId(1)), (ForwardSet{{h, {kh}}}));
  index.remove_local(kh);
  EXPECT_TRUE(index.forward_set(LinkId(1)).empty());
  EXPECT_EQ(index.entry_count(), 0u);
}

TEST(CoverIndexViews, MutuallyCoveringFiltersElectTheFilterSmallest) {
  const std::vector<Filter> pool = view_pool();
  std::vector<Filter> ties(pool.begin() + 3, pool.end());
  for (const Filter& a : ties) {
    for (const Filter& b : ties) ASSERT_TRUE(a.covers(b));
  }
  std::sort(ties.begin(), ties.end());
  CoverIndex index(Strategy::covering);
  index.add_view(LinkId(1));
  // Register largest first, so each newcomer evicts the previous winner.
  for (std::uint32_t i = 3; i-- > 0;) {
    index.upsert_virtual(SubKey{ClientId(i + 1), 1}, ties[i]);
    EXPECT_EQ(index.forward_set(LinkId(1)),
              (ForwardSet{{ties[i], {SubKey{ClientId(i + 1), 1}}}}));
  }
  index.remove_virtual(SubKey{ClientId(1), 1});
  EXPECT_EQ(index.forward_set(LinkId(1)),
            (ForwardSet{{ties[1], {SubKey{ClientId(2), 1}}}}));
}

// ---------------------------------------------------------------------------
// Targeted edges the generators may hit rarely
// ---------------------------------------------------------------------------

TEST(CoverEngine, EmptyFilterCoversEverything) {
  // An empty filter covers every filter and is covered only by empty
  // filters.
  Filter empty;
  Filter narrow;
  narrow.where("x", Constraint::eq(1));
  CoverEngine engine;
  const std::uint32_t se = engine.add(&empty);
  const std::uint32_t sn = engine.add(&narrow);

  std::vector<std::uint32_t> out;
  engine.covered_by_of(empty, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{se, sn}));
  engine.covers_of(empty, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{se}));
  engine.covers_of(narrow, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{se, sn}));
}

TEST(CoverEngine, HugeInt64EqualityIsExact) {
  // 2^53 and 2^53 + 1 share a double-normalized bucket key; covering
  // must still tell them apart via the exact operands.
  const std::int64_t base = 1LL << 53;
  Filter fa;
  fa.where("x", Constraint::eq(Value(base)));
  Filter fb;
  fb.where("x", Constraint::eq(Value(base + 1)));
  CoverEngine engine;
  const std::uint32_t sa = engine.add(&fa);
  engine.add(&fb);

  std::vector<std::uint32_t> out;
  engine.covers_of(fa, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{sa}));
  Filter in_both;
  in_both.where("x", Constraint::in_set({Value(base), Value(base + 1)}));
  engine.covered_by_of(in_both, out);
  EXPECT_EQ(out.size(), 2u);  // the set covers both point filters
  engine.covers_of(in_both, out);
  EXPECT_TRUE(out.empty());  // neither point covers the two-point set
}

TEST(CoverEngine, PointRangeActsAsEquality) {
  // range(5, 5) admits exactly one value: it is covered by eq(5) and
  // covers it.
  Filter point;
  point.where("x", Constraint::range(Value(5), Value(5)));
  Filter eq5;
  eq5.where("x", Constraint::eq(5));
  CoverEngine engine;
  const std::uint32_t sp = engine.add(&point);
  const std::uint32_t se = engine.add(&eq5);

  std::vector<std::uint32_t> out;
  engine.covers_of(eq5, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{sp, se}));
  engine.covered_by_of(eq5, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{sp, se}));
}

// The remote plane is the broker's routing table: each mutator's result
// is what the broker mirrors into MatchIndex, and the table, entry count
// and tag count are what its introspection reports. A small universe of
// filters, links and keys makes tag-only upserts, untags to empty and
// untags or removes of absent entries frequent; local and virtual
// sources of the same filters must never show in the table.
TEST(CoverIndex, RemotePlaneMirrorsANaiveRoutingTableUnderChurn) {
  util::Rng rng(7);
  CoverIndex index;
  index.add_view(LinkId(1));
  index.add_view(LinkId(2));
  std::map<LinkId, ForwardSet> naive;
  std::vector<Filter> pool = view_pool();
  for (int i = 0; i < 4; ++i) pool.push_back(random_filter(rng));
  const auto some_link = [&] {
    return LinkId(static_cast<std::uint32_t>(rng.uniform_u64(1, 3)));
  };
  const auto some_key = [&] {
    return SubKey{ClientId(static_cast<std::uint32_t>(rng.uniform_u64(1, 4))), 1};
  };
  std::size_t upserts = 0, tag_only = 0, emptied = 0, absent = 0;
  for (std::size_t step = 0; step < 3000; ++step) {
    const LinkId link = some_link();
    const Filter& f = rng.pick(pool);
    auto& table = naive[link];
    const auto it = table.find(f);
    switch (rng.index(5)) {
      case 0:
      case 1: {  // upsert: a fresh entry or a tag-only replace
        std::set<SubKey> tags;
        for (std::size_t i = 0, n = 1 + rng.index(3); i < n; ++i) {
          tags.insert(some_key());
        }
        const bool fresh = it == table.end();
        ASSERT_EQ(fresh, index.upsert_remote(link, f, tags));
        table[f] = tags;
        ++(fresh ? upserts : tag_only);
        break;
      }
      case 2:
      case 3: {  // untag, possibly of an absent entry or key
        const SubKey key = some_key();
        const bool gone = it != table.end() && it->second.size() == 1 &&
                          it->second.count(key) != 0;
        if (it == table.end() || it->second.count(key) == 0) ++absent;
        ASSERT_EQ(gone, index.untag_remote(link, f, key));
        if (gone) {
          table.erase(it);
          ++emptied;
        } else if (it != table.end()) {
          it->second.erase(key);
        }
        break;
      }
      default: {  // remove, possibly of an absent entry
        const bool existed = it != table.end();
        if (!existed) ++absent;
        ASSERT_EQ(existed, index.remove_remote(link, f));
        if (existed) table.erase(it);
        break;
      }
    }
    // Keyed sources of the pool filters come and go beside the table.
    const SubKey keyed{ClientId(50), static_cast<std::uint32_t>(rng.index(3))};
    if (rng.bernoulli(0.1)) index.upsert_local(keyed, rng.pick(pool));
    if (rng.bernoulli(0.1)) index.upsert_virtual(keyed, rng.pick(pool));
    if (rng.bernoulli(0.05)) index.remove_local(keyed);

    std::size_t entries = 0, tags = 0;
    for (std::uint32_t l = 0; l <= 3; ++l) {
      const auto nit = naive.find(LinkId(l));
      const ForwardSet want = nit == naive.end() ? ForwardSet{} : nit->second;
      ASSERT_EQ(want, index.remote_table(LinkId(l))) << "table of link " << l;
      entries += want.size();
      for (const auto& [g, keys] : want) tags += keys.size();
    }
    ASSERT_EQ(entries, index.remote_entry_count());
    ASSERT_EQ(tags, index.remote_tag_count());
  }
  EXPECT_GT(upserts, 100u);
  EXPECT_GT(tag_only, 100u);
  EXPECT_GT(emptied, 100u);
  EXPECT_GT(absent, 100u);
}

TEST(CoverIndex, RemoteUpsertReplacesTags) {
  CoverIndex index;
  Filter f;
  f.where("sym", Constraint::prefix("A"));
  const SubKey k1{ClientId(1), 1};
  const SubKey k2{ClientId(2), 1};
  index.upsert_remote(LinkId(1), f, {k1, k2});
  index.upsert_remote(LinkId(1), f, {k2});  // tag-only upsert drops k1

  std::vector<LinkId> links;
  index.links_serving(k1, LinkId{}, links);
  EXPECT_TRUE(links.empty());
  index.links_serving(k2, LinkId{}, links);
  EXPECT_EQ(links, std::vector<LinkId>{LinkId(1)});
  EXPECT_EQ(index.entry_count(), 1u);
  index.remove_remote(LinkId(1), f);
  index.links_serving(k2, LinkId{}, links);
  EXPECT_TRUE(links.empty());
  EXPECT_EQ(index.entry_count(), 0u);
}

}  // namespace
}  // namespace rebeca::routing
