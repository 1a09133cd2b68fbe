// MatchIndex correctness: the counting index must agree with naive
// linear Filter::matches scans on every corpus we can generate — across
// every routing strategy's forward-set shapes, across all four entry
// planes, and across incremental churn (add/remove interleaved with
// queries). The index is the broker's only data plane, so this
// agreement is what keeps the broker's routing exact
// (matcher_equivalence_test re-checks it on live broker tables).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "src/routing/match_index.hpp"
#include "src/routing/strategy.hpp"
#include "src/util/rng.hpp"
#include "src/util/str_cat.hpp"

namespace rebeca::routing {
namespace {

using filter::Constraint;
using filter::Filter;
using filter::Notification;
using filter::Value;

// ---------------------------------------------------------------------------
// Corpus generation: random filters and notifications over a small
// attribute/value universe, so matches actually happen.
// ---------------------------------------------------------------------------

const std::vector<std::string>& attr_pool() {
  static const std::vector<std::string> pool = {
      "service", "cost", "size", "location", "sym", "flag"};
  return pool;
}

Value random_value(util::Rng& rng) {
  switch (rng.index(7)) {
    case 0: return Value(static_cast<int>(rng.uniform_i64(-5, 20)));
    case 1: return Value(rng.uniform_real(-2.0, 12.0));
    case 2: return Value(static_cast<double>(rng.uniform_i64(-5, 20)));
    case 3: return Value(util::str_cat("s", rng.uniform_u64(0, 9)));
    case 4: return Value(rng.bernoulli(0.5));
    case 5:
      // Doubles at and past 2^53, where one double stands for several
      // int64s, and -0.0 (equal to 0).
      switch (rng.index(3)) {
        case 0: return Value(-0.0);
        case 1: return Value(static_cast<double>(1LL << 53));
        default: return Value(static_cast<double>((1LL << 53) + 2));
      }
    default:
      // Huge int64s around 2^53: the eq-bucket double normalization must
      // not conflate them.
      return Value(static_cast<std::int64_t>(
          (1LL << 53) + static_cast<std::int64_t>(rng.uniform_u64(0, 3))));
  }
}

/// in_set members: the value universe plus the shapes the equality
/// postings must handle — int/double twins sharing one key (1 and 1.0),
/// huge int64s (lossy keys) and, rarely, NaN (equal to every number).
/// A quarter of the sets are large (up to 64 members).
std::set<Value> random_members(util::Rng& rng) {
  std::set<Value> values;
  const std::size_t n =
      rng.bernoulli(0.25) ? 1 + rng.index(64) : 1 + rng.index(4);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(1.0 / 256)) {
      values.insert(Value(std::nan("")));
      continue;
    }
    const Value m = random_value(rng);
    values.insert(m);
    if (m.is_int() && rng.bernoulli(0.3)) {
      values.insert(Value(static_cast<double>(m.as_int())));  // twin
    }
  }
  return values;
}

Constraint random_constraint(util::Rng& rng) {
  switch (rng.index(10)) {
    case 0: return Constraint::any();
    case 1: return Constraint::eq(random_value(rng));
    case 2: return Constraint::ne(random_value(rng));
    case 3: return Constraint::lt(Value(static_cast<int>(rng.uniform_i64(-5, 20))));
    case 4: return Constraint::le(Value(rng.uniform_real(-2.0, 12.0)));
    case 5: return Constraint::gt(Value("s" + std::to_string(rng.uniform_u64(0, 9))));
    case 6: return Constraint::ge(Value(static_cast<int>(rng.uniform_i64(-5, 20))));
    case 7: return Constraint::in_set(random_members(rng));
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
  const std::size_t n = rng.index(4);  // 0..3 constraints; 0 = match-all
  for (std::size_t i = 0; i < n; ++i) {
    f.where(rng.pick(attr_pool()), random_constraint(rng));
  }
  return f;
}

/// Notifications carry, now and then, a NaN value: a TCP client can
/// publish one (the wire decodes raw f64 bits), and NaN compares equal to
/// every number.
Notification random_notification(util::Rng& rng) {
  Notification n;
  const std::size_t count = rng.index(5);
  for (std::size_t i = 0; i < count; ++i) {
    n.set(rng.pick(attr_pool()),
          rng.bernoulli(1.0 / 16) ? Value(std::nan("")) : random_value(rng));
  }
  return n;
}

// ---------------------------------------------------------------------------
// Naive mirror: the four linear scans the index replaces.
// ---------------------------------------------------------------------------

struct Mirror {
  std::map<LinkId, std::vector<Filter>> remote;
  std::map<SubKey, Filter> locals;
  std::map<SubKey, Filter> virtuals;
  std::map<SubKey, std::pair<LinkId, Filter>> transits;

  [[nodiscard]] MatchHits collect(const Notification& n) const {
    MatchHits hits;
    for (const auto& [link, filters] : remote) {
      if (std::any_of(filters.begin(), filters.end(),
                      [&](const Filter& f) { return f.matches(n); })) {
        hits.links.push_back(link);
      }
    }
    for (const auto& [key, entry] : transits) {
      if (entry.second.matches(n)) hits.links.push_back(entry.first);
    }
    for (const auto& [key, f] : locals) {
      if (f.matches(n)) hits.locals.push_back(key);
    }
    for (const auto& [key, f] : virtuals) {
      if (f.matches(n)) hits.virtuals.push_back(key);
    }
    std::sort(hits.links.begin(), hits.links.end());
    hits.links.erase(std::unique(hits.links.begin(), hits.links.end()),
                     hits.links.end());
    std::sort(hits.locals.begin(), hits.locals.end());
    std::sort(hits.virtuals.begin(), hits.virtuals.end());
    return hits;
  }
};

void expect_same(const MatchHits& naive, const MatchHits& indexed,
                 const Notification& n) {
  EXPECT_EQ(naive.links, indexed.links) << "links diverge on " << n.to_string();
  EXPECT_EQ(naive.locals, indexed.locals)
      << "locals diverge on " << n.to_string();
  EXPECT_EQ(naive.virtuals, indexed.virtuals)
      << "virtuals diverge on " << n.to_string();
}

// ---------------------------------------------------------------------------
// Property: index == naive over strategy-shaped forward sets
// ---------------------------------------------------------------------------

TEST(MatchIndex, AgreesWithLinearAcrossStrategies) {
  const Strategy strategies[] = {Strategy::flooding, Strategy::simple,
                                 Strategy::identity, Strategy::covering,
                                 Strategy::merging};
  util::Rng rng(20260728);
  for (std::uint64_t corpus = 0; corpus < 40; ++corpus) {
    // A population of subscriptions, collapsed per strategy: the index's
    // remote plane sees exactly the filters a broker's tables would hold.
    std::vector<ForwardInput> inputs;
    const std::size_t subs = 1 + rng.index(24);
    for (std::size_t i = 0; i < subs; ++i) {
      inputs.push_back(
          {random_filter(rng),
           {SubKey{ClientId(static_cast<std::uint32_t>(i + 1)), 1}}});
    }
    for (const Strategy strategy : strategies) {
      const ForwardSet fs = compute_forward_set(strategy, inputs);

      MatchIndex index;
      Mirror mirror;
      const LinkId links[] = {LinkId(1), LinkId(2)};
      std::size_t i = 0;
      for (const auto& [f, tags] : fs) {
        const LinkId link = links[i++ % 2];
        index.add_remote(link, f);
        mirror.remote[link].push_back(f);
      }
      // The other planes ride along so every source kind is exercised.
      for (std::size_t k = 0; k < 4; ++k) {
        const SubKey key{ClientId(static_cast<std::uint32_t>(100 + k)), 1};
        const Filter f = random_filter(rng);
        switch (k % 3) {
          case 0:
            index.upsert_local(key, f);
            mirror.locals[key] = f;
            break;
          case 1:
            index.upsert_virtual(key, f);
            mirror.virtuals[key] = f;
            break;
          default:
            index.upsert_transit(key, LinkId(3), f);
            mirror.transits[key] = {LinkId(3), f};
            break;
        }
      }

      MatchHits hits;
      for (std::size_t probe = 0; probe < 25; ++probe) {
        const Notification n = random_notification(rng);
        index.collect(n, hits);
        expect_same(mirror.collect(n), hits, n);
      }
    }
  }
}

TEST(MatchIndex, AgreesWithLinearUnderChurn) {
  util::Rng rng(42);
  MatchIndex index;
  Mirror mirror;
  std::vector<std::pair<LinkId, Filter>> live_remote;
  std::uint32_t next_key = 1;
  std::vector<SubKey> live_locals, live_virtuals, live_transits;

  MatchHits hits;
  for (std::size_t step = 0; step < 2000; ++step) {
    switch (rng.index(9)) {
      case 0: {  // add remote
        const LinkId link(static_cast<std::uint32_t>(rng.uniform_u64(1, 3)));
        const Filter f = random_filter(rng);
        auto& filters = mirror.remote[link];
        if (std::find(filters.begin(), filters.end(), f) == filters.end()) {
          index.add_remote(link, f);
          filters.push_back(f);
          live_remote.emplace_back(link, f);
        }
        break;
      }
      case 1: {  // remove remote
        if (live_remote.empty()) break;
        const std::size_t i = rng.index(live_remote.size());
        const auto [link, f] = live_remote[i];
        live_remote.erase(live_remote.begin() + static_cast<std::ptrdiff_t>(i));
        index.remove_remote(link, f);
        auto& filters = mirror.remote[link];
        filters.erase(std::find(filters.begin(), filters.end(), f));
        break;
      }
      case 2: {  // add/replace local
        const SubKey key{ClientId(next_key++), 1};
        const Filter f = random_filter(rng);
        index.upsert_local(key, f);
        mirror.locals[key] = f;
        live_locals.push_back(key);
        break;
      }
      case 3: {  // remove local
        if (live_locals.empty()) break;
        const std::size_t i = rng.index(live_locals.size());
        index.remove_local(live_locals[i]);
        mirror.locals.erase(live_locals[i]);
        live_locals.erase(live_locals.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      case 4: {  // add/replace virtual
        const SubKey key{ClientId(next_key++), 2};
        const Filter f = random_filter(rng);
        index.upsert_virtual(key, f);
        mirror.virtuals[key] = f;
        live_virtuals.push_back(key);
        break;
      }
      case 5: {  // remove virtual
        if (live_virtuals.empty()) break;
        const std::size_t i = rng.index(live_virtuals.size());
        index.remove_virtual(live_virtuals[i]);
        mirror.virtuals.erase(live_virtuals[i]);
        live_virtuals.erase(live_virtuals.begin() +
                            static_cast<std::ptrdiff_t>(i));
        break;
      }
      case 6: {  // upsert transit (fresh or re-pointed)
        const bool fresh = live_transits.empty() || rng.bernoulli(0.5);
        const SubKey key = fresh ? SubKey{ClientId(next_key++), 3}
                                 : rng.pick(live_transits);
        const LinkId toward(static_cast<std::uint32_t>(rng.uniform_u64(1, 3)));
        const Filter f = random_filter(rng);
        index.upsert_transit(key, toward, f);
        mirror.transits[key] = {toward, f};
        if (fresh) live_transits.push_back(key);
        break;
      }
      case 7: {  // remove transit
        if (live_transits.empty()) break;
        const std::size_t i = rng.index(live_transits.size());
        index.remove_transit(live_transits[i]);
        mirror.transits.erase(live_transits[i]);
        live_transits.erase(live_transits.begin() +
                            static_cast<std::ptrdiff_t>(i));
        break;
      }
      default: {  // probe
        const Notification n = random_notification(rng);
        index.collect(n, hits);
        expect_same(mirror.collect(n), hits, n);
        break;
      }
    }
  }
  // Final sweep: drain everything and verify emptiness.
  for (const auto& [link, f] : live_remote) index.remove_remote(link, f);
  for (const SubKey& k : live_locals) index.remove_local(k);
  for (const SubKey& k : live_virtuals) index.remove_virtual(k);
  for (const SubKey& k : live_transits) index.remove_transit(k);
  EXPECT_EQ(index.entry_count(), 0u);
  index.collect(random_notification(rng), hits);
  EXPECT_TRUE(hits.links.empty());
  EXPECT_TRUE(hits.locals.empty());
  EXPECT_TRUE(hits.virtuals.empty());
}

// ---------------------------------------------------------------------------
// Targeted edges the generators may hit rarely
// ---------------------------------------------------------------------------

TEST(MatchIndex, EmptyFilterMatchesEverything) {
  MatchIndex index;
  index.add_remote(LinkId(1), Filter{});
  MatchHits hits;
  index.collect(Notification{}, hits);
  ASSERT_EQ(hits.links.size(), 1u);
  EXPECT_EQ(hits.links[0], LinkId(1));
  index.collect(Notification().set("anything", 1), hits);
  EXPECT_EQ(hits.links.size(), 1u);
  index.remove_remote(LinkId(1), Filter{});
  index.collect(Notification{}, hits);
  EXPECT_TRUE(hits.links.empty());
}

TEST(MatchIndex, CrossTypeNumericEquality) {
  // eq 1 (int) must match a 1.0 (double) attribute and vice versa — the
  // normalized equality bucket carries both spellings.
  MatchIndex index;
  Filter fi;
  fi.where("x", Constraint::eq(1));
  Filter fd;
  fd.where("x", Constraint::eq(1.5));
  index.upsert_local(SubKey{ClientId(1), 1}, fi);
  index.upsert_local(SubKey{ClientId(2), 1}, fd);

  MatchHits hits;
  index.collect(Notification().set("x", 1.0), hits);
  ASSERT_EQ(hits.locals.size(), 1u);
  EXPECT_EQ(hits.locals[0].client, ClientId(1));
  index.collect(Notification().set("x", 1.5), hits);
  ASSERT_EQ(hits.locals.size(), 1u);
  EXPECT_EQ(hits.locals[0].client, ClientId(2));
}

TEST(MatchIndex, HugeInt64sDoNotConflate) {
  // 2^53 and 2^53 + 1 cast to the same double; the eq bucket must still
  // tell the operands apart via the exact re-check.
  const std::int64_t base = 1LL << 53;
  MatchIndex index;
  Filter fa;
  fa.where("x", Constraint::eq(Value(base)));
  Filter fb;
  fb.where("x", Constraint::eq(Value(base + 1)));
  index.upsert_local(SubKey{ClientId(1), 1}, fa);
  index.upsert_local(SubKey{ClientId(2), 1}, fb);

  MatchHits hits;
  index.collect(Notification().set("x", Value(base + 1)), hits);
  ASSERT_EQ(hits.locals.size(), 1u);
  EXPECT_EQ(hits.locals[0].client, ClientId(2));
}

TEST(MatchIndex, InSetTermBumpsOncePerQuery) {
  // 1 and 1.0 share one equality key. Were both posted, a probe of 1
  // would bump the in_set term twice and complete the two-term filter
  // without its y term.
  MatchIndex index;
  Filter f;
  f.where("x", Constraint::in_set({Value(1), Value(1.0), Value(2)}));
  f.where("y", Constraint::eq("a"));
  index.upsert_local(SubKey{ClientId(1), 1}, f);

  MatchHits hits;
  index.collect(Notification().set("x", 1), hits);
  EXPECT_TRUE(hits.locals.empty());
  index.collect(Notification().set("x", 1.0).set("y", "a"), hits);
  EXPECT_EQ(hits.locals.size(), 1u);
  index.collect(Notification().set("x", -0.0), hits);
  EXPECT_TRUE(hits.locals.empty());
}

TEST(MatchIndex, InSetWithLossyOrNaNMemberStaysExact) {
  const std::int64_t base = 1LL << 53;
  MatchIndex index;
  Filter huge;
  huge.where("x", Constraint::in_set({Value(base + 1), Value(5)}));
  Filter nan;
  nan.where("x", Constraint::in_set({Value(std::nan("")), Value("s")}));
  Filter eq_nan;
  eq_nan.where("x", Constraint::eq(std::nan("")));
  index.upsert_local(SubKey{ClientId(1), 1}, huge);
  index.upsert_local(SubKey{ClientId(2), 1}, nan);
  index.upsert_local(SubKey{ClientId(3), 1}, eq_nan);

  const auto clients = [&](const Notification& n) {
    MatchHits hits;
    index.collect(n, hits);
    std::vector<std::uint32_t> out;
    for (const SubKey& k : hits.locals) out.push_back(k.client.value());
    return out;
  };
  using V = std::vector<std::uint32_t>;
  EXPECT_EQ(clients(Notification().set("x", Value(base + 1))), V({1, 2, 3}));
  EXPECT_EQ(clients(Notification().set("x", Value(base))), V({2, 3}));
  // One double stands for 2^53 and 2^53 + 1.
  EXPECT_EQ(clients(Notification().set("x", static_cast<double>(base))),
            V({1, 2, 3}));
  EXPECT_EQ(clients(Notification().set("x", 5)), V({1, 2, 3}));
  EXPECT_EQ(clients(Notification().set("x", "s")), V({2}));
  EXPECT_EQ(clients(Notification().set("x", "t")), V{});
}

TEST(MatchIndex, NaNNotificationValueMatchesLikeFilterMatches) {
  // NaN compares equal to every number (Value::compare), so an eq term
  // on any number matches it, and so does every non-strict bound. The
  // equality keys cannot find NaN, and the descending upper-bound scan
  // used to stop at the strict `lt 5` before it reached `le 3`.
  const auto check = [](const std::vector<Filter>& filters) {
    MatchIndex index;
    Mirror mirror;
    for (std::size_t i = 0; i < filters.size(); ++i) {
      const LinkId link(static_cast<std::uint32_t>(i + 1));
      index.add_remote(link, filters[i]);
      mirror.remote[link].push_back(filters[i]);
    }
    for (const char* attr : {"x", "y"}) {
      const Notification n = Notification().set(attr, std::nan(""));
      MatchHits hits;
      index.collect(n, hits);
      expect_same(mirror.collect(n), hits, n);
    }
  };
  Filter eq1, eq2;
  eq1.where("x", Constraint::eq(1));
  eq2.where("x", Constraint::eq(2));
  check({eq1, eq2});
  Filter lt5, le3;
  lt5.where("y", Constraint::lt(5));
  le3.where("y", Constraint::le(3));
  check({lt5, le3});

  // The same two cases, spelled out: both eq filters match, and le 3
  // matches while lt 5 does not.
  MatchIndex index;
  index.add_remote(LinkId(1), eq1);
  index.add_remote(LinkId(2), eq2);
  index.add_remote(LinkId(3), lt5);
  index.add_remote(LinkId(4), le3);
  MatchHits hits;
  index.collect(Notification().set("x", std::nan("")), hits);
  EXPECT_EQ(hits.links, std::vector<LinkId>({LinkId(1), LinkId(2)}));
  index.collect(Notification().set("y", std::nan("")), hits);
  EXPECT_EQ(hits.links, std::vector<LinkId>({LinkId(4)}));
}

TEST(MatchIndex, DrainLeavesNoPostingsBehind) {
  // Fill the index with in_set-heavy filters, remove every entry, then
  // refill: a stale posting would bump a reused slot and surface as a
  // wrong hit in the second round.
  util::Rng rng(777);
  MatchIndex index;
  MatchHits hits;
  for (int round = 0; round < 3; ++round) {
    Mirror mirror;
    for (std::uint32_t i = 0; i < 60; ++i) {
      Filter f;
      f.where("location", Constraint::in_set(random_members(rng)));
      if (rng.bernoulli(0.5)) f.where(rng.pick(attr_pool()), random_constraint(rng));
      const SubKey key{ClientId(i + 1), 1};
      index.upsert_local(key, f);
      mirror.locals[key] = f;
    }
    for (int probe = 0; probe < 200; ++probe) {
      Notification n = random_notification(rng);
      n.set("location", random_value(rng));
      index.collect(n, hits);
      expect_same(mirror.collect(n), hits, n);
    }
    for (const auto& [key, f] : mirror.locals) index.remove_local(key);
    EXPECT_EQ(index.entry_count(), 0u);
    for (int probe = 0; probe < 50; ++probe) {
      Notification n = random_notification(rng);
      n.set("location", random_value(rng));
      index.collect(n, hits);
      EXPECT_TRUE(hits.links.empty() && hits.locals.empty() &&
                  hits.virtuals.empty())
          << n.to_string();
    }
  }
}

TEST(MatchIndex, OneLinkHitPerManyMatchingFilters) {
  MatchIndex index;
  for (int i = 0; i < 8; ++i) {
    Filter f;
    f.where("px", Constraint::gt(i));
    index.add_remote(LinkId(7), f);
  }
  MatchHits hits;
  index.collect(Notification().set("px", 100), hits);
  ASSERT_EQ(hits.links.size(), 1u);  // deduped per link
  EXPECT_EQ(hits.links[0], LinkId(7));
}

TEST(MatchIndex, UpsertReplacesKeyedFilter) {
  MatchIndex index;
  const SubKey key{ClientId(5), 1};
  Filter narrow;
  narrow.where("sym", Constraint::eq("AAA"));
  index.upsert_local(key, narrow);
  Filter other;
  other.where("sym", Constraint::eq("BBB"));
  index.upsert_local(key, other);  // replaces, not accumulates

  MatchHits hits;
  index.collect(Notification().set("sym", "AAA"), hits);
  EXPECT_TRUE(hits.locals.empty());
  index.collect(Notification().set("sym", "BBB"), hits);
  ASSERT_EQ(hits.locals.size(), 1u);
  EXPECT_EQ(index.entry_count(), 1u);
}

}  // namespace
}  // namespace rebeca::routing
