// Forward-set computation per routing strategy (unit level): identity
// collapse, covering antichains, exact merging, advertisement-free
// diffs — the machinery behind paper Sec. 2.2.
#include <gtest/gtest.h>

#include "src/routing/strategy.hpp"
#include "src/util/str_cat.hpp"

namespace rebeca::routing {
namespace {

using filter::Constraint;
using filter::Filter;
using filter::Value;

ForwardInput input(Filter f, std::uint32_t client) {
  return {std::move(f), {SubKey{ClientId(client), 1}}};
}

Filter lt(const char* attr, int v) {
  return Filter().where(attr, Constraint::lt(v));
}

TEST(Strategy, FloodingForwardsNothing) {
  auto fs = compute_forward_set(Strategy::flooding,
                                {input(lt("x", 5), 1), input(lt("x", 9), 2)});
  EXPECT_TRUE(fs.empty());
}

TEST(Strategy, SimpleKeepsEverySubscription) {
  auto fs = compute_forward_set(Strategy::simple,
                                {input(lt("x", 5), 1), input(lt("x", 9), 2)});
  EXPECT_EQ(fs.size(), 2u);
}

TEST(Strategy, IdentityCollapsesEqualFilters) {
  auto fs = compute_forward_set(Strategy::identity,
                                {input(lt("x", 5), 1), input(lt("x", 5), 2)});
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs.begin()->second.size(), 2u);  // both tags preserved
}

TEST(Strategy, CoveringKeepsOnlyMaximal) {
  auto fs = compute_forward_set(
      Strategy::covering,
      {input(lt("x", 5), 1), input(lt("x", 9), 2), input(lt("x", 7), 3)});
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs.begin()->first, lt("x", 9));
  // Exact-tags design: the representative carries only its own tags.
  EXPECT_EQ(fs.begin()->second, (std::set<SubKey>{SubKey{ClientId(2), 1}}));
}

TEST(Strategy, CoveringKeepsIncomparableFilters) {
  auto fs = compute_forward_set(
      Strategy::covering, {input(lt("x", 5), 1), input(lt("y", 5), 2)});
  EXPECT_EQ(fs.size(), 2u);
}

TEST(Strategy, CoveringEquivalentFiltersPickCanonical) {
  // range [v,v] and eq v are mutually covering; exactly one survives,
  // deterministically.
  Filter eqf = Filter().where("x", Constraint::eq(5));
  Filter rangef = Filter().where("x", Constraint::range(Value(5), Value(5)));
  auto fs = compute_forward_set(Strategy::covering,
                                {input(eqf, 1), input(rangef, 2)});
  ASSERT_EQ(fs.size(), 1u);
  auto fs2 = compute_forward_set(Strategy::covering,
                                 {input(rangef, 2), input(eqf, 1)});
  EXPECT_EQ(fs.begin()->first, fs2.begin()->first);  // order-independent
}

TEST(Strategy, MergingCombinesSiblings) {
  Filter a = Filter().where("sym", Constraint::eq("A"));
  Filter b = Filter().where("sym", Constraint::eq("B"));
  auto fs = compute_forward_set(Strategy::merging, {input(a, 1), input(b, 2)});
  ASSERT_EQ(fs.size(), 1u);
  const auto& merged = fs.begin()->first;
  EXPECT_TRUE(merged.matches(filter::Notification().set("sym", "A")));
  EXPECT_TRUE(merged.matches(filter::Notification().set("sym", "B")));
  EXPECT_FALSE(merged.matches(filter::Notification().set("sym", "C")));
  EXPECT_EQ(fs.begin()->second.size(), 2u);  // merged tags union
}

TEST(Strategy, MergingReachesFixpoint) {
  std::vector<ForwardInput> inputs;
  for (std::uint32_t i = 0; i < 6; ++i) {
    inputs.push_back(
        input(Filter().where("sym", Constraint::eq(util::str_cat("S", i))), i));
  }
  auto fs = compute_forward_set(Strategy::merging, inputs);
  ASSERT_EQ(fs.size(), 1u);  // all six collapse into one in-set
  EXPECT_EQ(fs.begin()->second.size(), 6u);
}

TEST(Strategy, MergingRefusesInexactUnions) {
  Filter a = Filter().where("x", Constraint::eq(1)).where("y", Constraint::eq(1));
  Filter b = Filter().where("x", Constraint::eq(2)).where("y", Constraint::eq(2));
  auto fs = compute_forward_set(Strategy::merging, {input(a, 1), input(b, 2)});
  EXPECT_EQ(fs.size(), 2u);
}

TEST(Strategy, EmptyInputsEmptyOutput) {
  for (auto s : {Strategy::flooding, Strategy::simple, Strategy::identity,
                 Strategy::covering, Strategy::merging}) {
    EXPECT_TRUE(compute_forward_set(s, {}).empty());
  }
}

// Semantic invariant: for every non-flooding strategy, the union of
// accepted notifications is preserved.
TEST(Strategy, AcceptanceUnionPreserved) {
  std::vector<ForwardInput> inputs = {
      input(lt("x", 5), 1),
      input(lt("x", 9), 2),
      input(Filter().where("x", Constraint::gt(100)), 3),
      input(Filter().where("sym", Constraint::eq("A")), 4),
      input(Filter().where("sym", Constraint::eq("B")), 5),
      input(Filter().where("sym", Constraint::prefix("A")), 6),
  };
  std::vector<filter::Notification> probes;
  for (int x : {-3, 0, 4, 6, 8, 50, 101}) {
    probes.push_back(filter::Notification().set("x", x));
  }
  for (const char* s : {"A", "AB", "B", "C"}) {
    probes.push_back(filter::Notification().set("sym", s));
  }

  auto accepted_by = [&](const ForwardSet& fs, const filter::Notification& n) {
    for (const auto& [f, tags] : fs) {
      if (f.matches(n)) return true;
    }
    return false;
  };
  auto accepted_by_inputs = [&](const filter::Notification& n) {
    for (const auto& in : inputs) {
      if (in.f.matches(n)) return true;
    }
    return false;
  };

  for (auto s : {Strategy::simple, Strategy::identity, Strategy::covering,
                 Strategy::merging}) {
    auto fs = compute_forward_set(s, inputs);
    for (const auto& n : probes) {
      EXPECT_EQ(accepted_by(fs, n), accepted_by_inputs(n))
          << strategy_name(s) << " changed acceptance of " << n.to_string();
    }
  }
}

// ---------------------------------------------------------------------------
// diff engine
// ---------------------------------------------------------------------------

TEST(StrategyDiff, EmptyToTargetSubscribesAll) {
  ForwardSet target;
  target[lt("x", 5)] = {SubKey{ClientId(1), 1}};
  target[lt("y", 5)] = {SubKey{ClientId(2), 1}};
  auto d = diff_forward_sets({}, target);
  EXPECT_EQ(d.prunes(), 0u);
  EXPECT_EQ(d.upserts(), 2u);
}

TEST(StrategyDiff, TargetToEmptyUnsubscribesAll) {
  ForwardSet sent;
  sent[lt("x", 5)] = {SubKey{ClientId(1), 1}};
  auto d = diff_forward_sets(sent, {});
  EXPECT_EQ(d.prunes(), 1u);
  EXPECT_EQ(d.upserts(), 0u);
}

TEST(StrategyDiff, UnchangedIsSilent) {
  ForwardSet s;
  s[lt("x", 5)] = {SubKey{ClientId(1), 1}};
  auto d = diff_forward_sets(s, s);
  EXPECT_TRUE(d.empty());
}

TEST(StrategyDiff, TagChangeIsAnUpsert) {
  ForwardSet sent, target;
  sent[lt("x", 5)] = {SubKey{ClientId(1), 1}};
  target[lt("x", 5)] = {SubKey{ClientId(1), 1}, SubKey{ClientId(2), 1}};
  auto d = diff_forward_sets(sent, target);
  EXPECT_EQ(d.prunes(), 0u);
  ASSERT_EQ(d.upserts(), 1u);
  EXPECT_EQ(d.steps.front().tags.size(), 2u);
}

TEST(StrategyDiff, ReplacementIsUnsubPlusSub) {
  ForwardSet sent, target;
  sent[lt("x", 5)] = {SubKey{ClientId(1), 1}};
  target[lt("x", 9)] = {SubKey{ClientId(1), 1}};
  auto d = diff_forward_sets(sent, target);
  EXPECT_EQ(d.prunes(), 1u);
  EXPECT_EQ(d.upserts(), 1u);
}

// The program is ordered: every upsert precedes every prune, so on a
// FIFO link a covering replacement is installed before the covered
// entry disappears (uncover-before-prune).
TEST(StrategyDiff, UpsertsPrecedePrunes) {
  ForwardSet sent, target;
  sent[lt("x", 9)] = {SubKey{ClientId(1), 1}};   // covering rep, leaving
  target[lt("x", 5)] = {SubKey{ClientId(2), 1}}; // covered, re-exposed
  target[lt("y", 1)] = {SubKey{ClientId(3), 1}};
  auto d = diff_forward_sets(sent, target);
  ASSERT_EQ(d.steps.size(), 3u);
  bool seen_prune = false;
  for (const auto& step : d.steps) {
    if (step.kind == DiffStep::Kind::prune) seen_prune = true;
    if (step.kind == DiffStep::Kind::upsert) {
      EXPECT_FALSE(seen_prune);
    }
  }
  EXPECT_TRUE(seen_prune);
}

// ---------------------------------------------------------------------------
// covered_by + moveout planning (the relocation uncover machinery)
// ---------------------------------------------------------------------------

TEST(StrategyCoveredBy, FindsStrictlyCoveredEntries) {
  ForwardSet hop;
  hop[lt("x", 9)] = {SubKey{ClientId(1), 1}};
  hop[lt("x", 5)] = {SubKey{ClientId(2), 1}};  // covered by x<9
  hop[lt("y", 5)] = {SubKey{ClientId(3), 1}};  // incomparable
  auto covered = covered_by(lt("x", 9), hop);
  ASSERT_EQ(covered.size(), 1u);
  EXPECT_EQ(covered.begin()->first, lt("x", 5));
  EXPECT_EQ(covered.begin()->second, (std::set<SubKey>{SubKey{ClientId(2), 1}}));
}

TEST(StrategyCoveredBy, ExcludesTheRepresentativeItself) {
  ForwardSet hop;
  hop[lt("x", 9)] = {SubKey{ClientId(1), 1}};
  EXPECT_TRUE(covered_by(lt("x", 9), hop).empty());
}

TEST(StrategyMoveout, SharedEntryIsUntagOnly) {
  const SubKey mover{ClientId(1), 1};
  ForwardSet hop;
  hop[lt("x", 9)] = {mover, SubKey{ClientId(2), 1}};
  auto p = plan_moveout(Strategy::covering, mover, hop);
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps.front().kind, MoveoutStep::Kind::untag);
  EXPECT_EQ(p.ack_barriers, 0u);
}

TEST(StrategyMoveout, DyingEntryUnderCoveringNeedsReexposeBeforePrune) {
  const SubKey mover{ClientId(1), 1};
  ForwardSet hop;
  hop[lt("x", 9)] = {mover};
  for (auto s : {Strategy::covering, Strategy::merging}) {
    auto p = plan_moveout(s, mover, hop);
    ASSERT_EQ(p.steps.size(), 2u) << strategy_name(s);
    EXPECT_EQ(p.steps[0].kind, MoveoutStep::Kind::reexpose);
    EXPECT_EQ(p.steps[1].kind, MoveoutStep::Kind::prune);
    EXPECT_EQ(p.ack_barriers, 1u);
  }
}

TEST(StrategyMoveout, NonAggregatingStrategiesPruneDirectly) {
  const SubKey mover{ClientId(1), 1};
  ForwardSet hop;
  hop[lt("x", 9)] = {mover};
  for (auto s : {Strategy::flooding, Strategy::simple, Strategy::identity}) {
    auto p = plan_moveout(s, mover, hop);
    ASSERT_EQ(p.steps.size(), 1u) << strategy_name(s);
    EXPECT_EQ(p.steps.front().kind, MoveoutStep::Kind::prune);
    EXPECT_EQ(p.ack_barriers, 0u);
  }
}

TEST(StrategyMoveout, UntouchedKeysProduceEmptyProgram) {
  ForwardSet hop;
  hop[lt("x", 9)] = {SubKey{ClientId(2), 1}};
  auto p = plan_moveout(Strategy::covering, SubKey{ClientId(1), 1}, hop);
  EXPECT_TRUE(p.empty());
}

}  // namespace
}  // namespace rebeca::routing
