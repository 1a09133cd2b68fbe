// Constraint semantics: matching, covering, overlap and merging — the
// decision procedures content-based routing rests on (paper Sec. 2.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/filter/constraint.hpp"
#include "src/util/assert.hpp"
#include "src/util/rng.hpp"
#include "src/util/str_cat.hpp"

namespace rebeca::filter {
namespace {

using C = Constraint;

// ---------------------------------------------------------------------------
// matches
// ---------------------------------------------------------------------------

TEST(ConstraintMatch, Any) {
  EXPECT_TRUE(C::any().matches(Value(1)));
  EXPECT_TRUE(C::any().matches(Value("x")));
}

TEST(ConstraintMatch, EqNumericCrossType) {
  EXPECT_TRUE(C::eq(Value(3)).matches(Value(3)));
  EXPECT_TRUE(C::eq(Value(3)).matches(Value(3.0)));
  EXPECT_TRUE(C::eq(Value(3.0)).matches(Value(3)));
  EXPECT_FALSE(C::eq(Value(3)).matches(Value(4)));
  EXPECT_FALSE(C::eq(Value(3)).matches(Value("3")));
}

TEST(ConstraintMatch, NeIsComplementOfEq) {
  EXPECT_FALSE(C::ne(Value("a")).matches(Value("a")));
  EXPECT_TRUE(C::ne(Value("a")).matches(Value("b")));
  // Incomparable types are "not equal".
  EXPECT_TRUE(C::ne(Value("a")).matches(Value(1)));
}

TEST(ConstraintMatch, OrderedOps) {
  EXPECT_TRUE(C::lt(Value(5)).matches(Value(4)));
  EXPECT_FALSE(C::lt(Value(5)).matches(Value(5)));
  EXPECT_TRUE(C::le(Value(5)).matches(Value(5)));
  EXPECT_TRUE(C::gt(Value(5)).matches(Value(5.5)));
  EXPECT_FALSE(C::gt(Value(5)).matches(Value(5)));
  EXPECT_TRUE(C::ge(Value(5)).matches(Value(5)));
  EXPECT_FALSE(C::ge(Value(5)).matches(Value(4.9)));
}

TEST(ConstraintMatch, OrderedOpsRejectIncomparable) {
  EXPECT_FALSE(C::lt(Value(5)).matches(Value("4")));
  EXPECT_FALSE(C::ge(Value("a")).matches(Value(10)));
}

TEST(ConstraintMatch, StringOrdering) {
  EXPECT_TRUE(C::lt(Value("n")).matches(Value("m")));
  EXPECT_FALSE(C::lt(Value("n")).matches(Value("n")));
  EXPECT_TRUE(C::ge(Value("b")).matches(Value("ba")));
}

TEST(ConstraintMatch, InSet) {
  auto c = C::in_set({Value("a"), Value("b")});
  EXPECT_TRUE(c.matches(Value("a")));
  EXPECT_TRUE(c.matches(Value("b")));
  EXPECT_FALSE(c.matches(Value("c")));
}

TEST(ConstraintMatch, InSetNumericEquality) {
  auto c = C::in_set({Value(1), Value(2)});
  EXPECT_TRUE(c.matches(Value(2.0)));  // 2.0 equals member 2
  EXPECT_FALSE(c.matches(Value(2.5)));
}

TEST(ConstraintMatch, Prefix) {
  auto c = C::prefix("100 Rebeca");
  EXPECT_TRUE(c.matches(Value("100 Rebeca Drive")));
  EXPECT_TRUE(c.matches(Value("100 Rebeca")));
  EXPECT_FALSE(c.matches(Value("101 Rebeca Drive")));
  EXPECT_FALSE(c.matches(Value(100)));
}

TEST(ConstraintMatch, RangeInclusive) {
  auto c = C::range(Value(2), Value(5));
  EXPECT_TRUE(c.matches(Value(2)));
  EXPECT_TRUE(c.matches(Value(5)));
  EXPECT_TRUE(c.matches(Value(3.7)));
  EXPECT_FALSE(c.matches(Value(1.999)));
  EXPECT_FALSE(c.matches(Value(5.001)));
  EXPECT_FALSE(c.matches(Value("3")));
}

TEST(ConstraintMatch, RangeBoundsValidated) {
  EXPECT_THROW(C::range(Value(5), Value(2)), util::AssertionError);
}

// ---------------------------------------------------------------------------
// in_set against its definition
// ---------------------------------------------------------------------------

/// Mixed-type values where set lookup and Value::equals could part ways:
/// int/double twins, ±0.0, int64s around 2^53 (where doubles stop
/// telling ints apart), huge and infinite doubles, NaN (equal to every
/// number), strings and bools.
Value random_mixed(util::Rng& rng) {
  constexpr std::int64_t kTwo53 = std::int64_t{1} << 53;
  switch (rng.index(10)) {
    case 0: return Value(rng.uniform_i64(-4, 4));
    case 1: return Value(static_cast<double>(rng.uniform_i64(-4, 4)));
    case 2: return Value(static_cast<double>(rng.uniform_i64(-8, 8)) / 2);
    case 3: return Value(rng.bernoulli(0.5) ? 0.0 : -0.0);
    case 4: return Value(kTwo53 + rng.uniform_i64(-2, 3));
    case 5: return Value(static_cast<double>(kTwo53 + rng.uniform_i64(-2, 4)));
    case 6: {
      const double big[] = {1e300, -1e19,
                            std::numeric_limits<double>::infinity()};
      return Value(big[rng.index(3)]);
    }
    case 7:
      if (rng.bernoulli(0.3)) return Value(std::nan(""));
      return Value(rng.uniform_i64(-4, 4));
    case 8: return Value(util::str_cat("s", rng.index(4)));
    default: return Value(rng.bernoulli(0.5));
  }
}

std::set<Value> random_members(util::Rng& rng) {
  std::set<Value> values;
  const std::size_t n = rng.index(10);  // 0..9; empty sets included
  for (std::size_t i = 0; i < n; ++i) values.insert(random_mixed(rng));
  return values;
}

/// The definition in_set is held to: some member equals the value.
bool member_of(const Constraint& set, const Value& v) {
  return std::any_of(set.values().begin(), set.values().end(),
                     [&](const Value& m) { return m.equals(v); });
}

TEST(ConstraintInSet, AgreesWithMemberScanOnMixedValues) {
  util::Rng rng(5309);
  for (int round = 0; round < 4000; ++round) {
    const C a = C::in_set(random_members(rng));
    const C b = C::in_set(random_members(rng));
    const Value x = random_mixed(rng);
    SCOPED_TRACE(a.to_string() + " / " + b.to_string() + " / " +
                 x.to_string());

    EXPECT_EQ(a.matches(x), member_of(a, x));
    EXPECT_EQ(a.covers(C::eq(x)), member_of(a, x));
    EXPECT_EQ(a.overlaps(C::eq(x)), member_of(a, x));
    EXPECT_EQ(C::ne(x).covers(a), !a.values().empty() && !member_of(a, x));

    const auto& bv = b.values();
    const bool b_inside_a = std::all_of(
        bv.begin(), bv.end(), [&](const Value& m) { return member_of(a, m); });
    EXPECT_EQ(a.covers(b), !bv.empty() && b_inside_a);
    const bool shared = std::any_of(
        bv.begin(), bv.end(), [&](const Value& m) { return member_of(a, m); });
    EXPECT_EQ(a.overlaps(b), shared);
    EXPECT_EQ(b.overlaps(a), shared);
  }
}

TEST(ConstraintInSet, NumericTwinsAndNaN) {
  const std::int64_t two53 = std::int64_t{1} << 53;
  // Cross-type twins find each other through the lookup.
  EXPECT_TRUE(C::in_set({Value(1)}).matches(Value(1.0)));
  EXPECT_TRUE(C::in_set({Value(1.0)}).matches(Value(1)));
  EXPECT_TRUE(C::in_set({Value(-0.0)}).matches(Value(0)));
  EXPECT_FALSE(C::in_set({Value(1.5)}).matches(Value(1)));
  // Past 2^53 one double stands for several int64s.
  EXPECT_TRUE(C::in_set({Value(two53 + 1)})
                  .matches(Value(static_cast<double>(two53))));
  EXPECT_FALSE(C::in_set({Value(two53 + 1)}).matches(Value(two53)));
  EXPECT_TRUE(C::in_set({Value(static_cast<double>(two53))})
                  .matches(Value(two53 + 1)));
  // NaN compares equal to every number, never to a string.
  EXPECT_TRUE(C::in_set({Value(std::nan(""))}).matches(Value(7)));
  EXPECT_TRUE(C::in_set({Value(7)}).matches(Value(std::nan(""))));
  EXPECT_FALSE(C::in_set({Value(std::nan(""))}).matches(Value("7")));
  EXPECT_FALSE(C::in_set({Value("7")}).matches(Value(std::nan(""))));
}

// ---------------------------------------------------------------------------
// covers — exactness cases
// ---------------------------------------------------------------------------

TEST(ConstraintCovers, AnyCoversEverything) {
  EXPECT_TRUE(C::any().covers(C::eq(Value(1))));
  EXPECT_TRUE(C::any().covers(C::lt(Value(5))));
  EXPECT_TRUE(C::any().covers(C::any()));
  EXPECT_FALSE(C::eq(Value(1)).covers(C::any()));
}

TEST(ConstraintCovers, EqCoversOnlyEquivalents) {
  EXPECT_TRUE(C::eq(Value(3)).covers(C::eq(Value(3))));
  EXPECT_TRUE(C::eq(Value(3)).covers(C::eq(Value(3.0))));
  EXPECT_TRUE(C::eq(Value(3)).covers(C::in_set({Value(3)})));
  EXPECT_TRUE(C::eq(Value(3)).covers(C::range(Value(3), Value(3))));
  EXPECT_FALSE(C::eq(Value(3)).covers(C::in_set({Value(3), Value(4)})));
  EXPECT_FALSE(C::eq(Value(3)).covers(C::le(Value(3))));
}

TEST(ConstraintCovers, IntervalNesting) {
  EXPECT_TRUE(C::lt(Value(10)).covers(C::lt(Value(10))));
  EXPECT_TRUE(C::lt(Value(10)).covers(C::lt(Value(5))));
  EXPECT_TRUE(C::lt(Value(10)).covers(C::le(Value(9))));
  EXPECT_FALSE(C::lt(Value(10)).covers(C::le(Value(10))));
  EXPECT_TRUE(C::le(Value(10)).covers(C::lt(Value(10))));
  EXPECT_TRUE(C::ge(Value(0)).covers(C::gt(Value(0))));
  EXPECT_FALSE(C::gt(Value(0)).covers(C::ge(Value(0))));
  EXPECT_TRUE(C::gt(Value(0)).covers(C::gt(Value(1))));
  EXPECT_TRUE(C::range(Value(0), Value(10)).covers(C::range(Value(2), Value(8))));
  EXPECT_FALSE(C::range(Value(0), Value(10)).covers(C::range(Value(2), Value(11))));
  EXPECT_TRUE(C::lt(Value(11)).covers(C::range(Value(2), Value(10))));
  EXPECT_FALSE(C::range(Value(0), Value(10)).covers(C::lt(Value(5))));  // unbounded below
}

TEST(ConstraintCovers, IntervalCoversWitnessSets) {
  EXPECT_TRUE(C::lt(Value(10)).covers(C::in_set({Value(1), Value(9)})));
  EXPECT_FALSE(C::lt(Value(10)).covers(C::in_set({Value(1), Value(10)})));
  EXPECT_TRUE(C::range(Value(0), Value(5)).covers(C::eq(Value(2.5))));
}

TEST(ConstraintCovers, NeCoversWhatNeverAcceptsItsValue) {
  EXPECT_TRUE(C::ne(Value(5)).covers(C::eq(Value(4))));
  EXPECT_FALSE(C::ne(Value(5)).covers(C::eq(Value(5))));
  EXPECT_TRUE(C::ne(Value(5)).covers(C::ne(Value(5))));
  EXPECT_FALSE(C::ne(Value(5)).covers(C::ne(Value(6))));
  EXPECT_TRUE(C::ne(Value(5)).covers(C::gt(Value(5))));
  EXPECT_TRUE(C::ne(Value(5)).covers(C::lt(Value(5))));
  EXPECT_FALSE(C::ne(Value(5)).covers(C::le(Value(5))));
  EXPECT_TRUE(C::ne(Value(5)).covers(C::in_set({Value(1), Value(2)})));
  EXPECT_FALSE(C::ne(Value(5)).covers(C::in_set({Value(1), Value(5)})));
  EXPECT_TRUE(C::ne(Value("ab")).covers(C::prefix("b")));
  EXPECT_FALSE(C::ne(Value("ab")).covers(C::prefix("a")));
  EXPECT_TRUE(C::ne(Value("zzz")).covers(C::range(Value(1), Value(2))));
}

TEST(ConstraintCovers, InSetSubsets) {
  auto big = C::in_set({Value("a"), Value("b"), Value("c")});
  EXPECT_TRUE(big.covers(C::in_set({Value("a"), Value("c")})));
  EXPECT_TRUE(big.covers(C::eq(Value("b"))));
  EXPECT_FALSE(big.covers(C::in_set({Value("a"), Value("d")})));
  EXPECT_FALSE(big.covers(C::prefix("a")));
  EXPECT_FALSE(big.covers(C::lt(Value("b"))));
}

TEST(ConstraintCovers, PrefixNesting) {
  EXPECT_TRUE(C::prefix("m").covers(C::prefix("ma")));
  EXPECT_FALSE(C::prefix("ma").covers(C::prefix("m")));
  EXPECT_TRUE(C::prefix("m").covers(C::eq(Value("maple"))));
  EXPECT_FALSE(C::prefix("m").covers(C::eq(Value("oak"))));
  EXPECT_TRUE(C::prefix("m").covers(C::in_set({Value("ma"), Value("mb")})));
  EXPECT_TRUE(C::prefix("m").covers(C::range(Value("ma"), Value("mz"))));
  EXPECT_FALSE(C::prefix("m").covers(C::range(Value("la"), Value("mz"))));
}

TEST(ConstraintCovers, OrderedVsPrefixStringBounds) {
  // All strings with prefix "m" are < "n" lexicographically.
  EXPECT_TRUE(C::lt(Value("n")).covers(C::prefix("m")));
  EXPECT_FALSE(C::lt(Value("mz")).covers(C::prefix("m")));  // "mzz" > "mz"
  EXPECT_TRUE(C::ge(Value("m")).covers(C::prefix("m")));
  EXPECT_FALSE(C::gt(Value("m")).covers(C::prefix("m")));  // "m" itself matches
  EXPECT_TRUE(C::gt(Value("l")).covers(C::prefix("m")));
  EXPECT_TRUE(C::range(Value("m"), Value("n")).covers(C::prefix("m")));
  EXPECT_FALSE(C::range(Value("m"), Value("mzzz")).covers(C::prefix("m")));
}

TEST(ConstraintCovers, IncomparableTypesNeverCover) {
  EXPECT_FALSE(C::lt(Value(5)).covers(C::lt(Value("a"))));
  EXPECT_FALSE(C::range(Value(0), Value(9)).covers(C::eq(Value("5"))));
}

// Soundness sweep: whenever covers() says true, every accepted value of
// the inner constraint must be accepted by the outer one.
class ConstraintCoverSoundness
    : public ::testing::TestWithParam<std::pair<Constraint, Constraint>> {};

std::vector<Value> probe_values() {
  return {Value(-10), Value(0),    Value(1),     Value(2),     Value(3),
          Value(5),   Value(7),   Value(10),    Value(2.5),   Value(4.999),
          Value(5.0), Value(5.001), Value("a"), Value("ab"),  Value("abc"),
          Value("b"), Value("m"),  Value("ma"), Value("mzzz"), Value("n"),
          Value(true), Value(false)};
}

std::vector<Constraint> constraint_zoo() {
  return {C::any(),
          C::eq(Value(5)),
          C::eq(Value(5.0)),
          C::eq(Value("ab")),
          C::ne(Value(5)),
          C::ne(Value("m")),
          C::lt(Value(5)),
          C::le(Value(5)),
          C::gt(Value(5)),
          C::ge(Value(5)),
          C::lt(Value("n")),
          C::ge(Value("m")),
          C::in_set({Value(1), Value(2), Value(3)}),
          C::in_set({Value("a"), Value("ab")}),
          C::prefix("m"),
          C::prefix("ma"),
          C::prefix("a"),
          C::range(Value(0), Value(10)),
          C::range(Value(2), Value(5)),
          C::range(Value("m"), Value("n")),
          C::range(Value(5), Value(5))};
}

TEST(ConstraintCovers, SoundnessSweep) {
  const auto zoo = constraint_zoo();
  const auto probes = probe_values();
  int cover_pairs = 0;
  for (const auto& outer : zoo) {
    for (const auto& inner : zoo) {
      if (!outer.covers(inner)) continue;
      ++cover_pairs;
      for (const auto& v : probes) {
        if (inner.matches(v)) {
          EXPECT_TRUE(outer.matches(v))
              << outer << " claims to cover " << inner << " but rejects " << v;
        }
      }
    }
  }
  EXPECT_GT(cover_pairs, 30);  // the sweep actually exercised covering
}

// ---------------------------------------------------------------------------
// overlaps — conservative, but exact where decidable
// ---------------------------------------------------------------------------

TEST(ConstraintOverlap, DisjointIntervals) {
  EXPECT_FALSE(C::lt(Value(5)).overlaps(C::gt(Value(5))));
  EXPECT_TRUE(C::le(Value(5)).overlaps(C::ge(Value(5))));
  EXPECT_FALSE(C::range(Value(0), Value(2)).overlaps(C::range(Value(3), Value(4))));
  EXPECT_TRUE(C::range(Value(0), Value(3)).overlaps(C::range(Value(3), Value(4))));
}

TEST(ConstraintOverlap, WitnessExact) {
  EXPECT_TRUE(C::eq(Value(5)).overlaps(C::le(Value(5))));
  EXPECT_FALSE(C::eq(Value(5)).overlaps(C::lt(Value(5))));
  EXPECT_FALSE(C::in_set({Value(1), Value(2)}).overlaps(C::gt(Value(2))));
  EXPECT_TRUE(C::in_set({Value(1), Value(3)}).overlaps(C::gt(Value(2))));
}

TEST(ConstraintOverlap, PrefixPairs) {
  EXPECT_TRUE(C::prefix("m").overlaps(C::prefix("ma")));
  EXPECT_TRUE(C::prefix("ma").overlaps(C::prefix("m")));
  EXPECT_FALSE(C::prefix("ma").overlaps(C::prefix("mb")));
}

TEST(ConstraintOverlap, PrefixVsInterval) {
  EXPECT_TRUE(C::prefix("m").overlaps(C::lt(Value("mz"))));
  EXPECT_FALSE(C::prefix("m").overlaps(C::lt(Value("m"))));
  EXPECT_FALSE(C::prefix("m").overlaps(C::ge(Value("n"))));
}

TEST(ConstraintOverlap, DifferentTypeDomainsAreDisjoint) {
  EXPECT_FALSE(C::lt(Value(5)).overlaps(C::gt(Value("a"))));
}

TEST(ConstraintOverlap, NeOverlapsAlmostEverything) {
  EXPECT_TRUE(C::ne(Value(5)).overlaps(C::lt(Value(6))));
  EXPECT_FALSE(C::ne(Value(5)).overlaps(C::eq(Value(5))));
  EXPECT_TRUE(C::ne(Value(5)).overlaps(C::eq(Value(6))));
}

// Soundness: overlap must never report false when a common value exists.
TEST(ConstraintOverlap, NeverFalseNegativeSweep) {
  const auto zoo = constraint_zoo();
  const auto probes = probe_values();
  for (const auto& a : zoo) {
    for (const auto& b : zoo) {
      bool common = false;
      for (const auto& v : probes) {
        if (a.matches(v) && b.matches(v)) {
          common = true;
          break;
        }
      }
      if (common) {
        EXPECT_TRUE(a.overlaps(b))
            << a << " and " << b << " share a value but overlaps() == false";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// try_merge — exact unions only
// ---------------------------------------------------------------------------

TEST(ConstraintMerge, CoverAbsorbs) {
  auto m = C::lt(Value(10)).try_merge(C::lt(Value(5)));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, C::lt(Value(10)));
}

TEST(ConstraintMerge, WitnessUnion) {
  auto m = C::eq(Value("a")).try_merge(C::eq(Value("b")));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, C::in_set({Value("a"), Value("b")}));

  auto m2 = C::in_set({Value(1)}).try_merge(C::in_set({Value(2), Value(3)}));
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(*m2, C::in_set({Value(1), Value(2), Value(3)}));
}

TEST(ConstraintMerge, OverlappingRangesHull) {
  auto m = C::range(Value(0), Value(5)).try_merge(C::range(Value(3), Value(9)));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, C::range(Value(0), Value(9)));
}

TEST(ConstraintMerge, DisjointRangesDoNotMerge) {
  EXPECT_FALSE(
      C::range(Value(0), Value(2)).try_merge(C::range(Value(4), Value(6))).has_value());
}

TEST(ConstraintMerge, UnmergeablePairs) {
  EXPECT_FALSE(C::lt(Value(5)).try_merge(C::gt(Value(7))).has_value());
  EXPECT_FALSE(C::prefix("a").try_merge(C::prefix("b")).has_value());
}

// Exactness: the merged constraint accepts exactly the union.
TEST(ConstraintMerge, ExactnessSweep) {
  const auto zoo = constraint_zoo();
  const auto probes = probe_values();
  int merges = 0;
  for (const auto& a : zoo) {
    for (const auto& b : zoo) {
      auto m = a.try_merge(b);
      if (!m.has_value()) continue;
      ++merges;
      for (const auto& v : probes) {
        EXPECT_EQ(m->matches(v), a.matches(v) || b.matches(v))
            << "merge of " << a << " and " << b << " is inexact at " << v;
      }
    }
  }
  EXPECT_GT(merges, 20);
}

TEST(ConstraintPrint, ToStringForms) {
  EXPECT_EQ(C::any().to_string(), "*");
  EXPECT_EQ(C::eq(Value(3)).to_string(), "== 3");
  EXPECT_EQ(C::prefix("m").to_string(), "prefix \"m\"");
  EXPECT_EQ(C::range(Value(1), Value(2)).to_string(), "in [1, 2]");
  EXPECT_EQ(C::in_set({Value("a")}).to_string(), "in {\"a\"}");
}

}  // namespace
}  // namespace rebeca::filter
