#include "src/filter/constraint.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/util/assert.hpp"

namespace rebeca::filter {

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         std::equal(prefix.begin(), prefix.end(), s.begin());
}

// Smallest string strictly greater than every string with prefix `p`
// (increment the last incrementable byte). nullopt if p is all 0xFF —
// then no such bound exists and prefix-related covering stays
// conservative.
std::optional<std::string> next_prefix(const std::string& p) {
  std::string q = p;
  for (auto it = q.rbegin(); it != q.rend(); ++it) {
    auto c = static_cast<unsigned char>(*it);
    if (c != 0xFF) {
      *it = static_cast<char>(c + 1);
      q.erase(q.size() - static_cast<std::size_t>(it - q.rbegin()));
      return q;
    }
  }
  return std::nullopt;
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::any: return "any";
    case Op::eq: return "==";
    case Op::ne: return "!=";
    case Op::lt: return "<";
    case Op::le: return "<=";
    case Op::gt: return ">";
    case Op::ge: return ">=";
    case Op::in_set: return "in";
    case Op::prefix: return "prefix";
    case Op::range: return "range";
  }
  return "?";
}

Constraint Constraint::any() { return {Op::any, Value{}, Value{}, {}}; }
Constraint Constraint::eq(Value v) { return {Op::eq, std::move(v), Value{}, {}}; }
Constraint Constraint::ne(Value v) { return {Op::ne, std::move(v), Value{}, {}}; }
Constraint Constraint::lt(Value v) { return {Op::lt, std::move(v), Value{}, {}}; }
Constraint Constraint::le(Value v) { return {Op::le, std::move(v), Value{}, {}}; }
Constraint Constraint::gt(Value v) { return {Op::gt, std::move(v), Value{}, {}}; }
Constraint Constraint::ge(Value v) { return {Op::ge, std::move(v), Value{}, {}}; }

Constraint Constraint::in_set(std::set<Value> values) {
  Constraint c{Op::in_set, Value{}, Value{}, std::move(values)};
  c.nan_member_ = std::any_of(c.values_.begin(), c.values_.end(),
                              [](const Value& m) { return m.is_nan(); });
  return c;
}

Constraint Constraint::prefix(std::string p) {
  return {Op::prefix, Value(std::move(p)), Value{}, {}};
}

Constraint Constraint::range(Value lo, Value hi) {
  REBECA_ASSERT(lo.compare(hi).value_or(1) <= 0,
                "range bounds inverted: " << lo << ".." << hi);
  return {Op::range, std::move(lo), std::move(hi), {}};
}

bool Constraint::matches(const Value& v) const {
  switch (op_) {
    case Op::any:
      return true;
    case Op::eq:
      return v.equals(operand_);
    case Op::ne:
      return !v.equals(operand_);
    case Op::lt: {
      auto c = v.compare(operand_);
      return c.has_value() && *c < 0;
    }
    case Op::le: {
      auto c = v.compare(operand_);
      return c.has_value() && *c <= 0;
    }
    case Op::gt: {
      auto c = v.compare(operand_);
      return c.has_value() && *c > 0;
    }
    case Op::ge: {
      auto c = v.compare(operand_);
      return c.has_value() && *c >= 0;
    }
    case Op::in_set:
      return in_set_contains(v);
    case Op::prefix:
      return v.is_string() && starts_with(v.as_string(), operand_.as_string());
    case Op::range: {
      auto lo = v.compare(operand_);
      auto hi = v.compare(hi_);
      return lo.has_value() && hi.has_value() && *lo >= 0 && *hi <= 0;
    }
  }
  return false;
}

bool Constraint::in_set_contains(const Value& v) const {
  // The set's structural order (type, then value) is exact equality
  // within strings and within bools, which never equal another type.
  if (!v.is_numeric()) return values_.count(v) != 0;

  // Numbers are equal across int and double (1 == 1.0), so probe both
  // twins. That is exact unless a NaN is involved (it compares equal to
  // every number) or a double probe sits at or past 2^53, where several
  // int64s round onto it; those scan the members.
  constexpr double kExactInt = 9007199254740992.0;  // 2^53
  const auto scan = [&] {
    return std::any_of(values_.begin(), values_.end(),
                       [&](const Value& m) { return m.equals(v); });
  };
  if (nan_member_) return scan();
  if (v.is_int()) {
    const std::int64_t i = v.as_int();
    return values_.count(Value(i)) != 0 ||
           values_.count(Value(static_cast<double>(i))) != 0;
  }
  const double d = v.as_double();
  if (std::isnan(d) || std::fabs(d) >= kExactInt) return scan();
  if (values_.count(Value(d)) != 0) return true;
  return std::trunc(d) == d &&
         values_.count(Value(static_cast<std::int64_t>(d))) != 0;
}

std::optional<Constraint::Interval> Constraint::as_interval() const {
  switch (op_) {
    case Op::eq:
      return Interval{operand_, operand_, false, false};
    case Op::lt:
      return Interval{std::nullopt, operand_, false, true};
    case Op::le:
      return Interval{std::nullopt, operand_, false, false};
    case Op::gt:
      return Interval{operand_, std::nullopt, true, false};
    case Op::ge:
      return Interval{operand_, std::nullopt, false, false};
    case Op::range:
      return Interval{operand_, hi_, false, false};
    default:
      return std::nullopt;
  }
}

bool Constraint::interval_covers(const Interval& outer, const Constraint& inner) const {
  auto ii = inner.as_interval();
  if (!ii) return false;
  // Lower bound: outer.lo must be <= inner.lo (with strictness respected).
  if (outer.lo.has_value()) {
    if (!ii->lo.has_value()) return false;
    auto c = ii->lo->compare(*outer.lo);
    if (!c.has_value() || *c < 0) return false;
    if (*c == 0 && outer.lo_strict && !ii->lo_strict) return false;
  }
  // Upper bound: inner.hi must be <= outer.hi.
  if (outer.hi.has_value()) {
    if (!ii->hi.has_value()) return false;
    auto c = ii->hi->compare(*outer.hi);
    if (!c.has_value() || *c > 0) return false;
    if (*c == 0 && outer.hi_strict && !ii->hi_strict) return false;
  }
  return true;
}

bool Constraint::covers(const Constraint& other) const {
  if (op_ == Op::any) return true;
  if (other.op_ == Op::any) return false;

  // Inner constraints with an exactly enumerable witness set: covered iff
  // every witness matches the outer constraint. (eq v also accepts values
  // numerically equal to v, e.g. 5 vs 5.0 — all our ops decide such pairs
  // identically, so one witness suffices.)
  if (other.op_ == Op::eq) return matches(other.operand_);
  if (other.op_ == Op::in_set) {
    return !other.values_.empty() &&
           std::all_of(other.values_.begin(), other.values_.end(),
                       [&](const Value& m) { return matches(m); });
  }
  // Degenerate range [a,a] behaves like eq a.
  if (other.op_ == Op::range && other.operand_.equals(other.hi_)) {
    return matches(other.operand_);
  }

  switch (op_) {
    case Op::ne:
      // ne v covers `other` iff `other` never accepts v — and matches()
      // is exact, so ask it.
      return !other.matches(operand_);

    case Op::lt:
    case Op::le:
    case Op::gt:
    case Op::ge:
    case Op::range: {
      if (other.op_ == Op::prefix) {
        // Strings with prefix p span [p, next_prefix(p)).
        const std::string& p = other.operand_.as_string();
        const Value pv(p);
        auto np = next_prefix(p);
        switch (op_) {
          case Op::lt:
          case Op::le:
            return np.has_value() && operand_.is_string() &&
                   Value(*np).compare(operand_).value_or(1) <= 0;
          case Op::gt:
            return operand_.is_string() &&
                   pv.compare(operand_).value_or(-1) > 0;
          case Op::ge:
            return operand_.is_string() &&
                   pv.compare(operand_).value_or(-1) >= 0;
          case Op::range:
            return np.has_value() && operand_.is_string() && hi_.is_string() &&
                   pv.compare(operand_).value_or(-1) >= 0 &&
                   Value(*np).compare(hi_).value_or(1) <= 0;
          default:
            return false;
        }
      }
      auto oi = as_interval();
      REBECA_CHECK(oi.has_value());
      return interval_covers(*oi, other);
    }

    case Op::prefix: {
      const std::string& p = operand_.as_string();
      if (other.op_ == Op::prefix) return starts_with(other.operand_.as_string(), p);
      if (other.op_ == Op::range) {
        return other.operand_.is_string() && other.hi_.is_string() &&
               starts_with(other.operand_.as_string(), p) &&
               starts_with(other.hi_.as_string(), p);
      }
      return false;
    }

    case Op::eq:
    case Op::in_set:
      // Non-witness inners (intervals, prefixes, ne) accept sets larger
      // than any finite witness set.
      return false;

    case Op::any:
    default:
      return false;
  }
}

bool Constraint::overlaps(const Constraint& other) const {
  if (op_ == Op::any || other.op_ == Op::any) return true;

  // Witness-exact sides decide overlap exactly.
  if (op_ == Op::eq) return other.matches(operand_);
  if (other.op_ == Op::eq) return matches(other.operand_);
  if (op_ == Op::in_set) {
    return std::any_of(values_.begin(), values_.end(),
                       [&](const Value& m) { return other.matches(m); });
  }
  if (other.op_ == Op::in_set) {
    return std::any_of(other.values_.begin(), other.values_.end(),
                       [&](const Value& m) { return matches(m); });
  }

  // ne is disjoint only from constraints accepting exactly its excluded
  // value — all such inners are witness-exact and already handled.
  if (op_ == Op::ne || other.op_ == Op::ne) return true;

  // prefix vs prefix: disjoint unless nested.
  if (op_ == Op::prefix && other.op_ == Op::prefix) {
    return starts_with(operand_.as_string(), other.operand_.as_string()) ||
           starts_with(other.operand_.as_string(), operand_.as_string());
  }

  // prefix vs ordered: approximate the prefix as the interval
  // [p, next_prefix(p)) and fall through to interval intersection.
  auto interval_of = [](const Constraint& c) -> std::optional<Interval> {
    if (c.op_ == Op::prefix) {
      const std::string& p = c.operand_.as_string();
      auto np = next_prefix(p);
      Interval iv;
      iv.lo = Value(p);
      iv.lo_strict = false;
      if (np) {
        iv.hi = Value(*np);
        iv.hi_strict = true;
      }
      return iv;
    }
    return c.as_interval();
  };

  auto a = interval_of(*this);
  auto b = interval_of(other);
  if (a && b) {
    // Disjoint iff one interval ends before the other begins. Bounds of
    // incomparable types mean disjoint value domains.
    auto ends_before = [](const Interval& x, const Interval& y) {
      if (!x.hi.has_value() || !y.lo.has_value()) return false;
      auto c = x.hi->compare(*y.lo);
      if (!c.has_value()) return true;  // incomparable domains
      if (*c < 0) return true;
      if (*c == 0) return x.hi_strict || y.lo_strict;
      return false;
    };
    return !ends_before(*a, *b) && !ends_before(*b, *a);
  }
  return true;  // conservative
}

std::optional<Constraint> Constraint::try_merge(const Constraint& other) const {
  if (covers(other)) return *this;
  if (other.covers(*this)) return other;

  // Witness unions.
  auto witness_set = [](const Constraint& c) -> std::optional<std::set<Value>> {
    if (c.op_ == Op::eq) return std::set<Value>{c.operand_};
    if (c.op_ == Op::in_set) return c.values_;
    if (c.op_ == Op::range && c.operand_.equals(c.hi_))
      return std::set<Value>{c.operand_};
    return std::nullopt;
  };
  auto wa = witness_set(*this);
  auto wb = witness_set(other);
  if (wa && wb) {
    std::set<Value> merged = *wa;
    merged.insert(wb->begin(), wb->end());
    return Constraint::in_set(std::move(merged));
  }

  // Overlapping ranges merge to their hull (exact union when they
  // intersect; disjoint ranges are not mergeable into one range).
  if (op_ == Op::range && other.op_ == Op::range && overlaps(other)) {
    const Value& lo = operand_.compare(other.operand_).value_or(1) <= 0
                          ? operand_
                          : other.operand_;
    const Value& hi = hi_.compare(other.hi_).value_or(-1) >= 0 ? hi_ : other.hi_;
    return Constraint::range(lo, hi);
  }

  return std::nullopt;
}

bool operator<(const Constraint& a, const Constraint& b) {
  if (a.op_ != b.op_) return a.op_ < b.op_;
  if (!(a.operand_ == b.operand_)) return a.operand_ < b.operand_;
  if (!(a.hi_ == b.hi_)) return a.hi_ < b.hi_;
  return a.values_ < b.values_;
}

std::string Constraint::to_string() const {
  std::ostringstream os;
  switch (op_) {
    case Op::any:
      os << "*";
      break;
    case Op::in_set: {
      os << "in {";
      bool first = true;
      for (const auto& v : values_) {
        if (!first) os << ", ";
        os << v;
        first = false;
      }
      os << "}";
      break;
    }
    case Op::range:
      os << "in [" << operand_ << ", " << hi_ << "]";
      break;
    case Op::prefix:
      os << "prefix " << operand_;
      break;
    default:
      os << op_name(op_) << " " << operand_;
      break;
  }
  return os.str();
}

}  // namespace rebeca::filter
