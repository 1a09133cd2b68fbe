// Attribute constraints: the atoms of content-based subscription filters.
//
// A constraint restricts a single named attribute (paper Sec. 2.1,
// subscriptions like (cost < "3 EURO"), (location ∈ myloc)). The three
// relations routing needs are implemented here:
//
//   matches(v)   — does value v satisfy the constraint?
//   covers(c)    — does this constraint accept a superset of values of c?
//                  (exact where decidable; never true when false)
//   overlaps(c)  — may both accept a common value? (conservative: true
//                  unless provably disjoint — safe for routing)
//   try_merge(c) — exact union if representable as one constraint
//                  ("perfect merging", Mühl [19])
//
// covers() is the basis of covering routing (paper Sec. 2.2); try_merge
// is the basis of merging routing.
#ifndef REBECA_FILTER_CONSTRAINT_HPP
#define REBECA_FILTER_CONSTRAINT_HPP

#include <optional>
#include <ostream>
#include <set>
#include <string>

#include "src/filter/value.hpp"

namespace rebeca::filter {

enum class Op {
  any,     // attribute must exist; any value
  eq,      // == operand
  ne,      // != operand
  lt,      // <  operand
  le,      // <= operand
  gt,      // >  operand
  ge,      // >= operand
  in_set,  // value ∈ operand set
  prefix,  // string value starts with operand string
  range,   // lo <= value <= hi (both inclusive)
};

const char* op_name(Op op);

class Constraint {
 public:
  /// Constructors are named to keep operand arity honest.
  static Constraint any();
  static Constraint eq(Value v);
  static Constraint ne(Value v);
  static Constraint lt(Value v);
  static Constraint le(Value v);
  static Constraint gt(Value v);
  static Constraint ge(Value v);
  static Constraint in_set(std::set<Value> values);
  static Constraint prefix(std::string p);
  static Constraint range(Value lo, Value hi);

  [[nodiscard]] Op op() const { return op_; }
  [[nodiscard]] const Value& operand() const { return operand_; }
  [[nodiscard]] const Value& hi() const { return hi_; }
  [[nodiscard]] const std::set<Value>& values() const { return values_; }

  [[nodiscard]] bool matches(const Value& v) const;
  [[nodiscard]] bool covers(const Constraint& other) const;
  [[nodiscard]] bool overlaps(const Constraint& other) const;
  [[nodiscard]] std::optional<Constraint> try_merge(const Constraint& other) const;

  /// Structural identity (same op and operands) — used to key routing
  /// tables; distinct from semantic equivalence.
  friend bool operator==(const Constraint& a, const Constraint& b) {
    return a.op_ == b.op_ && a.operand_ == b.operand_ && a.hi_ == b.hi_ &&
           a.values_ == b.values_;
  }
  friend bool operator<(const Constraint& a, const Constraint& b);

  [[nodiscard]] std::string to_string() const;
  friend std::ostream& operator<<(std::ostream& os, const Constraint& c) {
    return os << c.to_string();
  }

 private:
  Constraint(Op op, Value operand, Value hi, std::set<Value> values)
      : op_(op), operand_(std::move(operand)), hi_(std::move(hi)),
        values_(std::move(values)) {}

  /// in_set membership by Value::equals, in O(log n) wherever a set
  /// lookup decides it exactly.
  [[nodiscard]] bool in_set_contains(const Value& v) const;

  // Bounds of the accepted value interval for ordered ops; used by the
  // covering decision procedure. nullopt where not interval-shaped.
  struct Interval {
    std::optional<Value> lo, hi;  // nullopt = unbounded
    bool lo_strict = false, hi_strict = false;
  };
  [[nodiscard]] std::optional<Interval> as_interval() const;
  [[nodiscard]] bool interval_covers(const Interval& outer, const Constraint& inner) const;

  Op op_;
  bool nan_member_ = false;  // in_set holds a NaN (equal to every number)
  Value operand_;          // eq/ne/lt/le/gt/ge operand; range lo; prefix string
  Value hi_;               // range hi
  std::set<Value> values_; // in_set members
};

}  // namespace rebeca::filter

#endif  // REBECA_FILTER_CONSTRAINT_HPP
