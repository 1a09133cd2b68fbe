// Typed attribute values for the name/value-pair data model (paper
// Sec. 2.1: "the typically used name/value-pairs data model").
//
// Values are a closed variant over the types subscriptions constrain:
// integers, reals, strings and booleans. Numeric comparison is
// cross-type (an int64 compares numerically against a double), because a
// subscription (cost < 3) must match a notification (cost = 2.5).
#ifndef REBECA_FILTER_VALUE_HPP
#define REBECA_FILTER_VALUE_HPP

#include <cmath>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <variant>

namespace rebeca::filter {

class Value {
 public:
  using Storage = std::variant<std::int64_t, double, std::string, bool>;

  Value() : storage_(std::int64_t{0}) {}
  Value(std::int64_t v) : storage_(v) {}            // NOLINT(google-explicit-constructor)
  Value(int v) : storage_(std::int64_t{v}) {}       // NOLINT(google-explicit-constructor)
  Value(double v) : storage_(v) {}                  // NOLINT(google-explicit-constructor)
  Value(std::string v) : storage_(std::move(v)) {}  // NOLINT(google-explicit-constructor)
  Value(const char* v) : storage_(std::string(v)) {}  // NOLINT(google-explicit-constructor)
  Value(bool v) : storage_(v) {}                    // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool is_int() const { return std::holds_alternative<std::int64_t>(storage_); }
  [[nodiscard]] bool is_double() const { return std::holds_alternative<double>(storage_); }
  [[nodiscard]] bool is_numeric() const { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(storage_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(storage_); }
  /// A NaN double: it compares equal to every number (see compare()).
  [[nodiscard]] bool is_nan() const { return is_double() && std::isnan(as_double()); }

  [[nodiscard]] std::int64_t as_int() const { return std::get<std::int64_t>(storage_); }
  [[nodiscard]] double as_double() const { return std::get<double>(storage_); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(storage_); }
  [[nodiscard]] bool as_bool() const { return std::get<bool>(storage_); }

  /// Numeric view (int promoted to double); nullopt for non-numerics.
  [[nodiscard]] std::optional<double> numeric() const {
    if (is_int()) return static_cast<double>(as_int());
    if (is_double()) return as_double();
    return std::nullopt;
  }

  /// Three-way comparison across comparable types. Returns nullopt for
  /// incomparable type pairs (string vs. number, bool vs. number):
  /// constraints over incomparable values simply do not match.
  [[nodiscard]] std::optional<int> compare(const Value& other) const;

  /// Strict equality: comparable types with equal value (1 == 1.0).
  [[nodiscard]] bool equals(const Value& other) const {
    auto c = compare(other);
    return c.has_value() && *c == 0;
  }

  /// Structural equality and ordering: exact type then value. Used for
  /// canonical containers (set<Value>), NOT for match semantics.
  friend bool operator==(const Value& a, const Value& b) { return a.storage_ == b.storage_; }
  friend bool operator<(const Value& a, const Value& b) { return a.storage_ < b.storage_; }

  [[nodiscard]] std::string to_string() const;

  friend std::ostream& operator<<(std::ostream& os, const Value& v) {
    return os << v.to_string();
  }

 private:
  Storage storage_;
};

}  // namespace rebeca::filter

#endif  // REBECA_FILTER_VALUE_HPP
