// Operand helpers shared by the two routing indexes (match_index.cpp,
// cover_index.cpp): value classes, bound order, and the normalized
// equality-bucket key. Internal to src/routing/.
#ifndef REBECA_ROUTING_EQ_KEY_HPP
#define REBECA_ROUTING_EQ_KEY_HPP

#include <cstdint>
#include <string>
#include <string_view>

#include "src/filter/value.hpp"

namespace rebeca::routing::detail {

/// 0 numeric, 1 string, 2 bool.
inline int value_class(const filter::Value& v) {
  if (v.is_numeric()) return 0;
  if (v.is_string()) return 1;
  return 2;  // bool
}

/// Within one bound list every operand is of one ordered class, so the
/// comparison always decides.
inline bool bound_less(const filter::Value& a, const filter::Value& b) {
  return a.compare(b).value_or(0) < 0;
}

/// True when the value's normalized double equality key is lossless, so
/// key equality coincides with Value::equals.
inline bool eq_key_exact(const filter::Value& v) {
  constexpr std::int64_t kExactInt = std::int64_t{1} << 53;
  if (!v.is_int()) return true;
  const std::int64_t i = v.as_int();
  return i >= -kExactInt && i <= kExactInt;
}

/// Normalized equality-bucket key. Cross-type numeric equality
/// (1 == 1.0) must land int and double operands in the same bucket, so
/// numerics normalize to double; huge int64s can collide after the
/// double cast, so their postings keep the operand and re-verify with
/// Value::equals on probe.
struct EqKey {
  int cls = 0;  // value_class
  double num = 0;
  std::string str;
  bool b = false;
};

inline EqKey eq_key_of(const filter::Value& v) {
  EqKey k;
  k.cls = value_class(v);
  switch (k.cls) {
    case 0: k.num = *v.numeric(); break;
    case 1: k.str = v.as_string(); break;
    default: k.b = v.as_bool(); break;
  }
  return k;
}

/// Orders EqKey and any key-shaped probe (fields cls/num/str/b, `str`
/// convertible to string_view) against each other.
struct EqKeyLess {
  using is_transparent = void;

  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    if (a.cls != b.cls) return a.cls < b.cls;
    switch (a.cls) {
      case 0: return a.num < b.num;
      case 1: return std::string_view(a.str) < std::string_view(b.str);
      default: return a.b < b.b;
    }
  }
};

}  // namespace rebeca::routing::detail

#endif  // REBECA_ROUTING_EQ_KEY_HPP
