// String concatenation by appending into one buffer.
//
// GCC 12 at -O2 reports a -Wrestrict false positive inside
// `"l" + std::to_string(i)` (operator+(const char*, string&&) inlines
// to an insert-at-0 whose memcpy bounds it cannot prove), and the
// -Werror build turns it into an error. str_cat("l", i) builds the same
// string by appending, which does not trip the warning.
#ifndef REBECA_UTIL_STR_CAT_HPP
#define REBECA_UTIL_STR_CAT_HPP

#include <string>
#include <type_traits>

namespace rebeca::util {

/// Concatenates `parts` in order. Integers (other than char) are written
/// in decimal; everything else is appended as a string or character.
template <typename... Parts>
std::string str_cat(const Parts&... parts) {
  std::string out;
  const auto append = [&out](const auto& part) {
    using T = std::decay_t<decltype(part)>;
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, char>) {
      out += std::to_string(part);
    } else {
      out += part;
    }
  };
  (append(parts), ...);
  return out;
}

}  // namespace rebeca::util

#endif  // REBECA_UTIL_STR_CAT_HPP
