#ifndef RMA_UTIL_STRING_UTIL_H_
#define RMA_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace rma {

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` on `sep` (no trimming; empty fields preserved).
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading/trailing whitespace.
std::string Trim(std::string_view s);

/// ASCII lower-casing (SQL keywords are case-insensitive).
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

/// Case-insensitive equality for ASCII strings.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Parses all of `v` as a base-10 integer in [lo, hi]. Garbage, trailing
/// characters, overflow and values outside the range are Invalid: never
/// narrowed, wrapped or read as 0.
Result<int64_t> ParseInt(const std::string& v,
                         int64_t lo = std::numeric_limits<int64_t>::min(),
                         int64_t hi = std::numeric_limits<int64_t>::max());

/// ParseInt into an integer of type `T`; [lo, hi] must lie within T, so
/// the cast is exact. On error `*out` is left as it was.
template <typename T>
Status ParseInt(const std::string& v, int64_t lo, int64_t hi, T* out) {
  RMA_ASSIGN_OR_RETURN(const int64_t parsed, ParseInt(v, lo, hi));
  *out = static_cast<T>(parsed);
  return Status::OK();
}

/// Formats a double the way column names derived from values are printed:
/// integral values render without a decimal point ("7"), others compactly
/// ("7.25"). Used by the column cast (▽U) when order values are numeric.
std::string FormatDouble(double v);

}  // namespace rma

#endif  // RMA_UTIL_STRING_UTIL_H_
