/**
 * @file
 * Strict parsing of the tools' numeric command-line values.
 */

#pragma once

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <type_traits>

namespace rmb {
namespace common {

/**
 * Parse @p text, the value of @p flag, as an unsigned integer of the
 * flag's own type T: decimal digits only, the whole string, within
 * T's range.  Anything else (empty, a sign, trailing text, overflow)
 * is a usage error: "<tool>: <flag> expects an integer in [0, max],
 * got '<text>'" on stderr and exit 2, so a malformed value is never
 * run with and never aborts.
 */
template <typename T>
T
flagUint(const char *tool, const std::string &flag,
         const std::string &text)
{
    static_assert(std::is_unsigned_v<T>, "flagUint parses unsigned");
    T v = 0;
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || end != last) {
        std::cerr << tool << ": " << flag << " expects an integer in [0, "
                  << +std::numeric_limits<T>::max() << "], got '" << text
                  << "'\n";
        std::exit(2);
    }
    return v;
}

/**
 * Parse @p text, the value of @p flag, as a finite non-negative
 * number: the whole string, in decimal or exponent form.  Anything
 * else (empty, trailing text, a negative, inf or nan) is a usage
 * error: "<tool>: <flag> expects a non-negative number, got
 * '<text>'" on stderr and exit 2, so a malformed floor or tolerance
 * never reads as 0.
 */
inline double
flagDouble(const char *tool, const std::string &flag,
           const std::string &text)
{
    double v = 0.0;
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || end != last || !std::isfinite(v) ||
        v < 0.0) {
        std::cerr << tool << ": " << flag
                  << " expects a non-negative number, got '" << text
                  << "'\n";
        std::exit(2);
    }
    return v;
}

} // namespace common
} // namespace rmb
