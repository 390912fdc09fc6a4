/**
 * @file
 * Whole-value numeric parsing for command-line flags and environment
 * variables. The text must be one number of the target type and
 * nothing else, inside the caller's range: "1000k", "5x", "-1" for an
 * unsigned, or "70000" for a port is an error, never a parsed prefix
 * or a wrapped value.
 */

#ifndef ECDP_MEMSIM_PARSE_NUMBER_HH
#define ECDP_MEMSIM_PARSE_NUMBER_HH

#include <charconv>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace ecdp
{

/** True when all of @p text is one T in [@p lo, @p hi]. */
template <typename T>
bool
parsesWhole(const std::string &text, T lo, T hi, T &value)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    // The negated form of the range test also rejects a parsed NaN.
    return !text.empty() && ec == std::errc{} && ptr == end &&
           lo <= value && value <= hi;
}

/**
 * @p text parsed whole as a T in [@p lo, @p hi]. Throws
 * std::invalid_argument naming @p what (a flag or variable name) and
 * the range otherwise.
 */
template <typename T>
T
parseNumber(const std::string &what, const std::string &text, T lo, T hi)
{
    T value{};
    if (!parsesWhole(text, lo, hi, value)) {
        throw std::invalid_argument(
            what + " needs a number in [" + std::to_string(lo) + ", " +
            std::to_string(hi) + "] (got '" + text + "')");
    }
    return value;
}

/** parseNumber() over T's whole range: the text must be one T. */
template <typename T>
T
parseNumber(const std::string &what, const std::string &text)
{
    T value{};
    if (!parsesWhole(text, std::numeric_limits<T>::lowest(),
                     std::numeric_limits<T>::max(), value)) {
        std::string kind = "a number";
        if constexpr (std::is_unsigned_v<T>)
            kind = "a whole number >= 0";
        else if constexpr (std::is_integral_v<T>)
            kind = "a whole number";
        throw std::invalid_argument(what + " needs " + kind +
                                    " (got '" + text + "')");
    }
    return value;
}

} // namespace ecdp

#endif // ECDP_MEMSIM_PARSE_NUMBER_HH
