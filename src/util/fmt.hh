/**
 * @file
 * Shortest-round-trip floating-point formatting shared by every sink
 * that emits f64 values as text: the CSV sinks, sonic_cat re-emission
 * and, through json::Writer (util/json.hh), every JSON artifact.
 * One formatter so "lossless" means the same thing everywhere: the
 * emitted digits are the fewest that parse back to the identical bit
 * pattern (std::to_chars general form), so CSV -> parse -> re-emit is
 * a fixed point. Header-only.
 */

#ifndef SONIC_UTIL_FMT_HH
#define SONIC_UTIL_FMT_HH

#include <charconv>
#include <string>

#include "util/types.hh"

namespace sonic
{

/**
 * Format a double with the minimal digit count that round-trips to the
 * exact same f64 (general format: fixed or scientific, whichever is
 * shorter). "86400" not "86400.000000000", "0.1" not
 * "0.100000000000000006".
 */
inline std::string
fmtF64(f64 value)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, value);
    return std::string(buf, res.ptr);
}

} // namespace sonic

#endif // SONIC_UTIL_FMT_HH
