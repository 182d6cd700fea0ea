/**
 * @file
 * Small string utilities used by the definition-file parsers.
 */

#ifndef UTIL_STR_HH
#define UTIL_STR_HH

#include <cstdint>
#include <string>
#include <vector>

namespace mprobe
{

/** Strip leading and trailing whitespace. */
std::string trim(const std::string &s);

/** Split on a delimiter character; empty fields are preserved. */
std::vector<std::string> split(const std::string &s, char delim);

/** Split on arbitrary whitespace; empty fields are dropped. */
std::vector<std::string> splitWs(const std::string &s);

/** Lower-case an ASCII string. */
std::string toLower(const std::string &s);

/** True when @p s starts with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/**
 * Parse an integer (decimal, or 0x / 0 prefixed); calls fatal()
 * with @p context on trailing text or a value outside long's range,
 * so definition-file errors point at the offending field.
 */
long parseInt(const std::string &s, const std::string &context);

/**
 * Parse a 64-bit seed or salt like parseInt: every value in
 * [0, 2^64) is accepted, and a leading '-' gives the two's
 * complement of a value in [-2^63, 0), so "-1" is
 * 0xffffffffffffffff. fatal() with @p context on trailing text or
 * a value outside both ranges.
 */
uint64_t parseUint64(const std::string &s, const std::string &context);

/**
 * Parse a floating point number; fatal() with @p context on
 * failure, NaN, infinity or a value outside double's range.
 */
double parseDouble(const std::string &s, const std::string &context);

} // namespace mprobe

#endif // UTIL_STR_HH
