/**
 * @file
 * String utility implementations.
 */

#include "util/str.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/logging.hh"

namespace mprobe
{

std::string
trim(const std::string &s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == delim) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::vector<std::string>
splitWs(const std::string &s)
{
    std::vector<std::string> out;
    size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
        size_t start = i;
        while (i < s.size() &&
               !std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
        if (i > start)
            out.push_back(s.substr(start, i - start));
    }
    return out;
}

std::string
toLower(const std::string &s)
{
    std::string out = s;
    for (auto &c : out)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return out;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

long
parseInt(const std::string &s, const std::string &context)
{
    char *end = nullptr;
    std::string t = trim(s);
    errno = 0;
    long v = std::strtol(t.c_str(), &end, 0);
    if (t.empty() || end == nullptr || *end != '\0')
        fatal(cat("expected integer, got '", s, "' in ", context));
    // strtol clamps an out-of-range value to LONG_MIN or LONG_MAX.
    if (errno == ERANGE)
        fatal(cat("integer '", t, "' out of range in ", context));
    return v;
}

uint64_t
parseUint64(const std::string &s, const std::string &context)
{
    char *end = nullptr;
    std::string t = trim(s);
    errno = 0;
    unsigned long long v = std::strtoull(t.c_str(), &end, 0);
    if (t.empty() || end == nullptr || *end != '\0')
        fatal(cat("expected integer, got '", s, "' in ", context));
    // strtoull negates a '-' value modulo 2^64, which is the two's
    // complement only down to -2^63.
    const bool negative = t[0] == '-';
    if (errno == ERANGE || (negative && v != 0 && v < (1ull << 63)))
        fatal(cat("integer '", t, "' out of range in ", context));
    return v;
}

double
parseDouble(const std::string &s, const std::string &context)
{
    char *end = nullptr;
    std::string t = trim(s);
    errno = 0;
    double v = std::strtod(t.c_str(), &end);
    if (t.empty() || end == nullptr || *end != '\0')
        fatal(cat("expected number, got '", s, "' in ", context));
    // A NaN passes every range check written as a comparison, so
    // no caller could refuse it.
    if (!std::isfinite(v) || errno == ERANGE)
        fatal(cat("expected a finite number in range, got '", s,
                  "' in ", context));
    return v;
}

} // namespace mprobe
