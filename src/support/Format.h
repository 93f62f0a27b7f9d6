//===- support/Format.h - String formatting helpers ----------------------===//
//
// printf-style formatting into std::string, human-readable number
// rendering used by the bench harnesses when regenerating paper tables,
// and the strict number and list parsers of the command-line tools.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_SUPPORT_FORMAT_H
#define JRPM_SUPPORT_FORMAT_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace jrpm {

/// Formats like printf but returns a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Renders \p Value with thousands separators, e.g. 98304K style when
/// \p Kilo is true (divide by 1000 and suffix 'K' as the paper's Table 5).
std::string withCommas(std::int64_t Value);

/// Renders a ratio as a fixed-point percentage string, e.g. "84.91%".
std::string asPercent(double Ratio, int Decimals = 2);

/// Renders a cycle count the way the paper prints Table 3 ("18941K").
std::string asKiloCycles(std::uint64_t Cycles);

/// Strict unsigned decimal: one or more digits, no sign, no whitespace,
/// no trailing junk, value at most \p Max. Sets \p Out and returns true
/// on success; leaves \p Out untouched otherwise.
bool parseUnsigned(std::string_view Str, std::uint64_t Max,
                   std::uint64_t &Out);

/// Splits a comma-separated CLI list ("a,b,c"), dropping empty items.
std::vector<std::string> splitCommas(std::string_view Str);

} // namespace jrpm

#endif // JRPM_SUPPORT_FORMAT_H
