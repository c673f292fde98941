// Copyright (c) prefrep contributors.
// Small string helpers used by parsers, printers and error messages.

#ifndef PREFREP_BASE_STRING_UTIL_H_
#define PREFREP_BASE_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace prefrep {

/// Removes leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view s);

/// Splits `s` on `sep` and strips whitespace from each piece; empty pieces
/// are dropped.
std::vector<std::string> StrSplitTrimmed(std::string_view s, char sep);

/// StrSplitTrimmed into views of `s`: `*out` is cleared and refilled, so
/// a caller reusing one vector allocates only while it grows.
void StrSplitTrimmedViews(std::string_view s, char sep,
                          std::vector<std::string_view>* out);

/// Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// Returns true if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses a non-negative decimal integer; nullopt on any non-digit content.
std::optional<uint64_t> ParseUint(std::string_view s);

/// printf-style formatting into std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace prefrep

#endif  // PREFREP_BASE_STRING_UTIL_H_
