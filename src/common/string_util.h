// Small string helpers shared across modules (no locale dependence).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace obiswap {

/// Splits on `sep`, keeping empty pieces ("a,,b" → {"a","","b"}).
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view StrTrim(std::string_view text);

bool StrStartsWith(std::string_view text, std::string_view prefix);
bool StrEndsWith(std::string_view text, std::string_view suffix);

/// Parses a signed decimal integer; whole string must match.
Result<int64_t> ParseInt64(std::string_view text);

/// Parses a double; whole string must match.
Result<double> ParseDouble(std::string_view text);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Human-readable byte count ("1.5 KiB").
std::string FormatBytes(uint64_t bytes);

/// A table keyed by name with transparent hashing: a lookup by
/// std::string_view builds no string.
struct NameHash {
  using is_transparent = void;
  size_t operator()(std::string_view name) const {
    return std::hash<std::string_view>()(name);
  }
};
template <typename V>
using NameMap = std::unordered_map<std::string, V, NameHash, std::equal_to<>>;

}  // namespace obiswap
