// XML serialization: writers append a document's text straight into one
// string, escaping as they go. There is no document tree to build first:
// a writer emits `<name`, its attributes through AppendAttr and
// AppendIntAttr, then `/>` or `>`, its children and `</name>`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace obiswap::xml {

/// Escapes `text` for use inside element content (&, <, >).
std::string EscapeText(std::string_view text);

/// Escapes `text` for use inside a double-quoted attribute value.
std::string EscapeAttr(std::string_view text);

/// Append form of EscapeText, for code that writes a document straight
/// into one string: `out` grows at most once per call.
void AppendEscapedText(std::string* out, std::string_view text);

/// Appends ` name="value"`: the value escaped, or an integer in decimal.
void AppendAttr(std::string* out, std::string_view name,
                std::string_view value);
void AppendIntAttr(std::string* out, std::string_view name, int64_t value);

}  // namespace obiswap::xml
