// XML serialization: Node tree → text, with escaping.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "xml/node.h"

namespace obiswap::xml {

struct WriteOptions {
  /// Indent children by two spaces per depth level; text nodes inline.
  bool pretty = false;
  /// Prepend `<?xml version="1.0" encoding="UTF-8"?>`.
  bool declaration = false;
};

/// Escapes `text` for use inside element content (&, <, >).
std::string EscapeText(std::string_view text);

/// Escapes `text` for use inside a double-quoted attribute value.
std::string EscapeAttr(std::string_view text);

/// Append form of EscapeText, for code that writes a document straight
/// into one string: `out` grows at most once per call.
void AppendEscapedText(std::string* out, std::string_view text);

/// Appends ` name="value"` as Write writes an attribute: the value escaped,
/// or an integer in decimal as Node::SetIntAttr stores it.
void AppendAttr(std::string* out, std::string_view name,
                std::string_view value);
void AppendIntAttr(std::string* out, std::string_view name, int64_t value);

/// Serializes the node tree. Text nodes are escaped; attribute order and
/// child order are preserved, so Write(Parse(Write(n))) is stable.
std::string Write(const Node& node, const WriteOptions& options = {});

}  // namespace obiswap::xml
