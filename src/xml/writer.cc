#include "xml/writer.h"

#include <array>
#include <cstring>

namespace obiswap::xml {

namespace {

/// How many bytes each input byte takes once escaped, for element text and
/// for attribute values; 1 means it is copied as it is. Markup (&, <, >;
/// in attributes also both quotes) becomes an entity. Control bytes
/// 0x00–0x1F and 0x7F go out as numeric character references: raw they
/// would either be eaten by whitespace-agnostic parsing (\r, \t) or make
/// the document unparseable (\x00), so a string slot holding them would not
/// survive write→parse. The parser decodes &#xNN; below 0x80 to the single
/// raw byte, so every byte value round-trips exactly. Bytes ≥ 0x80 stay raw
/// — the parser would re-encode a numeric reference for them as multi-byte
/// UTF-8, which is NOT byte-identity.
constexpr std::array<unsigned char, 256> BuildEscapedLengths(bool attr) {
  std::array<unsigned char, 256> lengths{};
  for (int c = 0; c < 256; ++c) lengths[c] = 1;
  for (int c = 0; c < 0x20; ++c) lengths[c] = c < 0x10 ? 5 : 6;  // &#xN;
  lengths[0x7F] = 6;                                               // &#x7F;
  lengths['&'] = 5;                                                // &amp;
  lengths['<'] = 4;                                                // &lt;
  lengths['>'] = 4;                                                // &gt;
  if (attr) {
    lengths['"'] = 6;   // &quot;
    lengths['\''] = 6;  // &apos;
  }
  return lengths;
}

constexpr std::array<unsigned char, 256> kTextLengths =
    BuildEscapedLengths(/*attr=*/false);
constexpr std::array<unsigned char, 256> kAttrLengths =
    BuildEscapedLengths(/*attr=*/true);

char* WriteEntity(char* out, std::string_view entity) {
  std::memcpy(out, entity.data(), entity.size());
  return out + entity.size();
}

/// Writes the escaped form of `c`, a byte whose escaped length exceeds 1.
char* WriteEscape(char* out, unsigned char c) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  switch (c) {
    case '&':
      return WriteEntity(out, "&amp;");
    case '<':
      return WriteEntity(out, "&lt;");
    case '>':
      return WriteEntity(out, "&gt;");
    case '"':
      return WriteEntity(out, "&quot;");
    case '\'':
      return WriteEntity(out, "&apos;");
    default:
      out = WriteEntity(out, "&#x");
      if (c >= 0x10) *out++ = kHex[c >> 4];
      *out++ = kHex[c & 0xF];
      *out++ = ';';
      return out;
  }
}

/// Appends `text` escaped. One pass sizes the output, so `out` grows once;
/// the second copies plain bytes and writes each escape in place.
void AppendEscaped(std::string* out, std::string_view text, bool attr) {
  const std::array<unsigned char, 256>& lengths =
      attr ? kAttrLengths : kTextLengths;
  size_t escaped_size = 0;
  for (char c : text) escaped_size += lengths[static_cast<unsigned char>(c)];
  if (escaped_size == text.size()) {
    out->append(text);
    return;
  }
  const size_t base = out->size();
  out->resize(base + escaped_size);
  char* dst = out->data() + base;
  for (char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (lengths[byte] == 1) {
      *dst++ = c;
    } else {
      dst = WriteEscape(dst, byte);
    }
  }
}

void WriteNode(const Node& node, const WriteOptions& options, int depth,
               std::string* out) {
  if (node.is_text()) {
    AppendEscaped(out, node.text(), /*attr=*/false);
    return;
  }
  auto indent = [&](int d) {
    if (options.pretty) out->append(static_cast<size_t>(d) * 2, ' ');
  };
  indent(depth);
  *out += '<';
  *out += node.name();
  for (const Attr& attr : node.attrs()) {
    *out += ' ';
    *out += attr.name;
    *out += "=\"";
    AppendEscaped(out, attr.value, /*attr=*/true);
    *out += '"';
  }
  if (node.children().empty()) {
    *out += "/>";
    if (options.pretty) *out += '\n';
    return;
  }
  *out += '>';
  bool has_element_children = false;
  for (const auto& child : node.children()) {
    if (!child->is_text()) has_element_children = true;
  }
  if (options.pretty && has_element_children) *out += '\n';
  for (const auto& child : node.children()) {
    WriteNode(*child, options, depth + 1, out);
  }
  if (options.pretty && has_element_children) indent(depth);
  *out += "</";
  *out += node.name();
  *out += '>';
  if (options.pretty) *out += '\n';
}
}  // namespace

std::string EscapeText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  AppendEscaped(&out, text, /*attr=*/false);
  return out;
}

std::string EscapeAttr(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  AppendEscaped(&out, text, /*attr=*/true);
  return out;
}

std::string Write(const Node& node, const WriteOptions& options) {
  std::string out;
  if (options.declaration) {
    out += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
    if (options.pretty) out += '\n';
  }
  WriteNode(node, options, 0, &out);
  return out;
}

}  // namespace obiswap::xml
