#include "xml/writer.h"

#include <array>
#include <charconv>
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

}  // namespace

void AppendEscapedText(std::string* out, std::string_view text) {
  AppendEscaped(out, text, /*attr=*/false);
}

void AppendAttr(std::string* out, std::string_view name,
                std::string_view value) {
  *out += ' ';
  *out += name;
  *out += "=\"";
  AppendEscaped(out, value, /*attr=*/true);
  *out += '"';
}

void AppendIntAttr(std::string* out, std::string_view name, int64_t value) {
  char digits[24];
  const auto result = std::to_chars(digits, digits + sizeof digits, value);
  *out += ' ';
  *out += name;
  *out += "=\"";
  out->append(digits, result.ptr);
  *out += '"';
}

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

}  // namespace obiswap::xml
