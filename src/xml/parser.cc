#include "xml/parser.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <string>

namespace obiswap::xml {

namespace {

// Scanning works on runs: character data is sized by its delimiter, plain
// bytes are copied in bulk and entities decoded in place, tokens are matched
// in place, names stay views into the input until a node stores them, and
// the line number is counted only when an error is built. Parse cost is
// linear in the input's bytes.
class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Result<std::unique_ptr<Node>> ParseDocument() {
    SkipProlog();
    if (AtEnd()) return Error("document has no root element");
    OBISWAP_ASSIGN_OR_RETURN(std::unique_ptr<Node> root, ParseElement());
    SkipMisc();
    if (!AtEnd()) return Error("trailing content after root element");
    return root;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char PeekAt(size_t offset) const {
    return pos_ + offset < input_.size() ? input_[pos_ + offset] : '\0';
  }

  bool Consume(std::string_view token) {
    if (input_.compare(pos_, token.size(), token) != 0) return false;
    pos_ += token.size();
    return true;
  }

  /// Moves past the next `terminator`; false (at the end) when none is left.
  bool SkipPast(std::string_view terminator) {
    const size_t found = input_.find(terminator, pos_);
    if (found == std::string_view::npos) {
      pos_ = input_.size();
      return false;
    }
    pos_ = found + terminator.size();
    return true;
  }

  /// Position of the next `c` at or after `pos_`, or the end of the input.
  size_t Find(char c) const {
    const size_t found = input_.find(c, pos_);
    return found == std::string_view::npos ? input_.size() : found;
  }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek())))
      ++pos_;
  }

  Status Error(const std::string& message) const {
    const auto line =
        1 + std::count(input_.begin(), input_.begin() + pos_, '\n');
    return DataLossError("xml parse error at line " + std::to_string(line) +
                         ": " + message);
  }

  Status SkipComment() {
    // Called with "<!--" already consumed.
    if (SkipPast("-->")) return OkStatus();
    return Error("unterminated comment");
  }

  Status SkipPi() {
    // Called with "<?" already consumed.
    if (SkipPast("?>")) return OkStatus();
    return Error("unterminated processing instruction");
  }

  void SkipProlog() {
    // XML declaration, comments, PIs, DOCTYPE (skipped shallowly).
    for (;;) {
      SkipWhitespace();
      if (Consume("<?")) {
        if (!SkipPi().ok()) return;
      } else if (Consume("<!--")) {
        if (!SkipComment().ok()) return;
      } else if (Consume("<!DOCTYPE")) {
        SkipPast(">");
      } else {
        return;
      }
    }
  }

  void SkipMisc() {
    for (;;) {
      SkipWhitespace();
      if (Consume("<!--")) {
        if (!SkipComment().ok()) return;
      } else if (Consume("<?")) {
        if (!SkipPi().ok()) return;
      } else {
        return;
      }
    }
  }

  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  }
  static bool IsNameChar(char c) {
    return IsNameStart(c) || std::isdigit(static_cast<unsigned char>(c)) ||
           c == '-' || c == '.';
  }

  Result<std::string_view> ParseName() {
    if (AtEnd() || !IsNameStart(Peek())) return Error("expected name");
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    return input_.substr(start, pos_ - start);
  }

  static char* WriteUtf8(unsigned long code, char* out) {
    if (code < 0x80) {
      *out++ = static_cast<char>(code);
    } else if (code < 0x800) {
      *out++ = static_cast<char>(0xC0 | (code >> 6));
      *out++ = static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      *out++ = static_cast<char>(0xE0 | (code >> 12));
      *out++ = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out++ = static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out++ = static_cast<char>(0xF0 | (code >> 18));
      *out++ = static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      *out++ = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out++ = static_cast<char>(0x80 | (code & 0x3F));
    }
    return out;
  }

  /// Decodes the entity at `pos_` (a '&') and writes its bytes at `*out`,
  /// advancing it. An entity's bytes are never more than its source text.
  Status DecodeEntity(char** out) {
    // An entity body is at most 11 bytes before its ';'.
    const size_t start = pos_ + 1;
    const size_t limit = std::min(input_.size(), start + 12);
    size_t semicolon = start;
    while (semicolon < limit && input_[semicolon] != ';') ++semicolon;
    if (semicolon == limit) {
      if (limit == start + 12) {
        pos_ = start + 11;
        return Error("entity too long");
      }
      pos_ = input_.size();
      return Error("unterminated entity");
    }
    const std::string_view entity = input_.substr(start, semicolon - start);
    pos_ = semicolon + 1;
    if (entity == "lt") {
      *(*out)++ = '<';
    } else if (entity == "gt") {
      *(*out)++ = '>';
    } else if (entity == "amp") {
      *(*out)++ = '&';
    } else if (entity == "quot") {
      *(*out)++ = '"';
    } else if (entity == "apos") {
      *(*out)++ = '\'';
    } else if (!entity.empty() && entity[0] == '#') {
      int base = 10;
      std::string_view digits = entity.substr(1);
      if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
        base = 16;
        digits = digits.substr(1);
      }
      if (digits.empty()) return Error("empty character reference");
      unsigned long code = 0;
      for (char c : digits) {
        int digit;
        if (c >= '0' && c <= '9') {
          digit = c - '0';
        } else if (base == 16 && c >= 'a' && c <= 'f') {
          digit = c - 'a' + 10;
        } else if (base == 16 && c >= 'A' && c <= 'F') {
          digit = c - 'A' + 10;
        } else {
          return Error("bad character reference");
        }
        code = code * static_cast<unsigned long>(base) +
               static_cast<unsigned long>(digit);
        if (code > 0x10FFFF) return Error("character reference out of range");
      }
      *out = WriteUtf8(code, *out);
    } else {
      return Error("unknown entity '&" + std::string(entity) + ";'");
    }
    return OkStatus();
  }

  /// Decodes the character data from `pos_` up to `end` onto `out`: runs
  /// of plain bytes are copied in bulk and entities decoded in place. As
  /// decoding never lengthens text, `out` grows once. Stops at `end`, or at
  /// the first error: a bad entity, or a '<' (which only an attribute
  /// value's range can hold; element text ends at its first '<').
  Status DecodeCharData(size_t end, std::string* out) {
    const size_t base = out->size();
    out->resize(base + (end - pos_));
    char* dst = out->data() + base;
    Status status = OkStatus();
    while (pos_ < end) {
      size_t run_end = pos_;
      while (run_end < end && input_[run_end] != '&' &&
             input_[run_end] != '<') {
        ++run_end;
      }
      std::memcpy(dst, input_.data() + pos_, run_end - pos_);
      dst += run_end - pos_;
      pos_ = run_end;
      if (pos_ == end) break;
      status = input_[pos_] == '<' ? Error("'<' in attribute value")
                                   : DecodeEntity(&dst);
      if (!status.ok()) break;
    }
    out->resize(static_cast<size_t>(dst - out->data()));
    return status;
  }

  /// Parses a quoted attribute value into `value_`.
  Status ParseAttrValue() {
    if (AtEnd() || (Peek() != '"' && Peek() != '\''))
      return Error("expected quoted attribute value");
    const char quote = Peek();
    ++pos_;
    value_.clear();
    OBISWAP_RETURN_IF_ERROR(DecodeCharData(Find(quote), &value_));
    if (AtEnd()) return Error("unterminated attribute value");
    ++pos_;  // closing quote
    return OkStatus();
  }

  Result<std::unique_ptr<Node>> ParseElement() {
    if (!Consume("<")) return Error("expected '<'");
    OBISWAP_ASSIGN_OR_RETURN(std::string_view name, ParseName());
    auto node = Node::Element(std::string(name));
    // Attributes.
    for (;;) {
      SkipWhitespace();
      if (AtEnd())
        return Error("unterminated start tag <" + std::string(name) + ">");
      if (Consume("/>")) return node;
      if (Consume(">")) break;
      OBISWAP_ASSIGN_OR_RETURN(std::string_view attr_name, ParseName());
      SkipWhitespace();
      if (!Consume("=")) return Error("expected '=' after attribute name");
      SkipWhitespace();
      OBISWAP_RETURN_IF_ERROR(ParseAttrValue());
      if (node->FindAttr(attr_name) != nullptr)
        return Error("duplicate attribute '" + std::string(attr_name) + "'");
      node->SetAttr(attr_name, value_);
    }
    // Content.
    std::string text;
    auto flush_text = [&]() {
      if (!text.empty()) {
        node->AddText(std::move(text));
        text.clear();
      }
    };
    for (;;) {
      OBISWAP_RETURN_IF_ERROR(DecodeCharData(Find('<'), &text));
      if (AtEnd())
        return Error("unterminated element <" + std::string(name) + ">");
      if (Consume("</")) {
        flush_text();
        OBISWAP_ASSIGN_OR_RETURN(std::string_view close_name, ParseName());
        if (close_name != name)
          return Error("mismatched close tag </" + std::string(close_name) +
                       "> for <" + std::string(name) + ">");
        SkipWhitespace();
        if (!Consume(">")) return Error("expected '>' in close tag");
        return node;
      }
      if (Consume("<!--")) {
        OBISWAP_RETURN_IF_ERROR(SkipComment());
        continue;
      }
      if (Consume("<![CDATA[")) {
        const size_t start = pos_;
        const size_t close = input_.find("]]>", start);
        if (close == std::string_view::npos) {
          pos_ = input_.size();
          return Error("unterminated CDATA");
        }
        text.append(input_, start, close - start);
        pos_ = close + 3;
        continue;
      }
      if (PeekAt(1) == '?') {
        pos_ += 2;  // "<?"
        OBISWAP_RETURN_IF_ERROR(SkipPi());
        continue;
      }
      flush_text();
      OBISWAP_ASSIGN_OR_RETURN(std::unique_ptr<Node> child, ParseElement());
      node->AddChild(std::move(child));
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
  /// Scratch for the attribute value being decoded (reused per attribute).
  std::string value_;
};

}  // namespace

Result<std::unique_ptr<Node>> Parse(std::string_view input) {
  Parser parser(input);
  return parser.ParseDocument();
}

}  // namespace obiswap::xml
