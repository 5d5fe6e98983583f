#include "xml/parser.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <string>

#include "common/string_util.h"

namespace obiswap::xml {

namespace {

// Byte classes of the "C" locale's isspace, isalpha and isdigit, as one
// table lookup each: the scanner asks them of nearly every byte. kMarkup
// marks the two bytes that end a plain run of character data.
enum : uint8_t { kSpace = 1, kNameStart = 2, kNameChar = 4, kMarkup = 8 };

constexpr std::array<uint8_t, 256> BuildByteClasses() {
  std::array<uint8_t, 256> classes{};
  for (int c : {' ', '\t', '\n', '\v', '\f', '\r'}) classes[c] = kSpace;
  for (int c = 'a'; c <= 'z'; ++c) classes[c] = kNameStart | kNameChar;
  for (int c = 'A'; c <= 'Z'; ++c) classes[c] = kNameStart | kNameChar;
  for (int c : {'_', ':'}) classes[c] = kNameStart | kNameChar;
  for (int c = '0'; c <= '9'; ++c) classes[c] = kNameChar;
  for (int c : {'-', '.'}) classes[c] = kNameChar;
  for (int c : {'&', '<'}) classes[c] = kMarkup;
  return classes;
}

constexpr std::array<uint8_t, 256> kByteClasses = BuildByteClasses();

bool Is(char c, uint8_t byte_class) {
  return (kByteClasses[static_cast<unsigned char>(c)] & byte_class) != 0;
}

Status MissingAttrError(std::string_view attr, std::string_view element) {
  return NotFoundError("missing attribute '" + std::string(attr) + "' on <" +
                       std::string(element) + ">");
}

}  // namespace

// Scanning works on runs: character data is sized by its delimiter, plain
// runs stay views into the input, entities are decoded into the tape's
// arena, tokens are matched in place, and the line number is counted only
// when an error is built. Open elements sit on an explicit stack, so
// nesting depth costs no call stack. Parse cost is linear in the input's
// bytes.
class Scanner {
 public:
  Scanner(Tape& tape, std::string_view input)
      : tape_(tape),
        events_(tape.events_),
        attrs_(tape.attrs_),
        open_(tape.open_),
        input_(input) {
    events_.clear();
    attrs_.clear();
    open_.clear();
  }

  Status ParseDocument() {
    SkipProlog();
    if (AtEnd()) return Error("document has no root element");
    OBISWAP_RETURN_IF_ERROR(ParseElements());
    SkipMisc();
    if (!AtEnd()) return Error("trailing content after root element");
    return OkStatus();
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char PeekAt(size_t offset) const {
    return pos_ + offset < input_.size() ? input_[pos_ + offset] : '\0';
  }

  bool Consume(std::string_view token) {
    if (input_.size() - pos_ < token.size() ||
        std::memcmp(input_.data() + pos_, token.data(), token.size()) != 0)
      return false;
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
    while (!AtEnd() && Is(Peek(), kSpace)) ++pos_;
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

  Result<std::string_view> ParseName() {
    if (AtEnd() || !Is(Peek(), kNameStart)) return Error("expected name");
    size_t start = pos_;
    while (!AtEnd() && Is(Peek(), kNameChar)) ++pos_;
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

  /// Free arena space. The first use in a parse sizes the arena to the
  /// input; no later use in that parse can outgrow it.
  char* ArenaTail() {
    if (arena_used_ == 0 && tape_.arena_capacity_ < input_.size()) {
      tape_.arena_ = std::make_unique_for_overwrite<char[]>(input_.size());
      tape_.arena_capacity_ = input_.size();
    }
    return tape_.arena_.get() + arena_used_;
  }

  /// Decodes the input from `pos_` up to `end` at `*dst`, advancing it:
  /// runs of plain bytes are copied in bulk and entities decoded in place.
  /// Stops at `end`, or at the first error: a bad entity, or a '<' (which
  /// only an attribute value's range can hold; element text ends at its
  /// first '<').
  Status DecodeInto(size_t end, char** dst) {
    char*& out = *dst;
    while (pos_ < end) {
      size_t run_end = pos_;
      while (run_end < end && !Is(input_[run_end], kMarkup)) ++run_end;
      std::memcpy(out, input_.data() + pos_, run_end - pos_);
      out += run_end - pos_;
      pos_ = run_end;
      if (pos_ == end) break;
      if (input_[pos_] == '<') return Error("'<' in attribute value");
      OBISWAP_RETURN_IF_ERROR(DecodeEntity(&out));
    }
    return OkStatus();
  }

  /// Parses a quoted attribute value: a view of the input when it holds no
  /// entity, else its decoding in the arena.
  Result<std::string_view> ParseAttrValue() {
    if (AtEnd() || (Peek() != '"' && Peek() != '\''))
      return Error("expected quoted attribute value");
    const char quote = Peek();
    ++pos_;
    size_t stop = pos_;
    while (stop < input_.size() && input_[stop] != quote &&
           !Is(input_[stop], kMarkup)) {
      ++stop;
    }
    std::string_view value;
    if (stop < input_.size() && input_[stop] == quote) {
      value = input_.substr(pos_, stop - pos_);
      pos_ = stop;
    } else {
      char* const begin = ArenaTail();
      char* dst = begin;
      OBISWAP_RETURN_IF_ERROR(DecodeInto(Find(quote), &dst));
      arena_used_ += static_cast<size_t>(dst - begin);
      value = std::string_view(begin, static_cast<size_t>(dst - begin));
    }
    if (AtEnd()) return Error("unterminated attribute value");
    ++pos_;  // closing quote
    return value;
  }

  // --- pending text --------------------------------------------------------
  // The text between two tags accumulates across comments, CDATA and
  // processing instructions: a view of its one plain run, or the arena's
  // tail once it needed decoding or joining.

  /// Moves the pending text to the arena's tail, so more can follow it.
  char* PendingTextTail() {
    if (!text_in_arena_) {
      char* dst = ArenaTail();
      if (text_size_ > 0) std::memcpy(dst, text_data_, text_size_);
      text_data_ = dst;
      text_in_arena_ = true;
      arena_used_ += text_size_;
    }
    return tape_.arena_.get() + arena_used_;
  }

  void AppendText(std::string_view run) {
    if (run.empty()) return;
    if (text_size_ == 0 && !text_in_arena_) {
      text_data_ = run.data();
      text_size_ = run.size();
      return;
    }
    std::memcpy(PendingTextTail(), run.data(), run.size());
    arena_used_ += run.size();
    text_size_ += run.size();
  }

  /// Appends the character data from `pos_` up to the next '<' (or the
  /// end of the input) to the pending text.
  Status ScanText() {
    size_t stop = pos_;
    while (stop < input_.size() && !Is(input_[stop], kMarkup)) ++stop;
    if (stop == input_.size() || input_[stop] == '<') {
      AppendText(input_.substr(pos_, stop - pos_));
      pos_ = stop;
      return OkStatus();
    }
    char* const begin = PendingTextTail();
    char* dst = begin;
    const Status status = DecodeInto(Find('<'), &dst);
    arena_used_ += static_cast<size_t>(dst - begin);
    text_size_ += static_cast<size_t>(dst - begin);
    return status;
  }

  /// Ends the pending text: a text event unless it is empty.
  void FlushText() {
    if (text_size_ > 0) {
      Event text;
      text.kind = Event::Kind::kText;
      text.text = std::string_view(text_data_, text_size_);
      events_.push_back(text);
    }
    text_data_ = nullptr;
    text_size_ = 0;
    text_in_arena_ = false;
  }

  void Close(uint32_t start) {
    events_[start].end = static_cast<uint32_t>(events_.size());
    Event end;
    end.kind = Event::Kind::kEnd;
    events_.push_back(end);
  }

  /// Parses the root element and everything inside it.
  Status ParseElements() {
    if (!Consume("<")) return Error("expected '<'");
    for (;;) {
      // A start tag, just past its '<'.
      OBISWAP_ASSIGN_OR_RETURN(std::string_view name, ParseName());
      const auto start = static_cast<uint32_t>(events_.size());
      Event event;
      event.attr_begin = static_cast<uint32_t>(attrs_.size());
      event.text = name;
      events_.push_back(event);
      bool empty_element = false;
      for (;;) {
        SkipWhitespace();
        if (AtEnd())
          return Error("unterminated start tag <" + std::string(name) + ">");
        if (Consume("/>")) {
          empty_element = true;
          break;
        }
        if (Consume(">")) break;
        OBISWAP_ASSIGN_OR_RETURN(std::string_view attr_name, ParseName());
        SkipWhitespace();
        if (!Consume("=")) return Error("expected '=' after attribute name");
        SkipWhitespace();
        OBISWAP_ASSIGN_OR_RETURN(std::string_view value, ParseAttrValue());
        for (size_t a = event.attr_begin; a < attrs_.size(); ++a) {
          if (attrs_[a].name == attr_name)
            return Error("duplicate attribute '" + std::string(attr_name) +
                         "'");
        }
        attrs_.push_back(TapeAttr{attr_name, value});
      }
      events_[start].attr_end = static_cast<uint32_t>(attrs_.size());
      if (empty_element) {
        Close(start);
      } else {
        open_.push_back(start);
      }
      // Content of the innermost open element, until a child element
      // starts or the root closes.
      for (;;) {
        if (open_.empty()) return OkStatus();
        OBISWAP_RETURN_IF_ERROR(ScanText());
        const std::string_view open_name = events_[open_.back()].text;
        if (AtEnd())
          return Error("unterminated element <" + std::string(open_name) +
                       ">");
        if (Consume("</")) {
          FlushText();
          OBISWAP_ASSIGN_OR_RETURN(std::string_view close_name, ParseName());
          if (close_name != open_name)
            return Error("mismatched close tag </" + std::string(close_name) +
                         "> for <" + std::string(open_name) + ">");
          SkipWhitespace();
          if (!Consume(">")) return Error("expected '>' in close tag");
          Close(open_.back());
          open_.pop_back();
          continue;
        }
        if (Consume("<!--")) {
          OBISWAP_RETURN_IF_ERROR(SkipComment());
          continue;
        }
        if (Consume("<![CDATA[")) {
          const size_t close = input_.find("]]>", pos_);
          if (close == std::string_view::npos) {
            pos_ = input_.size();
            return Error("unterminated CDATA");
          }
          AppendText(input_.substr(pos_, close - pos_));
          pos_ = close + 3;
          continue;
        }
        if (PeekAt(1) == '?') {
          pos_ += 2;  // "<?"
          OBISWAP_RETURN_IF_ERROR(SkipPi());
          continue;
        }
        FlushText();
        ++pos_;  // the child's '<'
        break;
      }
    }
  }

  Tape& tape_;
  std::vector<Event>& events_;
  std::vector<TapeAttr>& attrs_;
  std::vector<uint32_t>& open_;
  std::string_view input_;
  size_t pos_ = 0;
  size_t arena_used_ = 0;
  const char* text_data_ = nullptr;
  size_t text_size_ = 0;
  bool text_in_arena_ = false;
};

Status Tape::Parse(std::string_view input) {
  Status status = Scanner(*this, input).ParseDocument();
  if (!status.ok()) events_.clear();
  return status;
}

const std::string_view* Tape::FindAttr(uint32_t start,
                                       std::string_view name) const {
  for (const TapeAttr& attr : attrs(start)) {
    if (attr.name == name) return &attr.value;
  }
  return nullptr;
}

Result<std::string_view> Tape::GetAttr(uint32_t start,
                                       std::string_view name) const {
  const std::string_view* value = FindAttr(start, name);
  if (value == nullptr) return MissingAttrError(name, events_[start].text);
  return *value;
}

Result<int64_t> Tape::GetIntAttr(uint32_t start, std::string_view name) const {
  OBISWAP_ASSIGN_OR_RETURN(std::string_view value, GetAttr(start, name));
  return ParseInt64(value);
}

Result<int64_t> Tape::GetIntAttrOr(uint32_t start, std::string_view name,
                                   int64_t fallback) const {
  const std::string_view* value = FindAttr(start, name);
  if (value == nullptr) return fallback;
  return ParseInt64(*value);
}

uint32_t Tape::FindChild(uint32_t start, std::string_view name) const {
  return FindFrom(start + 1, name);
}

uint32_t Tape::FindSibling(uint32_t child, std::string_view name) const {
  return FindFrom(Next(child), name);
}

uint32_t Tape::FindFrom(uint32_t index, std::string_view name) const {
  for (; events_[index].kind != Event::Kind::kEnd; index = Next(index)) {
    if (IsElement(index, name)) return index;
  }
  return 0;
}

std::string_view Tape::InnerText(uint32_t start, std::string* scratch) const {
  std::string_view first;
  size_t texts = 0;
  for (uint32_t child = start + 1; child < events_[start].end;
       child = Next(child)) {
    const Event& event = events_[child];
    if (event.kind != Event::Kind::kText) continue;
    if (texts == 0) {
      first = event.text;
    } else {
      if (texts == 1) scratch->assign(first);
      scratch->append(event.text);
    }
    ++texts;
  }
  return texts <= 1 ? first : std::string_view(*scratch);
}

}  // namespace obiswap::xml
