// The XML parser: one validating pass that fills a flat event tape.
//
// Supports the subset obiswap emits plus what hand-written policy files
// need: elements, attributes (single or double quoted), text, comments,
// CDATA sections, processing instructions / XML declaration, and the five
// predefined entities plus numeric character references.
//
// Tape::Parse is the only scanner and the tape the only document model:
// every reader (the cluster decoder, the store, replication and transaction
// envelopes, policy files, class schemas) walks the events it leaves, and
// every writer appends text through xml/writer.h.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace obiswap::xml {

/// One event of a parsed document, in document order. Comments, processing
/// instructions and the prolog leave no event.
struct Event {
  enum class Kind : uint8_t { kStart, kText, kEnd };
  Kind kind = Kind::kStart;
  /// kStart: [attr_begin, attr_end) in the tape's attributes.
  uint32_t attr_begin = 0;
  uint32_t attr_end = 0;
  /// kStart: index of the matching kEnd event.
  uint32_t end = 0;
  /// kStart: the element name. kText: the decoded character data between
  /// two tags (comments and processing instructions skipped, CDATA
  /// included), never empty.
  std::string_view text;
};

/// One attribute of a start event; the value is decoded.
struct TapeAttr {
  std::string_view name;
  std::string_view value;
};

/// A parsed document as a flat event sequence. Event 0 is the root's
/// start; a start's children run from the next event to its end, and
/// Next() steps over a whole child. Names and plain values are views into
/// the input; text or values that needed decoding or joining are views
/// into the tape's arena. Both stay valid until the next Parse, and the
/// input must outlive the tape's use.
class Tape {
 public:
  /// Parses a complete document: optional prolog followed by exactly one
  /// root element. Replaces the tape's events and reuses its storage.
  /// Errors are kDataLoss and carry a line number; the first error in
  /// document order is the one reported.
  Status Parse(std::string_view input);
  /// A temporary std::string would die before the views into it: refused
  /// at compile time. (A template, so a string literal still takes the
  /// string_view overload above.)
  template <typename String>
    requires std::same_as<String, std::string>
  Status Parse(String&& input) = delete;

  size_t size() const { return events_.size(); }
  const Event& operator[](size_t index) const { return events_[index]; }

  /// Index of the event after `index` and everything inside it: the next
  /// sibling, or the parent's end.
  uint32_t Next(uint32_t index) const {
    const Event& event = events_[index];
    return event.kind == Event::Kind::kStart ? event.end + 1 : index + 1;
  }

  /// True if event `index` starts an element named `name`.
  bool IsElement(uint32_t index, std::string_view name) const {
    const Event& event = events_[index];
    return event.kind == Event::Kind::kStart && event.text == name;
  }

  std::span<const TapeAttr> attrs(uint32_t start) const {
    const Event& event = events_[start];
    return {attrs_.data() + event.attr_begin,
            attrs_.data() + event.attr_end};
  }

  /// The value of attribute `name` of start event `start`, or nullptr.
  const std::string_view* FindAttr(uint32_t start,
                                   std::string_view name) const;
  /// The attribute, or parsed as an integer. A missing attribute is
  /// kNotFound "missing attribute 'a' on <element>"; GetIntAttrOr answers
  /// `fallback` for it instead.
  Result<std::string_view> GetAttr(uint32_t start,
                                   std::string_view name) const;
  Result<int64_t> GetIntAttr(uint32_t start, std::string_view name) const;
  Result<int64_t> GetIntAttrOr(uint32_t start, std::string_view name,
                               int64_t fallback) const;

  /// First element child named `name` of start event `start`, or 0 (the
  /// root, which is nobody's child).
  uint32_t FindChild(uint32_t start, std::string_view name) const;
  /// The next element named `name` among the siblings after `child` (any
  /// event but the root's start or end), or 0. With FindChild it walks
  /// every child of one name:
  /// `for (c = FindChild(p, n); c != 0; c = FindSibling(c, n))`.
  uint32_t FindSibling(uint32_t child, std::string_view name) const;

  /// The concatenation of the direct text children of
  /// start event `start`. A view of the one text child when there is only
  /// one; otherwise the children are joined in `*scratch`.
  std::string_view InnerText(uint32_t start, std::string* scratch) const;

 private:
  friend class Scanner;

  /// The first element named `name` from event `index` up to the end of
  /// the parent it lies in, or 0.
  uint32_t FindFrom(uint32_t index, std::string_view name) const;

  std::vector<Event> events_;
  std::vector<TapeAttr> attrs_;
  /// Decoded and joined text. A parse writes at most as many bytes here as
  /// its input holds, so the arena is sized once per parse and the views
  /// into it stay put.
  std::unique_ptr<char[]> arena_;
  size_t arena_capacity_ = 0;
  /// Start events still open, innermost last (scratch for Parse).
  std::vector<uint32_t> open_;
};

}  // namespace obiswap::xml
