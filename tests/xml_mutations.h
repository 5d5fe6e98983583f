// Damaged copies of a valid XML document, for pinning how a reader of that
// document answers structural damage: each helper yields the documents, a
// test decodes them and hashes the verdicts and messages. WriteTape writes
// a parsed document again, for the parser's round-trip properties.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace obiswap::testing {

namespace xml_mutations_internal {

/// One edit to the element whose start event is `target`.
struct Edit {
  enum Kind { kNone, kDrop, kDuplicate, kForeignChild, kForeignText,
              kRemoveAttr, kSetAttr };
  Kind kind = kNone;
  uint32_t target = 0;
  std::string attr;   ///< kRemoveAttr / kSetAttr
  std::string value;  ///< kSetAttr
};

/// Appends the element at start event `start`, with `edit` applied, as the
/// writers in src/ write one: attributes in order, `<name .../>` when it
/// has no children, text and values escaped.
inline void AppendEdited(const xml::Tape& tape, uint32_t start,
                         const Edit& edit, std::string* out) {
  const bool is_target = start == edit.target;
  const std::string_view name = tape[start].text;
  *out += '<';
  *out += name;
  for (const xml::TapeAttr& attr : tape.attrs(start)) {
    if (is_target && attr.name == edit.attr) {
      if (edit.kind == Edit::kRemoveAttr) continue;
      if (edit.kind == Edit::kSetAttr) {
        xml::AppendAttr(out, attr.name, edit.value);
        continue;
      }
    }
    xml::AppendAttr(out, attr.name, attr.value);
  }
  *out += '>';
  const size_t body = out->size();
  if (is_target && edit.kind == Edit::kForeignChild) *out += "<zz/>";
  if (is_target && edit.kind == Edit::kForeignText) *out += "junk";
  for (uint32_t child = start + 1; child < tape[start].end;
       child = tape.Next(child)) {
    if (tape[child].kind == xml::Event::Kind::kText) {
      xml::AppendEscapedText(out, tape[child].text);
      continue;
    }
    if (child == edit.target && edit.kind == Edit::kDrop) continue;
    AppendEdited(tape, child, edit, out);
    if (child == edit.target && edit.kind == Edit::kDuplicate)
      AppendEdited(tape, child, edit, out);
  }
  // Every child writes at least one byte: the tape holds no empty text.
  if (out->size() == body) {
    out->pop_back();
    *out += "/>";
    return;
  }
  *out += "</";
  *out += name;
  *out += '>';
}

}  // namespace xml_mutations_internal

/// The document a parsed tape holds, written again: elements with no
/// children as `<name .../>`, text and attribute values escaped by the
/// append writer, so a document that writer wrote is rewritten byte for
/// byte.
inline std::string WriteTape(const xml::Tape& tape) {
  std::string out;
  xml_mutations_internal::AppendEdited(tape, 0, {}, &out);
  return out;
}

/// Every document one edit away from `valid`, written as WriteTape writes:
/// for each element in document order, the element dropped and duplicated
/// (not the root), a foreign child element `<zz/>` and foreign text "junk"
/// put first in it, and each of its attributes removed or set to each of
/// `values`.
inline std::vector<std::string> EditedDocuments(
    std::string_view valid, const std::vector<std::string>& values) {
  using xml_mutations_internal::Edit;
  xml::Tape tape;
  OBISWAP_CHECK(tape.Parse(valid).ok());
  std::vector<Edit> edits;
  for (uint32_t t = 0; t < tape.size(); ++t) {
    if (tape[t].kind != xml::Event::Kind::kStart) continue;
    if (t > 0) {
      edits.push_back(Edit{Edit::kDrop, t, "", ""});
      edits.push_back(Edit{Edit::kDuplicate, t, "", ""});
    }
    edits.push_back(Edit{Edit::kForeignChild, t, "", ""});
    edits.push_back(Edit{Edit::kForeignText, t, "", ""});
    for (const xml::TapeAttr& attr : tape.attrs(t)) {
      edits.push_back(Edit{Edit::kRemoveAttr, t, std::string(attr.name), ""});
      for (const std::string& value : values)
        edits.push_back(Edit{Edit::kSetAttr, t, std::string(attr.name), value});
    }
  }
  std::vector<std::string> out;
  out.reserve(edits.size());
  for (const Edit& edit : edits) {
    std::string document;
    xml_mutations_internal::AppendEdited(tape, 0, edit, &document);
    out.push_back(std::move(document));
  }
  return out;
}

/// `valid` cut at every tag boundary: before each '<' and after each '>'.
inline std::vector<std::string> Truncations(const std::string& valid) {
  std::vector<std::string> out;
  for (size_t i = 0; i < valid.size(); ++i) {
    if (valid[i] == '<') out.push_back(valid.substr(0, i));
    if (valid[i] == '>') out.push_back(valid.substr(0, i + 1));
  }
  return out;
}

/// `count` copies of `valid`, each with one to three bits flipped.
inline std::vector<std::string> BitFlips(const std::string& valid,
                                         uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    std::string copy = valid;
    for (uint64_t n = 1 + rng.NextBelow(3); n > 0; --n)
      copy[rng.NextBelow(copy.size())] ^=
          static_cast<char>(1 << rng.NextBelow(8));
    out.push_back(std::move(copy));
  }
  return out;
}

}  // namespace obiswap::testing
