// Damaged copies of a valid XML document, for pinning how a reader of that
// document answers structural damage: each helper yields the documents, a
// test decodes them and hashes the verdicts and messages.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "xml/node.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace obiswap::testing {

namespace xml_mutations_internal {

/// One edit to the element numbered `target` in document order (root 0).
struct Edit {
  enum Kind { kDrop, kDuplicate, kForeignChild, kForeignText, kRemoveAttr,
              kSetAttr };
  Kind kind = kDrop;
  int target = 0;
  std::string attr;   ///< kRemoveAttr / kSetAttr
  std::string value;  ///< kSetAttr
};

inline std::unique_ptr<xml::Node> CopyEdited(const xml::Node& src,
                                             const Edit& edit, int* counter);

/// Copies the children of `src` into `dst`, dropping or duplicating the
/// target element when the edit says so.
inline void CopyChildren(const xml::Node& src, xml::Node* dst,
                         const Edit& edit, int* counter) {
  for (const auto& child : src.children()) {
    if (child->is_text()) {
      dst->AddText(child->text());
      continue;
    }
    const int index = *counter;
    std::unique_ptr<xml::Node> copy = CopyEdited(*child, edit, counter);
    if (index == edit.target && edit.kind == Edit::kDrop) continue;
    if (index == edit.target && edit.kind == Edit::kDuplicate) {
      int unused = -1'000'000;  // the second copy is never the target
      dst->AddChild(CopyEdited(*copy, Edit{}, &unused));
    }
    dst->AddChild(std::move(copy));
  }
}

inline std::unique_ptr<xml::Node> CopyEdited(const xml::Node& src,
                                             const Edit& edit, int* counter) {
  const bool is_target = (*counter)++ == edit.target;
  auto dst = xml::Node::Element(src.name());
  for (const xml::Attr& attr : src.attrs()) {
    if (is_target && attr.name == edit.attr) {
      if (edit.kind == Edit::kRemoveAttr) continue;
      if (edit.kind == Edit::kSetAttr) {
        dst->SetAttr(attr.name, edit.value);
        continue;
      }
    }
    dst->SetAttr(attr.name, attr.value);
  }
  if (is_target && edit.kind == Edit::kForeignChild) dst->AddElement("zz");
  if (is_target && edit.kind == Edit::kForeignText) dst->AddText("junk");
  CopyChildren(src, dst.get(), edit, counter);
  return dst;
}

inline void CountElements(const xml::Node& node,
                          std::vector<const xml::Node*>* out) {
  out->push_back(&node);
  for (const auto& child : node.children()) {
    if (!child->is_text()) CountElements(*child, out);
  }
}

}  // namespace xml_mutations_internal

/// Every document one edit away from `valid`, written by xml::Write: for
/// each element in document order, the element dropped and duplicated
/// (not the root), a foreign child element `<zz/>` and foreign text "junk"
/// put first in it, and each of its attributes removed or set to each of
/// `values`.
inline std::vector<std::string> EditedDocuments(
    std::string_view valid, const std::vector<std::string>& values) {
  using xml_mutations_internal::Edit;
  auto parsed = xml::Parse(valid);
  OBISWAP_CHECK(parsed.ok());
  std::vector<const xml::Node*> elements;
  xml_mutations_internal::CountElements(**parsed, &elements);
  std::vector<Edit> edits;
  for (int t = 0; t < static_cast<int>(elements.size()); ++t) {
    if (t > 0) {
      edits.push_back(Edit{Edit::kDrop, t, "", ""});
      edits.push_back(Edit{Edit::kDuplicate, t, "", ""});
    }
    edits.push_back(Edit{Edit::kForeignChild, t, "", ""});
    edits.push_back(Edit{Edit::kForeignText, t, "", ""});
    for (const xml::Attr& attr : elements[t]->attrs()) {
      edits.push_back(Edit{Edit::kRemoveAttr, t, attr.name, ""});
      for (const std::string& value : values)
        edits.push_back(Edit{Edit::kSetAttr, t, attr.name, value});
    }
  }
  std::vector<std::string> out;
  out.reserve(edits.size());
  for (const Edit& edit : edits) {
    int counter = 0;
    out.push_back(xml::Write(
        *xml_mutations_internal::CopyEdited(**parsed, edit, &counter)));
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
