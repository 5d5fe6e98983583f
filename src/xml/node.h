// XML document model.
//
// The paper's swapped clusters, policy files and the web-service bridge all
// speak XML ("the receiving device ... simply must be able to store and
// provide XML text"), so this is a foundational substrate. The model is a
// plain ordered tree: elements with attributes, element children and text
// children.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace obiswap::xml {

/// One attribute on an element. Order is preserved.
struct Attr {
  std::string name;
  std::string value;
};

/// An element node (or a text node when `is_text()` — text nodes have empty
/// name and carry their payload in `text`).
class Node {
 public:
  /// Creates an element node.
  static std::unique_ptr<Node> Element(std::string name);
  /// Creates a text node.
  static std::unique_ptr<Node> Text(std::string text);

  bool is_text() const { return name_.empty(); }
  const std::string& name() const { return name_; }
  const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  // --- attributes -----------------------------------------------------
  const std::vector<Attr>& attrs() const { return attrs_; }
  /// Sets (or replaces) an attribute.
  void SetAttr(std::string_view name, std::string_view value);
  void SetIntAttr(std::string_view name, int64_t value);
  /// Returns the attribute value or nullptr if absent.
  const std::string* FindAttr(std::string_view name) const;
  /// Attribute as string; error if absent.
  Result<std::string> GetAttr(std::string_view name) const;
  /// Attribute parsed as integer; error if absent or malformed.
  Result<int64_t> GetIntAttr(std::string_view name) const;
  /// Attribute parsed as integer with a default when absent.
  Result<int64_t> GetIntAttrOr(std::string_view name, int64_t fallback) const;

  // --- children -------------------------------------------------------
  const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }
  /// Appends a child node and returns a borrowed pointer to it.
  Node* AddChild(std::unique_ptr<Node> child);
  /// Convenience: appends `<name>` and returns it.
  Node* AddElement(std::string name);
  /// Convenience: appends a text child.
  void AddText(std::string text);

  /// First element child with the given name, or nullptr.
  const Node* FindChild(std::string_view name) const;
  Node* FindChild(std::string_view name);
  /// All element children with the given name.
  std::vector<const Node*> FindChildren(std::string_view name) const;
  /// First element child with the given name; error if absent.
  Result<const Node*> GetChild(std::string_view name) const;

  /// Concatenation of all direct text children.
  std::string InnerText() const;

  /// Number of nodes in this subtree (for size accounting in tests).
  size_t SubtreeSize() const;

 private:
  Node() = default;

  std::string name_;  // empty for text nodes
  std::string text_;  // payload for text nodes
  std::vector<Attr> attrs_;
  std::vector<std::unique_ptr<Node>> children_;
};

/// The kNotFound error of a missing attribute, as every reader of a
/// document reports it: "missing attribute 'a' on <element>".
Status MissingAttrError(std::string_view attr, std::string_view element);

}  // namespace obiswap::xml
