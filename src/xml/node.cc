#include "xml/node.h"

#include "common/string_util.h"

namespace obiswap::xml {

std::unique_ptr<Node> Node::Element(std::string name) {
  auto node = std::unique_ptr<Node>(new Node());
  node->name_ = std::move(name);
  return node;
}

std::unique_ptr<Node> Node::Text(std::string text) {
  auto node = std::unique_ptr<Node>(new Node());
  node->text_ = std::move(text);
  return node;
}

void Node::SetAttr(std::string_view name, std::string_view value) {
  for (auto& attr : attrs_) {
    if (attr.name == name) {
      attr.value.assign(value);
      return;
    }
  }
  // Elements here carry one to four attributes: one allocation, not a
  // regrowth per attribute.
  if (attrs_.empty()) attrs_.reserve(4);
  attrs_.push_back(Attr{std::string(name), std::string(value)});
}

void Node::SetIntAttr(std::string_view name, int64_t value) {
  SetAttr(name, std::to_string(value));
}

const std::string* Node::FindAttr(std::string_view name) const {
  for (const auto& attr : attrs_) {
    if (attr.name == name) return &attr.value;
  }
  return nullptr;
}

namespace {
Status MissingAttr(std::string_view name, const std::string& element) {
  return NotFoundError("missing attribute '" + std::string(name) + "' on <" +
                       element + ">");
}
}  // namespace

Result<std::string> Node::GetAttr(std::string_view name) const {
  const std::string* value = FindAttr(name);
  if (value == nullptr) return MissingAttr(name, name_);
  return *value;
}

Result<int64_t> Node::GetIntAttr(std::string_view name) const {
  const std::string* value = FindAttr(name);
  if (value == nullptr) return MissingAttr(name, name_);
  return ParseInt64(*value);
}

Result<int64_t> Node::GetIntAttrOr(std::string_view name,
                                   int64_t fallback) const {
  const std::string* value = FindAttr(name);
  if (value == nullptr) return fallback;
  return ParseInt64(*value);
}

Node* Node::AddChild(std::unique_ptr<Node> child) {
  children_.push_back(std::move(child));
  return children_.back().get();
}

Node* Node::AddElement(std::string name) {
  return AddChild(Element(std::move(name)));
}

void Node::AddText(std::string text) { AddChild(Text(std::move(text))); }

const Node* Node::FindChild(std::string_view name) const {
  for (const auto& child : children_) {
    if (!child->is_text() && child->name() == name) return child.get();
  }
  return nullptr;
}

Node* Node::FindChild(std::string_view name) {
  return const_cast<Node*>(
      static_cast<const Node*>(this)->FindChild(name));
}

std::vector<const Node*> Node::FindChildren(std::string_view name) const {
  std::vector<const Node*> out;
  for (const auto& child : children_) {
    if (!child->is_text() && child->name() == name) out.push_back(child.get());
  }
  return out;
}

Result<const Node*> Node::GetChild(std::string_view name) const {
  const Node* child = FindChild(name);
  if (child == nullptr)
    return NotFoundError("missing child <" + std::string(name) + "> in <" +
                         name_ + ">");
  return child;
}

std::string Node::InnerText() const {
  std::string out;
  for (const auto& child : children_) {
    if (child->is_text()) out += child->text();
  }
  return out;
}

size_t Node::SubtreeSize() const {
  size_t count = 1;
  for (const auto& child : children_) count += child->SubtreeSize();
  return count;
}

}  // namespace obiswap::xml
