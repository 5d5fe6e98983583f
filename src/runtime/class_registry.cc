#include "runtime/class_registry.h"

namespace obiswap::runtime {

size_t ClassInfo::FieldIndex(std::string_view name) const {
  auto it = field_index_.find(name);
  return it == field_index_.end() ? kNpos : it->second;
}

ClassBuilder::ClassBuilder(std::string name)
    : info_(std::make_unique<ClassInfo>()) {
  info_->name_ = std::move(name);
}

ClassBuilder& ClassBuilder::Kind(ObjectKind kind) {
  info_->kind_ = kind;
  return *this;
}

ClassBuilder& ClassBuilder::Field(std::string name, ValueKind kind) {
  info_->field_index_[name] = info_->fields_.size();
  info_->fields_.push_back(FieldInfo{std::move(name), kind});
  return *this;
}

ClassBuilder& ClassBuilder::Method(std::string name, MethodFn fn) {
  const Selector selector(name);
  std::vector<uint32_t>& index = info_->method_index_;
  if (selector.id() >= index.size())
    index.resize(selector.id() + 1, ClassInfo::kNoMethod);
  // A repeated name keeps its first declaration.
  if (index[selector.id()] == ClassInfo::kNoMethod)
    index[selector.id()] = static_cast<uint32_t>(info_->methods_.size());
  info_->methods_.push_back(MethodInfo{std::move(name), std::move(fn)});
  return *this;
}

ClassBuilder& ClassBuilder::PayloadBytes(size_t bytes) {
  info_->payload_bytes_ = bytes;
  return *this;
}

ClassBuilder& ClassBuilder::OnFinalize(Finalizer finalizer) {
  info_->finalizer_ = std::move(finalizer);
  return *this;
}

Result<const ClassInfo*> TypeRegistry::Register(ClassBuilder& builder) {
  std::unique_ptr<ClassInfo> info = std::move(builder.info_);
  if (by_name_.count(info->name_) > 0)
    return AlreadyExistsError("class '" + info->name_ + "' already registered");
  info->id_ = ClassId(static_cast<uint32_t>(classes_.size()));
  by_name_[info->name_] = classes_.size();
  classes_.push_back(std::move(info));
  return static_cast<const ClassInfo*>(classes_.back().get());
}

const ClassInfo* TypeRegistry::Find(std::string_view name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : classes_[it->second].get();
}

const ClassInfo* TypeRegistry::Find(ClassId id) const {
  if (!id.valid() || id.value() >= classes_.size()) return nullptr;
  return classes_[id.value()].get();
}

}  // namespace obiswap::runtime
