// Class metadata: the runtime's reflection layer.
//
// The original system used the `obicomp` compiler to generate per-class
// proxy code. We replace codegen with metadata: every class registers its
// fields (traced and serialized by name/kind) and methods (invoked through
// an interned selector, see selector.h).
// Generic proxies driven by this metadata implement the same mediation
// rules the generated code implemented (see DESIGN.md §4 Substitutions).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/string_util.h"
#include "runtime/selector.h"
#include "runtime/value.h"

namespace obiswap::runtime {

class Runtime;

/// What role instances of a class play. Regular application objects are
/// swappable; the three middleware kinds are interception points.
enum class ObjectKind : uint8_t {
  kRegular = 0,
  kReplicationProxy,  ///< stands in for a not-yet-replicated object (OBIWAN §2)
  kSwapClusterProxy,  ///< permanent mediator across swap-cluster boundaries (§3)
  kReplacement,       ///< stands in for a swapped-out swap-cluster (§3)
};

/// One declared field.
struct FieldInfo {
  std::string name;
  /// Declared kind. kNil means "any" (slot accepts every kind).
  ValueKind kind = ValueKind::kNil;
};

/// A call's arguments: a view of the caller's storage, valid for the call.
using Args = std::span<const Value>;

/// A method body. `self` is always the *actual* object (proxies forward).
using MethodFn = std::function<Result<Value>(Runtime&, Object* self, Args)>;

struct MethodInfo {
  std::string name;
  MethodFn fn;
};

/// Runs when an instance is collected. Must not touch managed objects —
/// only middleware bookkeeping (the paper uses finalizers exactly this way:
/// dropping SwappingManager table entries).
using Finalizer = std::function<void(Object*)>;

/// Immutable class descriptor. Created through ClassBuilder.
class ClassInfo {
 public:
  ClassId id() const { return id_; }
  const std::string& name() const { return name_; }
  ObjectKind kind() const { return kind_; }
  const std::vector<FieldInfo>& fields() const { return fields_; }
  const std::vector<MethodInfo>& methods() const { return methods_; }
  size_t payload_bytes() const { return payload_bytes_; }
  const Finalizer& finalizer() const { return finalizer_; }
  bool has_finalizer() const { return static_cast<bool>(finalizer_); }

  /// Field index by name, or npos.
  static constexpr size_t kNpos = static_cast<size_t>(-1);
  size_t FieldIndex(std::string_view name) const;
  /// Method named by `selector`, or nullptr: one bounds check and one
  /// index, no string compare.
  const MethodInfo* FindMethod(Selector selector) const {
    if (selector.id() >= method_index_.size()) return nullptr;
    const uint32_t index = method_index_[selector.id()];
    return index == kNoMethod ? nullptr : &methods_[index];
  }

 private:
  friend class ClassBuilder;
  friend class TypeRegistry;

  ClassId id_;
  std::string name_;
  ObjectKind kind_ = ObjectKind::kRegular;
  std::vector<FieldInfo> fields_;
  std::vector<MethodInfo> methods_;
  /// Selector id -> index into methods_ (kNoMethod where the class has no
  /// such method). A selector interned after the class was built names
  /// none of its methods and falls past the end.
  static constexpr uint32_t kNoMethod = UINT32_MAX;
  std::vector<uint32_t> method_index_;
  NameMap<size_t> field_index_;
  size_t payload_bytes_ = 0;
  Finalizer finalizer_;
};

/// Fluent builder for ClassInfo; finish with Build() on a TypeRegistry.
class ClassBuilder {
 public:
  explicit ClassBuilder(std::string name);

  ClassBuilder& Kind(ObjectKind kind);
  /// Declares a field; order defines slot layout.
  ClassBuilder& Field(std::string name, ValueKind kind = ValueKind::kNil);
  /// Declares a method.
  ClassBuilder& Method(std::string name, MethodFn fn);
  /// Extra opaque bytes each instance occupies (models object payload size;
  /// the paper's micro-benchmark uses 64-byte objects).
  ClassBuilder& PayloadBytes(size_t bytes);
  ClassBuilder& OnFinalize(Finalizer finalizer);

 private:
  friend class TypeRegistry;
  std::unique_ptr<ClassInfo> info_;
};

/// Owns all ClassInfo instances of one runtime. Class names are unique.
class TypeRegistry {
 public:
  TypeRegistry() = default;
  TypeRegistry(const TypeRegistry&) = delete;
  TypeRegistry& operator=(const TypeRegistry&) = delete;

  /// Registers the built class. Error if the name already exists. Accepts
  /// both a fluent chain (which yields an lvalue reference) and a plain
  /// temporary.
  Result<const ClassInfo*> Register(ClassBuilder& builder);
  Result<const ClassInfo*> Register(ClassBuilder&& builder) {
    return Register(builder);
  }

  /// Lookup by name / id; nullptr if unknown.
  const ClassInfo* Find(std::string_view name) const;
  const ClassInfo* Find(ClassId id) const;

  size_t size() const { return classes_.size(); }

 private:
  std::vector<std::unique_ptr<ClassInfo>> classes_;
  NameMap<size_t> by_name_;
};

}  // namespace obiswap::runtime
