#include "runtime/runtime.h"

namespace obiswap::runtime {

Runtime::Runtime(uint16_t process_id, size_t capacity_bytes)
    : process_id_(process_id), heap_(capacity_bytes) {
  heap_.AddRootProvider(this);
}

Runtime::~Runtime() { heap_.RemoveRootProvider(this); }

ObjectId Runtime::NextObjectId() {
  return ObjectId((static_cast<uint64_t>(process_id_) << 48) |
                  next_object_seq_++);
}

Result<Object*> Runtime::TryNew(const ClassInfo* cls) {
  OBISWAP_ASSIGN_OR_RETURN(Object * obj,
                           heap_.TryAllocate(cls, NextObjectId()));
  obj->set_swap_cluster(CurrentSwapCluster());
  return obj;
}

Object* Runtime::New(const ClassInfo* cls) {
  Object* obj = heap_.Allocate(cls, NextObjectId());
  obj->set_swap_cluster(CurrentSwapCluster());
  return obj;
}

Result<Object*> Runtime::TryNewWithId(const ClassInfo* cls, ObjectId oid) {
  return heap_.TryAllocate(cls, oid);
}

Result<Object*> Runtime::TryNewMiddleware(const ClassInfo* cls) {
  return heap_.TryAllocate(cls, NextObjectId(),
                           Heap::AllocPolicy::kMiddleware);
}

Result<Value> Runtime::GetField(Object* obj, std::string_view field) const {
  if (obj == nullptr) return InvalidArgumentError("GetField on null object");
  size_t index = obj->cls().FieldIndex(field);
  if (index == ClassInfo::kNpos)
    return NotFoundError("no field '" + std::string(field) + "' on class " +
                         obj->cls().name());
  return obj->RawSlot(index);
}

Status Runtime::SetField(Object* obj, std::string_view field, Value value) {
  if (obj == nullptr) return InvalidArgumentError("SetField on null object");
  size_t index = obj->cls().FieldIndex(field);
  if (index == ClassInfo::kNpos)
    return NotFoundError("no field '" + std::string(field) + "' on class " +
                         obj->cls().name());
  return SetFieldAt(obj, index, std::move(value));
}

Status Runtime::SetFieldAt(Object* obj, size_t index, Value value) {
  if (obj == nullptr) return InvalidArgumentError("SetField on null object");
  if (index >= obj->slot_count())
    return InvalidArgumentError("field index out of range");
  const FieldInfo& field = obj->cls().fields()[index];
  if (field.kind != ValueKind::kNil && !value.is_nil() &&
      value.kind() != field.kind) {
    return InvalidArgumentError("field '" + field.name + "' of class " +
                                obj->cls().name() + " expects " +
                                ValueKindName(field.kind) + ", got " +
                                ValueKindName(value.kind()));
  }
  ++stats_.field_writes;
  if (mediator_ != nullptr) mediator_->ObserveFieldWrite(*this, obj, index);
  if (value.is_ref()) {
    // Mediation may allocate a proxy and thus collect; neither the holder
    // nor the incoming value is necessarily rooted by the caller.
    LocalScope scope(heap_);
    scope.Add(obj);
    scope.Add(value.ref());
    value.set_ref(ApplyStoreMediation(obj, value.ref()));
  }
  bool had_dynamic = obj->RawSlot(index).DynamicBytes() > 0;
  obj->RawSlotMutable(index) = std::move(value);
  if (had_dynamic || obj->RawSlot(index).DynamicBytes() > 0) {
    heap_.RefreshAccounting(obj);
  }
  return OkStatus();
}

Status Runtime::SetGlobal(std::string_view name, Value value) {
  ++stats_.global_writes;
  if (value.is_ref()) {
    // Globals belong to swap-cluster-0: holder == nullptr. Root the value
    // across mediation (which may allocate and collect).
    LocalScope scope(heap_);
    scope.Add(value.ref());
    value.set_ref(ApplyStoreMediation(nullptr, value.ref()));
  }
  auto it = globals_.find(name);
  if (it != globals_.end()) {
    it->second = std::move(value);
  } else {
    globals_.emplace(std::string(name), std::move(value));
  }
  return OkStatus();
}

Result<Value> Runtime::GetGlobal(std::string_view name) const {
  auto it = globals_.find(name);
  if (it == globals_.end())
    return NotFoundError("no global '" + std::string(name) + "'");
  return it->second;
}

bool Runtime::HasGlobal(std::string_view name) const {
  return globals_.find(name) != globals_.end();
}

void Runtime::RemoveGlobal(std::string_view name) {
  auto it = globals_.find(name);
  if (it != globals_.end()) globals_.erase(it);
}

std::vector<std::pair<std::string, Object*>> Runtime::GlobalRefs() const {
  std::vector<std::pair<std::string, Object*>> out;
  for (const auto& [name, value] : globals_) {
    if (value.is_ref() && value.ref() != nullptr)
      out.emplace_back(name, value.ref());
  }
  return out;
}

Result<Value> Runtime::Invoke(Object* receiver, Selector method, Args args) {
  if (receiver == nullptr) return InvalidArgumentError("Invoke on null");
  LocalScope scope(heap_);
  scope.Add(receiver);
  for (const Value& arg : args) {
    if (arg.is_ref() && arg.ref() != nullptr) scope.Add(arg.ref());
  }
  ObjectKind kind = receiver->kind();
  if (kind != ObjectKind::kRegular) {
    Interceptor* interceptor = interceptors_[static_cast<size_t>(kind)];
    if (interceptor == nullptr)
      return FailedPreconditionError(
          "no interceptor installed for object kind of class " +
          receiver->cls().name());
    ++stats_.intercepted_invocations;
    return interceptor->Invoke(*this, receiver, method, args);
  }
  const MethodInfo* info = receiver->cls().FindMethod(method);
  if (info == nullptr)
    return NotFoundError("no method '" + std::string(method.name()) +
                         "' on class " + receiver->cls().name());
  ++stats_.direct_invocations;
  context_stack_.push_back(receiver->swap_cluster());
  Result<Value> result = info->fn(*this, receiver, args);
  context_stack_.pop_back();
  return result;
}

bool Runtime::SameObject(const Object* a, const Object* b) const {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (identity_ != nullptr) return identity_->SameObject(a, b);
  return false;
}

void Runtime::SetInterceptor(ObjectKind kind, Interceptor* interceptor) {
  interceptors_[static_cast<size_t>(kind)] = interceptor;
}

SwapClusterId Runtime::CurrentSwapCluster() const {
  if (context_stack_.empty()) return kSwapCluster0;
  return context_stack_.back();
}

void Runtime::EnumerateRoots(const std::function<void(Object*)>& visit) {
  for (auto& [name, value] : globals_) {
    if (value.is_ref()) visit(value.ref());
  }
}

Object* Runtime::ApplyStoreMediation(Object* holder, Object* value) {
  if (mediator_ == nullptr || value == nullptr) return value;
  return mediator_->MediateStore(*this, holder, value);
}

}  // namespace obiswap::runtime
