#include "baseline/naive_proxy.h"

#include "serialization/graph_xml.h"

namespace obiswap::baseline {

using runtime::ClassBuilder;
using runtime::ClassInfo;
using runtime::LocalScope;
using runtime::Object;
using runtime::ObjectKind;
using runtime::Value;
using runtime::ValueKind;

namespace {
constexpr const char* kSurrogateClassName = "naive.Surrogate";
constexpr size_t kSlotTarget = 0;
constexpr size_t kSlotOid = 1;
constexpr size_t kSlotKey = 2;
constexpr size_t kSlotDevice = 3;
constexpr size_t kSlotClass = 4;

ObjectId SurrogateOid(const Object* surrogate) {
  return ObjectId(static_cast<uint64_t>(surrogate->RawSlot(kSlotOid).as_int()));
}
}  // namespace

NaiveProxyManager::NaiveProxyManager(runtime::Runtime& rt) : rt_(rt) {
  const ClassInfo* existing = rt_.types().Find(kSurrogateClassName);
  if (existing != nullptr) {
    proxy_cls_ = existing;
  } else {
    proxy_cls_ = *rt_.types().Register(
        ClassBuilder(kSurrogateClassName)
            .Kind(ObjectKind::kSwapClusterProxy)
            .Field("target", ValueKind::kRef)
            .Field("oid", ValueKind::kInt)
            .Field("key", ValueKind::kInt)
            .Field("device", ValueKind::kInt)
            .Field("class", ValueKind::kStr));
  }
  rt_.SetInterceptor(ObjectKind::kSwapClusterProxy, this);
  rt_.SetStoreMediator(this);
  rt_.heap().AddRootProvider(this);
}

NaiveProxyManager::~NaiveProxyManager() {
  rt_.SetInterceptor(ObjectKind::kSwapClusterProxy, nullptr);
  rt_.SetStoreMediator(nullptr);
  rt_.heap().RemoveRootProvider(this);
}

void NaiveProxyManager::EnumerateRoots(
    const std::function<void(Object*)>& visit) {
  for (const auto& [oid, proxy] : proxies_) visit(proxy);
}

Result<Object*> NaiveProxyManager::ProxyFor(Object* target) {
  auto it = proxies_.find(target->oid());
  if (it != proxies_.end()) {
    ++stats_.proxies_reused;
    return it->second;
  }
  LocalScope scope(rt_.heap());
  scope.Add(target);
  OBISWAP_ASSIGN_OR_RETURN(Object * proxy, rt_.TryNewMiddleware(proxy_cls_));
  proxy->RawSlotMutable(kSlotTarget) = Value::Ref(target);
  proxy->RawSlotMutable(kSlotOid) =
      Value::Int(static_cast<int64_t>(target->oid().value()));
  proxy->RawSlotMutable(kSlotClass) = Value::Str(target->cls().name());
  proxies_[target->oid()] = proxy;
  ++stats_.proxies_created;
  return proxy;
}

Object* NaiveProxyManager::MediateStore(runtime::Runtime& rt, Object* holder,
                                        Object* value) {
  (void)rt;
  (void)holder;
  if (value == nullptr) return value;
  // "all references mediated": every stored reference to a regular object
  // goes through its surrogate, regardless of locality.
  if (value->kind() != ObjectKind::kRegular) return value;
  Result<Object*> proxy = ProxyFor(value);
  return proxy.ok() ? *proxy : value;
}

Status NaiveProxyManager::SwapOutObjects(
    const std::vector<Object*>& objects) {
  if (store_ == nullptr || discovery_ == nullptr)
    return FailedPreconditionError("no store client attached");
  auto describe = [](Object* external) -> Result<serialization::ExternalRef> {
    if (external->kind() != ObjectKind::kSwapClusterProxy &&
        external->kind() != ObjectKind::kReplicationProxy) {
      return InternalError("unmediated reference in naive baseline");
    }
    serialization::ExternalRef ref;
    ref.oid = external->kind() == ObjectKind::kSwapClusterProxy
                  ? SurrogateOid(external)
                  : ObjectId(static_cast<uint64_t>(
                        external->RawSlot(0).as_int()));
    ref.class_name = external->cls().name();
    return ref;
  };
  for (Object* obj : objects) {
    if (obj->kind() != ObjectKind::kRegular)
      return InvalidArgumentError("can only swap regular objects");
    // Per-object document + per-object store round trip (the migration
    // systems move objects one surrogate at a time).
    OBISWAP_ASSIGN_OR_RETURN(
        serialization::SerializedCluster doc,
        serialization::SerializeCluster(rt_, 0, {obj}, describe));
    std::vector<net::StoreNode*> stores =
        discovery_->NearbyStores(store_->self(), doc.payload.size());
    if (stores.empty()) return UnavailableError("no nearby store");
    SwapKey key((static_cast<uint64_t>(store_->self().value()) << 32) |
                next_key_++);
    OBISWAP_RETURN_IF_ERROR(
        store_->Store(stores.front()->device(), key, doc.payload));
    ++stats_.store_round_trips;
    stats_.bytes_swapped_out += doc.payload.size();

    // The surrogate remains, now marking a swapped object.
    OBISWAP_ASSIGN_OR_RETURN(Object * proxy, ProxyFor(obj));
    proxy->RawSlotMutable(kSlotTarget) = Value::Nil();
    proxy->RawSlotMutable(kSlotKey) =
        Value::Int(static_cast<int64_t>(key.value()));
    proxy->RawSlotMutable(kSlotDevice) =
        Value::Int(static_cast<int64_t>(stores.front()->device().value()));
    ++stats_.objects_swapped_out;
  }
  return OkStatus();
}

Result<Object*> NaiveProxyManager::FaultObject(Object* proxy) {
  if (store_ == nullptr)
    return FailedPreconditionError("no store client attached");
  SwapKey key(static_cast<uint64_t>(proxy->RawSlot(kSlotKey).as_int()));
  DeviceId device(
      static_cast<uint32_t>(proxy->RawSlot(kSlotDevice).as_int()));
  OBISWAP_ASSIGN_OR_RETURN(std::string xml_text, store_->Fetch(device, key));
  ++stats_.store_round_trips;

  auto resolve =
      [this](const serialization::ExternalRef& ref) -> Result<Object*> {
    auto it = proxies_.find(ref.oid);
    if (it != proxies_.end()) return it->second;
    return InternalError("swapped object references unknown surrogate oid " +
                         ref.oid.ToString());
  };
  serialization::DeserializeOptions options;
  options.expected_id = 0;
  OBISWAP_ASSIGN_OR_RETURN(
      std::vector<Object*> members,
      serialization::DeserializeCluster(rt_, xml_text, options, resolve));
  if (members.size() != 1)
    return DataLossError("expected exactly one object per naive document");
  Object* obj = members[0];
  proxy->RawSlotMutable(kSlotTarget) = Value::Ref(obj);
  proxy->RawSlotMutable(kSlotKey) = Value::Int(0);
  (void)store_->Drop(device, key);
  ++stats_.objects_swapped_in;
  return obj;
}

Result<Value> NaiveProxyManager::Invoke(runtime::Runtime& rt,
                                        Object* receiver,
                                        runtime::Selector method,
                                        runtime::Args args) {
  ++stats_.mediated_invocations;
  Object* target = receiver->RawSlot(kSlotTarget).ref();
  if (receiver->RawSlot(kSlotTarget).is_nil() || target == nullptr) {
    OBISWAP_ASSIGN_OR_RETURN(target, FaultObject(receiver));
  }
  Result<Value> result = rt.Invoke(target, method, args);
  if (!result.ok()) return result;
  Value value = *std::move(result);
  if (value.is_ref() && value.ref() != nullptr &&
      value.ref()->kind() == ObjectKind::kRegular) {
    // Every reference handed to the application is mediated.
    LocalScope scope(rt.heap());
    scope.Add(value.ref());
    OBISWAP_ASSIGN_OR_RETURN(Object * proxy, ProxyFor(value.ref()));
    value.set_ref(proxy);
  }
  return value;
}

}  // namespace obiswap::baseline
