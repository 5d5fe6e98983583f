#include "replication/device.h"

#include "common/logging.h"
#include "serialization/graph_xml.h"

namespace obiswap::replication {

using runtime::ClassBuilder;
using runtime::ClassInfo;
using runtime::LocalScope;
using runtime::Object;
using runtime::ObjectKind;
using runtime::Value;
using runtime::ValueKind;

namespace {
constexpr const char* kProxyClassName = "obiwan.ReplicationProxy";
constexpr size_t kSlotOid = 0;
constexpr size_t kSlotClassName = 1;

Object* LookupWeak(std::unordered_map<ObjectId, runtime::WeakRef>& table,
                   ObjectId oid) {
  auto it = table.find(oid);
  if (it == table.end()) return nullptr;
  Object* target = it->second->get();
  if (target == nullptr) table.erase(it);
  return target;
}
}  // namespace

DeviceEndpoint::DeviceEndpoint(runtime::Runtime& rt, ServerLink& link,
                               DeviceId self, context::EventBus* bus)
    : rt_(rt), link_(link), self_(self), bus_(bus) {
  const ClassInfo* existing = rt_.types().Find(kProxyClassName);
  if (existing != nullptr) {
    proxy_cls_ = existing;
  } else {
    proxy_cls_ = *rt_.types().Register(
        ClassBuilder(kProxyClassName)
            .Kind(ObjectKind::kReplicationProxy)
            .Field("oid", ValueKind::kInt)
            .Field("class", ValueKind::kStr));
  }
  rt_.SetInterceptor(ObjectKind::kReplicationProxy, this);
}

Result<Object*> DeviceEndpoint::ProxyFor(ObjectId oid,
                                         const std::string& class_name) {
  if (Object* proxy = LookupWeak(proxies_, oid); proxy != nullptr)
    return proxy;
  OBISWAP_ASSIGN_OR_RETURN(Object * proxy, rt_.TryNewMiddleware(proxy_cls_));
  proxy->RawSlotMutable(kSlotOid) =
      Value::Int(static_cast<int64_t>(oid.value()));
  proxy->RawSlotMutable(kSlotClassName) = Value::Str(class_name);
  proxies_[oid] = rt_.heap().NewWeakRef(proxy);
  ++stats_.proxies_created;
  return proxy;
}

Result<Object*> DeviceEndpoint::FetchRoot(const std::string& name) {
  OBISWAP_ASSIGN_OR_RETURN(RootInfo info, link_.GetRoot(name));
  if (Object* replica = FindReplica(info.oid); replica != nullptr)
    return replica;
  return ProxyFor(info.oid, info.class_name);
}

Object* DeviceEndpoint::FindReplica(ObjectId oid) {
  if (Object* replica = LookupWeak(replicas_, oid); replica != nullptr)
    return replica;
  // The weak entry clears when the replica's swap-cluster is swapped out;
  // swapping back in re-creates the object with the same identity. Fall
  // back to a heap scan and re-register on hit.
  if (received_.count(oid) == 0) return nullptr;
  Object* found = nullptr;
  rt_.heap().ForEachObject([&](Object* obj) {
    if (obj->kind() == runtime::ObjectKind::kRegular && obj->oid() == oid)
      found = obj;
  });
  if (found != nullptr) replicas_[oid] = rt_.heap().NewWeakRef(found);
  return found;
}

void DeviceEndpoint::MarkReleased(const std::vector<ObjectId>& oids) {
  for (ObjectId oid : oids) received_.erase(oid);
}

void DeviceEndpoint::ForEachLiveReplicaOid(
    const std::function<void(ObjectId)>& visit) {
  for (auto it = replicas_.begin(); it != replicas_.end();) {
    if (it->second->get() == nullptr) {
      it = replicas_.erase(it);
    } else {
      visit(it->first);
      ++it;
    }
  }
}

Result<Object*> DeviceEndpoint::Materialize(ObjectId oid) {
  if (Object* replica = FindReplica(oid); replica != nullptr) return replica;
  return Fault(oid);
}

Result<uint64_t> DeviceEndpoint::RefreshValues(ObjectId oid) {
  Object* replica = FindReplica(oid);
  if (replica == nullptr)
    return FailedPreconditionError(
        "replica " + oid.ToString() +
        " is not resident (never replicated, collected, or swapped out)");
  OBISWAP_ASSIGN_OR_RETURN(ReplicationServer::ValueSnapshot snapshot,
                           link_.SnapshotValues(self_, oid));
  for (auto& [field, value] : snapshot.fields) {
    size_t slot = replica->cls().FieldIndex(field);
    if (slot == runtime::ClassInfo::kNpos)
      return DataLossError("snapshot field '" + field +
                           "' unknown to local class " +
                           replica->cls().name());
    // Middleware-level write: value fields only, no mediation needed.
    replica->RawSlotMutable(slot) = std::move(value);
  }
  rt_.heap().RefreshAccounting(replica);
  if (version_sink_) version_sink_(oid, snapshot.version);
  return snapshot.version;
}

Result<Object*> DeviceEndpoint::Fault(ObjectId oid) {
  ++stats_.object_faults;
  OBISWAP_ASSIGN_OR_RETURN(ClusterReply reply,
                           link_.FetchCluster(self_, oid));

  // Re-create the cluster's objects locally. External refs bind to existing
  // replicas or to (possibly fresh) replication proxies.
  auto resolve = [this](const serialization::ExternalRef& ref)
      -> Result<Object*> {
    if (Object* replica = FindReplica(ref.oid); replica != nullptr)
      return replica;
    return ProxyFor(ref.oid, ref.class_name);
  };
  serialization::DeserializeOptions options;
  options.expected_id = static_cast<int64_t>(reply.cluster.value());
  OBISWAP_ASSIGN_OR_RETURN(
      std::vector<Object*> members,
      serialization::DeserializeCluster(rt_, reply.xml, options, resolve));

  LocalScope scope(rt_.heap());
  for (Object* member : members) scope.Add(member);

  for (Object* member : members) {
    replicas_[member->oid()] = rt_.heap().NewWeakRef(member);
    received_.insert(member->oid());
  }
  if (version_sink_) {
    for (const auto& [member_oid, version] : reply.versions) {
      version_sink_(member_oid, version);
    }
  }
  ++stats_.clusters_replicated;
  stats_.objects_replicated += members.size();

  // Announce before proxy replacement so the swapping layer can label the
  // new replicas with swap-clusters first — replacement stores then create
  // swap-cluster-proxies for cross-swap-cluster references.
  if (bus_ != nullptr) {
    context::Event event(context::kEventClusterReplicated);
    event.Set("cluster", static_cast<int64_t>(reply.cluster.value()));
    event.Set("count", static_cast<int64_t>(members.size()));
    bus_->Publish(event);
  }

  // Proxy replacement: re-point every reference held by a replication proxy
  // for one of the new replicas.
  for (Object* member : members) {
    if (Object* proxy = LookupWeak(proxies_, member->oid());
        proxy != nullptr) {
      ReplaceProxy(proxy, member);
      proxies_.erase(member->oid());
    }
  }

  Object* replica = FindReplica(oid);
  if (replica == nullptr)
    return InternalError("fault for oid " + oid.ToString() +
                         " did not deliver the object");
  return replica;
}

void DeviceEndpoint::ReplaceProxy(Object* proxy, Object* real) {
  rt_.heap().ForEachObject([&](Object* holder) {
    if (holder == proxy) return;
    for (size_t i = 0; i < holder->slot_count(); ++i) {
      const Value& slot = holder->RawSlot(i);
      if (!slot.is_ref() || slot.ref() != proxy) continue;
      if (holder->kind() == ObjectKind::kRegular) {
        // Application object: go through the barrier so the store is
        // mediated (swap-cluster-proxies appear here when swapping is on).
        Status status = rt_.SetFieldAt(holder, i, Value::Ref(real));
        OBISWAP_CHECK(status.ok());
      } else {
        // Middleware object (swap-cluster-proxy, replacement...): raw patch.
        holder->RawSlotMutable(i).set_ref(real);
      }
      ++stats_.references_patched;
    }
  });
  for (const auto& [name, target] : rt_.GlobalRefs()) {
    if (target == proxy) {
      Status status = rt_.SetGlobal(name, Value::Ref(real));
      OBISWAP_CHECK(status.ok());
      ++stats_.references_patched;
    }
  }
}

Result<Value> DeviceEndpoint::Invoke(runtime::Runtime& rt, Object* receiver,
                                     runtime::Selector method,
                                     runtime::Args args) {
  ObjectId oid(
      static_cast<uint64_t>(receiver->RawSlot(kSlotOid).as_int()));
  Object* replica = FindReplica(oid);
  if (replica == nullptr) {
    LocalScope scope(rt.heap());
    scope.Add(receiver);
    OBISWAP_ASSIGN_OR_RETURN(replica, Fault(oid));
  }
  // Forward. Returned raw references get mediated when stored (the write
  // barrier) — transient use needs no proxy.
  return rt.Invoke(replica, method, args);
}

}  // namespace obiswap::replication
