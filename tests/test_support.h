// Shared helpers for obiswap tests: a paper-style Node class, list-workload
// builders, a fully wired middleware world, and graph invariant checkers.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "obiswap/obiswap.h"

namespace obiswap::testing {

/// Registers the micro-benchmark's list-node class (paper §5: "a list of
/// 10000 64-byte objects" with "simple (quasi-empty) methods"):
///   next            — returns the next-element reference
///   get_value       — returns the int payload
///   step(depth)     — test A1's recursion: step along the list,
///                     incrementing depth; returns final depth
///   probe(remaining)— test A2's inner recursion: walk up to `remaining`
///                     elements ahead, return a reference to the object
///                     reached (no graph mutation)
inline const runtime::ClassInfo* RegisterNodeClass(runtime::Runtime& rt) {
  using runtime::Object;
  using runtime::Value;
  return *rt.types().Register(
      runtime::ClassBuilder("Node")
          .Field("next", runtime::ValueKind::kRef)
          .Field("value", runtime::ValueKind::kInt)
          .PayloadBytes(64)
          .Method("next",
                  [](runtime::Runtime& r, Object* self, runtime::Args) {
                    return Result<Value>(r.GetFieldAt(self, 0));
                  })
          .Method("get_value",
                  [](runtime::Runtime& r, Object* self, runtime::Args) {
                    return Result<Value>(r.GetFieldAt(self, 1));
                  })
          .Method("set_value",
                  [](runtime::Runtime& r, Object* self,
                     runtime::Args args) -> Result<Value> {
                    OBISWAP_RETURN_IF_ERROR(
                        r.SetFieldAt(self, 1, args[0]));
                    return Value::Nil();
                  })
          .Method("step",
                  [](runtime::Runtime& r, Object* self,
                     runtime::Args args) -> Result<Value> {
                    int64_t depth = args.empty() ? 0 : args[0].as_int();
                    const Value& next = r.GetFieldAt(self, 0);
                    if (!next.is_ref() || next.ref() == nullptr)
                      return Value::Int(depth);
                    return r.Invoke(next.ref(), "step",
                                    {Value::Int(depth + 1)});
                  })
          .Method("probe",
                  [](runtime::Runtime& r, Object* self,
                     runtime::Args args) -> Result<Value> {
                    int64_t remaining = args.empty() ? 0 : args[0].as_int();
                    const Value& next = r.GetFieldAt(self, 0);
                    if (remaining <= 0 || !next.is_ref() ||
                        next.ref() == nullptr)
                      return Value::Ref(self);
                    return r.Invoke(next.ref(), "probe",
                                    {Value::Int(remaining - 1)});
                  })
          .Method("walk",  // test A2's outer recursion: probe(10) per step
                  [](runtime::Runtime& r, Object* self,
                     runtime::Args args) -> Result<Value> {
                    int64_t depth = args.empty() ? 0 : args[0].as_int();
                    OBISWAP_ASSIGN_OR_RETURN(
                        Value reached,
                        r.Invoke(self, "probe", {Value::Int(10)}));
                    (void)reached;
                    const Value& next = r.GetFieldAt(self, 0);
                    if (!next.is_ref() || next.ref() == nullptr)
                      return Value::Int(depth);
                    return r.Invoke(next.ref(), "walk",
                                    {Value::Int(depth + 1)});
                  }));
}

/// Builds an n-element list, placing every `per_cluster` consecutive nodes
/// in a fresh swap-cluster, and publishes the head under `global`. Node i
/// has value i. Returns the created swap-cluster ids in list order.
inline std::vector<SwapClusterId> BuildClusteredList(
    runtime::Runtime& rt, swap::SwappingManager& manager,
    const runtime::ClassInfo* node_cls, int n, int per_cluster,
    const std::string& global) {
  using runtime::Value;
  std::vector<SwapClusterId> clusters;
  int cluster_count = (n + per_cluster - 1) / per_cluster;
  for (int i = 0; i < cluster_count; ++i)
    clusters.push_back(manager.NewSwapCluster());

  runtime::LocalScope scope(rt.heap());
  runtime::Object** head_slot = scope.Add(nullptr);
  for (int i = n - 1; i >= 0; --i) {
    runtime::Object* node = rt.New(node_cls);
    OBISWAP_CHECK(manager.Place(node, clusters[i / per_cluster]).ok());
    OBISWAP_CHECK(rt.SetField(node, "value", Value::Int(i)).ok());
    if (*head_slot != nullptr) {
      OBISWAP_CHECK(rt.SetField(node, "next", Value::Ref(*head_slot)).ok());
    }
    *head_slot = node;
  }
  OBISWAP_CHECK(rt.SetGlobal(global, Value::Ref(*head_slot)).ok());
  return clusters;
}

/// A fully wired device-side middleware stack: simulated network with the
/// mobile device, discovery, store client, event bus, swapping manager.
struct MiddlewareWorld {
  explicit MiddlewareWorld(
      swap::SwappingManager::Options options = swap::SwappingManager::Options(),
      size_t heap_capacity = SIZE_MAX)
      : network(7),
        discovery(network),
        rt(1, heap_capacity),
        client(network, discovery, kDevice),
        manager(rt, options) {
    network.AddDevice(kDevice);
    manager.AttachStore(&client, &discovery);
    manager.AttachBus(&bus);
  }

  /// Adds an in-range store device with the given capacity.
  net::StoreNode* AddStore(uint32_t device_value, size_t capacity) {
    DeviceId device(device_value);
    network.AddDevice(device);
    network.SetInRange(kDevice, device, true);
    stores.push_back(std::make_unique<net::StoreNode>(device, capacity));
    discovery.Announce(stores.back().get());
    return stores.back().get();
  }

  static constexpr DeviceId kDevice = DeviceId(1);

  net::Network network;
  net::Discovery discovery;
  std::vector<std::unique_ptr<net::StoreNode>> stores;
  context::EventBus bus;
  runtime::Runtime rt;
  net::StoreClient client;
  swap::SwappingManager manager;
};

/// Checks the paper's mediation invariant over the whole heap: every
/// reference held by a regular object either stays inside its swap-cluster
/// or goes through a swap-cluster-proxy whose source is the holder's
/// cluster. Returns a description of the first violation, or "".
inline std::string CheckMediationInvariant(runtime::Runtime& rt) {
  std::string violation;
  rt.heap().ForEachObject([&](runtime::Object* holder) {
    if (!violation.empty()) return;
    if (holder->kind() != runtime::ObjectKind::kRegular) return;
    for (size_t i = 0; i < holder->slot_count(); ++i) {
      const runtime::Value& slot = holder->RawSlot(i);
      if (!slot.is_ref() || slot.ref() == nullptr) continue;
      runtime::Object* target = slot.ref();
      switch (target->kind()) {
        case runtime::ObjectKind::kRegular:
          if (target->swap_cluster() != holder->swap_cluster()) {
            violation = "raw cross-cluster ref from oid " +
                        holder->oid().ToString() + " to oid " +
                        target->oid().ToString();
          }
          break;
        case runtime::ObjectKind::kSwapClusterProxy:
          if (swap::ProxySource(target) != holder->swap_cluster()) {
            violation = "proxy with wrong source held by oid " +
                        holder->oid().ToString();
          }
          break;
        case runtime::ObjectKind::kReplicationProxy:
          break;  // raw replication proxies are legal anywhere
        case runtime::ObjectKind::kReplacement:
          violation = "application object references a replacement-object";
          break;
      }
    }
  });
  return violation;
}

/// Checks the replica service's holdings index covers the registry: every
/// replica any registry entry lists — swapped payload, delta base, retained
/// image — has its cluster among `Holders(device)`. The device's own flash
/// never departs or withdraws, so its copies are skipped. Returns a
/// description of the first violation, or "".
inline std::string CheckHoldingsIndex(swap::SwappingManager& manager) {
  swap::ReplicaService& service = manager.replicas();
  for (SwapClusterId id : manager.registry().Ids()) {
    const swap::SwapClusterInfo* info = manager.registry().Find(id);
    if (info == nullptr) continue;
    std::vector<const swap::StoredPayload*> payloads = {info};
    if (info->clean_image.has_value()) payloads.push_back(&*info->clean_image);
    for (const swap::StoredPayload* payload : payloads) {
      for (const auto* list : {&payload->replicas, &payload->base_replicas}) {
        for (const swap::ReplicaLocation& replica : *list) {
          if (service.IsLocalDevice(replica.device)) continue;
          const std::vector<SwapClusterId> held =
              service.Holders(replica.device);
          if (!std::binary_search(held.begin(), held.end(), id)) {
            return "swap-cluster " + id.ToString() + " lists a replica on " +
                   "device " + std::to_string(replica.device.value()) +
                   " missing from its holdings";
          }
        }
      }
    }
  }
  return "";
}

/// Sums `get_value` along a list by repeated mediated invocation starting
/// from global `name`; verifies transparent traversal end-to-end. The
/// cursor lives in a global (the paper's iteration pattern: variables are
/// swap-cluster-0 members), which also makes it a GC root — plain C++
/// locals are not roots, so middleware activity between invocations could
/// otherwise collect the cursor's proxy.
inline Result<int64_t> SumList(runtime::Runtime& rt,
                               const std::string& global) {
  using runtime::Value;
  OBISWAP_ASSIGN_OR_RETURN(Value start, rt.GetGlobal(global));
  OBISWAP_RETURN_IF_ERROR(rt.SetGlobal("__sum_cursor", start));
  int64_t sum = 0;
  int guard = 0;
  for (;;) {
    Value cursor = *rt.GetGlobal("__sum_cursor");
    if (!cursor.is_ref() || cursor.ref() == nullptr) break;
    OBISWAP_ASSIGN_OR_RETURN(Value value,
                             rt.Invoke(cursor.ref(), "get_value"));
    sum += value.as_int();
    OBISWAP_ASSIGN_OR_RETURN(Value next, rt.Invoke(cursor.ref(), "next"));
    OBISWAP_RETURN_IF_ERROR(rt.SetGlobal("__sum_cursor", next));
    if (++guard > 1000000)
      return InternalError("list traversal did not terminate");
  }
  rt.RemoveGlobal("__sum_cursor");
  return sum;
}

}  // namespace obiswap::testing
