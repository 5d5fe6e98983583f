// Device endpoint: incremental replication with object-fault handling.
//
// The device holds replicas plus replication proxies for objects not yet
// replicated. "When these proxies are invoked, object replication is
// triggered and, after replicating another cluster of objects, the proxies
// are removed from the object graph (i.e., replaced by the actual object
// replicas)" (§1) — so once replicated, invocation runs at full speed with
// no indirection. When the swapping layer is installed, replacement stores
// go through the runtime's store mediation, which is exactly where
// cross-swap-cluster references acquire their permanent swap-cluster-proxies
// ("proxy replacement is performed differently", §3).
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/ids.h"
#include "common/status.h"
#include "context/events.h"
#include "replication/server.h"
#include "runtime/runtime.h"

namespace obiswap::replication {

/// How the device reaches the server. DirectLink is in-process; NetworkLink
/// (transport.h) adds the web-service bridge and link costs.
class ServerLink {
 public:
  virtual ~ServerLink() = default;
  virtual Result<RootInfo> GetRoot(const std::string& name) = 0;
  virtual Result<ClusterReply> FetchCluster(DeviceId device, ObjectId oid) = 0;
  virtual Result<ReplicationServer::ValueSnapshot> SnapshotValues(
      DeviceId device, ObjectId oid) = 0;
};

/// In-process link (tests, single-process examples).
class DirectLink : public ServerLink {
 public:
  explicit DirectLink(ReplicationServer& server) : server_(server) {}
  Result<RootInfo> GetRoot(const std::string& name) override {
    return server_.GetRoot(name);
  }
  Result<ClusterReply> FetchCluster(DeviceId device, ObjectId oid) override {
    return server_.FetchCluster(device, oid);
  }
  Result<ReplicationServer::ValueSnapshot> SnapshotValues(
      DeviceId device, ObjectId oid) override {
    return server_.SnapshotValues(device, oid);
  }

 private:
  ReplicationServer& server_;
};

class DeviceEndpoint : public runtime::Interceptor {
 public:
  struct Stats {
    uint64_t object_faults = 0;
    uint64_t clusters_replicated = 0;
    uint64_t objects_replicated = 0;
    uint64_t references_patched = 0;
    uint64_t proxies_created = 0;
  };

  /// Installs itself as the runtime's kReplicationProxy interceptor and
  /// registers the proxy class. `bus` (optional) receives
  /// cluster-replicated events — the SwappingManager listens there.
  DeviceEndpoint(runtime::Runtime& rt, ServerLink& link, DeviceId self,
                 context::EventBus* bus = nullptr);

  /// Fetches (a proxy for) a published root. The returned object is a
  /// replication proxy until first invocation, matching lazy replication.
  Result<runtime::Object*> FetchRoot(const std::string& name);

  /// Forces replication of the cluster containing `oid` (prefetch).
  Result<runtime::Object*> Materialize(ObjectId oid);

  /// Replica refresh: re-fetches the master's *value* fields for `oid` and
  /// applies them to the local replica, advancing its known version
  /// (transaction conflict recovery: refresh, then retry). Structural
  /// (reference) state is never refreshed — it replicates through faults.
  /// The replica must be resident; kFailedPrecondition if it is swapped
  /// out or was never replicated.
  Result<uint64_t> RefreshValues(ObjectId oid);

  /// The local replica for `oid`, or nullptr (never faults).
  runtime::Object* FindReplica(ObjectId oid);

  /// Visits the oid of every replica still live in the local heap (prunes
  /// dead entries). The DGC client diffs this against what the server
  /// thinks the device holds.
  void ForEachLiveReplicaOid(const std::function<void(ObjectId)>& visit);

  /// Every oid this device has ever received and not yet released — the
  /// DGC client's universe of candidates.
  const std::unordered_set<ObjectId>& received_oids() const {
    return received_;
  }
  /// DGC reported these to the server as released; forget them locally so
  /// a later re-replication is tracked afresh.
  void MarkReleased(const std::vector<ObjectId>& oids);

  /// Transactional support taps the versions that travel with replicated
  /// clusters.
  using VersionSink = std::function<void(ObjectId, uint64_t)>;
  void SetVersionSink(VersionSink sink) { version_sink_ = std::move(sink); }

  /// Interceptor: invocation on a replication proxy = object fault.
  Result<runtime::Value> Invoke(runtime::Runtime& rt,
                                runtime::Object* receiver,
                                runtime::Selector method,
                                runtime::Args args) override;

  const Stats& stats() const { return stats_; }
  DeviceId self() const { return self_; }

 private:
  /// Finds or creates the replication proxy standing in for `oid`.
  Result<runtime::Object*> ProxyFor(ObjectId oid,
                                    const std::string& class_name);
  /// Replicates the cluster containing `oid`; returns the replica.
  Result<runtime::Object*> Fault(ObjectId oid);
  /// Proxy replacement: all references to `proxy` are re-pointed at `real`
  /// (through store mediation for application objects).
  void ReplaceProxy(runtime::Object* proxy, runtime::Object* real);

  runtime::Runtime& rt_;
  ServerLink& link_;
  DeviceId self_;
  context::EventBus* bus_;
  const runtime::ClassInfo* proxy_cls_;
  std::unordered_map<ObjectId, runtime::WeakRef> replicas_;
  std::unordered_map<ObjectId, runtime::WeakRef> proxies_;
  std::unordered_set<ObjectId> received_;
  VersionSink version_sink_;
  Stats stats_;
};

}  // namespace obiswap::replication
