// Replication server: the master copy of the application's object graph.
//
// OBIWAN replicates objects "incrementally ... in groups (clusters) of
// adaptable size" (§1). The server owns the master Runtime, exposes named
// roots, and serves clusters: a fault request for object X returns a
// breadth-first cluster of up to cluster_size not-yet-sent objects starting
// at X, serialized as a cluster XML document. Per-device sessions track
// which objects each device already holds, so external references are
// encoded by identity and become replication proxies (or bind to existing
// replicas) on the device.
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "runtime/runtime.h"

namespace obiswap::replication {

/// Response to a root lookup: enough to create a typed proxy on the device.
struct RootInfo {
  ObjectId oid;
  std::string class_name;
};

/// Response to a cluster fault.
struct ClusterReply {
  ClusterId cluster;
  std::string xml;       ///< cluster document (serialization/graph_xml.h)
  size_t object_count = 0;
  /// (oid, master version) for each shipped object — present when a
  /// version provider (transactional support) is attached to the server.
  std::vector<std::pair<ObjectId, uint64_t>> versions;
};

class ReplicationServer {
 public:
  struct Stats {
    uint64_t root_requests = 0;
    uint64_t cluster_requests = 0;
    uint64_t objects_shipped = 0;
    uint64_t bytes_shipped = 0;
  };

  /// `rt` is the master runtime holding the application graph; it must
  /// outlive the server. `cluster_size` is the adaptable replication grain.
  explicit ReplicationServer(runtime::Runtime& rt, size_t cluster_size = 32)
      : rt_(rt), cluster_size_(cluster_size) {}

  runtime::Runtime& rt() { return rt_; }

  size_t cluster_size() const { return cluster_size_; }
  /// Adapts the replication grain (paper: "adaptable size").
  void set_cluster_size(size_t size) { cluster_size_ = size ? size : 1; }

  /// Publishes a master object under a name devices can ask for.
  Status PublishRoot(const std::string& name, runtime::Object* root);

  /// Looks up a published root.
  Result<RootInfo> GetRoot(const std::string& name);

  /// Serves the cluster containing `oid` for `device`: BFS over objects the
  /// device does not yet hold, capped at cluster_size. kNotFound if the oid
  /// is unknown; kFailedPrecondition if the device already holds it.
  Result<ClusterReply> FetchCluster(DeviceId device, ObjectId oid);

  /// A value snapshot of one master object (replica refresh): every
  /// non-reference field plus the current version. Structural changes are
  /// out of scope — they replicate through the object graph.
  struct ValueSnapshot {
    ObjectId oid;
    uint64_t version = 0;
    std::vector<std::pair<std::string, runtime::Value>> fields;
  };
  Result<ValueSnapshot> SnapshotValues(DeviceId device, ObjectId oid);

  /// Objects already shipped to `device` (session state).
  size_t SentCount(DeviceId device) const;
  bool HasShipped(DeviceId device, ObjectId oid) const;

  /// Drops a device's session (device re-replicates from scratch).
  void ForgetDevice(DeviceId device);

  /// DGC: the device reported these replicas unreachable. Removes them from
  /// the session (the device may re-replicate later) and notifies the ship
  /// observer with an empty ship so scion bookkeeping can react.
  void ReleaseObjects(DeviceId device, const std::vector<ObjectId>& oids);

  /// Observes every ship (DGC scion creation) and release. `shipped` is the
  /// master objects just sent; `released` the oids just released.
  struct ShipObserver {
    virtual ~ShipObserver() = default;
    virtual void OnShipped(DeviceId device,
                           const std::vector<runtime::Object*>& shipped) = 0;
    virtual void OnReleased(DeviceId device,
                            const std::vector<ObjectId>& released) = 0;
  };
  void SetShipObserver(ShipObserver* observer) { observer_ = observer; }
  ShipObserver* ship_observer() const { return observer_; }

  /// Transactional support: supplies the master version for each shipped
  /// object so device transactions can validate at commit time.
  using VersionProvider = std::function<uint64_t(ObjectId)>;
  void SetVersionProvider(VersionProvider provider) {
    version_provider_ = std::move(provider);
  }

  const Stats& stats() const { return stats_; }

  /// The master object with `oid`, or nullptr. Walks the whole heap.
  runtime::Object* FindByOid(ObjectId oid);

 private:
  runtime::Runtime& rt_;
  size_t cluster_size_;
  uint32_t next_cluster_id_ = 1;
  std::unordered_map<std::string, runtime::Object*> roots_;
  std::unordered_map<DeviceId, std::unordered_set<ObjectId>> sessions_;
  ShipObserver* observer_ = nullptr;
  VersionProvider version_provider_;
  Stats stats_;
};

}  // namespace obiswap::replication
