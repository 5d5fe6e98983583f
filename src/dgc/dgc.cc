#include "dgc/dgc.h"

namespace obiswap::dgc {

using runtime::Object;

DgcServer::DgcServer(replication::ReplicationServer& server)
    : server_(server) {
  server_.SetShipObserver(this);
  server_.rt().heap().AddRootProvider(this);
}

DgcServer::~DgcServer() {
  server_.SetShipObserver(nullptr);
  server_.rt().heap().RemoveRootProvider(this);
}

void DgcServer::OnShipped(DeviceId device,
                          const std::vector<Object*>& shipped) {
  for (Object* master : shipped) {
    Scion& scion = scions_[master->oid()];
    scion.master = master;
    if (scion.holders.insert(device).second) ++stats_.scions_created;
  }
}

void DgcServer::OnReleased(DeviceId device,
                           const std::vector<ObjectId>& released) {
  for (ObjectId oid : released) {
    auto it = scions_.find(oid);
    if (it == scions_.end()) continue;
    if (it->second.holders.erase(device) > 0) ++stats_.scions_released;
    if (it->second.holders.empty()) scions_.erase(it);
  }
}

Status DgcServer::Release(DeviceId device,
                          const std::vector<ObjectId>& oids) {
  // Route through the server so session state stays consistent; the server
  // calls back into OnReleased.
  server_.ReleaseObjects(device, oids);
  return OkStatus();
}

size_t DgcServer::ScionCount(DeviceId device) const {
  size_t count = 0;
  for (const auto& [oid, scion] : scions_) {
    count += scion.holders.count(device);
  }
  return count;
}

size_t DgcServer::TotalScions() const {
  size_t count = 0;
  for (const auto& [oid, scion] : scions_) count += scion.holders.size();
  return count;
}

bool DgcServer::HasScion(DeviceId device, ObjectId oid) const {
  auto it = scions_.find(oid);
  return it != scions_.end() && it->second.holders.count(device) > 0;
}

void DgcServer::EnumerateRoots(
    const std::function<void(Object*)>& visit) {
  for (const auto& [oid, scion] : scions_) visit(scion.master);
}

ReleaseFn DirectRelease(replication::ReplicationServer& server) {
  return [&server](DeviceId device, const std::vector<ObjectId>& oids) {
    server.ReleaseObjects(device, oids);
    return OkStatus();
  };
}

DgcClient::DgcClient(runtime::Runtime& rt,
                     replication::DeviceEndpoint& endpoint,
                     swap::SwappingManager* swap, ReleaseFn release)
    : rt_(rt), endpoint_(endpoint), swap_(swap), release_(std::move(release)) {}

Result<size_t> DgcClient::RunCycle() {
  ++stats_.cycles;
  // A local collection first, so weak replica entries reflect reality.
  rt_.heap().Collect();

  std::unordered_set<ObjectId> held;
  endpoint_.ForEachLiveReplicaOid(
      [&held](ObjectId oid) { held.insert(oid); });
  if (swap_ != nullptr) {
    // Swapped-out members are held on the store device, not in the heap;
    // "the whole swap-cluster must be preserved" while reachable.
    for (SwapClusterId id : swap_->registry().Ids()) {
      const swap::SwapClusterInfo* info = swap_->registry().Find(id);
      if (info->state != swap::SwapState::kSwapped) continue;
      for (ObjectId oid : info->oids) held.insert(oid);
    }
  }

  // Candidates: everything ever received and not yet released; release
  // whatever is no longer held.
  std::vector<ObjectId> released;
  for (ObjectId oid : endpoint_.received_oids()) {
    if (held.count(oid) == 0) released.push_back(oid);
  }
  if (!released.empty()) {
    OBISWAP_RETURN_IF_ERROR(release_(endpoint_.self(), released));
    endpoint_.MarkReleased(released);
    stats_.releases_sent += released.size();
  }
  return released.size();
}

}  // namespace obiswap::dgc
