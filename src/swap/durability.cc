#include "swap/durability.h"

#include <algorithm>

#include "fleet/placement.h"

namespace obiswap::swap {

DurabilityMonitor::DurabilityMonitor(SwappingManager& manager,
                                     net::Discovery& discovery, DeviceId self,
                                     context::EventBus& bus,
                                     context::PropertyRegistry* props,
                                     Options options)
    : manager_(manager),
      discovery_(discovery),
      self_(self),
      bus_(bus),
      props_(props),
      options_(options),
      repair_pacer_(options.pace_repairs) {
  // Replica-count changes flow through the bus; the monitor only re-reads
  // the clusters those events name. A handler never touches the registry
  // directly — Publish is synchronous and may run mid-swap, so it just
  // queues the id for the next poll.
  auto mark_cluster = [this](const context::Event& event) {
    int64_t id = event.GetIntOr("swap_cluster", -1);
    if (id >= 0)
      dirty_clusters_.insert(SwapClusterId(static_cast<uint32_t>(id)));
  };
  for (const char* type :
       {context::kEventClusterSwappedOut, context::kEventClusterSwappedIn,
        context::kEventClusterDropped, context::kEventReReplicated,
        context::kEventReplicaLost}) {
    bus_tokens_.push_back(bus_.Subscribe(type, mark_cluster));
  }
}

DurabilityMonitor::~DurabilityMonitor() {
  for (uint64_t token : bus_tokens_) bus_.Unsubscribe(token);
}

namespace {
/// Some store group of the cluster holds fewer than `want` replicas.
bool UnderReplicated(const SwapClusterInfo* info, size_t want) {
  if (info == nullptr) return false;
  for (const ConstStoreGroup& group : info->Groups())
    if (group.replicas->size() < want) return true;
  return false;
}
}  // namespace

size_t DurabilityMonitor::ReplicaRecords(const SwapClusterInfo* info) {
  if (info == nullptr) return 0;
  size_t records = 0;
  for (const ConstStoreGroup& group : info->Groups())
    records += group.replicas->size();
  return records;
}

void DurabilityMonitor::RefreshCluster(SwapClusterId id) {
  const SwapClusterInfo* info = manager_.registry().Find(id);
  const size_t records = ReplicaRecords(info);
  auto rec_it = cluster_records_.find(id);
  total_records_ -= rec_it == cluster_records_.end() ? 0 : rec_it->second;
  total_records_ += records;
  if (records == 0) {
    if (rec_it != cluster_records_.end()) cluster_records_.erase(rec_it);
  } else {
    cluster_records_[id] = records;
  }
  if (UnderReplicated(info, manager_.options().replication_factor))
    under_replicated_.insert(id);
  else
    under_replicated_.erase(id);
}

void DurabilityMonitor::Rebuild() {
  cluster_records_.clear();
  total_records_ = 0;
  under_replicated_.clear();
  for (SwapClusterId id : manager_.registry().Ids()) RefreshCluster(id);
  // A rebuild is one honest full scan and is metered as such.
  stats_.scan_replicas += total_records_;
}

bool DurabilityMonitor::RebuildIfStale() {
  const size_t want = manager_.options().replication_factor;
  // Events only name clusters; a recovery replaces the whole registry and
  // a replication-factor change moves the under-replication threshold for
  // every cluster at once. Both force a rebuild, as does the first poll.
  if (want != last_want_ || manager_.stats().recoveries != last_recoveries_)
    rebuild_pending_ = true;
  last_want_ = want;
  last_recoveries_ = manager_.stats().recoveries;
  if (!rebuild_pending_) return false;
  rebuild_pending_ = false;
  dirty_clusters_.clear();
  Rebuild();
  return true;
}

void DurabilityMonitor::DrainDirtyClusters() {
  if (RebuildIfStale()) return;
  std::set<SwapClusterId> dirty;
  dirty.swap(dirty_clusters_);
  for (SwapClusterId id : dirty) {
    const SwapClusterInfo* info = manager_.registry().Find(id);
    stats_.scan_replicas += ReplicaRecords(info);
    RefreshCluster(id);
  }
}

void DurabilityMonitor::SyncDirectory(const std::vector<DeviceId>& announced) {
  if (directory_ == nullptr) return;
  // Announced-but-unknown stores join, weighted by advertised capacity
  // (MiB granularity, floored at 1) so a double-size store wins
  // proportionally more keys. Existing members keep their weight — a
  // policy override survives the sync.
  for (DeviceId device : announced) {
    if (device == self_ || directory_->Contains(device)) continue;
    double weight = 1.0;
    net::StoreNode* node = discovery_.NodeFor(device);
    if (node != nullptr) {
      weight = std::max(
          1.0, static_cast<double>(node->capacity_bytes()) / (1 << 20));
    }
    directory_->AddStore(device, weight);
  }
  std::vector<DeviceId> members = directory_->Stores();
  for (DeviceId device : members) {
    if (!std::binary_search(announced.begin(), announced.end(), device))
      directory_->RemoveStore(device);
  }
  if (health_ != nullptr) {
    for (DeviceId device : directory_->Stores())
      directory_->SetHealthy(device, health_->IsHealthy(device));
  }
}

void DurabilityMonitor::Poll() {
  // The bus is the under-replicated set's only input: a manager publishing
  // elsewhere would leave every repair silently undone.
  OBISWAP_CHECK(manager_.bus() == &bus_);
  // A crashed manager must not be driven by maintenance: every repair
  // action would hit the crash gate anyway, and the poll's own bookkeeping
  // would drift from the state recovery is about to rebuild.
  if (manager_.crashed()) return;
  if (!manager_.CheckFaultPoint("durability.poll").ok()) return;
  telemetry::ScopedSpan span(
      &manager_.telemetry(), "durability_poll", "durability",
      telemetry::Hist(&manager_.telemetry(), "durability_poll_us"));
  ++stats_.polls;

  std::vector<DeviceId> announced = discovery_.AnnouncedDevices();

  // Pure bookkeeping — no RPCs, no clock: replaying the event-fed queues
  // up front means the departure/sweep passes below see the registry as
  // it stands.
  DrainDirtyClusters();

  // A withdrawn announcement is an explicit departure.
  for (DeviceId device : last_announced_) {
    if (!std::binary_search(announced.begin(), announced.end(), device))
      HandleDeparture(device);
  }

  // Announced but silent: after miss_threshold consecutive unreachable
  // polls the store is presumed gone (fires once per silence streak — the
  // counter keeps climbing past the threshold without re-firing, and
  // resets the moment the store is heard from again).
  for (DeviceId device : announced) {
    if (device == self_) continue;
    if (discovery_.IsNearby(self_, device)) {
      misses_.erase(device);
      continue;
    }
    int count = ++misses_[device];
    if (count == options_.miss_threshold) HandleDeparture(device);
  }
  for (auto it = misses_.begin(); it != misses_.end();) {
    if (std::binary_search(announced.begin(), announced.end(), it->first))
      ++it;
    else
      it = misses_.erase(it);
  }

  SyncDirectory(announced);

  // Degraded-mode gate: count *healthy* stores — announced, reachable and
  // (with a tracker attached) breaker-closed. Fewer healthy stores than
  // the replication factor means full-K placement can only thrash the sick
  // neighborhood: enter brownout (reduced effective K, sweep deferred) and
  // leave it — repaying the queued re-replication debt — on recovery.
  // Only active once a tracker is attached — an unwired monitor keeps the
  // exact pre-degraded-mode behavior.
  if (health_ != nullptr) {
    const size_t want = manager_.options().replication_factor;
    size_t healthy = 0;
    for (DeviceId device : announced) {
      if (device == self_) continue;
      if (discovery_.IsNearby(self_, device) && health_->IsHealthy(device))
        ++healthy;
    }
    if (healthy < want)
      manager_.EnterBrownout("healthy stores below replication factor");
    else if (manager_.brownout())
      manager_.ExitBrownout();
    if (props_ != nullptr) {
      props_->SetInt("swap.healthy_stores", static_cast<int64_t>(healthy));
      props_->SetInt("swap.open_breakers",
                     static_cast<int64_t>(health_->open_count()));
      props_->SetInt("swap.brownout", manager_.brownout() ? 1 : 0);
    }
  }

  // Clean images whose members all died back garbage: release them before
  // the sweep so the re-replication budget is not spent on dead payloads.
  const size_t reaped = manager_.ReapDeadCleanImages();
  stats_.clean_images_reaped += reaped;
  if (reaped > 0) {
    // A reaped image leaves no bus trace; the affected clusters had empty
    // active lists (that is what made them reapable), so they are all
    // sitting in the under-replicated set — re-check just those.
    std::vector<SwapClusterId> suspects(under_replicated_.begin(),
                                        under_replicated_.end());
    for (SwapClusterId id : suspects) {
      const SwapClusterInfo* info = manager_.registry().Find(id);
      if (info == nullptr || info->Groups().empty()) RefreshCluster(id);
    }
  }

  // A policy listener (store-departed, replica-lost) may have moved K
  // since the poll began; the sweep and the gauge need the set at this K.
  RebuildIfStale();
  if (manager_.brownout()) {
    // Re-replication debt is deferred, not forgiven: placing extra copies
    // on a neighborhood already below K would compete with demand traffic
    // for the surviving stores. The next healthy poll repays it.
    ++stats_.sweeps_deferred;
  } else {
    ReReplicationSweep();
  }

  stats_.drops_drained += manager_.replicas().FlushPendingDrops();

  if (props_ != nullptr) {
    RebuildIfStale();  // a re-replicated listener may have moved K too
    // The set is a superset (a brownout poll reconciles no stale entry),
    // so the gauge counts the members that really are below K.
    const size_t want = manager_.options().replication_factor;
    const int64_t under = std::count_if(
        under_replicated_.begin(), under_replicated_.end(),
        [&](SwapClusterId id) {
          return UnderReplicated(manager_.registry().Find(id), want);
        });
    props_->SetInt("swap.store_churn",
                   static_cast<int64_t>(stats_.stores_departed));
    props_->SetInt("swap.under_replicated", under);
    props_->SetInt(
        "swap.pending_drops",
        static_cast<int64_t>(manager_.replicas().pending_drop_count()));
    props_->SetInt("durability.scan_replicas",
                   static_cast<int64_t>(stats_.scan_replicas));
    if (directory_ != nullptr) {
      props_->SetInt("fleet.view_epoch",
                     static_cast<int64_t>(directory_->view_epoch()));
      props_->SetInt("fleet.stores",
                     static_cast<int64_t>(directory_->size()));
    }
  }

  last_announced_ = std::move(announced);
}

void DurabilityMonitor::HandleDeparture(DeviceId device) {
  ++stats_.stores_departed;
  // Refresh the churn gauge before publishing so policy rules triggered by
  // this very event ("store-departed" → raise K) see the current count.
  if (props_ != nullptr) {
    props_->SetInt("swap.store_churn",
                   static_cast<int64_t>(stats_.stores_departed));
  }
  bus_.Publish(context::Event(context::kEventStoreDeparted)
                   .Set("device", static_cast<int64_t>(device.value())));
  // What a full scan of the registry would examine here.
  stats_.full_scan_replicas += total_records_;
  // Only the clusters the holdings index maps to the departed store, in
  // ascending cluster order, each re-checked against the registry.
  ReplicaService& replicas = manager_.replicas();
  for (SwapClusterId id : replicas.Holders(device)) {
    const SwapClusterInfo* info = manager_.registry().Find(id);
    stats_.scan_replicas += ReplicaRecords(info);
    // Both swapped payloads and retained clean images hold store replicas;
    // HasReplicaOn / ForgetReplica cover every group the state holds.
    if (info != nullptr && info->HasReplicaOn(device))
      stats_.replicas_lost += manager_.ForgetReplica(id, device);
    RefreshCluster(id);
  }
  // A departed store holds nothing now; whatever the index still maps to
  // it is pure staleness.
  replicas.ForgetHolder(device);
}

void DurabilityMonitor::ReReplicationSweep() {
  const size_t want = manager_.options().replication_factor;
  // Each sweep is one AIMD window for both background producers that run
  // under it: the repair pacer bounds how many clusters this poll repairs,
  // the manager's write-back pacer how many tier payloads ship to K.
  repair_pacer_.BeginWindow();
  manager_.write_back_pacer().BeginWindow();
  // What a full scan of the registry would examine here.
  stats_.full_scan_replicas += total_records_;
  // Only the under-replicated set, ascending. The superset invariant —
  // every genuinely under-K cluster is in the set — holds because every
  // path that sheds a replica either refreshes inline (departures) or
  // publishes an event drained at the top of the poll.
  std::vector<SwapClusterId> candidates(under_replicated_.begin(),
                                        under_replicated_.end());
  for (SwapClusterId id : candidates) {
    const SwapClusterInfo* info = manager_.registry().Find(id);
    stats_.scan_replicas += ReplicaRecords(info);
    if (!UnderReplicated(info, want)) {
      RefreshCluster(id);  // stale set entry: reconcile it
      continue;
    }
    // Past this poll's repair cap: the cluster stays in the sweep set and
    // is retried next poll, with the cap re-opened by any successes.
    if (repair_pacer_.enabled() && !repair_pacer_.Admit()) {
      ++stats_.repairs_paced;
      continue;
    }
    // Feedback reads pushback-counter deltas — ReReplicate folds shed
    // placements into its placement walk, so statuses alone cannot tell a
    // saturated store from a departed one.
    const net::StoreClient::Stats* client = manager_.replicas().client_stats();
    const uint64_t pushbacks_before =
        client != nullptr ? client->pushbacks : 0;
    Result<size_t> added = manager_.ReReplicate(id);
    if (repair_pacer_.enabled()) {
      if (client != nullptr && client->pushbacks > pushbacks_before)
        repair_pacer_.OnPushback();
      else if (added.ok() && *added > 0)
        repair_pacer_.OnSuccess();
    }
    RefreshCluster(id);
    if (!added.ok() || *added == 0) continue;  // retried next poll
    ++stats_.clusters_re_replicated;
    stats_.replicas_re_replicated += *added;
  }
}

Result<size_t> DurabilityMonitor::OnStoreWithdrawing(DeviceId device) {
  OBISWAP_ASSIGN_OR_RETURN(size_t moved, manager_.EvacuateReplicas(device));
  stats_.evacuated_replicas += moved;
  return moved;
}

}  // namespace obiswap::swap
