// DurabilityMonitor: keeps swapped clusters alive under store churn.
//
// The paper's store devices are "any nearby device with wireless
// connectivity and available storage" — exactly the devices most likely to
// wander off. The monitor closes the durability loop around the
// SwappingManager's K-replica placement: it polls the discovery directory
// (mirroring ConnectivityMonitor's Poll idiom), treats a withdrawn
// announcement — or a store unreachable for `miss_threshold` consecutive
// polls — as a permanent departure, forgets the replicas that died with it
// (the manager publishes "replica-lost"), and tops under-replicated
// clusters back up to K from a surviving copy (the manager publishes
// "re-replicated"). A store that announces a *graceful* withdrawal can
// instead be evacuated proactively while it is still reachable. Each poll
// also drains the manager's deferred-drop queue and refreshes
// policy-visible gauges ("swap.store_churn", "swap.under_replicated",
// "swap.pending_drops") so rules can, e.g., raise the replication factor
// when churn is high.
//
// The scan is incremental. Which clusters a store holds is the manager's
// ReplicaService's to say: its holdings index is fed by the placement walk
// itself, so it is current however late the monitor is built. The monitor
// keeps only its own state — per-cluster replica-record counts and an
// ordered under-replicated set — fed by a dirty-cluster queue the bus
// fills: the manager publishes cluster-swapped-out/in/dropped, replica-lost
// (ForgetReplica) and re-replicated (ReReplicate), so direct calls of those
// paths reach it too. An evacuation moves a replica without changing
// either, and store health does not enter them (under-replication counts
// replicas). The first poll rebuilds the set in one pass, as do a recovery
// and a replication-factor change. A departure then touches only the
// clusters the holdings index maps to the departed store and the sweep only
// the under-replicated set, both in ascending cluster order, so poll cost
// scales with *changed* stores, not fleet size. Both are supersets (every
// handler re-checks registry state before acting), so a stale entry costs
// one lookup and never a wrong repair. The monitor must share its manager's
// bus; Poll checks that.
//
// `scan_replicas` counts replica records the poll actually examined and
// `full_scan_replicas` what a full registry scan would have examined in
// its place — the tracked record total at the start of every departure
// handled and of every sweep that runs — so the sub-linear claim is
// measurable.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "context/context.h"
#include "context/events.h"
#include "net/bridge.h"
#include "swap/manager.h"

namespace obiswap::fleet {
class PlacementDirectory;
}  // namespace obiswap::fleet

namespace obiswap::swap {

class DurabilityMonitor {
 public:
  struct Options {
    /// Consecutive polls a store may stay announced-but-unreachable before
    /// it is presumed departed (radio silence = departure, eventually).
    int miss_threshold = 3;
    /// AIMD pacing of the re-replication sweep: each poll is one window,
    /// repairs past the cap wait for the next poll, and store pushback
    /// halves the cap — a recovery storm stops flooding the surviving
    /// stores with K×clusters repair traffic at once. Off by default.
    bool pace_repairs = false;
  };

  struct Stats {
    uint64_t polls = 0;
    uint64_t stores_departed = 0;
    uint64_t replicas_lost = 0;          ///< replica records forgotten
    uint64_t clusters_re_replicated = 0;  ///< clusters topped back up to K
    uint64_t replicas_re_replicated = 0;  ///< replicas placed by the sweeps
    uint64_t evacuated_replicas = 0;
    uint64_t drops_drained = 0;
    uint64_t clean_images_reaped = 0;  ///< dead retained images released
    uint64_t sweeps_deferred = 0;  ///< re-replication skipped in brownout
    uint64_t repairs_paced = 0;    ///< sweep repairs deferred by the AIMD cap
    // --- scan-cost visibility -----------------------------------------------
    uint64_t scan_replicas = 0;      ///< replica records actually examined
    uint64_t full_scan_replicas = 0;  ///< records a full scan would examine
  };

  DurabilityMonitor(SwappingManager& manager, net::Discovery& discovery,
                    DeviceId self, context::EventBus& bus,
                    context::PropertyRegistry* props, Options options);
  DurabilityMonitor(SwappingManager& manager, net::Discovery& discovery,
                    DeviceId self, context::EventBus& bus,
                    context::PropertyRegistry* props = nullptr)
      : DurabilityMonitor(manager, discovery, self, bus, props, Options()) {}
  ~DurabilityMonitor();

  DurabilityMonitor(const DurabilityMonitor&) = delete;
  DurabilityMonitor& operator=(const DurabilityMonitor&) = delete;

  /// One maintenance round: departure detection, replica-loss bookkeeping,
  /// re-replication sweep, deferred-drop drain, gauge refresh.
  void Poll();

  /// Graceful-withdrawal path: the store told us it is leaving while still
  /// reachable, so its replicas are copied off before they are lost.
  /// Returns the number of replicas moved.
  Result<size_t> OnStoreWithdrawing(DeviceId device);

  /// Per-store health view (usually the tracker the StoreClient feeds).
  /// Each poll then counts *healthy* stores — reachable AND breaker-closed
  /// — and drives the manager's brownout automatically: entered when the
  /// healthy count drops below the replication factor, exited (debt repaid
  /// by the next sweep) once it recovers. Also refreshes the
  /// "swap.healthy_stores" / "swap.open_breakers" gauges.
  void AttachHealth(net::HealthTracker* health) { health_ = health; }

  /// Hands the monitor the fleet's placement directory (null detaches):
  /// each poll then keeps its membership in step with discovery —
  /// announced stores join (weighted by capacity), departed stores leave —
  /// and an attached HealthTracker drives the per-store healthy bit.
  void AttachFleet(fleet::PlacementDirectory* directory) {
    directory_ = directory;
  }

  const Stats& stats() const { return stats_; }

 private:
  void HandleDeparture(DeviceId device);
  void ReReplicationSweep();

  // --- the under-replicated set ---------------------------------------------
  /// Records currently backing `info`: the replicas of every store group
  /// its state holds.
  static size_t ReplicaRecords(const SwapClusterInfo* info);
  /// Re-reads one cluster's registry state into the record totals and the
  /// under-replicated set (removing it from both when it no longer holds
  /// store replicas).
  void RefreshCluster(SwapClusterId id);
  /// Full rebuild: one honest O(clusters) pass (first poll, recovery,
  /// replication-factor change).
  void Rebuild();
  /// Rebuilds when one is pending or the registry/K moved under the set;
  /// true if it did.
  bool RebuildIfStale();
  /// Drains the event-fed dirty-cluster queue into RefreshCluster calls,
  /// plus a pending full rebuild if one is queued.
  void DrainDirtyClusters();
  /// Keeps the fleet directory's membership/weights/health in step with
  /// discovery announcements and the health tracker.
  void SyncDirectory(const std::vector<DeviceId>& announced);

  SwappingManager& manager_;
  net::Discovery& discovery_;
  DeviceId self_;
  context::EventBus& bus_;
  context::PropertyRegistry* props_;
  Options options_;

  std::vector<DeviceId> last_announced_;
  /// device → consecutive polls spent announced-but-unreachable.
  std::unordered_map<DeviceId, int> misses_;
  net::HealthTracker* health_ = nullptr;
  Stats stats_;
  /// AIMD cap on sweep repairs per poll (options_.pace_repairs).
  AimdPacer repair_pacer_;

  fleet::PlacementDirectory* directory_ = nullptr;

  // --- the under-replicated set ---------------------------------------------
  std::vector<uint64_t> bus_tokens_;
  /// cluster → active replica records at last refresh.
  std::unordered_map<SwapClusterId, size_t> cluster_records_;
  uint64_t total_records_ = 0;
  /// Clusters below K at last refresh (ordered: the sweep visits them in
  /// ascending order).
  std::set<SwapClusterId> under_replicated_;
  /// Bus-fed queue of clusters whose replica state changed since the last
  /// poll (ordered set: drained ascending, deduplicated).
  std::set<SwapClusterId> dirty_clusters_;
  bool rebuild_pending_ = true;  // the first poll builds the set
  size_t last_want_ = 0;
  uint64_t last_recoveries_ = 0;
};

}  // namespace obiswap::swap
