// ReplicaService: where a swapped payload's copies live.
//
// The paper's Figure 1 keeps the swapping manager apart from the
// communication services that reach the "dumb" store devices; this is that
// service. It owns the store handles (the nearby stores' StoreClient and
// Discovery, the local FlashStore, the fleet PlacementDirectory, and read
// access to the HealthTracker), mints store keys, and makes every store
// write, read and drop of the pipeline: the one placement walk, the
// replica failover of the fetch ladder, and the pending-drop queue. The
// manager decides what to place, read or drop; the service decides where.
// It holds no pointer back to the manager, which lends it the pipeline's
// counters (SwapStats) and shared plumbing (PipelineContext).
//
// It also keeps the one holdings index: store → the clusters with a copy
// there, read by evacuation and by departure handling. The index is a
// superset. The placement walk indexes every device it attempts, store or
// local flash, before the attempt's journaled intent, so every replica any
// store group lists — including one recovery adopts from the journal — has
// its cluster in its device's bucket. Nothing else writes it: a replica
// that moves between groups keeps its cluster id. A reader re-checks each
// cluster against the registry (SwapClusterInfo::HasReplicaOn), so a stale
// entry costs one lookup; a departed store's bucket is dropped whole once
// its replicas are forgotten.
#pragma once

#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "net/bridge.h"
#include "net/health.h"
#include "net/priority.h"
#include "net/sim_clock.h"
#include "persist/flash_store.h"
#include "swap/fault_injector.h"
#include "swap/intent_journal.h"
#include "swap/swap_cluster.h"
#include "telemetry/telemetry.h"

namespace obiswap::fleet {
class PlacementDirectory;
}  // namespace obiswap::fleet

namespace obiswap::swap {

/// The pipeline's counters (SwappingManager::Stats). StatsSnapshot exports
/// them under frozen keys in a frozen order.
struct SwapStats {
  uint64_t proxies_created = 0;
  uint64_t proxies_reused = 0;
  uint64_t proxies_dismantled = 0;
  uint64_t proxies_finalized = 0;
  uint64_t boundary_crossings = 0;
  uint64_t assigned_patches = 0;
  uint64_t swap_outs = 0;
  uint64_t swap_ins = 0;
  uint64_t drops = 0;
  uint64_t drop_failures = 0;
  uint64_t swap_out_failures = 0;
  uint64_t bytes_swapped_out = 0;
  uint64_t bytes_swapped_in = 0;
  uint64_t local_swap_outs = 0;  ///< clusters parked on the local flash
  uint64_t merges = 0;
  uint64_t splits = 0;
  // --- durability layer ---------------------------------------------------
  uint64_t replicas_placed = 0;      ///< store placements, incl. primaries
  uint64_t under_replicated_outs = 0;  ///< swap-outs that got < K replicas
  uint64_t failover_fetches = 0;   ///< swap-ins that skipped ≥1 replica
  uint64_t data_loss_failovers = 0;  ///< replicas skipped: checksum mismatch
  uint64_t replicas_forgotten = 0;   ///< replica records lost to departure
  uint64_t re_replications = 0;      ///< replicas placed to restore K
  uint64_t bytes_re_replicated = 0;
  uint64_t evacuated_replicas = 0;   ///< replicas moved off a leaving store
  uint64_t drops_deferred = 0;       ///< drop ops parked in the retry queue
  uint64_t drops_drained = 0;        ///< deferred drops completed later
  // --- clean-image swap cache ---------------------------------------------
  uint64_t clean_swap_outs = 0;  ///< swap-outs served by a retained image
  uint64_t clean_image_invalidations = 0;  ///< images released (write,
                                           ///< churn, merge/split, GC)
  uint64_t clean_images_reaped = 0;  ///< images of fully-dead clusters
  uint64_t cache_hits = 0;       ///< swap-ins served from the payload cache
  uint64_t bytes_swap_transfer_saved = 0;  ///< link bytes those avoided
  // --- predictive prefetch ------------------------------------------------
  uint64_t prefetched_swap_ins = 0;  ///< swap-ins marked speculative
  uint64_t prefetch_stages = 0;      ///< payloads staged into the cache
  uint64_t prefetch_stage_bytes = 0;
  uint64_t prefetch_hits = 0;    ///< speculative work the app consumed
  uint64_t prefetch_wastes = 0;  ///< speculative work discarded untouched
  uint64_t demand_fault_stall_us = 0;  ///< virtual time in demand SwapIns
  uint64_t prefetch_fetch_us = 0;      ///< virtual time in speculative work
  // --- crash consistency ----------------------------------------------------
  uint64_t recoveries = 0;         ///< Recover() completions
  uint64_t recovery_us = 0;        ///< virtual time spent recovering
  // --- degraded mode --------------------------------------------------------
  uint64_t hedged_fetches = 0;   ///< first fetches abandoned at the hedge
  uint64_t hedge_wins = 0;       ///< hedges served by another replica
  uint64_t hedge_wastes = 0;     ///< hedges that fell back to replica 0
  uint64_t deadline_aborts = 0;  ///< ops abandoned at their budget
  uint64_t brownout_entries = 0;
  uint64_t brownout_exits = 0;
  uint64_t brownout_swap_outs = 0;  ///< placements at reduced K
  uint64_t pending_drop_overflow = 0;  ///< oldest obligations evicted
  // --- binary deltas --------------------------------------------------------
  uint64_t delta_swap_outs = 0;   ///< swap-outs that shipped an OSWD delta
  uint64_t delta_fallbacks = 0;   ///< delta-eligible outs that shipped full
  uint64_t delta_bytes_shipped = 0;  ///< compressed delta bytes placed
  uint64_t delta_bytes_saved = 0;    ///< full-payload bytes those avoided
  uint64_t delta_base_cache_hits = 0;  ///< delta swap-ins with cached base
  uint64_t fields_marked_dirty = 0;  ///< write-barrier slot notifications
  // --- tiered swap hierarchy ------------------------------------------------
  uint64_t tier_swap_outs = 0;  ///< swap-outs placed in a local tier
  uint64_t tier_swap_ins = 0;   ///< swap-ins served from a local tier
  // --- fleet placement directory --------------------------------------------
  uint64_t fleet_selections = 0;  ///< placement walks served by the directory
  uint64_t fleet_placements = 0;  ///< replicas placed on directory targets
  // --- overload controls ----------------------------------------------------
  uint64_t write_backs_paced = 0;  ///< tier write-backs deferred by AIMD cap
};

/// One swap-out's or swap-in's end-to-end virtual-time budget
/// (SwappingManager::Options::op_deadline_us). The default is unbounded.
struct OpBudget {
  const net::SimClock* clock = nullptr;
  uint64_t start_us = 0;
  uint64_t deadline_us = 0;  ///< 0 = none

  /// Remaining virtual time; UINT64_MAX when no deadline is configured (or
  /// no clock), 0 when the budget is spent.
  uint64_t Left() const {
    if (deadline_us == 0 || clock == nullptr) return UINT64_MAX;
    const uint64_t used = clock->now_us() - start_us;
    return used >= deadline_us ? 0 : deadline_us - used;
  }
};

/// The swap pipeline's shared plumbing, owned by the manager and lent to
/// its replica service.
struct PipelineContext {
  telemetry::Telemetry* telemetry = nullptr;  ///< own or attached bundle
  const net::SimClock* clock = nullptr;  ///< optional virtual time source
  IntentJournal* journal = nullptr;      ///< optional write-ahead journal
  FaultInjector* faults = nullptr;       ///< optional fault scripts
  bool crashed = false;  ///< set by an injected kCrash, until Recover()
  /// Evaluates the named fault point (SwappingManager::CheckFaultPoint).
  Status CheckFaultPoint(const char* point);
  uint64_t now_us() const { return clock != nullptr ? clock->now_us() : 0; }
};

class ReplicaService {
 public:
  /// Placement gives up after this many consecutive failed store attempts
  /// (stores that advertise space but fail the write — crashed, racing
  /// another device, flaky link). Successes reset the count. Guards against
  /// walking an arbitrarily long candidate list when the neighborhood is
  /// sick.
  static constexpr size_t kMaxConsecutiveStoreFailures = 4;
  /// Bound on the deferred-drop retry queue. At the cap the oldest
  /// obligation is evicted (counted as pending_drop_overflow) — a store
  /// that never returns must not grow the queue forever.
  static constexpr size_t kMaxPendingDrops = 1024;

  ReplicaService(PipelineContext& pipe, SwapStats& stats)
      : pipe_(pipe), stats_(stats) {}
  ReplicaService(const ReplicaService&) = delete;
  ReplicaService& operator=(const ReplicaService&) = delete;

  // The store handles, set through the manager's Attach* hooks.
  void SetStores(net::StoreClient* client, net::Discovery* discovery) {
    store_ = client;
    discovery_ = discovery;
  }
  void SetLocalStore(persist::FlashStore* store) { local_ = store; }
  void SetDirectory(fleet::PlacementDirectory* directory) {
    directory_ = directory;
  }
  void SetHealth(const net::HealthTracker* health) { health_ = health; }

  /// Nearby stores can be reached: a StoreClient and Discovery are set.
  bool remote_attached() const {
    return store_ != nullptr && discovery_ != nullptr;
  }
  /// Some store, nearby or the local flash, can take a placement.
  bool attached() const { return remote_attached() || local_ != nullptr; }
  bool IsLocalDevice(DeviceId device) const {
    return local_ != nullptr && local_->device() == device;
  }
  /// True if any placement target (nearby store with ≥1 free byte, or the
  /// local flash) is currently available.
  bool AnyStoreReachable() const;
  /// The StoreClient's counters (retry budgets, pushbacks, wire attempts);
  /// nullptr while no remote store is attached. Pacers read pushback
  /// deltas here: op statuses fold pushback into fallback logic.
  const net::StoreClient::Stats* client_stats() const {
    return store_ == nullptr ? nullptr : &store_->stats();
  }

  /// Mints a store key: this device's id over a counter, so keys never
  /// collide across devices. The tier mints its flash keys here too.
  SwapKey NextKey();

  /// RAII shedding class for the remote ops of one operation. Operations
  /// nest (a swap-in can trigger an eviction swap-out), so the class rides
  /// a member, set on entry and restored on exit.
  class PriorityScope {
   public:
    PriorityScope(ReplicaService& service, net::Priority priority)
        : service_(service), saved_(service.call_priority_) {
      service_.call_priority_ = priority;
    }
    ~PriorityScope() { service_.call_priority_ = saved_; }
    PriorityScope(const PriorityScope&) = delete;
    PriorityScope& operator=(const PriorityScope&) = delete;

   private:
    ReplicaService& service_;
    net::Priority saved_;
  };

  /// One store op on `device`, a nearby store or the local flash.
  /// `deadline_us` caps the RPC's virtual time (0 = none; the local flash
  /// ignores it — flash writes are not subject to link weather).
  Result<std::string> FetchFrom(DeviceId device, SwapKey key,
                                uint64_t deadline_us = 0);
  Status DropAt(DeviceId device, SwapKey key);

  /// How one placement walk runs.
  struct Placement {
    uint64_t journal_seq = 0;  ///< each key journaled under it (0 = not)
    const char* fault_point = nullptr;  ///< consulted before each attempt
    OpBudget budget = {};  ///< caps the store attempts (default: none)
    /// Swap-out only: the local flash becomes the walk's last candidate,
    /// under this fault point.
    const char* local_fault_point = nullptr;
  };
  /// The one replica placement walk (swap-out, ReReplicate and
  /// EvacuateReplicas): appends copies of `payload` to `group` until it
  /// holds `want`, each on a device the group does not list yet. One
  /// candidate list per walk — the directory rank for cluster `id`, else
  /// nearby stores most-free-first; healthy stores first either way. A key
  /// minted for a failed attempt is reused for the next candidate, and
  /// kMaxConsecutiveStoreFailures failures in a row end the walk over the
  /// stores. The local flash, when enabled, is tried after that only if no
  /// store took a copy, with the key the failed attempts left. Each device
  /// attempted is indexed (Holders) and each key journaled before its
  /// write. OK once the group holds `want`; otherwise the last failure
  /// (kUnavailable if nothing was tried). Returns at once on a crash.
  Status PlaceReplicas(SwapClusterId id, const std::string& payload,
                       size_t want, std::vector<ReplicaLocation>& group,
                       const Placement& how);

  /// One replica read: the replica step of a row of the manager's fetch
  /// ladder, plus the caller's budget.
  struct ReplicaRead {
    const char* fetch_fault = nullptr;       ///< before each replica fetch
    const char* decompress_fault = nullptr;  ///< before each decompress
    /// Swap-ins only: the span category of the per-attempt spans. Also
    /// turns on failover_fetches and the unusable-replica warnings.
    const char* swap_in = nullptr;
    /// A copy must match the group checksum, not only its frame's.
    bool checksum = false;
    bool data_loss = true;  ///< kDataLoss failures count data_loss_failovers
    OpBudget budget = {};   ///< caps every fetch (default: none)
    bool hedge = false;     ///< hedged failover (Options::hedged_fetch)
    const ReplicaLocation* first = nullptr;  ///< tried before the others
  };
  /// A replica copy that passed its checks.
  struct ReplicaCopy {
    std::string decompressed;
    std::string stored;  ///< the compressed store form
  };
  /// Replica failover for one store group: reachable stores first, until a
  /// copy passes its checks and then `accept` (which reads it from `copy`;
  /// a non-OK status falls through to the next replica, like a corrupt
  /// copy). OK with `copy` filled; otherwise the last failure, or `last`
  /// when there was nothing to try. Returns at once on a crash.
  Status FetchReplicas(SwapClusterId id, const StoreGroup& group,
                       const ReplicaRead& read, ReplicaCopy& copy,
                       const std::function<Status()>& accept, Status last);

  /// The clusters that may hold a copy on `device`, ascending: a superset
  /// of those whose registry groups list a replica there, so the caller
  /// re-checks each against the registry.
  std::vector<SwapClusterId> Holders(DeviceId device) const;
  /// Drops `device`'s bucket: the store departed and every replica it
  /// held has been forgotten. A store that returns is re-indexed by the
  /// placements it takes.
  void ForgetHolder(DeviceId device) { holdings_.erase(device); }

  /// Removes from `replicas` every entry its store does not confirm it
  /// still holds, queuing the drop obligation (the store may merely be out
  /// of range). An entry on an out-of-range store stays when
  /// `keep_unreachable` is set.
  void PruneUnconfirmed(std::vector<ReplicaLocation>& replicas,
                        bool keep_unreachable);

  /// Drop notification to every replica; failures against unreachable
  /// stores are parked in the retry queue. `count_as_drop` selects whether
  /// successful ops bump stats.drops (GC path) or not (swap-in path).
  void ReleaseReplicas(const std::vector<ReplicaLocation>& replicas,
                       bool count_as_drop);
  /// Queues a drop obligation (deduplicated; bounded by kMaxPendingDrops
  /// — at the cap the oldest entry is evicted and counted). Returns true,
  /// and counts stats.drops_deferred, if the obligation was newly queued.
  bool EnqueuePendingDrop(DeviceId device, SwapKey key);
  /// Retries queued drop notifications (stores that were unreachable when
  /// their entry became stale). Returns the number drained; entries whose
  /// store is still unreachable stay queued.
  size_t FlushPendingDrops();
  size_t pending_drop_count() const { return pending_drops_.size(); }

 private:
  Status StoreAt(DeviceId device, SwapKey key, const std::string& payload,
                 uint64_t deadline_us = 0);
  /// Replica try order for fetches: reachable stores first (placement order
  /// within each group).
  std::vector<ReplicaLocation> ReplicaFetchOrder(
      const std::vector<ReplicaLocation>& replicas) const;
  /// Directory placement is attached and populated.
  bool DirectoryActive() const;
  /// Store candidates for placing `k` replicas of cluster `id`: the
  /// directory's HRW rank filtered to reachable stores with `need` free
  /// bytes, bounded-load candidates first.
  std::vector<net::StoreNode*> DirectoryCandidates(SwapClusterId id, size_t k,
                                                   size_t need);

  PipelineContext& pipe_;
  SwapStats& stats_;
  net::StoreClient* store_ = nullptr;
  net::Discovery* discovery_ = nullptr;
  persist::FlashStore* local_ = nullptr;
  fleet::PlacementDirectory* directory_ = nullptr;  ///< optional
  const net::HealthTracker* health_ = nullptr;      ///< optional
  struct PendingDrop {
    DeviceId device;
    SwapKey key;
  };
  /// Drops owed to stores that were unreachable; drained on reconnection.
  std::vector<PendingDrop> pending_drops_;
  /// The holdings index: device → clusters it may hold a copy of (see the
  /// file comment). Ordered, so readers visit clusters ascending.
  std::unordered_map<DeviceId, std::set<SwapClusterId>> holdings_;
  uint64_t next_key_ = 1;
  /// Shedding class stamped on the next remote op (see PriorityScope).
  /// Demand by default: unscoped calls get the most protected class.
  net::Priority call_priority_ = net::Priority::kDemandSwapIn;
};

}  // namespace obiswap::swap
