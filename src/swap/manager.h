// SwappingManager: the paper's core contribution, orchestrated.
//
// The manager mediates every cross-swap-cluster reference (§4) and runs
// the swap pipelines: swap-out, swap-in, prefetch staging and replica
// maintenance. Where a payload's copies live is not its concern: the
// ReplicaService it owns (replica_service.h) holds the store handles,
// places and reads the copies and keeps the drop obligations. Recover()
// lives in recovery.cc; the DurabilityMonitor (durability.h) drives the
// maintenance from outside.
//
// The manager plugs into the runtime purely through its user-level hooks —
// no VM modification, mirroring the paper's portability argument:
//
//   * StoreMediator — every reference store is resolved for the holder's
//     swap-cluster context: same-cluster stores stay raw (full speed, §1),
//     cross-cluster stores get a swap-cluster-proxy (created or reused —
//     "when there are multiple references to the same object, across the
//     same pair of swap-clusters, only a swap-cluster-proxy is required").
//   * Interceptor (kSwapClusterProxy) — boundary invocations: forwards to
//     the real object (faulting the whole swap-cluster back in if the
//     target is a replacement-object), mediates reference arguments into
//     the target's context and the returned reference into the source's
//     context (rules i–iii, §4), and records recency/frequency.
//   * Interceptor (kReplacement) — direct invocation of a replacement is a
//     middleware error: applications only ever reach one through a proxy.
//   * IdentityHook — reference identity through proxies (the C# operator==
//     overload; §4 "Enforcing Object Identity").
//   * Heap pressure handler (optional) — swap out the LRU victim when an
//     allocation does not fit.
//   * EventBus (optional) — listens to cluster-replicated events to fold
//     arriving replication clusters into swap-clusters ("a number (also
//     adaptable) of chained object clusters as a single macro-object"), and
//     publishes swap-out/swap-in/drop events.
//
// Bookkeeping follows §4's SwappingManager: hash tables over weak
// references, with proxy and replacement finalizers removing dead entries.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/aimd.h"
#include "common/ids.h"
#include "common/status.h"
#include "context/events.h"
#include "net/bridge.h"
#include "net/sim_clock.h"
#include "runtime/runtime.h"
#include "serialization/graph_xml.h"
#include "swap/fault_injector.h"
#include "swap/intent_journal.h"
#include "swap/payload_cache.h"
#include "swap/proxy.h"
#include "swap/replica_service.h"
#include "swap/reuse_index.h"
#include "swap/swap_cluster.h"
#include "telemetry/telemetry.h"
#include "tier/tier.h"

namespace obiswap::swap {

class SwappingManager final : public runtime::Interceptor,
                              public runtime::StoreMediator,
                              public runtime::IdentityHook {
 public:
  struct Options {
    /// Replication clusters folded into each swap-cluster (adaptable).
    size_t clusters_per_swap_cluster = 1;
    /// Codec applied to swapped payloads ("identity", "rle", "lz77").
    std::string codec = "identity";
    /// Cluster document wire format: "xml" (the paper's text format) or
    /// "binary" (the compact OSWB encoding, graph_binary.h). Swap-in
    /// sniffs the payload, so the flag can change while clusters are
    /// swapped out. Policy: "set-wire-format".
    std::string wire_format = "xml";
    /// Binary wire format only: a dirty re-swap-out of a cluster whose
    /// clean image is still retained (and whose base document is still in
    /// the payload cache) ships an OSWD delta — only the fields that
    /// changed plus membership adds/removes — instead of the full payload.
    /// Member writes then retain the clean image (dirty, but diffable)
    /// rather than invalidating it. Policy: "set-wire-format" param
    /// "delta".
    bool delta_swap_out = false;
    /// Stores a swap-out places the payload on (K, distinct devices).
    /// Nearby stores wander off permanently, so K > 1 buys durability at
    /// the cost of K transfers per swap-out. The first placement must
    /// succeed; further replicas are best-effort (the durability monitor
    /// tops up under-replicated clusters later). Adaptable at runtime —
    /// the "set-replication-factor" policy action raises it when store
    /// churn is high.
    size_t replication_factor = 1;
    /// Byte budget of the swap-in payload cache (decompressed XML kept in
    /// device memory so a quick fault-in after an eviction skips fetch and
    /// decompress). 0 disables — the cache competes with the application
    /// heap. Adaptable via the "set-swap-cache-bytes" policy action.
    size_t swap_in_cache_bytes = 0;
    /// Hedged failover fetch: a demand swap-in whose first replica fetch
    /// exceeds the HealthTracker's p95-derived hedge deadline abandons it
    /// and tries the next healthy replica immediately, instead of waiting
    /// out full retry exhaustion. The abandoned replica is re-queued for
    /// one final uncapped attempt so availability never drops below the
    /// sequential walk's. Needs AttachHealth. Policy: "set-hedged-fetch".
    bool hedged_fetch = false;
    /// End-to-end virtual-time budget per swap-out / swap-in (0 = none):
    /// past it the operation fails kDeadlineExceeded, aborting its journal
    /// intent cleanly, rather than stacking worst-case retries across K
    /// replicas. Policy: "set-op-deadline".
    uint64_t op_deadline_us = 0;
    /// AIMD pacing of tier write-backs (ReReplicate's tier-sourced branch):
    /// each durability poll is one window; write-backs past the cap wait
    /// for the next poll, and store pushback halves the cap. Off by
    /// default — byte-parity.
    bool pace_write_backs = false;
  };

  /// Replicas a swap-out places while in brownout: degraded placement ships
  /// fewer copies now and queues the re-replication debt for the
  /// DurabilityMonitor to repay on recovery.
  static constexpr size_t kBrownoutReplicationFactor = 1;

  using Stats = SwapStats;

  /// What Recover() found and did — the restart post-mortem.
  struct RecoveryReport {
    size_t pending_ops = 0;       ///< uncommitted journal operations found
    size_t rolled_back = 0;       ///< torn ops undone (heap restored)
    size_t rolled_forward = 0;    ///< torn ops completed from the journal
    size_t proxies_restored = 0;  ///< proxy targets re-pointed
    size_t orphan_drops_enqueued = 0;  ///< journaled keys queued for drop
    size_t replicas_verified = 0;   ///< replicas whose checksum re-verified
    size_t replicas_discarded = 0;  ///< replicas gone or corrupt at restart
    size_t clean_images_dropped = 0;  ///< images invalidated by reconcile
    size_t clusters_lost = 0;  ///< swapped clusters with no usable copy left
    uint64_t journal_records_skipped = 0;  ///< bad/stale records tolerated
    uint64_t journal_bad_tail_bytes = 0;   ///< torn tail bytes discarded
    size_t tier_ram_entries_lost = 0;   ///< RAM-tier payloads gone at restart
    size_t tier_flash_verified = 0;     ///< flash-tier entries that survived
    size_t tier_flash_discarded = 0;    ///< flash-tier entries reconciled away
  };

  /// Installs the mediation hooks on `rt` and registers the proxy and
  /// replacement classes. The manager must outlive every collection of
  /// `rt`'s heap (its finalizers call back into the manager).
  explicit SwappingManager(runtime::Runtime& rt)
      : SwappingManager(rt, Options()) {}
  SwappingManager(runtime::Runtime& rt, Options options);
  ~SwappingManager() override;

  SwappingManager(const SwappingManager&) = delete;
  SwappingManager& operator=(const SwappingManager&) = delete;

  // --- wiring (each optional) ---------------------------------------------
  /// Enables actual swap-out/in through nearby store devices.
  void AttachStore(net::StoreClient* client, net::Discovery* discovery) {
    replicas_.SetStores(client, discovery);
  }
  /// Local-persistence fallback (Figure 1's Persistence module / the .Net
  /// Micro flash approach): used when no nearby store can take a cluster.
  /// Remote stores are always preferred — flash wears out and is part of
  /// the device's own scarce resources.
  void AttachLocalStore(persist::FlashStore* store) {
    replicas_.SetLocalStore(store);
  }
  /// Joins the middleware event bus (replication grouping + swap events).
  /// The bus must outlive the manager, whose destructor unsubscribes.
  void AttachBus(context::EventBus* bus);
  /// The bus the manager publishes on (null until AttachBus).
  context::EventBus* bus() const { return bus_; }
  /// Makes heap exhaustion swap out LRU victims automatically.
  void InstallPressureHandler();
  /// Virtual time source for the stall/prefetch timing counters (the same
  /// clock the simulated network advances). Optional; without it the
  /// *_us counters stay 0 and telemetry spans are stamped 0.
  void AttachClock(const net::SimClock* clock) {
    pipe_.clock = clock;
    pipe_.telemetry->AttachClock(clock);
  }
  /// Shares an externally owned telemetry bundle (benches pass one bundle
  /// to the manager and the store client so RPC spans land in the same
  /// trace). The manager keeps its own bundle otherwise; attach before
  /// AttachClock/AttachBus so spans and journal mirroring land in `t`.
  void AttachTelemetry(telemetry::Telemetry* t);
  /// Per-store health scores and circuit breakers (usually the same
  /// tracker the StoreClient feeds). Placement and fetch rotation then
  /// prefer healthy stores, hedged fetch gets its deadline from the
  /// tracker, and every breaker transition is journaled and published on
  /// the bus as a breaker-transition event.
  void AttachHealth(net::HealthTracker* health);
  /// Rendezvous placement directory over the store fleet. While attached
  /// and populated, the placement walk ranks its candidates by it (see
  /// ReplicaService::PlaceReplicas); detached or empty, the walk takes the
  /// nearby stores most-free-first.
  void AttachPlacementDirectory(fleet::PlacementDirectory* directory) {
    replicas_.SetDirectory(directory);
  }
  /// Where payload copies live: the store handles, placement, replica
  /// reads and the pending-drop queue.
  ReplicaService& replicas() { return replicas_; }

  // --- swap-cluster management ----------------------------------------------
  /// Creates a fresh swap-cluster for locally built graphs.
  SwapClusterId NewSwapCluster() { return registry_.Create(); }
  /// Adds `obj` to a swap-cluster (labels it and registers weak
  /// membership). Placing counts as a "touch" for LRU victim selection, so
  /// a cluster under construction is never the next swap-out victim.
  Status Place(runtime::Object* obj, SwapClusterId id);

  SwapClusterRegistry& registry() { return registry_; }
  const SwapClusterRegistry& registry() const { return registry_; }

  // --- swapping ----------------------------------------------------------------
  /// Detaches swap-cluster `id`: installs a payload, builds the
  /// replacement-object and patches inbound proxies to it. The payload is
  /// the retained clean image when one still backs the cluster (zero
  /// transfer), else a delta over the image's base or the full document,
  /// shipped to up to `replication_factor` nearby stores (distinct devices,
  /// local flash only as last resort). Returns the primary replica's store
  /// key. Once the swap-out has committed, the detached members are freed
  /// at once (Heap::Reclaim), so used_bytes() drops before this returns and
  /// unrooted Object* pointers into the cluster die here. A local or root
  /// still holding a member leaves them to the next collection.
  Result<SwapKey> SwapOut(SwapClusterId id);

  /// Swap-out the least-recently-crossed eligible cluster (not executing,
  /// loaded, non-empty). Returns the victim's id.
  Result<SwapClusterId> SwapOutVictim();

  /// Fetches a swapped cluster back, re-creates its objects, patches every
  /// inbound proxy to the fresh replicas and retires the replacement.
  /// Failover fetch: replicas are tried in nearness order; an unreachable
  /// store or a corrupted payload (checksum mismatch → kDataLoss, counted)
  /// falls through to the next replica. Fails only when no replica yields
  /// an intact payload. The store copies are NOT dropped: they are retained
  /// as a clean image until the first member write, so an untouched cluster
  /// re-swaps out with zero transfer (see SwapClusterInfo::clean_image).
  /// With `prefetch` set the swap-in is speculative (the prefetcher's
  /// doing, not an application touch): it is tracked for hit/waste
  /// accounting and its cluster-swapped-in event carries "prefetch"=1 so
  /// listeners can tell it from a demand fault.
  Status SwapIn(SwapClusterId id, bool prefetch = false);

  /// The cheap prefetch tier: fetches and decompresses a swapped cluster's
  /// payload into the swap-in payload cache WITHOUT creating any heap
  /// objects, so the later demand fault skips the radio and the codec.
  /// Uses the same reachable-first failover fetch as SwapIn. Requires the
  /// payload cache to be enabled; fails kResourceExhausted if the payload
  /// does not fit the cache budget.
  Status PrefetchStage(SwapClusterId id);

  /// Clusters currently carrying un-consumed speculative work (staged
  /// payloads + speculatively loaded clusters) — the prefetcher's budget
  /// gate measures this.
  size_t PrefetchOutstanding() const {
    return staged_.size() + speculative_loaded_.size();
  }

  /// Called on every boundary crossing with the entered cluster's id
  /// (after hit accounting). The prefetch recorder learns fault order from
  /// this. The observer may trigger swapping; the invocation path
  /// re-validates its target afterwards.
  using CrossingObserver = std::function<void(SwapClusterId)>;
  void SetCrossingObserver(CrossingObserver observer) {
    crossing_observer_ = std::move(observer);
  }

  /// The assign() iteration optimization (§4): marks a swap-cluster-proxy
  /// whose source is swap-cluster-0 so that boundary-crossing returns patch
  /// the proxy in place instead of creating a proxy per reference.
  Status Assign(runtime::Object* proxy);

  // --- adaptive regrouping (paper §3: "a number (ALSO ADAPTABLE) of
  // --- chained object clusters as a single macro-object") -----------------
  /// Merges two loaded swap-clusters: `from`'s members join `into`, every
  /// proxy between the two is dismantled (their references become raw
  /// intra-cluster links again — full speed), and proxies from/to other
  /// clusters are relabeled. `from` ceases to exist.
  Status MergeSwapClusters(SwapClusterId into, SwapClusterId from);

  /// Splits `members_to_move` (all members of `id`) out of a loaded
  /// swap-cluster into a fresh one; references that now cross the new
  /// boundary acquire swap-cluster-proxies. Returns the new cluster's id.
  Result<SwapClusterId> SplitSwapCluster(
      SwapClusterId id, const std::vector<runtime::Object*>& members_to_move);

  /// Optional veto on swap-out (e.g. transactional support pins clusters
  /// with uncommitted writes). Return true to forbid swapping `id` now.
  using VictimFilter = std::function<bool(SwapClusterId)>;
  void SetVictimFilter(VictimFilter filter) {
    victim_filter_ = std::move(filter);
  }

  // --- clean-image tracking -------------------------------------------------
  /// Marks a loaded cluster dirty, invalidating (and releasing) any
  /// retained clean image. Driven by the runtime's write barrier; exposed
  /// for layers that mutate members behind the runtime's back.
  void MarkDirty(SwapClusterId id);

  /// Releases the clean images of loaded clusters whose members have all
  /// died (the GC analogue of the replacement-finalizer drop: the image
  /// backs garbage). Swept by the DurabilityMonitor. Returns images reaped.
  size_t ReapDeadCleanImages();

  /// Resizes the swap-in payload cache at runtime (0 disables; policy
  /// action "set-swap-cache-bytes").
  void set_swap_in_cache_bytes(size_t bytes);
  const PayloadCache& payload_cache() const { return cache_; }

  // --- durability (replica maintenance under store churn) ------------------
  /// Adapts the replication factor at runtime (policy action target;
  /// floored at 1). Existing swapped clusters are topped up lazily by
  /// ReReplicate.
  void set_replication_factor(size_t k);

  /// Discards the replica records `id` holds on `device` (the store is
  /// gone) — swapped-state replicas and retained clean-image replicas
  /// alike. The orphaned store entries are queued as pending drops, so if
  /// the device ever returns its stale payloads are reclaimed. A clean
  /// image that loses its last replica is invalidated (the next swap-out
  /// re-serializes — never a stale fetch). Publishes "replica-lost"
  /// ("swap_cluster", "device", "survivors") when it forgot any. Returns
  /// records forgotten.
  size_t ForgetReplica(SwapClusterId id, DeviceId device);

  /// Tops every store group of `id` back up to `replication_factor` with
  /// the placement walk (priority class maintenance, no op budget),
  /// copying a verified payload from the fetch ladder. Publishes
  /// "re-replicated" ("swap_cluster", "new_replicas", "bytes", "replicas")
  /// when it placed any. Returns the number of new replicas placed (0 if
  /// already at K or no eligible store is in range); fails only when the
  /// payload cannot be read back from any replica.
  Result<size_t> ReReplicate(SwapClusterId id);

  /// Proactive evacuation: moves every replica held by `leaving` (which
  /// announced its withdrawal and is still reachable) onto a store the
  /// placement walk picks, visiting the clusters the replica service's
  /// holdings index maps to `leaving` in ascending order. Returns the
  /// number of replicas moved; clusters whose payload could not be
  /// re-homed keep their replica on `leaving`.
  Result<size_t> EvacuateReplicas(DeviceId leaving);

  // --- degraded mode (brownout) ---------------------------------------------
  /// Enters brownout: swap-outs place only kBrownoutReplicationFactor
  /// replicas (the shortfall is queued as re-replication debt), victim
  /// selection prefers clusters with a retained clean image (zero-transfer
  /// swap-out), and the DurabilityMonitor defers its re-replication sweep.
  /// Idempotent; publishes brownout-entered and journals the transition.
  /// Entered automatically by the DurabilityMonitor when the healthy-store
  /// count drops below the replication factor, or by the "set-brownout"
  /// policy action.
  void EnterBrownout(const char* reason);
  /// Leaves brownout (idempotent): the next DurabilityMonitor sweep repays
  /// the queued re-replication debt. Publishes brownout-exited.
  void ExitBrownout();
  bool brownout() const { return brownout_; }
  /// Replicas a swap-out aims for right now: replication_factor normally,
  /// min(replication_factor, kBrownoutReplicationFactor) in brownout.
  size_t EffectiveReplicationFactor() const;

  /// Runtime toggles for the degraded-mode machinery (policy targets).
  void set_hedged_fetch(bool enabled) { options_.hedged_fetch = enabled; }
  void set_op_deadline_us(uint64_t us) { options_.op_deadline_us = us; }

  // --- wire format ----------------------------------------------------------
  /// Switches the cluster document format for future swap-outs ("xml" or
  /// "binary"); already-swapped payloads self-describe and keep working.
  /// Policy action "set-wire-format".
  Status set_wire_format(const std::string& format);
  const std::string& wire_format() const { return options_.wire_format; }
  /// Enables/disables delta swap-out (effective only under "binary").
  void set_delta_swap_out(bool enabled) {
    options_.delta_swap_out = enabled;
  }
  bool delta_swap_out() const { return options_.delta_swap_out; }

  // --- crash consistency ----------------------------------------------------
  /// Write-ahead intent journal: every multi-step pipeline operation logs
  /// its intents (replica keys before the store RPC, proxy/member oids
  /// before heap patching) so a crash anywhere leaves a recoverable trail.
  /// Attach before swapping activity; without one the manager behaves
  /// exactly as before (no journal writes, no recovery trail).
  void AttachIntentJournal(IntentJournal* journal) { pipe_.journal = journal; }
  /// Tiered swap hierarchy: a compressed-RAM pool and a flash-slot
  /// partition in front of the remote stores. Swap-outs then land in the
  /// fastest tier with headroom (remote replicas stay the durability tier
  /// — the durability sweep writes tier-resident payloads back to K), and
  /// demand faults probe the tiers before touching the radio. The tier's
  /// flash partition should be the same FlashStore passed to
  /// AttachLocalStore so recovery can reach tier keys through the normal
  /// local fetch/drop paths. With no tier attached — or the tier mode set
  /// to "off" before any admission — behavior is identical to before.
  void AttachTierManager(tier::TierManager* tier) {
    tier_ = tier;
    // The tier mints flash keys from the manager's key space when it
    // demotes an evicted RAM-only entry down to flash, so demoted keys can
    // never collide with replica or journal keys.
    if (tier_ != nullptr)
      tier_->set_key_source([this] { return replicas_.NextKey(); });
  }
  /// Deterministic fault injection: named points threaded through every
  /// pipeline stage consult the injector's scripts (crash / error / delay
  /// at the Nth hit). Scriptable at runtime via the "inject-fault" policy
  /// action.
  void AttachFaultInjector(FaultInjector* faults) { pipe_.faults = faults; }
  FaultInjector* fault_injector() const { return pipe_.faults; }
  /// True after an injected crash abandoned an operation mid-flight: the
  /// heap and stores hold torn state and every swapping entry point
  /// refuses with kFailedPrecondition until Recover() runs.
  bool crashed() const { return pipe_.crashed; }
  /// Evaluates the named fault point (free no-op without an injector).
  /// kCrash marks the manager crashed and returns kInternal — the caller
  /// must abandon its operation at that instruction boundary. kError
  /// returns kUnavailable (routed through the stage's normal error path).
  /// kDelay advances the injector's clock and returns OK. Public so layers
  /// above the manager (the DurabilityMonitor) share the same scripts.
  Status CheckFaultPoint(const char* point) {
    return pipe_.CheckFaultPoint(point);
  }
  /// Simulated-restart recovery: replays the intent journal against the
  /// store fleet. Torn operations are rolled back when the heap still
  /// holds a live copy (proxies re-pointed from the journaled list, orphan
  /// replicas queued for drop) and rolled forward when only the journaled
  /// replicas survive (checksum-verified). Then every swapped cluster's
  /// replicas are re-verified against the journal's checksums, clean
  /// images and the payload cache are reconciled, the journal is cleared
  /// and the crashed flag drops. Idempotent; safe to call on a clean
  /// manager (empty report).
  Result<RecoveryReport> Recover();

  // --- runtime hooks ---------------------------------------------------------
  Result<runtime::Value> Invoke(runtime::Runtime& rt,
                                runtime::Object* receiver,
                                runtime::Selector method,
                                runtime::Args args) override;
  runtime::Object* MediateStore(runtime::Runtime& rt, runtime::Object* holder,
                                runtime::Object* value) override;
  void ObserveFieldWrite(runtime::Runtime& rt, runtime::Object* holder,
                         size_t slot) override;
  bool SameObject(const runtime::Object* a,
                  const runtime::Object* b) override;

  // --- introspection ------------------------------------------------------------
  const Stats& stats() const { return stats_; }
  /// The manager's telemetry bundle (own or attached): metrics registry,
  /// span tracer, post-mortem event journal. Always valid.
  telemetry::Telemetry& telemetry() const { return *pipe_.telemetry; }
  /// Every manager counter plus the payload cache's, as ordered
  /// (name, value) pairs — the single source benches and tests dump
  /// instead of hand-rolling counter lists.
  std::vector<std::pair<std::string, uint64_t>> StatsSnapshot() const;
  /// StatsSnapshot rendered as a flat JSON object.
  std::string StatsJson() const;
  const Options& options() const { return options_; }
  /// The tier write-back pacer (see Options::pace_write_backs). The
  /// durability monitor begins its window each poll.
  AimdPacer& write_back_pacer() { return write_back_pacer_; }
  SwapState StateOf(SwapClusterId id) const;
  /// Live proxies currently targeting cluster `id` (prunes dead entries).
  size_t InboundProxyCount(SwapClusterId id);
  /// Entries of cluster `id`'s inbound-proxy list, cleared ones included.
  size_t InboundListSize(SwapClusterId id) const;

 private:
  /// (ultimate target object, its swap-cluster, its identity) of a value.
  struct Resolved {
    runtime::Object* target;
    SwapClusterId sc;
    ObjectId oid;
  };
  /// nullopt-style: returns false if `value` is not swap-managed
  /// (replication proxies pass through raw).
  bool ResolveUltimate(runtime::Object* value, Resolved* out) const;
  /// Resolves `value` for use from `context`: raw if same cluster,
  /// dismantled if it is a proxy back into `context`, otherwise a (reused
  /// or fresh) proxy.
  Result<runtime::Object*> ResolveForContext(SwapClusterId context,
                                             runtime::Object* value);

  Result<runtime::Object*> CreateProxy(SwapClusterId source,
                                       const Resolved& resolved);
  void RegisterProxy(runtime::Object* proxy, SwapClusterId target_sc,
                     ObjectId target_oid, SwapClusterId source);
  /// Appends to `target`'s inbound list, pruning it whenever the list has
  /// doubled since its last prune.
  void AddInbound(SwapClusterId target, runtime::Object* proxy);

  Result<runtime::Value> ProxyInvoke(runtime::Object* proxy,
                                     runtime::Selector method,
                                     runtime::Args args);
  /// Makes `proxy`'s target resident (faulting its cluster in) and records
  /// the crossing; returns the resident target.
  Result<runtime::Object*> EnterTarget(runtime::Object* proxy);
  Result<runtime::Value> MediateReturn(runtime::Object* proxy,
                                       runtime::Value result);

  void OnClusterReplicated(const context::Event& event);
  void OnProxyFinalized(runtime::Object* proxy);
  void OnReplacementFinalized(runtime::Object* replacement);

  /// Boundary-crossing bookkeeping for prefetch: consumes a speculative
  /// load as a hit, then notifies the crossing observer.
  void NoteClusterEntered(SwapClusterId id);
  /// Un-consumed speculative state of `id` is being thrown away (swap-out,
  /// drop, merge): count and publish the waste.
  void NotePrefetchDiscard(SwapClusterId id);
  void PublishPrefetchEvent(const char* type, SwapClusterId id,
                            const char* kind);

  runtime::Runtime& rt_;
  Options options_;
  SwapClusterRegistry registry_;
  const runtime::ClassInfo* proxy_cls_ = nullptr;
  const runtime::ClassInfo* replacement_cls_ = nullptr;

  // --- the fetch ladder ---------------------------------------------------
  /// Why a store group is being read; selects the ladder's steps and
  /// counters from one table (kLadderSteps in manager.cc).
  enum class FetchPurpose : uint8_t {
    kDemand,          ///< SwapIn of an application fault
    kSpeculative,     ///< SwapIn on the prefetcher's behalf
    kStage,           ///< PrefetchStage (cache fill, no heap objects)
    kDeltaBase,       ///< the base document under a delta payload
    kRepairSource,    ///< ReReplicate / EvacuateReplicas copy source
    kRecoveryVerify,  ///< roll-forward check of journaled replicas
  };
  enum class FetchSource : uint8_t { kCache, kTier, kReplica };
  /// One verified copy of a store group's payload: `stored` is the store
  /// form (tier and replica sources).
  struct FetchedCopy : ReplicaService::ReplicaCopy {
    FetchSource source = FetchSource::kReplica;
    /// Cache hit: the cached document (valid until the cache's next
    /// mutation). Otherwise null and the document is `decompressed`.
    const std::string* cached = nullptr;
    const std::string& text() const {
      return cached != nullptr ? *cached : decompressed;
    }
  };
  struct AcceptAny {
    Status operator()(const FetchedCopy&) const { return OkStatus(); }
  };
  /// The one read path for a store group: payload cache, then the local
  /// tiers (RAM then flash), then the replicas (ReplicaService's
  /// failover), each step as `purpose` enables it. A copy must pass its
  /// checks and then `accept` (a non-OK status falls through to the next
  /// copy, like a corrupt one) to be returned. `op_start_us` anchors the
  /// op budget; `first`, when set, is tried before the ordered replicas.
  template <typename Accept = AcceptAny>
  Result<FetchedCopy> FetchGroup(const SwapClusterInfo& info,
                                 const StoreGroup& group, FetchPurpose purpose,
                                 uint64_t op_start_us = 0, Accept&& accept = {},
                                 const ReplicaLocation* first = nullptr);
  /// Drops a clean image: releases its store replicas (`count_as_drop`
  /// follows the GC-vs-staleness distinction above) and evicts the cached
  /// payload. No-op without an image.
  void InvalidateCleanImage(SwapClusterInfo* info, bool count_as_drop);

  // --- crash-consistency internals ------------------------------------------
  /// Oids of live inbound proxies currently targeting `id` (journaled at
  /// BeginOp so recovery can cross-check the patched set).
  std::vector<uint64_t> LiveInboundProxyOids(SwapClusterId id);
  /// Heap scan for swap-cluster-proxies targeting `id` — recovery trusts
  /// the heap, not the manager's (possibly torn) maps.
  std::vector<runtime::Object*> HeapProxiesTargeting(SwapClusterId id);
  /// ReleaseReplicas wrapped in a journaled kDrop op: the keys are intents
  /// before the first drop RPC, so a crash mid-release leaves every
  /// remaining key reclaimable.
  void JournaledRelease(SwapClusterId id,
                        const std::vector<ReplicaLocation>& replicas,
                        bool count_as_drop);
  void EnqueueOrphanDrops(const std::vector<ReplicaLocation>& intents,
                          RecoveryReport* report);
  void RecoverOp(const IntentJournal::PendingOp& op, RecoveryReport* report);
  const char* RecoverTornSwapOut(const IntentJournal::PendingOp& op,
                                 SwapClusterInfo* info,
                                 RecoveryReport* report);
  const char* RecoverTornSwapIn(const IntentJournal::PendingOp& op,
                                SwapClusterInfo* info, RecoveryReport* report);
  const char* RecoverTornDrop(const IntentJournal::PendingOp& op,
                              SwapClusterInfo* info, RecoveryReport* report);
  const char* RecoverTornMaintenance(const IntentJournal::PendingOp& op,
                                     SwapClusterInfo* info,
                                     RecoveryReport* report);
  /// Recovery keeps nothing of the cluster's stored payload: queues a drop
  /// for every key the record lists (both groups of the swapped state and
  /// of a retained image) and forgets them.
  void RetireListedKeys(SwapClusterInfo* info, RecoveryReport* report);
  /// Post-replay sweep: fetches and checksums every swapped cluster's
  /// replicas, group by group, pruning dead or corrupt copies (unreachable
  /// stores get the benefit of the doubt).
  void VerifySwappedClusters(RecoveryReport* report);
  /// Confirms retained clean-image replicas still exist; invalidates
  /// images left with none.
  void ReconcileCleanImages(RecoveryReport* report);
  /// Drops cached payloads that no longer match any live epoch/checksum.
  void ReconcilePayloadCache();
  /// Builds the replacement-object of `info`'s next swap incarnation (the
  /// swap_epoch is bumped) holding `outbound` in external-ref index order,
  /// rooted in `scope`. `fault_point` models an allocation failure.
  Result<runtime::Object*> NewReplacement(
      SwapClusterInfo* info, const std::vector<runtime::Object*>& outbound,
      const char* fault_point, runtime::LocalScope& scope);
  /// Re-points every live inbound proxy of `id` at `target(proxy)`, pruning
  /// dead entries; `patch_point` is consulted before each proxy and
  /// `finalize_point` after the last. A clean error restores the patched
  /// proxies' old targets before it returns; a crash leaves the patch torn
  /// for Recover().
  template <typename Target>
  Status PatchInbound(SwapClusterId id, Target&& target,
                      const char* patch_point, const char* finalize_point);
  /// SwapOut up to its commit: everything but freeing the members, which
  /// it leaves in `members`.
  Result<SwapKey> DetachCluster(SwapClusterId id,
                                std::vector<runtime::Object*>& members);
  /// Whether `info`'s retained clean image can still back a zero-transfer
  /// swap-out: every outbound proxy alive (appended to `outbound`, in
  /// external-ref order) and every store group confirmed by
  /// PruneUnconfirmed. An unusable image is invalidated and `outbound` left
  /// empty.
  bool RevalidateCleanImage(SwapClusterInfo* info,
                            std::vector<runtime::Object*>& outbound);

  // --- binary delta internals -----------------------------------------------
  /// True when member writes should retain (not invalidate) clean images:
  /// the next swap-out may diff against the image's base document.
  bool DeltaRetainsImages() const {
    return options_.delta_swap_out && options_.wire_format == "binary";
  }
  /// Serializes per options_.wire_format (XML or OSWB binary).
  Result<serialization::SerializedCluster> SerializeForWire(
      uint32_t cluster_attr_id, const std::vector<runtime::Object*>& members,
      const serialization::DescribeExternalFn& describe);
  /// Reads the base document of a delta-swapped cluster through the fetch
  /// ladder (payload cache, tiers, base replicas) and applies
  /// `delta_payload` to it. Also re-primes the payload cache with the
  /// base. Returns the merged full OSWB document.
  Result<std::string> ResolveDeltaBase(SwapClusterInfo* info,
                                       const std::string& delta_payload,
                                       uint64_t op_start_us);


  // --- tiered-hierarchy internals -------------------------------------------
  /// A tier is attached and admitting: every tier code path on the hot
  /// pipeline is gated on this so a detached (or mode-off) tier leaves the
  /// pipeline byte-identical to before.
  bool TierActive() const { return tier_ != nullptr && tier_->enabled(); }
  /// A flash-tier copy of exactly this group's payload exists; it survives
  /// restarts, so it backs a group that lost every store copy.
  bool FlashBacked(SwapClusterId id, const StoreGroup& group) const {
    return tier_ != nullptr &&
           tier_->HasFlashCopy(id, group.epoch, group.checksum);
  }
  /// Tier placement for a freshly serialized payload: RAM first, flash as
  /// spill, journaled before any flash write. True when a tier took the
  /// payload (the caller then skips remote placement; the durability sweep
  /// owes the write-back). `tier_key` gets the caller-visible key.
  Result<bool> TryTierAdmit(SwapClusterInfo* info, uint64_t seq,
                            uint32_t wire_checksum, const std::string& payload,
                            SwapKey* tier_key);
  /// Unpins the tier entry once the store group it backs (the one whose
  /// epoch and checksum it holds) has K remote replicas (write-back done).
  void MaybeCompleteTierWriteBack(SwapClusterInfo* info);

  context::EventBus* bus_ = nullptr;
  uint64_t bus_token_ = 0;
  uint64_t conn_token_ = 0;
  uint64_t journal_token_ = 0;

  /// Owned bundle unless AttachTelemetry() swapped in a shared one.
  std::unique_ptr<telemetry::Telemetry> own_telemetry_;
  /// The telemetry bundle, clock, intent journal and fault gate, shared
  /// with the replica service.
  PipelineContext pipe_;

  /// (source swap-cluster, target oid) → proxy, for stored-reference reuse.
  ReuseIndex reuse_;
  /// Weak cells, held inline, on the proxies mediating into one
  /// swap-cluster. Dead proxies' entries go when the cluster swaps; they
  /// and the entries of proxies an assign() patch moved elsewhere go on
  /// InboundProxyCount and on AddInbound once `cells` reaches `prune_at`.
  /// So a cluster that never swaps keeps at most about twice its live
  /// inbound proxies, however often a cursor is patched through it.
  struct InboundProxies {
    static constexpr size_t kMinPruneAt = 16;
    std::vector<runtime::WeakCell> cells;
    size_t prune_at = kMinPruneAt;
  };
  /// Drops the entries of `target`'s list whose proxy died or now mediates
  /// into another cluster; returns how many remain.
  static size_t PruneInbound(SwapClusterId target, InboundProxies& list);
  /// target swap-cluster → proxies currently mediating into it.
  std::unordered_map<SwapClusterId, InboundProxies> inbound_;

  /// Grouping state for replication-driven swap-cluster formation.
  SwapClusterId current_group_;
  size_t clusters_in_group_ = 0;

  uint64_t crossing_seq_ = 0;
  VictimFilter victim_filter_;
  PayloadCache cache_;
  Stats stats_;
  /// Where payload copies live (store handles, placement, drop queue).
  ReplicaService replicas_;
  /// AIMD cap on tier write-backs per durability poll
  /// (options_.pace_write_backs).
  AimdPacer write_back_pacer_;

  /// Prefetch bookkeeping: clusters whose payload was staged into the
  /// cache speculatively, and clusters speculatively swapped in but not
  /// yet touched by the application.
  std::unordered_set<SwapClusterId> staged_;
  std::unordered_set<SwapClusterId> speculative_loaded_;
  CrossingObserver crossing_observer_;

  bool brownout_ = false;

  /// Tiered swap hierarchy (optional; null = remote-only placement).
  tier::TierManager* tier_ = nullptr;

  /// The proxy and replacement classes' finalizers, registered once per
  /// runtime. They call the manager that currently owns the runtime's swap
  /// classes: each new manager takes the handle over and its destructor
  /// releases it, so a GC never calls into a dead manager. The reuse index
  /// depends on this: its entries are raw pointers only the proxy
  /// finalizer retires.
  struct FinalizerCall {
    std::shared_ptr<SwappingManager*> owner;
    void (SwappingManager::*hook)(runtime::Object*);
    void operator()(runtime::Object* obj) const {
      if (*owner != nullptr) ((*owner)->*hook)(obj);
    }
  };
  std::shared_ptr<SwappingManager*> owner_;
};

}  // namespace obiswap::swap
