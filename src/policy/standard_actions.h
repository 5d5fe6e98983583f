// Standard middleware actions for the policy engine.
//
// These bind the engine to the other OBIWAN modules: swapping (swap-out a
// victim / a named cluster, swap-in), memory management (collect), and
// replication (adapt the cluster size). Applications register their own
// actions alongside these.
#pragma once

#include "fleet/placement.h"
#include "policy/engine.h"
#include "prefetch/prefetcher.h"
#include "replication/server.h"
#include "runtime/runtime.h"
#include "swap/manager.h"
#include "tier/tier.h"

namespace obiswap::policy {

/// Registers:
///   swap-out-victim              — SwappingManager::SwapOutVictim
///   swap-out   (param "cluster") — SwappingManager::SwapOut
///   swap-in    (param "cluster") — SwappingManager::SwapIn
///   collect                      — full local collection
///   set-telemetry (param "enabled", 0/1) — toggles span/journal recording
///   dump-trace    (param "path")  — writes the Chrome trace JSON to path
///   set-brownout  (param "enabled", 0/1) — forces brownout on/off (note: a
///                                          DurabilityMonitor with a health
///                                          tracker attached overrides this
///                                          on its next poll)
///   set-hedged-fetch (param "enabled", 0/1) — toggles hedged demand fetch
///   set-op-deadline  (param "us") — per-operation virtual-time budget
///                                   (0 = unlimited)
/// All objects must outlive the engine.
Status RegisterSwapActions(PolicyEngine& engine, runtime::Runtime& rt,
                           swap::SwappingManager& manager);

/// Registers:
///   set-replication-cluster-size (param "size") — adapts the grain
/// (paper §2: clusters have "adaptable size").
Status RegisterReplicationActions(PolicyEngine& engine,
                                  replication::ReplicationServer& server);

/// Registers:
///   set-prefetch-budget (param "budget") — max outstanding speculative
///                                          clusters
///   set-prefetch-mode   (param "mode")   — "off" | "cache" | "full"
/// The prefetcher must outlive the engine.
Status RegisterPrefetchActions(PolicyEngine& engine,
                               prefetch::Prefetcher& prefetcher);

/// Registers:
///   set-tier-bytes (params "tier" = "ram" | "flash", "bytes") — resizes a
///       tier budget at runtime. For "flash" the byte count is converted to
///       whole slots (rounded down to flash_slot_bytes granularity).
///   set-tier-mode  (param "mode" = "off" | "ram" | "flash" | "all") —
///       gates tier *admission*; existing entries keep serving probes and
///       drain through write-back.
/// The tier manager must outlive the engine.
Status RegisterTierActions(PolicyEngine& engine, tier::TierManager& tiers);

/// Registers:
///   set-fleet (params "op" = "join" | "leave" | "weight" | "healthy",
///              "store" = <device id>, plus "weight" for op=weight/join and
///              "healthy" 0/1 for op=healthy) — edits the fleet view
///       directly. Note a DurabilityMonitor handed the directory
///       (AttachFleet) re-syncs membership with discovery each poll, so
///       join/leave of stores that are (or are not) announced will be
///       reverted there; weight overrides persist.
/// The directory must outlive the engine.
Status RegisterFleetActions(PolicyEngine& engine,
                            fleet::PlacementDirectory& directory);

/// Registers the overload-resilience knobs (all default-off):
///   set-store-queue (params "enabled" 0/1, optional "concurrency",
///       "queue_limit", "service_time_us") — configures the bounded
///       admission queue on every announced store node (each node keeps
///       its current priority_shedding flag).
///   set-priority-shedding (param "enabled" 0/1) — turns lowest-class-first
///       shedding on at every announced store AND priority annotation on at
///       the client (stores can only classify stamped requests).
///   set-retry-budget (param "enabled" 0/1, optional "earn", "cost" in
///       centitokens) — the client's per-store retry token bucket.
/// Discovery and client must outlive the engine.
Status RegisterOverloadActions(PolicyEngine& engine, net::Discovery& discovery,
                               net::StoreClient& client);

}  // namespace obiswap::policy
