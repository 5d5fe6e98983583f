// SwappingManager::Recover() and its steps: replay the journal's torn
// operations, newest first, then reconcile replicas, clean images and the
// payload cache with what the stores still hold. Recovery only reads from
// the stores; every key it gives up on becomes a pending drop.
#include <algorithm>
#include <unordered_map>

#include "common/checksum.h"
#include "compress/codec.h"
#include "swap/manager.h"

namespace obiswap::swap {

using runtime::Object;
using runtime::ObjectKind;
using runtime::Value;

std::vector<Object*> SwappingManager::HeapProxiesTargeting(SwapClusterId id) {
  std::vector<Object*> proxies;
  rt_.heap().ForEachObject([&](Object* obj) {
    if (obj->kind() != ObjectKind::kSwapClusterProxy) return;
    if (ProxyTargetSc(obj) != id) return;
    proxies.push_back(obj);
  });
  return proxies;
}

void SwappingManager::EnqueueOrphanDrops(
    const std::vector<ReplicaLocation>& intents, RecoveryReport* report) {
  // Recovery never talks to stores beyond read-only verification; orphaned
  // keys go through the pending-drop queue and drain once the system is
  // healthy again.
  for (const ReplicaLocation& intent : intents) {
    if (replicas_.EnqueuePendingDrop(intent.device, intent.key))
      ++report->orphan_drops_enqueued;
  }
}

const char* SwappingManager::RecoverTornSwapOut(
    const IntentJournal::PendingOp& op, SwapClusterInfo* info,
    RecoveryReport* report) {
  if (info == nullptr) {
    // The cluster record is gone (merged or removed since the journal was
    // written): only the journaled keys matter — reclaim them.
    EnqueueOrphanDrops(op.replica_intents, report);
    ++report->rolled_back;
    return "rolled_back";
  }
  std::unordered_map<uint64_t, Object*> members_by_oid;
  for (Object* member : registry_.LiveMembers(info->id))
    members_by_oid[member->oid().value()] = member;
  std::vector<Object*> proxies = HeapProxiesTargeting(info->id);

  // Roll back only if the heap still holds the whole cluster: every
  // journaled member alive, and every proxy the torn op patched can be
  // re-pointed at a live member.
  bool can_roll_back = true;
  for (ObjectId oid : op.member_oids) {
    if (members_by_oid.count(oid.value()) == 0) {
      can_roll_back = false;
      break;
    }
  }
  if (can_roll_back) {
    for (Object* proxy : proxies) {
      Object* target = ProxyTarget(proxy);
      if (target != nullptr && IsReplacement(target) &&
          members_by_oid.count(ProxyTargetOid(proxy).value()) == 0) {
        can_roll_back = false;
        break;
      }
    }
  }
  if (can_roll_back) {
    for (Object* proxy : proxies) {
      Object* target = ProxyTarget(proxy);
      if (target == nullptr || !IsReplacement(target)) continue;
      proxy->RawSlotMutable(kProxySlotTarget) = Value::Ref(
          members_by_oid.find(ProxyTargetOid(proxy).value())->second);
      ++report->proxies_restored;
    }
    info->state = SwapState::kLoaded;
    info->dirty = true;
    // The registry may list keys beyond the journaled intents: committed
    // maintenance ops (re-replication, evacuation) run between the torn
    // swap-out and the restart. Rolling back retires every one of them —
    // including a delta swap-out's carried base group; the next swap-out
    // ships a full payload.
    RetireListedKeys(info, report);
    EnqueueOrphanDrops(op.replica_intents, report);
    ++report->rolled_back;
    return "rolled_back";
  }

  // Roll forward: the heap copy is gone; adopt the journaled replicas —
  // plus any keys committed maintenance ops added to the registry after
  // the torn op, which carry the same payload — if one of them verifiably
  // serves the journaled payload.
  const bool delta = op.op == IntentOp::kDeltaSwapOut;
  std::vector<ReplicaLocation> intents;
  AppendNew(intents, op.replica_intents);
  AppendNew(intents, info->replicas);
  Result<FetchedCopy> verified =
      FetchGroup(*info, {&intents, op.swap_epoch, op.payload_checksum, delta},
                 FetchPurpose::kRecoveryVerify);
  // A torn delta swap-out is only recoverable if a full base document also
  // survives: the journaled base epoch/checksum identify it, and its keys
  // live in the registry record — base_replicas if the state transition
  // happened, otherwise the retained image's full-document group. A flash
  // tier copy of that document (re-verified by the tier reconcile) backs
  // the group as well as a store copy would.
  std::vector<ReplicaLocation> base_intents;
  bool base_verified = true;
  if (delta) {
    AppendNew(base_intents, info->base_replicas);
    if (info->clean_image.has_value())
      AppendNew(base_intents, *info->clean_image->Groups().back().replicas);
    const StoreGroup base{&base_intents, op.base_epoch, op.base_checksum};
    base_verified =
        FetchGroup(*info, base, FetchPurpose::kRecoveryVerify).ok() ||
        FlashBacked(info->id, base);
  }
  // The torn op's replacement survives as the heap object labelled with
  // this cluster id — found by scan, since the crash may have hit before
  // any proxy was patched to reference it.
  Object* replacement = nullptr;
  rt_.heap().ForEachObject([&](Object* obj) {
    if (replacement == nullptr && IsReplacement(obj) &&
        ReplacementCluster(obj) == info->id) {
      replacement = obj;
    }
  });
  if (!verified.ok() || !base_verified || replacement == nullptr) {
    // Either no candidate replica holds a usable copy (for a delta: of the
    // delta or of its base), or there is no replacement to carry the
    // outbound references a future swap-in would need. With the heap copy
    // also gone, the cluster is lost.
    EnqueueOrphanDrops(intents, report);
    EnqueueOrphanDrops(base_intents, report);
    info->state = SwapState::kDropped;
    RetireListedKeys(info, report);
    ++report->clusters_lost;
    return "lost";
  }
  for (Object* proxy : proxies) {
    Object* target = ProxyTarget(proxy);
    if (target != nullptr && !IsReplacement(target)) {
      // Finish the torn patch: un-patched proxies join the swapped state.
      proxy->RawSlotMutable(kProxySlotTarget) = Value::Ref(replacement);
      ++report->proxies_restored;
    }
  }
  info->state = SwapState::kSwapped;
  info->replicas = std::move(intents);  // the sweep prunes unverifiable ones
  info->swap_epoch = std::max(info->swap_epoch, op.swap_epoch);
  if (op.op == IntentOp::kSwapOut || delta) info->payload_epoch = op.swap_epoch;
  info->payload_checksum = op.payload_checksum;
  info->oids = op.member_oids;
  info->object_count = op.member_oids.size();
  info->payload_bytes = verified->stored.size();
  info->replacement = rt_.heap().NewWeakRef(replacement);
  replacement->RawSlotMutable(kReplSlotEpoch) =
      Value::Int(static_cast<int64_t>(info->swap_epoch));
  info->ClearBaseGroup();
  if (delta) {
    // Adopt the verified base group alongside the delta; the sweep prunes
    // whatever fails verification against the journaled base checksum.
    // The merged document's checksum is unknown after a crash: a zero
    // sends the next swap-in down the verified fetch path.
    info->base_replicas = std::move(base_intents);
    info->base_epoch = op.base_epoch;
    info->base_checksum = op.base_checksum;
  }
  if (info->clean_image.has_value()) {
    // Any image replica not adopted above (into the delta or base group)
    // serves a stale payload now.
    std::vector<ReplicaLocation> remnants;
    for (const StoreGroup& group : info->clean_image->Groups()) {
      for (const ReplicaLocation& replica : *group.replicas)
        if (!info->Lists(replica)) remnants.push_back(replica);
    }
    EnqueueOrphanDrops(remnants, report);
    info->clean_image.reset();
    ++stats_.clean_image_invalidations;
  }
  ++report->rolled_forward;
  return "rolled_forward";
}

void SwappingManager::RetireListedKeys(SwapClusterInfo* info,
                                       RecoveryReport* report) {
  EnqueueOrphanDrops(info->replicas, report);
  EnqueueOrphanDrops(info->base_replicas, report);
  info->replicas.clear();
  info->ClearBaseGroup();
  info->oids.clear();
  info->replacement = runtime::WeakRef();
  if (info->clean_image.has_value()) {
    for (const StoreGroup& group : info->clean_image->Groups())
      EnqueueOrphanDrops(*group.replicas, report);
    info->clean_image.reset();
    ++stats_.clean_image_invalidations;
  }
  cache_.Invalidate(info->id);
}

const char* SwappingManager::RecoverTornSwapIn(
    const IntentJournal::PendingOp& op, SwapClusterInfo* info,
    RecoveryReport* report) {
  if (info == nullptr) {
    EnqueueOrphanDrops(op.replica_intents, report);
    ++report->rolled_back;
    return "rolled_back";
  }
  if (info->state != SwapState::kSwapped) {
    // The swap-in finalized before the crash; only the commit (and, when
    // no image was retained, the stale-replica release) is missing. Any
    // journaled key the cluster no longer accounts for is an orphan.
    std::vector<ReplicaLocation> orphans;
    for (const ReplicaLocation& intent : op.replica_intents)
      if (!info->Accounts(intent)) orphans.push_back(intent);
    EnqueueOrphanDrops(orphans, report);
    ++report->rolled_forward;
    return "rolled_forward";
  }
  std::vector<Object*> proxies = HeapProxiesTargeting(info->id);
  Object* replacement =
      info->replacement != nullptr ? info->replacement->get() : nullptr;
  if (replacement != nullptr) {
    // Roll back: any proxy already patched to a fresh object returns to
    // the replacement; the half-materialized objects become garbage.
    for (Object* proxy : proxies) {
      Object* target = ProxyTarget(proxy);
      if (target == nullptr || IsReplacement(target)) continue;
      proxy->RawSlotMutable(kProxySlotTarget) = Value::Ref(replacement);
      ++report->proxies_restored;
    }
    ++report->rolled_back;
    return "rolled_back";
  }
  // Replacement dead: every proxy was already patched (a proxy's strong
  // ref would otherwise keep the replacement alive), so the swap-in went
  // too far to unwind. Complete it from the heap — the patched proxies
  // kept the materialized objects alive; members no proxy's graph reaches
  // were never reachable to the application anyway.
  info->members.clear();
  rt_.heap().ForEachObject([&](Object* obj) {
    if (obj->kind() != ObjectKind::kRegular) return;
    if (obj->swap_cluster() != info->id) return;
    info->members.push_back(rt_.heap().NewWeakRef(obj));
  });
  std::vector<ReplicaLocation> stale = std::move(info->replicas);
  AppendNew(stale, info->base_replicas);
  info->state = SwapState::kLoaded;
  info->dirty = true;
  info->replicas.clear();
  info->ClearBaseGroup();
  info->oids.clear();
  info->replacement = runtime::WeakRef();
  EnqueueOrphanDrops(stale, report);
  cache_.Invalidate(info->id);
  registry_.RecordCrossing(info->id, ++crossing_seq_);
  ++report->rolled_forward;
  return "rolled_forward";
}

const char* SwappingManager::RecoverTornDrop(
    const IntentJournal::PendingOp& op, SwapClusterInfo* info,
    RecoveryReport* report) {
  // A drop's outcome was decided before its first RPC; finish reclaiming.
  EnqueueOrphanDrops(op.replica_intents, report);
  // When the torn op was releasing `groups`, queues the keys they list
  // beyond its intents (a delta image releases its two groups as separate
  // drop ops) and returns true.
  auto finish = [&](const auto& groups) {
    std::vector<ReplicaLocation> rest;
    bool torn = false;
    for (const StoreGroup& group : groups) {
      for (const ReplicaLocation& replica : *group.replicas) {
        if (Contains(op.replica_intents, replica))
          torn = true;
        else
          rest.push_back(replica);
      }
    }
    if (torn) EnqueueOrphanDrops(rest, report);
    return torn;
  };
  if (info != nullptr) {
    if (info->clean_image.has_value() &&
        finish(info->clean_image->Groups())) {
      // Torn image release: drop the remnant without re-releasing.
      info->clean_image.reset();
      cache_.Invalidate(info->id);
      ++stats_.clean_image_invalidations;
    }
    if (info->state == SwapState::kSwapped && finish(info->Groups())) {
      // Torn GC drop (the replacement died): finish retiring the cluster,
      // both payload groups included.
      info->state = SwapState::kDropped;
      info->replacement = runtime::WeakRef();
      cache_.Invalidate(info->id);
    }
    if (info->state == SwapState::kDropped) {
      info->replicas.clear();
      info->ClearBaseGroup();
    }
  }
  ++report->rolled_forward;
  return "rolled_forward";
}

const char* SwappingManager::RecoverTornMaintenance(
    const IntentJournal::PendingOp& op, SwapClusterInfo* info,
    RecoveryReport* report) {
  // Keys a replica list adopted before the crash stay; the rest (placed
  // but never adopted, or evacuated away) are orphans.
  std::vector<ReplicaLocation> orphans;
  for (const ReplicaLocation& intent : op.replica_intents)
    if (info == nullptr || !info->Accounts(intent)) orphans.push_back(intent);
  EnqueueOrphanDrops(orphans, report);
  ++report->rolled_back;
  return "rolled_back";
}

void SwappingManager::RecoverOp(const IntentJournal::PendingOp& op,
                                RecoveryReport* report) {
  SwapClusterInfo* info =
      op.cluster.valid() ? registry_.Find(op.cluster) : nullptr;
  const char* action = "ignored";
  switch (op.op) {
    case IntentOp::kSwapOut:
    case IntentOp::kCleanSwapOut:
    case IntentOp::kDeltaSwapOut:
      action = RecoverTornSwapOut(op, info, report);
      break;
    case IntentOp::kSwapIn:
      action = RecoverTornSwapIn(op, info, report);
      break;
    case IntentOp::kDrop:
      action = RecoverTornDrop(op, info, report);
      break;
    case IntentOp::kReplicaMaintenance:
      action = RecoverTornMaintenance(op, info, report);
      break;
  }
  pipe_.telemetry->journal().Record("recovery", IntentOpName(op.op), action);
  if (bus_ != nullptr) {
    bus_->Publish(
        context::Event(context::kEventRecoveryOp)
            .Set("swap_cluster", static_cast<int64_t>(op.cluster.value()))
            .Set("op", std::string(IntentOpName(op.op)))
            .Set("action", std::string(action)));
  }
}

void SwappingManager::VerifySwappedClusters(RecoveryReport* report) {
  for (SwapClusterId id : registry_.Ids()) {
    SwapClusterInfo* info = registry_.Find(id);
    if (info == nullptr || info->state != SwapState::kSwapped) continue;
    // Each group verifies against its own checksum: the shipped payload
    // (full document or delta) and — for a delta-swapped cluster — the
    // base document the delta applies to.
    bool lost = false;
    for (const StoreGroup& group : info->Groups()) {
      const bool was_empty = group.replicas->empty();
      std::vector<ReplicaLocation> keep;
      bool any_unverifiable = false;
      for (const ReplicaLocation& replica : *group.replicas) {
        Result<std::string> fetched =
            replicas_.FetchFrom(replica.device, replica.key);
        if (!fetched.ok()) {
          if (fetched.status().code() == StatusCode::kNotFound) {
            // The store is reachable and the key is gone: forget it.
            ++report->replicas_discarded;
          } else {
            // Out of range (or no client attached): unverifiable — the
            // benefit of the doubt, like the failover fetch gives it.
            keep.push_back(replica);
            any_unverifiable = true;
          }
          continue;
        }
        Result<std::string> xml_text = compress::FrameDecompress(*fetched);
        if (xml_text.ok() && Adler32(*xml_text) == group.checksum) {
          keep.push_back(replica);
          ++report->replicas_verified;
        } else {
          // Corrupt bytes under a live key: reclaim them.
          ++stats_.data_loss_failovers;
          ++report->replicas_discarded;
          (void)replicas_.EnqueuePendingDrop(replica.device, replica.key);
        }
      }
      *group.replicas = std::move(keep);
      if (!group.replicas->empty() || any_unverifiable) continue;
      // No copy left. A flash-tier copy (already re-verified by the tier
      // reconcile, which runs first) still serves the group and the
      // durability sweep writes it back. A group that had no replica to
      // begin with only ever lived in a tier: without a flash copy, its
      // payload was in the RAM pool, which did not survive the restart.
      if (!FlashBacked(id, group) && (!was_empty || tier_ != nullptr))
        lost = true;
    }
    if (lost) ++report->clusters_lost;
  }
}

void SwappingManager::ReconcileCleanImages(RecoveryReport* report) {
  for (SwapClusterId id : registry_.Ids()) {
    SwapClusterInfo* info = registry_.Find(id);
    if (info == nullptr || info->state != SwapState::kLoaded) continue;
    if (!info->clean_image.has_value()) continue;
    // The image is only usable while every group keeps a copy: a delta is
    // useless without its base, and a base without its delta. A verified
    // flash-tier copy backs a replica-less group the same way a store copy
    // would (the ladder serves it and the durability sweep writes it back).
    const StoreGroups<StoreGroup> groups = info->clean_image->Groups();
    bool usable = true;
    for (const StoreGroup& group : groups) {
      // Out of range: the benefit of the doubt.
      replicas_.PruneUnconfirmed(*group.replicas, /*keep_unreachable=*/true);
      if (group.replicas->empty() && !FlashBacked(id, group)) usable = false;
    }
    if (usable) continue;
    for (const StoreGroup& group : groups) {
      for (const ReplicaLocation& replica : *group.replicas)
        (void)replicas_.EnqueuePendingDrop(replica.device, replica.key);
      if (tier_ != nullptr) tier_->Release(id, group.epoch, group.checksum);
    }
    info->clean_image.reset();
    cache_.Invalidate(id);
    ++stats_.clean_image_invalidations;
    ++report->clean_images_dropped;
  }
}

void SwappingManager::ReconcilePayloadCache() {
  if (cache_.budget_bytes() == 0) return;
  for (SwapClusterId id : registry_.Ids()) {
    SwapClusterInfo* info = registry_.Find(id);
    if (info == nullptr) continue;
    const StoreGroups<StoreGroup> groups = info->Groups();
    if (groups.empty()) {
      cache_.Invalidate(id);
      continue;
    }
    // The legitimate entry is the full document: for a delta, the BASE
    // document under the base epoch, not the shipped delta.
    const StoreGroup& document = groups.back();
    const std::string* cached = cache_.Get(id, document.epoch);
    if (cached != nullptr && Adler32(*cached) != document.checksum)
      cache_.Invalidate(id);
  }
}

Result<SwappingManager::RecoveryReport> SwappingManager::Recover() {
  telemetry::ScopedSpan span(pipe_.telemetry, "recover", "recovery",
                             telemetry::Hist(pipe_.telemetry, "recovery_us"));
  const uint64_t begin_us = pipe_.now_us();
  RecoveryReport report;

  std::vector<IntentJournal::PendingOp> pending;
  if (pipe_.journal != nullptr) {
    OBISWAP_ASSIGN_OR_RETURN(pending, pipe_.journal->LoadForRecovery());
    report.journal_records_skipped = pipe_.journal->stats().records_skipped;
    report.journal_bad_tail_bytes = pipe_.journal->stats().bad_tail_bytes;
  }
  report.pending_ops = pending.size();
  // The strictest restart assumption for the tier stack: the compressed
  // RAM pool is volatile and did not survive. Flash-tier entries are
  // reconciled below, after replay has settled the registry.
  if (tier_ != nullptr)
    report.tier_ram_entries_lost = tier_->DropRamPoolForRecovery();
  // Newest first: a nested operation (the pressure handler's swap-out
  // firing inside another op's allocation) must unwind before the op that
  // triggered it.
  for (auto it = pending.rbegin(); it != pending.rend(); ++it)
    RecoverOp(*it, &report);

  if (tier_ != nullptr) {
    // Flash-tier reconcile, both directions: entries whose cluster rolled
    // back, dropped, or re-swapped at another epoch are retired (slots
    // freed — a subsequent pending drop of the key tolerates kNotFound),
    // and entries whose flash bytes are gone or corrupt are discarded.
    // Survivors are re-verified and stay pinned, so the durability sweep
    // re-queues their write-back. Runs before VerifySwappedClusters so a
    // verified flash copy can veto a loss verdict below.
    tier::TierManager::ReconcileOutcome outcome = tier_->ReconcileAfterRestart(
        [this](SwapClusterId id, uint64_t epoch, uint32_t checksum) {
          const SwapClusterInfo* info = registry_.Find(id);
          if (info == nullptr) return false;
          // The tiers hold full documents: a plain payload or a delta's
          // base.
          for (const ConstStoreGroup& group : info->Groups()) {
            if (!group.delta && group.epoch == epoch &&
                group.checksum == checksum)
              return true;
          }
          return false;
        });
    report.tier_flash_verified = outcome.verified;
    report.tier_flash_discarded = outcome.discarded;
    // A torn flash-tier admission replays like any replica intent, so
    // roll-forward may have adopted the tier's own flash key into the
    // cluster's replica list. When the tier entry also survived reconcile,
    // the one flash entry would be owned twice — and the first owner to
    // drop it would strand the other with a dangling key. The tier keeps
    // it (its copy is the verified, wear-accounted one); the replica-list
    // alias is removed.
    for (SwapClusterId id : registry_.Ids()) {
      SwapClusterInfo* info = registry_.Find(id);
      if (info == nullptr) continue;
      const SwapKey tier_key = tier_->FlashKey(id);
      if (!tier_key.valid()) continue;
      auto alias = [&](const ReplicaLocation& replica) {
        return replica.device == tier_->flash_device() &&
               replica.key == tier_key;
      };
      for (const StoreGroup& group : info->Groups())
        std::erase_if(*group.replicas, alias);
    }
  }
  VerifySwappedClusters(&report);
  ReconcileCleanImages(&report);
  ReconcilePayloadCache();

  if (pipe_.journal != nullptr) OBISWAP_RETURN_IF_ERROR(pipe_.journal->Clear());
  pipe_.crashed = false;
  ++stats_.recoveries;
  stats_.recovery_us += pipe_.now_us() - begin_us;
  if (bus_ != nullptr) {
    bus_->Publish(
        context::Event(context::kEventRecoveryCompleted)
            .Set("pending_ops", static_cast<int64_t>(report.pending_ops))
            .Set("rolled_back", static_cast<int64_t>(report.rolled_back))
            .Set("rolled_forward",
                 static_cast<int64_t>(report.rolled_forward))
            .Set("proxies_restored",
                 static_cast<int64_t>(report.proxies_restored))
            .Set("orphan_drops",
                 static_cast<int64_t>(report.orphan_drops_enqueued))
            .Set("clusters_lost",
                 static_cast<int64_t>(report.clusters_lost)));
  }
  return report;
}

}  // namespace obiswap::swap
