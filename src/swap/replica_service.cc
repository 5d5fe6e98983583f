#include "swap/replica_service.h"

#include <algorithm>
#include <optional>

#include "common/checksum.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "compress/codec.h"
#include "fleet/placement.h"

namespace obiswap::swap {

SwapKey ReplicaService::NextKey() {
  uint64_t self = store_ != nullptr ? store_->self().value() : 0;
  return SwapKey((self << 32) | next_key_++);
}

bool ReplicaService::AnyStoreReachable() const {
  if (remote_attached() && !discovery_->NearbyStores(store_->self()).empty())
    return true;
  return local_ != nullptr && local_->free_bytes() > 0;
}

Status ReplicaService::StoreAt(DeviceId device, SwapKey key,
                               const std::string& payload,
                               uint64_t deadline_us) {
  if (IsLocalDevice(device)) return local_->Store(key, payload);
  OBISWAP_CHECK(store_ != nullptr);
  return store_->Store(device, key, payload, deadline_us, call_priority_);
}

Result<std::string> ReplicaService::FetchFrom(DeviceId device, SwapKey key,
                                              uint64_t deadline_us) {
  if (IsLocalDevice(device)) return local_->Fetch(key);
  if (store_ == nullptr)
    return FailedPreconditionError("no store client attached");
  return store_->Fetch(device, key, deadline_us, call_priority_);
}

Status ReplicaService::DropAt(DeviceId device, SwapKey key) {
  if (IsLocalDevice(device)) return local_->Drop(key);
  if (store_ == nullptr)
    return FailedPreconditionError("no store client attached");
  return store_->Drop(device, key, /*deadline_us=*/0, call_priority_);
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

Status ReplicaService::PlaceReplicas(SwapClusterId id,
                                     const std::string& payload, size_t want,
                                     std::vector<ReplicaLocation>& group,
                                     const Placement& how) {
  const size_t need = payload.size();
  Status last = UnavailableError("no nearby store device with " +
                                 FormatBytes(need) + " free");
  const bool via_directory = DirectoryActive();
  std::vector<net::StoreNode*> candidates;
  if (remote_attached()) {
    candidates = via_directory ? DirectoryCandidates(id, want, need)
                               : discovery_->NearbyStores(store_->self(), need);
  }
  if (health_ != nullptr) {
    // Healthy stores first (rank or most-free order within each group);
    // stores with a tripped breaker sink to the back — still reachable as
    // last-resort probe pressure, never the first choice.
    std::stable_partition(candidates.begin(), candidates.end(),
                          [this](net::StoreNode* node) {
                            return health_->IsHealthy(node->device());
                          });
  }
  // A key minted for a failed attempt is reused for the next candidate,
  // the local flash included (the failed store never recorded it) — the
  // key space is not burned by flaky placements. A run of consecutive
  // failures aborts the walk over the stores: every candidate failing in a
  // row means the network is sick, and retrying down a long candidate list
  // only stalls the caller.
  SwapKey key;
  // One attempt, on a store or the local flash. The holder is indexed and
  // the key journaled before the write, so every replica recovery may
  // adopt from the journal is already indexed.
  auto attempt = [&](DeviceId device, const char* fault_point,
                     uint64_t deadline_us) {
    if (!key.valid()) key = NextKey();
    holdings_[device].insert(id);
    if (pipe_.journal != nullptr && how.journal_seq != 0) {
      // Intent before RPC: if the crash lands inside the store call, the
      // persisted intent is the only record this key ever existed.
      pipe_.journal->NoteReplicaIntent(how.journal_seq, device, key);
      (void)pipe_.journal->Persist();
    }
    Status status = pipe_.CheckFaultPoint(fault_point);
    if (status.ok()) status = StoreAt(device, key, payload, deadline_us);
    if (status.ok()) {
      group.push_back(ReplicaLocation{device, key});
      key = SwapKey();
    }
    return status;
  };
  size_t consecutive_failures = 0;
  for (net::StoreNode* candidate : candidates) {
    if (group.size() >= want) break;
    if (consecutive_failures >= kMaxConsecutiveStoreFailures) break;
    const DeviceId device = candidate->device();
    if (std::any_of(group.begin(), group.end(),
                    [&](const ReplicaLocation& replica) {
                      return replica.device == device;
                    }))
      continue;
    const uint64_t budget = how.budget.Left();
    if (budget == 0) {
      // The operation's end-to-end budget is spent: fail fast rather than
      // stacking retries across the remaining candidates.
      last = DeadlineExceededError("placement budget exhausted after " +
                                   std::to_string(group.size()) +
                                   " replicas");
      break;
    }
    Status placed =
        attempt(device, how.fault_point, budget == UINT64_MAX ? 0 : budget);
    if (pipe_.crashed) return placed;
    if (placed.ok()) {
      if (via_directory) ++stats_.fleet_placements;
      consecutive_failures = 0;
    } else {
      last = placed;
      ++consecutive_failures;
    }
  }
  // The last candidate: the local flash, for a swap-out no store took a
  // copy of. It is part of the device's own scarce resources and wears
  // out, so it never competes with a store, but neither the failure bound
  // nor the budget holds it back.
  if (how.local_fault_point != nullptr && group.empty() && local_ != nullptr &&
      local_->free_bytes() >= need) {
    last = attempt(local_->device(), how.local_fault_point, 0);
    if (pipe_.crashed) return last;
    if (last.ok()) ++stats_.local_swap_outs;
  }
  return group.size() >= want ? OkStatus() : last;
}

std::vector<SwapClusterId> ReplicaService::Holders(DeviceId device) const {
  auto bucket = holdings_.find(device);
  if (bucket == holdings_.end()) return {};
  return {bucket->second.begin(), bucket->second.end()};
}

bool ReplicaService::DirectoryActive() const {
  return remote_attached() && directory_ != nullptr && directory_->size() > 0;
}

std::vector<net::StoreNode*> ReplicaService::DirectoryCandidates(
    SwapClusterId id, size_t k, size_t need) {
  // Rank the whole fleet for this cluster's placement key, keep the
  // reachable stores with room, then apply the bounded-load rule against
  // actual store fill: while the first k slots are being chosen, a store
  // at or over the cap is deferred behind the under-cap candidates (never
  // dropped — a full fleet still places somewhere) so pure-HRW hot spots
  // flatten out while the order stays deterministic for a given view.
  const uint64_t key = fleet::PlacementDirectory::KeyFor(store_->self(), id);
  std::vector<net::StoreNode*> ranked;
  uint64_t total_load = 0;
  for (DeviceId device : directory_->RankAll(key)) {
    if (device == store_->self()) continue;
    if (!discovery_->IsNearby(store_->self(), device)) continue;
    net::StoreNode* node = discovery_->NodeFor(device);
    if (node == nullptr || node->free_bytes() < need) continue;
    ranked.push_back(node);
    total_load += node->entry_count();
  }
  ++stats_.fleet_selections;
  const uint64_t bound = directory_->LoadBound(total_load, ranked.size());
  std::vector<net::StoreNode*> out;
  std::vector<net::StoreNode*> deferred;
  out.reserve(ranked.size());
  uint64_t skips = 0;
  for (net::StoreNode* node : ranked) {
    if (out.size() < k && node->entry_count() >= bound) {
      deferred.push_back(node);
      ++skips;
    } else {
      out.push_back(node);
    }
  }
  out.insert(out.end(), deferred.begin(), deferred.end());
  if (skips > 0) directory_->NoteBoundedSkips(skips);
  return out;
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

std::vector<ReplicaLocation> ReplicaService::ReplicaFetchOrder(
    const std::vector<ReplicaLocation>& replicas) const {
  // O(1) per replica: a K-replica fetch must not pay an O(fleet) discovery
  // walk just to order K candidates.
  auto in_reach = [&](const ReplicaLocation& replica) {
    return IsLocalDevice(replica.device) ||
           (remote_attached() &&
            discovery_->IsNearby(store_->self(), replica.device));
  };
  auto healthy = [&](const ReplicaLocation& replica) {
    return health_ == nullptr || IsLocalDevice(replica.device) ||
           health_->IsHealthy(replica.device);
  };
  std::vector<ReplicaLocation> order;
  order.reserve(replicas.size());
  // Three tiers, placement order within each: reachable-and-healthy,
  // reachable with a tripped breaker (still worth a try — it fails fast at
  // the breaker gate and carries the half-open probe), then unreachable.
  // Unreachable replicas still get a try at the end — discovery lags the
  // radio, and a doomed fetch only costs a fast kUnavailable.
  for (const ReplicaLocation& replica : replicas)
    if (in_reach(replica) && healthy(replica)) order.push_back(replica);
  for (const ReplicaLocation& replica : replicas)
    if (in_reach(replica) && !healthy(replica)) order.push_back(replica);
  for (const ReplicaLocation& replica : replicas)
    if (!in_reach(replica)) order.push_back(replica);
  return order;
}

Status ReplicaService::FetchReplicas(SwapClusterId id, const StoreGroup& group,
                                     const ReplicaRead& read,
                                     ReplicaCopy& copy,
                                     const std::function<Status()>& accept,
                                     Status last) {
  telemetry::Telemetry* trace =
      read.swap_in != nullptr ? pipe_.telemetry : nullptr;
  const char* category = read.swap_in != nullptr ? read.swap_in : "";
  // Replica failover: reachable stores first, until one copy survives its
  // checks and `accept`. Hedged fetch (demand faults only): the first
  // attempt is capped at the HealthTracker's p95-derived deadline; past it
  // the next healthy replica is tried immediately and the abandoned one is
  // re-queued at the back for one final uncapped attempt — a slow primary
  // costs one hedge window, never the full retry pyramid, and availability
  // matches the sequential walk's.
  std::vector<ReplicaLocation> order = ReplicaFetchOrder(*group.replicas);
  if (read.first != nullptr) order.insert(order.begin(), *read.first);
  const uint64_t hedge_deadline_us =
      (read.hedge && health_ != nullptr && order.size() > 1)
          ? health_->HedgeDeadlineUs()
          : 0;
  bool hedge_fired = false;
  size_t hedge_retry_index = SIZE_MAX;
  for (size_t attempt = 0; attempt < order.size(); ++attempt) {
    const ReplicaLocation replica = order[attempt];
    uint64_t fetch_cap = read.budget.Left();
    if (fetch_cap == 0) {
      // End-to-end budget spent: fail fast and cleanly (callers mutate
      // nothing before a copy is accepted).
      last = DeadlineExceededError("budget exhausted at replica " +
                                   std::to_string(attempt) +
                                   " of swap-cluster " + id.ToString());
      break;
    }
    bool hedge_capped = false;
    if (attempt == 0 && hedge_deadline_us > 0 &&
        hedge_deadline_us < fetch_cap) {
      fetch_cap = hedge_deadline_us;
      hedge_capped = true;
    }
    // The first replica tried is the plain fetch; every further attempt is
    // a failover, except the one a fired hedge launched.
    const char* attempt_name =
        attempt == 0 ? "fetch"
                     : (hedge_fired && attempt == 1 ? "hedged_fetch"
                                                    : "failover_fetch");
    telemetry::ScopedSpan attempt_span(
        trace, attempt_name, category,
        telemetry::Hist(trace, "swap_in_fetch_us"));
    // A fired hedge is speculative work: it demotes from demand class so a
    // saturated failover target sheds it before anyone's blocking fault.
    std::optional<PriorityScope> hedge_priority;
    if (hedge_fired && attempt == 1)
      hedge_priority.emplace(*this, net::Priority::kHedgedFetch);
    Status failure = pipe_.CheckFaultPoint(read.fetch_fault);
    if (pipe_.crashed) return failure;
    Result<std::string> fetched{std::string()};
    if (failure.ok()) {
      fetched = FetchFrom(replica.device, replica.key,
                          fetch_cap == UINT64_MAX ? 0 : fetch_cap);
      failure = fetched.status();
    }
    if (failure.ok()) {
      telemetry::ScopedSpan decompress_span(
          trace, "decompress", category,
          telemetry::Hist(trace, "swap_in_decompress_us"));
      Status fault = pipe_.CheckFaultPoint(read.decompress_fault);
      if (pipe_.crashed) return fault;
      Result<std::string> text = fault.ok()
                                     ? compress::FrameDecompress(*fetched)
                                     : Result<std::string>(fault);
      decompress_span.Close();
      if (text.ok() && read.checksum && Adler32(*text) != group.checksum) {
        text = DataLossError("payload checksum mismatch for swap-cluster " +
                             id.ToString());
      }
      failure = text.status();
      if (failure.ok()) {
        copy.decompressed = std::move(*text);
        copy.stored = std::move(*fetched);
        failure = accept();
        if (pipe_.crashed) return failure;
      }
    }
    if (failure.ok()) {
      if (read.swap_in != nullptr && attempt > 0) ++stats_.failover_fetches;
      // Served by the re-queued primary after all: the hedge only burned
      // its window. Served by anyone else: the hedge won.
      if (hedge_fired) {
        if (attempt == hedge_retry_index)
          ++stats_.hedge_wastes;
        else
          ++stats_.hedge_wins;
      }
      return OkStatus();
    }
    if (read.data_loss && failure.code() == StatusCode::kDataLoss)
      ++stats_.data_loss_failovers;
    if (failure.code() == StatusCode::kDeadlineExceeded) {
      if (!hedge_capped) {
        last = failure;  // the op budget, not the hedge, ran out
        break;
      }
      hedge_fired = true;
      ++stats_.hedged_fetches;
      hedge_retry_index = order.size();
      order.push_back(replica);
    }
    if (read.swap_in != nullptr) {
      OBISWAP_LOG(kWarn) << "replica of swap-cluster " << id.ToString()
                         << " on device " << replica.device.value()
                         << " unusable: " << failure.ToString();
    }
    last = failure;
  }
  if (hedge_fired) ++stats_.hedge_wastes;
  return last;
}

void ReplicaService::PruneUnconfirmed(std::vector<ReplicaLocation>& replicas,
                                      bool keep_unreachable) {
  std::erase_if(replicas, [&](const ReplicaLocation& replica) {
    bool keep = keep_unreachable;
    if (IsLocalDevice(replica.device)) {
      keep = local_->Contains(replica.key);
    } else if (remote_attached() &&
               discovery_->IsNearby(store_->self(), replica.device)) {
      net::StoreNode* node = discovery_->NodeFor(replica.device);
      if (node != nullptr)
        keep = !node->crashed() && node->Contains(replica.key);
    }
    if (!keep) (void)EnqueuePendingDrop(replica.device, replica.key);
    return !keep;
  });
}

// ---------------------------------------------------------------------------
// Drop obligations
// ---------------------------------------------------------------------------

void ReplicaService::ReleaseReplicas(
    const std::vector<ReplicaLocation>& replicas, bool count_as_drop) {
  // Drops are reclamation, never on the stall path: lowest shedding class.
  PriorityScope priority_scope(*this, net::Priority::kMaintenance);
  for (const ReplicaLocation& replica : replicas) {
    Status dropped = pipe_.CheckFaultPoint("drop.release_replica");
    if (pipe_.crashed) return;  // abandon mid-release; recovery reclaims it
    if (dropped.ok()) dropped = DropAt(replica.device, replica.key);
    if (dropped.ok()) {
      if (count_as_drop) ++stats_.drops;
      continue;
    }
    if (dropped.code() == StatusCode::kNotFound) continue;  // already gone
    ++stats_.drop_failures;
    if (dropped.code() == StatusCode::kUnavailable ||
        net::IsPushback(dropped)) {
      // Store out of range (or shedding maintenance load) right now: park
      // the obligation; the queue drains on a later poll or reconnection.
      (void)EnqueuePendingDrop(replica.device, replica.key);
    } else {
      OBISWAP_LOG(kWarn) << "store drop failed: " << dropped.ToString();
    }
  }
}

bool ReplicaService::EnqueuePendingDrop(DeviceId device, SwapKey key) {
  for (const PendingDrop& pending : pending_drops_) {
    if (pending.device == device && pending.key == key) return false;
  }
  if (pending_drops_.size() >= kMaxPendingDrops) {
    // A store that never returns must not grow the queue forever: the
    // oldest obligation is abandoned (its entry leaks on that store — the
    // store will reconcile it if it ever rejoins with state intact).
    pending_drops_.erase(pending_drops_.begin());
    ++stats_.pending_drop_overflow;
  }
  pending_drops_.push_back(PendingDrop{device, key});
  ++stats_.drops_deferred;
  return true;
}

size_t ReplicaService::FlushPendingDrops() {
  if (pipe_.crashed) return 0;  // no store traffic while torn; Recover() first
  if (pending_drops_.empty()) return 0;
  // Deferred drops are reclamation: lowest shedding class, first refused.
  PriorityScope priority_scope(*this, net::Priority::kMaintenance);
  size_t drained = 0;
  size_t write = 0;
  for (size_t read = 0; read < pending_drops_.size(); ++read) {
    const PendingDrop pending = pending_drops_[read];
    Status dropped = DropAt(pending.device, pending.key);
    if (dropped.ok() || dropped.code() == StatusCode::kNotFound) {
      ++drained;
      ++stats_.drops_drained;
      continue;
    }
    if (dropped.code() == StatusCode::kUnavailable ||
        net::IsPushback(dropped)) {
      // Out of range or shed by a saturated store: the obligation stands,
      // retry on a later poll.
      pending_drops_[write++] = pending;
      continue;
    }
    OBISWAP_LOG(kWarn) << "deferred drop failed permanently: "
                       << dropped.ToString();
  }
  pending_drops_.resize(write);
  return drained;
}

}  // namespace obiswap::swap
