#include "swap/manager.h"

#include <algorithm>
#include <unordered_set>

#include "common/checksum.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "compress/codec.h"
#include "fleet/placement.h"
#include "serialization/graph_binary.h"
#include "serialization/graph_xml.h"

namespace obiswap::swap {

using runtime::ClassBuilder;
using runtime::ClassInfo;
using runtime::LocalScope;
using runtime::Object;
using runtime::ObjectKind;
using runtime::Value;
using runtime::ValueKind;

namespace {
/// Event properties live in unordered maps; the journal renders them with
/// sorted keys so post-mortem dumps are byte-identical across runs.
std::string RenderEventDetail(const context::Event& event) {
  std::vector<std::string> parts;
  parts.reserve(event.ints().size() + event.strings().size());
  for (const auto& [key, value] : event.ints())
    parts.push_back(key + "=" + std::to_string(value));
  for (const auto& [key, value] : event.strings())
    parts.push_back(key + "=" + value);
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) out += " ";
    out += part;
  }
  return out;
}

/// Replica count of the cluster's thinnest store group — the one a repair
/// must top up; 0 when the state holds no groups.
size_t FewestReplicas(const SwapClusterInfo& info) {
  size_t fewest = SIZE_MAX;
  for (const ConstStoreGroup& group : info.Groups())
    fewest = std::min(fewest, group.replicas->size());
  return fewest == SIZE_MAX ? 0 : fewest;
}
}  // namespace

SwappingManager::SwappingManager(runtime::Runtime& rt, Options options)
    : rt_(rt),
      options_(std::move(options)),
      own_telemetry_(std::make_unique<telemetry::Telemetry>()),
      telemetry_(own_telemetry_.get()),
      cache_(options_.swap_in_cache_bytes),
      write_back_pacer_(options_.pace_write_backs) {
  OBISWAP_CHECK(options_.clusters_per_swap_cluster > 0);
  set_replication_factor(options_.replication_factor);
  OBISWAP_CHECK(compress::FindCodec(options_.codec) != nullptr);

  const ClassInfo* existing = rt_.types().Find(kSwapProxyClassName);
  if (existing != nullptr) {
    proxy_cls_ = existing;
    replacement_cls_ = rt_.types().Find(kReplacementClassName);
    OBISWAP_CHECK(replacement_cls_ != nullptr);
    // An earlier manager registered the classes: take over their
    // finalizers, so this manager's proxies leave its reuse index too.
    const auto* call = existing->finalizer().target<FinalizerCall>();
    OBISWAP_CHECK(call != nullptr);
    owner_ = call->owner;
  } else {
    owner_ = std::make_shared<SwappingManager*>(nullptr);
    proxy_cls_ = *rt_.types().Register(
        ClassBuilder(kSwapProxyClassName)
            .Kind(ObjectKind::kSwapClusterProxy)
            .Field("target", ValueKind::kRef)
            .Field("source", ValueKind::kInt)
            .Field("target_sc", ValueKind::kInt)
            .Field("target_oid", ValueKind::kInt)
            .Field("assigned", ValueKind::kInt)
            .OnFinalize(
                FinalizerCall{owner_, &SwappingManager::OnProxyFinalized}));
    replacement_cls_ = *rt_.types().Register(
        ClassBuilder(kReplacementClassName)
            .Kind(ObjectKind::kReplacement)
            .Field("cluster", ValueKind::kInt)
            .Field("epoch", ValueKind::kInt)
            .OnFinalize(FinalizerCall{
                owner_, &SwappingManager::OnReplacementFinalized}));
  }
  *owner_ = this;

  rt_.SetInterceptor(ObjectKind::kSwapClusterProxy, this);
  rt_.SetInterceptor(ObjectKind::kReplacement, this);
  rt_.SetStoreMediator(this);
  rt_.SetIdentityHook(this);
}

SwappingManager::~SwappingManager() {
  if (*owner_ == this) *owner_ = nullptr;
  rt_.SetInterceptor(ObjectKind::kSwapClusterProxy, nullptr);
  rt_.SetInterceptor(ObjectKind::kReplacement, nullptr);
  rt_.SetStoreMediator(nullptr);
  rt_.SetIdentityHook(nullptr);
  if (bus_ != nullptr) {
    bus_->Unsubscribe(bus_token_);
    bus_->Unsubscribe(conn_token_);
    bus_->Unsubscribe(journal_token_);
  }
}

void SwappingManager::AttachStore(net::StoreClient* client,
                                  net::Discovery* discovery) {
  store_ = client;
  discovery_ = discovery;
}

void SwappingManager::AttachTelemetry(telemetry::Telemetry* t) {
  if (t == nullptr) return;
  telemetry_ = t;
  if (clock_ != nullptr) telemetry_->AttachClock(clock_);
}

void SwappingManager::AttachHealth(net::HealthTracker* health) {
  health_ = health;
  if (health_ == nullptr) return;
  // The manager owns the bus and the journal, so it relays every breaker
  // transition for the tracker (which links only net + telemetry).
  health_->SetTransitionObserver([this](DeviceId device,
                                        net::BreakerState from,
                                        net::BreakerState to) {
    telemetry_->journal().Record(
        "degraded", "breaker-transition",
        "device=" + std::to_string(device.value()) + " " +
            net::BreakerStateName(from) + "->" + net::BreakerStateName(to));
    telemetry_->metrics()
        .GetGauge("swap.open_breakers")
        .Set(static_cast<int64_t>(health_->open_count()));
    if (bus_ != nullptr) {
      bus_->Publish(context::Event(context::kEventBreakerTransition)
                        .Set("device", static_cast<int64_t>(device.value()))
                        .Set("from", std::string(net::BreakerStateName(from)))
                        .Set("to", std::string(net::BreakerStateName(to))));
    }
  });
}

// ---------------------------------------------------------------------------
// Degraded mode (brownout)
// ---------------------------------------------------------------------------

size_t SwappingManager::EffectiveReplicationFactor() const {
  const size_t full = options_.replication_factor;
  return brownout_ ? std::min(full, kBrownoutReplicationFactor) : full;
}

void SwappingManager::EnterBrownout(const char* reason) {
  if (brownout_) return;
  brownout_ = true;
  ++stats_.brownout_entries;
  telemetry_->metrics().GetGauge("swap.brownout").Set(1);
  telemetry_->journal().Record("degraded", "brownout-entered", reason);
  if (bus_ != nullptr) {
    bus_->Publish(
        context::Event(context::kEventBrownoutEntered)
            .Set("reason", std::string(reason))
            .Set("effective_k",
                 static_cast<int64_t>(EffectiveReplicationFactor())));
  }
}

void SwappingManager::ExitBrownout() {
  if (!brownout_) return;
  brownout_ = false;
  ++stats_.brownout_exits;
  telemetry_->metrics().GetGauge("swap.brownout").Set(0);
  telemetry_->journal().Record("degraded", "brownout-exited", "");
  if (bus_ != nullptr) {
    bus_->Publish(
        context::Event(context::kEventBrownoutExited)
            .Set("effective_k",
                 static_cast<int64_t>(EffectiveReplicationFactor())));
  }
}

uint64_t SwappingManager::OpBudgetLeft(uint64_t op_start_us) const {
  if (options_.op_deadline_us == 0 || clock_ == nullptr) return UINT64_MAX;
  uint64_t used = clock_->now_us() - op_start_us;
  return used >= options_.op_deadline_us ? 0
                                         : options_.op_deadline_us - used;
}

bool SwappingManager::EnqueuePendingDrop(DeviceId device, SwapKey key) {
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

void SwappingManager::AttachBus(context::EventBus* bus) {
  bus_ = bus;
  bus_token_ = bus_->Subscribe(
      context::kEventClusterReplicated,
      [this](const context::Event& event) { OnClusterReplicated(event); });
  // Reconnection is the moment to deliver drop notifications that failed
  // while their store was out of range.
  conn_token_ = bus_->Subscribe(
      context::kEventConnectivityChanged,
      [this](const context::Event&) { FlushPendingDrops(); });
  // Mirror every bus event into the telemetry journal; a post-mortem dump
  // then interleaves middleware events with the spans around them. Record
  // only appends to a preallocated ring, so handlers that publish further
  // events (delivered re-entrantly) are safe.
  journal_token_ = bus_->SubscribeAll([this](const context::Event& event) {
    telemetry_->journal().Record("event", event.type(),
                                 RenderEventDetail(event));
  });
}

void SwappingManager::InstallPressureHandler() {
  rt_.heap().SetPressureHandler([this](size_t needed) {
    (void)needed;
    Result<SwapClusterId> victim = SwapOutVictim();
    if (!victim.ok()) {
      OBISWAP_LOG(kWarn) << "pressure: no swappable victim: "
                         << victim.status().ToString();
      return false;
    }
    OBISWAP_LOG(kInfo) << "pressure: swapped out cluster "
                       << victim->ToString();
    return true;
  });
}

Status SwappingManager::Place(Object* obj, SwapClusterId id) {
  OBISWAP_RETURN_IF_ERROR(registry_.AddMember(rt_.heap(), obj, id));
  registry_.Touch(id, ++crossing_seq_);
  // A membership change is a mutation: any retained image lacks `obj`.
  MarkDirty(id);
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Clean-image tracking
// ---------------------------------------------------------------------------

void SwappingManager::MarkDirty(SwapClusterId id) {
  SwapClusterInfo* info = registry_.Find(id);
  // Writes can only hit resident objects; a swapped cluster cannot dirty.
  if (info == nullptr || info->state != SwapState::kLoaded) return;
  info->dirty = true;
  if (info->clean_image.has_value() && !DeltaRetainsImages()) {
    // First write since the round-trip: the store copies no longer mirror
    // the resident state. Stale, not garbage — not counted as GC drops.
    // (Under delta swap-out the image is retained instead: its base
    // document is what the next swap-out diffs against.)
    InvalidateCleanImage(info, /*count_as_drop=*/false);
  }
}

void SwappingManager::ObserveFieldWrite(runtime::Runtime& rt, Object* holder,
                                        size_t /*slot*/) {
  (void)rt;
  if (holder == nullptr || holder->kind() != ObjectKind::kRegular) return;
  SwapClusterId id = holder->swap_cluster();
  MarkDirty(id);
  // Telemetry only: a write into a cluster whose image survives it (delta
  // swap-out diffs document-to-document, so no per-field record is kept).
  if (SwapClusterInfo* info = registry_.Find(id);
      info != nullptr && info->state == SwapState::kLoaded &&
      info->clean_image.has_value())
    ++stats_.fields_marked_dirty;
}

void SwappingManager::InvalidateCleanImage(SwapClusterInfo* info,
                                           bool count_as_drop) {
  if (!info->clean_image.has_value()) return;
  for (const StoreGroup& group : info->clean_image->Groups()) {
    if (store_ != nullptr || local_ != nullptr)
      JournaledRelease(info->id, *group.replicas, count_as_drop);
    // The tier copy of this exact payload generation dies with the image
    // (epoch-scoped: a fresh swap-out's just-admitted newer entry
    // survives).
    if (tier_ != nullptr) tier_->Release(info->id, group.epoch, group.checksum);
  }
  info->clean_image.reset();
  cache_.Invalidate(info->id);
  ++stats_.clean_image_invalidations;
}

size_t SwappingManager::ReapDeadCleanImages() {
  size_t reaped = 0;
  for (SwapClusterId id : registry_.Ids()) {
    SwapClusterInfo* info = registry_.Find(id);
    if (info == nullptr || info->state != SwapState::kLoaded) continue;
    if (!info->clean_image.has_value()) continue;
    if (SwapClusterRegistry::HasLiveMember(*info)) continue;
    // Every member died while loaded: the image backs garbage. This is the
    // GC analogue of the replacement-finalizer drop, so it counts as one.
    InvalidateCleanImage(info, /*count_as_drop=*/true);
    ++stats_.clean_images_reaped;
    ++reaped;
  }
  return reaped;
}

void SwappingManager::set_swap_in_cache_bytes(size_t bytes) {
  options_.swap_in_cache_bytes = bytes;
  cache_.set_budget_bytes(bytes);
}

SwapState SwappingManager::StateOf(SwapClusterId id) const {
  const SwapClusterInfo* info = registry_.Find(id);
  return info == nullptr ? SwapState::kLoaded : info->state;
}

size_t SwappingManager::InboundProxyCount(SwapClusterId id) {
  auto it = inbound_.find(id);
  return it == inbound_.end() ? 0 : PruneInbound(id, it->second);
}

size_t SwappingManager::InboundListSize(SwapClusterId id) const {
  auto it = inbound_.find(id);
  return it == inbound_.end() ? 0 : it->second.cells.size();
}

// ---------------------------------------------------------------------------
// Resolution and proxy lifecycle
// ---------------------------------------------------------------------------

bool SwappingManager::ResolveUltimate(Object* value, Resolved* out) const {
  if (value == nullptr) return false;
  switch (value->kind()) {
    case ObjectKind::kRegular:
      *out = Resolved{value, value->swap_cluster(), value->oid()};
      return true;
    case ObjectKind::kSwapClusterProxy:
      *out = Resolved{ProxyTarget(value), ProxyTargetSc(value),
                      ProxyTargetOid(value)};
      return true;
    case ObjectKind::kReplicationProxy:
    case ObjectKind::kReplacement:
      return false;  // not swap-mediated
  }
  return false;
}

void SwappingManager::RegisterProxy(Object* proxy, SwapClusterId target_sc,
                                    ObjectId target_oid,
                                    SwapClusterId source) {
  AddInbound(target_sc, proxy);
  reuse_.Put(source, target_oid, proxy);
}

void SwappingManager::AddInbound(SwapClusterId target, Object* proxy) {
  InboundProxies& list = inbound_[target];
  list.cells.emplace_back(proxy);
  // Amortized O(1) per append.
  if (list.cells.size() >= list.prune_at) PruneInbound(target, list);
}

size_t SwappingManager::PruneInbound(SwapClusterId target,
                                     InboundProxies& list) {
  // Every consumer already skips both kinds of entry, so dropping them
  // changes nothing but the list's length. A proxy patched back into
  // `target` gets a fresh entry from AddInbound.
  std::erase_if(list.cells, [target](const runtime::WeakCell& cell) {
    return cell.cleared() || ProxyTargetSc(cell.get()) != target;
  });
  list.prune_at =
      std::max(InboundProxies::kMinPruneAt, 2 * list.cells.size());
  return list.cells.size();
}

Result<Object*> SwappingManager::CreateProxy(SwapClusterId source,
                                             const Resolved& resolved) {
  // Root the target across the allocation (which may collect).
  LocalScope scope(rt_.heap());
  scope.Add(resolved.target);
  OBISWAP_ASSIGN_OR_RETURN(Object * proxy, rt_.TryNewMiddleware(proxy_cls_));
  proxy->set_swap_cluster(source);
  proxy->RawSlotMutable(kProxySlotTarget) = Value::Ref(resolved.target);
  proxy->RawSlotMutable(kProxySlotSource) =
      Value::Int(static_cast<int64_t>(source.value()));
  proxy->RawSlotMutable(kProxySlotTargetSc) =
      Value::Int(static_cast<int64_t>(resolved.sc.value()));
  proxy->RawSlotMutable(kProxySlotTargetOid) =
      Value::Int(static_cast<int64_t>(resolved.oid.value()));
  proxy->RawSlotMutable(kProxySlotAssigned) = Value::Int(0);
  RegisterProxy(proxy, resolved.sc, resolved.oid, source);
  ++stats_.proxies_created;
  return proxy;
}

Result<Object*> SwappingManager::ResolveForContext(SwapClusterId context,
                                                   Object* value) {
  Resolved resolved;
  if (!ResolveUltimate(value, &resolved)) return value;  // pass-through kinds

  if (IsSwapProxy(value) && ProxySource(value) == context) {
    // Already the right mediation for this context.
    ++stats_.proxies_reused;
    return value;
  }
  if (resolved.sc == context) {
    // Rule iii: a reference into the holder's own swap-cluster is stored
    // raw (dismantle any proxy).
    if (IsSwapProxy(value)) ++stats_.proxies_dismantled;
    return resolved.target;
  }
  // Rules i/ii: reuse the proxy for this (source, target) pair or create
  // one.
  if (Object* reusable = reuse_.Find(context, resolved.oid);
      reusable != nullptr) {
    ++stats_.proxies_reused;
    return reusable;
  }
  return CreateProxy(context, resolved);
}

Object* SwappingManager::MediateStore(runtime::Runtime& rt, Object* holder,
                                      Object* value) {
  (void)rt;
  SwapClusterId context =
      holder == nullptr ? kSwapCluster0 : holder->swap_cluster();
  if (!context.valid()) context = kSwapCluster0;
  // A reference store mutates the holder's cluster (belt to the write
  // barrier's braces — SetGlobal, for one, never raises the barrier).
  MarkDirty(context);
  // A mediating proxy is a middleware allocation, which overcommits rather
  // than fail. A raw cross-cluster reference stored here would dangle once
  // its target's cluster swapped out and was reclaimed.
  Result<Object*> mediated = ResolveForContext(context, value);
  OBISWAP_CHECK(mediated.ok());
  return *mediated;
}

bool SwappingManager::SameObject(const Object* a, const Object* b) {
  auto identity = [](const Object* obj) -> uint64_t {
    switch (obj->kind()) {
      case ObjectKind::kRegular:
        return obj->oid().value();
      case ObjectKind::kSwapClusterProxy:
        return ProxyTargetOid(obj).value();
      case ObjectKind::kReplicationProxy:
        // Slot 0 of a replication proxy is the remote oid.
        return static_cast<uint64_t>(obj->RawSlot(0).as_int());
      case ObjectKind::kReplacement:
        return obj->oid().value();
    }
    return obj->oid().value();
  };
  return identity(a) == identity(b);
}

Status SwappingManager::Assign(Object* proxy) {
  if (!IsSwapProxy(proxy))
    return InvalidArgumentError("assign() takes a swap-cluster-proxy");
  if (ProxySource(proxy) != kSwapCluster0)
    return FailedPreconditionError(
        "assign() is only valid for proxies with source in swap-cluster-0");
  proxy->RawSlotMutable(kProxySlotAssigned) = Value::Int(1);
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Adaptive regrouping
// ---------------------------------------------------------------------------

Status SwappingManager::MergeSwapClusters(SwapClusterId into,
                                          SwapClusterId from) {
  if (into == from) return InvalidArgumentError("merge of a cluster with itself");
  // The scans below read the slots of every labelled object. Collect first:
  // a dead object of a once-swapped cluster may still point at members its
  // swap-out freed (ARCHITECTURE.md invariant 5).
  rt_.heap().Collect();
  SwapClusterInfo* into_info = registry_.Find(into);
  SwapClusterInfo* from_info = registry_.Find(from);
  if (into_info == nullptr || from_info == nullptr)
    return NotFoundError("unknown swap-cluster in merge");
  if (into_info->state != SwapState::kLoaded ||
      from_info->state != SwapState::kLoaded)
    return FailedPreconditionError("merge requires both clusters loaded");
  for (SwapClusterId active : rt_.context_stack()) {
    if (active == into || active == from)
      return FailedPreconditionError("merge of an executing swap-cluster");
  }
  if (victim_filter_ && (victim_filter_(into) || victim_filter_(from)))
    return FailedPreconditionError("merge of a pinned swap-cluster");

  // A merge changes both memberships: neither retained image survives.
  MarkDirty(into);
  MarkDirty(from);
  cache_.Invalidate(from);

  // 1. Relabel every object of `from` (registered or method-created) and
  //    fold membership into `into`.
  rt_.heap().ForEachObject([&](Object* obj) {
    if (obj->kind() != ObjectKind::kRegular) return;
    if (obj->swap_cluster() != from) return;
    obj->set_swap_cluster(into);
    into_info->members.push_back(rt_.heap().NewWeakRef(obj));
  });

  // 2. Relabel proxies: targets into `from` now target `into`; proxies
  //    sourced in `from` now speak for `into`.
  rt_.heap().ForEachObject([&](Object* proxy) {
    if (proxy->kind() != ObjectKind::kSwapClusterProxy) return;
    if (ProxyTargetSc(proxy) == from) {
      proxy->RawSlotMutable(kProxySlotTargetSc) =
          Value::Int(static_cast<int64_t>(into.value()));
      AddInbound(into, proxy);
    }
    if (ProxySource(proxy) == from) {
      proxy->RawSlotMutable(kProxySlotSource) =
          Value::Int(static_cast<int64_t>(into.value()));
      proxy->set_swap_cluster(into);
      const ObjectId target_oid = ProxyTargetOid(proxy);
      // A proxy already registered for the merged pair keeps its entry.
      if (reuse_.EraseIf(from, target_oid, proxy) &&
          reuse_.Find(into, target_oid) == nullptr) {
        reuse_.Put(into, target_oid, proxy);
      }
    }
  });

  // 3. Dismantle proxies that became internal: any slot in the merged
  //    cluster holding an into->into proxy reverts to the raw reference —
  //    "there are no further indirections ... the application runs at
  //    full-speed".
  rt_.heap().ForEachObject([&](Object* holder) {
    if (holder->kind() != ObjectKind::kRegular) return;
    if (holder->swap_cluster() != into) return;
    for (size_t i = 0; i < holder->slot_count(); ++i) {
      const Value& slot = holder->RawSlot(i);
      if (!slot.is_ref() || !IsSwapProxy(slot.ref())) continue;
      Object* proxy = slot.ref();
      if (ProxySource(proxy) == into && ProxyTargetSc(proxy) == into) {
        holder->RawSlotMutable(i).set_ref(ProxyTarget(proxy));
        ++stats_.proxies_dismantled;
      }
    }
  });

  // 4. Fold bookkeeping and retire `from`.
  into_info->crossing_count += from_info->crossing_count;
  into_info->last_crossing_seq =
      std::max(into_info->last_crossing_seq, from_info->last_crossing_seq);
  into_info->replication_clusters.insert(
      into_info->replication_clusters.end(),
      from_info->replication_clusters.begin(),
      from_info->replication_clusters.end());
  registry_.Remove(from);
  inbound_.erase(from);
  // `from` no longer exists; whatever speculative state it carried is
  // neither hit nor waste — just gone.
  staged_.erase(from);
  speculative_loaded_.erase(from);
  ++stats_.merges;
  return OkStatus();
}

Result<SwapClusterId> SwappingManager::SplitSwapCluster(
    SwapClusterId id, const std::vector<Object*>& members_to_move) {
  // The scan below reads the slots of every labelled object. Collect first:
  // a dead object of a once-swapped cluster may still point at members its
  // swap-out freed (ARCHITECTURE.md invariant 5).
  LocalScope scope(rt_.heap());
  for (Object* member : members_to_move) scope.Add(member);
  rt_.heap().Collect();
  SwapClusterInfo* info = registry_.Find(id);
  if (info == nullptr) return NotFoundError("unknown swap-cluster in split");
  if (info->state != SwapState::kLoaded)
    return FailedPreconditionError("split requires a loaded cluster");
  if (members_to_move.empty())
    return InvalidArgumentError("split with no members to move");
  for (SwapClusterId active : rt_.context_stack()) {
    if (active == id)
      return FailedPreconditionError("split of an executing swap-cluster");
  }
  if (victim_filter_ && victim_filter_(id))
    return FailedPreconditionError("split of a pinned swap-cluster");
  std::unordered_set<const Object*> moving;
  std::unordered_set<uint64_t> moving_oids;
  for (Object* member : members_to_move) {
    if (member == nullptr || member->kind() != ObjectKind::kRegular ||
        member->swap_cluster() != id)
      return InvalidArgumentError(
          "split members must be regular objects of the split cluster");
    moving.insert(member);
    moving_oids.insert(member->oid().value());
  }

  // Members leave `id`: its retained image (if any) is stale. The fresh
  // cluster is born dirty (default), as it has never been serialized.
  MarkDirty(id);

  SwapClusterId fresh = registry_.Create();
  SwapClusterInfo* fresh_info = registry_.Find(fresh);
  for (Object* member : members_to_move) {
    member->set_swap_cluster(fresh);
    fresh_info->members.push_back(rt_.heap().NewWeakRef(member));
  }

  // Existing proxies whose ultimate target moved now mediate into the new
  // cluster.
  rt_.heap().ForEachObject([&](Object* proxy) {
    if (proxy->kind() != ObjectKind::kSwapClusterProxy) return;
    if (ProxyTargetSc(proxy) != id) return;
    if (moving_oids.count(ProxyTargetOid(proxy).value()) == 0) return;
    proxy->RawSlotMutable(kProxySlotTargetSc) =
        Value::Int(static_cast<int64_t>(fresh.value()));
    AddInbound(fresh, proxy);
  });

  // Raw references that now cross the new boundary acquire proxies, in
  // both directions ("for every reference linking two different
  // swap-clusters ... a special proxy always remains in the way").
  // Two phases: mediation allocates (and may collect), which must not
  // happen while iterating the heap's object list.
  struct PendingMediation {
    Object* holder;
    size_t slot;
    Object* target;
  };
  std::vector<PendingMediation> pending;
  rt_.heap().ForEachObject([&](Object* holder) {
    if (holder->kind() != ObjectKind::kRegular) return;
    SwapClusterId holder_sc = holder->swap_cluster();
    if (holder_sc != id && holder_sc != fresh) return;
    for (size_t i = 0; i < holder->slot_count(); ++i) {
      const Value& slot = holder->RawSlot(i);
      if (!slot.is_ref() || slot.ref() == nullptr) continue;
      Object* target = slot.ref();
      if (target->kind() != ObjectKind::kRegular) continue;
      if (target->swap_cluster() == holder_sc) continue;
      pending.push_back(PendingMediation{holder, i, target});
    }
  });
  for (const PendingMediation& entry : pending) {
    scope.Add(entry.holder);
    scope.Add(entry.target);
  }
  for (const PendingMediation& entry : pending) {
    OBISWAP_ASSIGN_OR_RETURN(
        Object * mediated,
        ResolveForContext(entry.holder->swap_cluster(), entry.target));
    entry.holder->RawSlotMutable(entry.slot).set_ref(mediated);
  }

  registry_.Touch(id, ++crossing_seq_);
  registry_.Touch(fresh, crossing_seq_);
  ++stats_.splits;
  return fresh;
}

// ---------------------------------------------------------------------------
// Invocation interception
// ---------------------------------------------------------------------------

Result<Value> SwappingManager::Invoke(runtime::Runtime& rt, Object* receiver,
                                      runtime::Selector method,
                                      runtime::Args args) {
  (void)rt;
  if (IsReplacement(receiver)) {
    return FailedPreconditionError(
        "direct invocation on a replacement-object: applications reach a "
        "swapped cluster only through swap-cluster-proxies");
  }
  return ProxyInvoke(receiver, method, args);
}

Result<Object*> SwappingManager::EnterTarget(Object* proxy) {
  Object* target = ProxyTarget(proxy);
  const SwapClusterId target_sc = ProxyTargetSc(proxy);
  if (target != nullptr && !IsReplacement(target) && !crossing_observer_ &&
      speculative_loaded_.empty()) {
    // Fast path: the target is resident and the crossing has no observer
    // and no speculative load to consume, so nothing can swap it out
    // between here and the call.
    ++stats_.boundary_crossings;
    registry_.RecordCrossing(target_sc, ++crossing_seq_);
    return target;
  }
  // The mediated cluster may be swapped out: fault it back in as a whole
  // ("since one of the objects enclosed ... becomes needed again, there
  // is a high probability that the others will be as well"). A loop, not a
  // single attempt: the crossing observer below may run prefetch work whose
  // allocations pressure-swap the very cluster being entered, requiring a
  // second fault-in.
  auto fault_in = [&]() -> Status {
    for (int attempt = 0; attempt < 4; ++attempt) {
      target = ProxyTarget(proxy);
      if (target == nullptr)
        return InternalError("swap-cluster-proxy with null target");
      if (!IsReplacement(target)) return OkStatus();
      OBISWAP_RETURN_IF_ERROR(SwapIn(ReplacementCluster(target)));
    }
    return InternalError("swap-in did not patch the faulting proxy");
  };
  OBISWAP_RETURN_IF_ERROR(fault_in());
  ++stats_.boundary_crossings;
  registry_.RecordCrossing(target_sc, ++crossing_seq_);
  NoteClusterEntered(target_sc);
  OBISWAP_RETURN_IF_ERROR(fault_in());  // observer work may have re-swapped it
  return target;
}

Result<Value> SwappingManager::ProxyInvoke(Object* proxy,
                                           runtime::Selector method,
                                           runtime::Args args) {
  OBISWAP_ASSIGN_OR_RETURN(Object * target, EnterTarget(proxy));

  // Mediate reference arguments into the target's context (the generated
  // proxy code "verifies references being passed as parameters"). The
  // caller's arguments stay as they are: the first one mediation changes
  // copies them. Each changed reference is rooted here, since it may be a
  // fresh proxy that only this frame holds while the next argument's
  // mediation allocates and collects.
  const SwapClusterId target_sc = ProxyTargetSc(proxy);
  LocalScope scope(rt_.heap());
  std::vector<Value> mediated;
  for (size_t i = 0; i < args.size(); ++i) {
    const Value& arg = args[i];
    if (!arg.is_ref() || arg.ref() == nullptr) continue;
    OBISWAP_ASSIGN_OR_RETURN(Object * ref,
                             ResolveForContext(target_sc, arg.ref()));
    if (ref == arg.ref()) continue;
    scope.Add(ref);
    if (mediated.empty()) mediated.assign(args.begin(), args.end());
    mediated[i].set_ref(ref);
  }

  Result<Value> result = rt_.Invoke(
      target, method, mediated.empty() ? args : runtime::Args(mediated));
  if (!result.ok()) return result;
  return MediateReturn(proxy, *std::move(result));
}

Result<Value> SwappingManager::MediateReturn(Object* proxy, Value result) {
  if (!result.is_ref() || result.ref() == nullptr) return result;

  // Root the returned object: mediation may allocate.
  LocalScope scope(rt_.heap());
  scope.Add(result.ref());

  Resolved resolved;
  if (!ResolveUltimate(result.ref(), &resolved)) return result;

  SwapClusterId source = ProxySource(proxy);
  if (resolved.sc == source) {
    // Returning home: hand the raw object back (rule iii).
    if (IsSwapProxy(result.ref())) ++stats_.proxies_dismantled;
    result.set_ref(resolved.target);
    return result;
  }

  if (ProxyAssigned(proxy)) {
    // assign() optimization (§4): "instead of creating a new
    // swap-cluster-proxy to be returned to application code (discarding
    // itself), it patches itself."
    reuse_.EraseIf(source, ProxyTargetOid(proxy), proxy);
    // The proxy already has an entry in its target cluster's inbound list;
    // it needs one in the new cluster's only when it crosses to another.
    const bool crosses = ProxyTargetSc(proxy) != resolved.sc;
    proxy->RawSlotMutable(kProxySlotTarget) = Value::Ref(resolved.target);
    proxy->RawSlotMutable(kProxySlotTargetSc) =
        Value::Int(static_cast<int64_t>(resolved.sc.value()));
    proxy->RawSlotMutable(kProxySlotTargetOid) =
        Value::Int(static_cast<int64_t>(resolved.oid.value()));
    if (crosses) AddInbound(resolved.sc, proxy);
    ++stats_.assigned_patches;
    result.set_ref(proxy);
    return result;
  }

  // Default path: a fresh proxy mediates the returned reference (paper's
  // tests A2/B1 — "an additional swap-cluster-proxy is created ... later
  // reclaimed by the LGC").
  OBISWAP_ASSIGN_OR_RETURN(Object * fresh, CreateProxy(source, resolved));
  result.set_ref(fresh);
  return result;
}

// ---------------------------------------------------------------------------
// Swap-out / swap-in
// ---------------------------------------------------------------------------

SwapKey SwappingManager::NextKey() {
  uint64_t self = store_ != nullptr ? store_->self().value() : 0;
  return SwapKey((self << 32) | next_key_++);
}

Status SwappingManager::StoreAt(DeviceId device, SwapKey key,
                                const std::string& payload,
                                uint64_t deadline_us) {
  if (IsLocalDevice(device)) return local_->Store(key, payload);
  OBISWAP_CHECK(store_ != nullptr);
  return store_->Store(device, key, payload, deadline_us, call_priority_);
}

Result<std::string> SwappingManager::FetchFrom(DeviceId device, SwapKey key,
                                               uint64_t deadline_us) {
  if (IsLocalDevice(device)) return local_->Fetch(key);
  if (store_ == nullptr)
    return FailedPreconditionError("no store client attached");
  return store_->Fetch(device, key, deadline_us, call_priority_);
}

Status SwappingManager::DropAt(DeviceId device, SwapKey key) {
  if (IsLocalDevice(device)) return local_->Drop(key);
  if (store_ == nullptr)
    return FailedPreconditionError("no store client attached");
  return store_->Drop(device, key, /*deadline_us=*/0, call_priority_);
}

// ---------------------------------------------------------------------------
// Crash consistency: fault points + write-ahead intent journaling
// ---------------------------------------------------------------------------

Status SwappingManager::CheckFaultPoint(const char* point) {
  if (faults_ == nullptr || point == nullptr) return OkStatus();
  FaultInjector::Outcome outcome = faults_->Hit(point);
  switch (outcome.action) {
    case FaultInjector::Action::kError:
      return UnavailableError(std::string("injected fault at ") + point);
    case FaultInjector::Action::kCrash:
      // The operation is abandoned at this instruction boundary: heap,
      // flash and remote stores keep whatever the op mutated so far, and
      // every entry point refuses until Recover().
      crashed_ = true;
      telemetry_->journal().Record("fault", "crash", point);
      return InternalError(std::string("simulated crash at ") + point);
    case FaultInjector::Action::kNone:
    case FaultInjector::Action::kDelay:
      break;  // delays already advanced the injector's clock
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// The fetch ladder
// ---------------------------------------------------------------------------

namespace {
enum class TierStep : uint8_t {
  kNone,
  kProbe,  ///< RAM then flash, while a tier is admitting
  kServe,  ///< kProbe, plus the swap_in.tier_fetch fault point after a hit
           ///< and promotion of a flash hit into the RAM pool
  kWriteBack,  ///< only for a group with no replicas: the tier is its copy
};

/// Which ladder steps and counters apply to one fetch purpose. Fault-point
/// names are the ones the crash sweeps enumerate.
struct LadderSteps {
  bool cache = false;  ///< the payload cache at the group's epoch first
  TierStep tier = TierStep::kNone;
  const char* fetch_fault = nullptr;       ///< before each replica fetch
  const char* decompress_fault = nullptr;  ///< before each decompress
  bool budget = false;  ///< Options::op_deadline_us caps every fetch
  bool hedge = false;   ///< Options::hedged_fetch applies
  /// Swap-ins only: the span category of the per-step spans. Also turns on
  /// failover_fetches and the unusable-replica warnings.
  const char* swap_in = nullptr;
  /// A replica copy must match the group checksum, not only its frame's.
  bool checksum = false;
  bool data_loss = true;  ///< kDataLoss failures count data_loss_failovers
};

/// Indexed by SwappingManager::FetchPurpose. Each row keeps its caller's
/// fault-point names and counters, which the crash sweeps and benches key
/// on. The delta base probes the tiers because a tier-admitted full
/// payload becomes a delta base with no remote replica until the
/// write-back runs.
constexpr LadderSteps kLadderSteps[] = {
    // kDemand
    {.cache = true, .tier = TierStep::kServe, .fetch_fault = "swap_in.fetch",
     .decompress_fault = "swap_in.decompress", .budget = true, .hedge = true,
     .swap_in = "swap"},
    // kSpeculative
    {.cache = true, .tier = TierStep::kServe, .fetch_fault = "swap_in.fetch",
     .decompress_fault = "swap_in.decompress", .budget = true,
     .swap_in = "prefetch"},
    // kStage
    {.tier = TierStep::kProbe, .fetch_fault = "prefetch_stage.fetch",
     .decompress_fault = "prefetch_stage.decompress", .checksum = true},
    // kDeltaBase
    {.cache = true, .tier = TierStep::kServe,
     .fetch_fault = "swap_in.fetch_base", .budget = true, .checksum = true},
    // kRepairSource
    {.tier = TierStep::kWriteBack},
    // kRecoveryVerify
    {.checksum = true, .data_loss = false},
};
}  // namespace

template <typename Accept>
Result<SwappingManager::FetchedCopy> SwappingManager::FetchGroup(
    const SwapClusterInfo& info, const StoreGroup& group, FetchPurpose purpose,
    uint64_t op_start_us, Accept&& accept, const ReplicaLocation* first) {
  const LadderSteps& steps = kLadderSteps[static_cast<size_t>(purpose)];
  const SwapClusterId id = info.id;
  telemetry::Telemetry* trace =
      steps.swap_in != nullptr ? telemetry_ : nullptr;
  const char* category = steps.swap_in != nullptr ? steps.swap_in : "";
  Status last = UnavailableError("swap-cluster " + id.ToString() +
                                 " has no copy to fetch from");
  FetchedCopy copy;

  // Payload cache: a retained decompressed payload for this exact epoch
  // skips both the radio and the codec, if its checksum still matches. A
  // delta group's entry is the full MERGED document (cached when the delta
  // shipped or was merged), so it verifies against merged_checksum, where
  // 0 means unknown.
  if (steps.cache) {
    const uint32_t expect = group.delta ? info.merged_checksum : group.checksum;
    if (const std::string* cached = cache_.Get(id, group.epoch)) {
      if (expect != 0 && Adler32(*cached) == expect) {
        copy.source = FetchSource::kCache;
        copy.cached = cached;
        Status accepted = accept(copy);
        if (crashed_) return accepted;
        if (accepted.ok()) return copy;
        copy.cached = nullptr;
      }
      // Stale or unusable. A delta group's cluster keeps its base document
      // in the cache under the base epoch: evicting it would force a base
      // refetch for the merge.
      if (!group.delta) cache_.Invalidate(id);
    }
  }

  // Local tiers, fastest first, before any radio traffic. The tiers only
  // ever hold full documents. A flash hit is promoted into the RAM pool so
  // the next re-fault is served at memory speed; a copy that fails its
  // checksum is retired so it cannot shadow the replicas again.
  const bool tier_step =
      !group.delta &&
      (steps.tier == TierStep::kWriteBack
           ? tier_ != nullptr && group.replicas->empty()
           : steps.tier != TierStep::kNone && TierActive());
  if (tier_step) {
    const uint64_t tier_begin_us = clock_ != nullptr ? clock_->now_us() : 0;
    telemetry::ScopedSpan tier_span(trace, "tier_fetch", category,
                                    telemetry::Hist(trace, "tier_fetch_us"));
    tier::TierHit hit = tier::TierHit::kNone;
    Result<std::string> probed =
        tier_->Probe(id, group.epoch, group.checksum, &hit);
    const bool serve = steps.tier == TierStep::kServe;
    Status fault = probed.ok() && serve ? CheckFaultPoint("swap_in.tier_fetch")
                                        : OkStatus();
    if (crashed_) return fault;
    if (!fault.ok()) {
      last = fault;  // injected miss: fall through to the replicas
    } else if (probed.ok()) {
      Result<std::string> text = compress::FrameDecompress(*probed);
      if (text.ok() && Adler32(*text) == group.checksum) {
        copy.source = FetchSource::kTier;
        copy.decompressed = std::move(*text);
        copy.stored = std::move(*probed);
        Status accepted = accept(copy);
        if (crashed_) return accepted;
        if (accepted.ok()) {
          if (hit == tier::TierHit::kFlash && serve) {
            // Volatile-only — crash-safe at any instruction; the flash copy
            // stays.
            Status promote = CheckFaultPoint("tier.promote");
            if (crashed_) return promote;
            if (promote.ok()) tier_->PromoteToRam(id, copy.stored);
          }
          tier_span.Close();
          if (trace != nullptr && clock_ != nullptr) {
            telemetry::Hist(trace, hit == tier::TierHit::kRam
                                       ? "tier_ram_fetch_us"
                                       : "tier_flash_fetch_us")
                ->Record(clock_->now_us() - tier_begin_us);
          }
          return copy;
        }
        last = accepted;
      } else {
        tier_->Release(id, group.epoch, group.checksum);
        last = text.ok() ? DataLossError("tier payload checksum mismatch for "
                                         "swap-cluster " +
                                         id.ToString())
                         : text.status();
      }
    }
  }

  // Replica failover: reachable stores first, until one copy survives its
  // checks and `accept`. Hedged fetch (demand faults only): the first
  // attempt is capped at the HealthTracker's p95-derived deadline; past it
  // the next healthy replica is tried immediately and the abandoned one is
  // re-queued at the back for one final uncapped attempt — a slow primary
  // costs one hedge window, never the full retry pyramid, and availability
  // matches the sequential walk's.
  std::vector<ReplicaLocation> order = ReplicaFetchOrder(*group.replicas);
  if (first != nullptr) order.insert(order.begin(), *first);
  const uint64_t hedge_deadline_us =
      (steps.hedge && options_.hedged_fetch && health_ != nullptr &&
       order.size() > 1)
          ? health_->HedgeDeadlineUs()
          : 0;
  bool hedge_fired = false;
  size_t hedge_retry_index = SIZE_MAX;
  for (size_t attempt = 0; attempt < order.size(); ++attempt) {
    const ReplicaLocation replica = order[attempt];
    uint64_t fetch_cap = steps.budget ? OpBudgetLeft(op_start_us) : UINT64_MAX;
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
      hedge_priority.emplace(this, net::Priority::kHedgedFetch);
    Status failure = CheckFaultPoint(steps.fetch_fault);
    if (crashed_) return failure;
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
      Status fault = CheckFaultPoint(steps.decompress_fault);
      if (crashed_) return fault;
      Result<std::string> text = fault.ok()
                                     ? compress::FrameDecompress(*fetched)
                                     : Result<std::string>(fault);
      decompress_span.Close();
      if (text.ok() && steps.checksum && Adler32(*text) != group.checksum) {
        text = DataLossError("payload checksum mismatch for swap-cluster " +
                             id.ToString());
      }
      failure = text.status();
      if (failure.ok()) {
        copy.source = FetchSource::kReplica;
        copy.decompressed = std::move(*text);
        copy.stored = std::move(*fetched);
        failure = accept(copy);
        if (crashed_) return failure;
      }
    }
    if (failure.ok()) {
      if (steps.swap_in != nullptr && attempt > 0) ++stats_.failover_fetches;
      // Served by the re-queued primary after all: the hedge only burned
      // its window. Served by anyone else: the hedge won.
      if (hedge_fired) {
        if (attempt == hedge_retry_index)
          ++stats_.hedge_wastes;
        else
          ++stats_.hedge_wins;
      }
      return copy;
    }
    if (steps.data_loss && failure.code() == StatusCode::kDataLoss)
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
    if (steps.swap_in != nullptr) {
      OBISWAP_LOG(kWarn) << "replica of swap-cluster " << id.ToString()
                         << " on device " << replica.device.value()
                         << " unusable: " << failure.ToString();
    }
    last = failure;
  }
  if (hedge_fired) ++stats_.hedge_wastes;
  return last;
}

namespace {
Status CrashedError() {
  return FailedPreconditionError(
      "manager crashed mid-operation; Recover() required");
}

/// Journal progress marker: the op's payload was placed in the volatile
/// RAM tier — nothing durable holds it, so recovery must not trust the
/// placement.
constexpr uint64_t kProgressTierRamPlacement = 1;
}  // namespace

Result<bool> SwappingManager::TryTierAdmit(SwapClusterInfo* info, uint64_t seq,
                                           uint32_t wire_checksum,
                                           const std::string& payload,
                                           SwapKey* tier_key) {
  const SwapClusterId id = info->id;
  const uint64_t epoch = info->swap_epoch + 1;
  if (tier_->ram_enabled()) {
    if (Status fault = CheckFaultPoint("swap_out.tier_ram"); !fault.ok()) {
      if (crashed_) return fault;
      // Injected clean error: skip the RAM tier this once, fall through.
    } else if (tier_->AdmitRam(id, epoch, wire_checksum, payload)) {
      // RAM placement leaves a progress breadcrumb on the op record: if
      // the op stays torn, recovery sees a payload that lived nowhere
      // durable and rolls the cluster back off the live heap.
      if (journal_ != nullptr) {
        journal_->NoteProgress(seq, kProgressTierRamPlacement);
        (void)journal_->Persist();
      }
      // Caller-visible identity only — nothing is stored under this key.
      *tier_key = NextKey();
      return true;
    }
  }
  if (tier_->flash_enabled()) {
    const SwapKey key = NextKey();
    if (journal_ != nullptr) {
      // Intent before the flash write, exactly like a remote replica: a
      // crash inside the write leaves the key reclaimable.
      journal_->NoteReplicaIntent(seq, tier_->flash_device(), key);
      (void)journal_->Persist();
    }
    if (Status fault = CheckFaultPoint("swap_out.tier_flash"); !fault.ok()) {
      if (crashed_) return fault;
      return false;  // clean error: the orphan intent unwinds with the op
    }
    if (tier_->AdmitFlash(id, epoch, wire_checksum, key, payload).ok()) {
      *tier_key = key;
      return true;
    }
  }
  return false;
}

void SwappingManager::MaybeCompleteTierWriteBack(SwapClusterInfo* info) {
  if (tier_ == nullptr || !tier_->PendingWriteBack(info->id)) return;
  // The tier entry backs the one group whose payload it holds — for a
  // delta-swapped cluster usually the base, not the shipped delta.
  for (const StoreGroup& group : info->Groups()) {
    if (!tier_->PendingWriteBack(info->id, group.epoch, group.checksum))
      continue;
    // Only off-device copies count toward durability: a local-flash
    // replica (or the tier's own key adopted by recovery) is still this
    // device.
    const auto remote = std::count_if(
        group.replicas->begin(), group.replicas->end(),
        [this](const ReplicaLocation& replica) {
          return !IsLocalDevice(replica.device) &&
                 !(tier_->flash_device().valid() &&
                   replica.device == tier_->flash_device());
        });
    if (static_cast<size_t>(remote) >= options_.replication_factor)
      tier_->MarkWrittenBack(info->id);
  }
}

std::vector<uint64_t> SwappingManager::LiveInboundProxyOids(SwapClusterId id) {
  std::vector<uint64_t> oids;
  auto it = inbound_.find(id);
  if (it == inbound_.end()) return oids;
  for (const runtime::WeakCell& cell : it->second.cells) {
    Object* proxy = cell.get();
    if (proxy == nullptr || ProxyTargetSc(proxy) != id) continue;
    oids.push_back(proxy->oid().value());
  }
  return oids;
}

std::vector<Object*> SwappingManager::HeapProxiesTargeting(SwapClusterId id) {
  std::vector<Object*> proxies;
  rt_.heap().ForEachObject([&](Object* obj) {
    if (obj->kind() != ObjectKind::kSwapClusterProxy) return;
    if (ProxyTargetSc(obj) != id) return;
    proxies.push_back(obj);
  });
  return proxies;
}

void SwappingManager::JournaledRelease(
    SwapClusterId id, const std::vector<ReplicaLocation>& replicas,
    bool count_as_drop) {
  if (replicas.empty()) return;
  uint64_t seq = 0;
  if (journal_ != nullptr) {
    seq = journal_->BeginOp(IntentOp::kDrop, id, /*swap_epoch=*/0,
                            /*payload_checksum=*/0, {}, {});
    for (const ReplicaLocation& replica : replicas)
      journal_->NoteReplicaIntent(seq, replica.device, replica.key);
    (void)journal_->Persist();
  }
  ReleaseReplicas(replicas, count_as_drop);
  if (crashed_) return;  // torn mid-release: recovery finishes from the seq
  if (journal_ != nullptr) (void)journal_->Commit(seq);
}

// ---------------------------------------------------------------------------
// Recovery (simulated restart)
// ---------------------------------------------------------------------------

namespace {
bool IntentsContain(const std::vector<ReplicaLocation>& intents,
                    const ReplicaLocation& replica) {
  for (const ReplicaLocation& intent : intents)
    if (intent == replica) return true;
  return false;
}
/// Appends the entries of `from` that `into` does not list yet.
void AppendNew(std::vector<ReplicaLocation>& into,
               const std::vector<ReplicaLocation>& from) {
  for (const ReplicaLocation& replica : from)
    if (!IntentsContain(into, replica)) into.push_back(replica);
}
}  // namespace

void SwappingManager::EnqueueOrphanDrops(
    const std::vector<ReplicaLocation>& intents, RecoveryReport* report) {
  // Recovery never talks to stores beyond read-only verification; orphaned
  // keys go through the pending-drop queue and drain once the system is
  // healthy again.
  for (const ReplicaLocation& intent : intents) {
    if (EnqueuePendingDrop(intent.device, intent.key))
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
        if (IntentsContain(op.replica_intents, replica))
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
  telemetry_->journal().Record("recovery", IntentOpName(op.op), action);
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
        Result<std::string> fetched = FetchFrom(replica.device, replica.key);
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
          (void)EnqueuePendingDrop(replica.device, replica.key);
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
      PruneUnconfirmed(*group.replicas, /*keep_unreachable=*/true);
      if (group.replicas->empty() && !FlashBacked(id, group)) usable = false;
    }
    if (usable) continue;
    for (const StoreGroup& group : groups) {
      for (const ReplicaLocation& replica : *group.replicas)
        (void)EnqueuePendingDrop(replica.device, replica.key);
      if (tier_ != nullptr) tier_->Release(id, group.epoch, group.checksum);
    }
    info->clean_image.reset();
    cache_.Invalidate(id);
    ++stats_.clean_image_invalidations;
    ++report->clean_images_dropped;
  }
}

void SwappingManager::PruneUnconfirmed(std::vector<ReplicaLocation>& replicas,
                                       bool keep_unreachable) {
  const bool can_check = store_ != nullptr && discovery_ != nullptr;
  std::erase_if(replicas, [&](const ReplicaLocation& replica) {
    bool keep = keep_unreachable;
    if (IsLocalDevice(replica.device)) {
      keep = local_->Contains(replica.key);
    } else if (can_check &&
               discovery_->IsNearby(store_->self(), replica.device)) {
      net::StoreNode* node = discovery_->NodeFor(replica.device);
      if (node != nullptr)
        keep = !node->crashed() && node->Contains(replica.key);
    }
    if (!keep) (void)EnqueuePendingDrop(replica.device, replica.key);
    return !keep;
  });
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
  telemetry::ScopedSpan span(telemetry_, "recover", "recovery",
                             telemetry::Hist(telemetry_, "recovery_us"));
  const uint64_t begin_us = clock_ != nullptr ? clock_->now_us() : 0;
  RecoveryReport report;

  std::vector<IntentJournal::PendingOp> pending;
  if (journal_ != nullptr) {
    OBISWAP_ASSIGN_OR_RETURN(pending, journal_->LoadForRecovery());
    report.journal_records_skipped = journal_->stats().records_skipped;
    report.journal_bad_tail_bytes = journal_->stats().bad_tail_bytes;
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

  if (journal_ != nullptr) OBISWAP_RETURN_IF_ERROR(journal_->Clear());
  crashed_ = false;
  ++stats_.recoveries;
  if (clock_ != nullptr) stats_.recovery_us += clock_->now_us() - begin_us;
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

Status SwappingManager::set_wire_format(const std::string& format) {
  if (format != "xml" && format != "binary")
    return InvalidArgumentError("wire format must be \"xml\" or \"binary\": " +
                                format);
  options_.wire_format = format;
  return OkStatus();
}

Result<serialization::SerializedCluster> SwappingManager::SerializeForWire(
    uint32_t cluster_attr_id, const std::vector<Object*>& members,
    const serialization::DescribeExternalFn& describe) {
  if (options_.wire_format == "binary")
    return serialization::SerializeClusterBinary(rt_, cluster_attr_id,
                                                 members, describe);
  return serialization::SerializeCluster(rt_, cluster_attr_id, members,
                                         describe);
}

Result<Object*> SwappingManager::NewReplacement(
    SwapClusterInfo* info, const std::vector<Object*>& outbound,
    const char* fault_point, LocalScope& scope) {
  OBISWAP_RETURN_IF_ERROR(CheckFaultPoint(fault_point));
  OBISWAP_ASSIGN_OR_RETURN(Object* replacement,
                           rt_.TryNewMiddleware(replacement_cls_));
  scope.Add(replacement);
  ++info->swap_epoch;
  replacement->RawSlotMutable(kReplSlotCluster) =
      Value::Int(static_cast<int64_t>(info->id.value()));
  replacement->RawSlotMutable(kReplSlotEpoch) =
      Value::Int(static_cast<int64_t>(info->swap_epoch));
  for (Object* proxy : outbound) replacement->AppendSlot(Value::Ref(proxy));
  rt_.heap().RefreshAccounting(replacement);
  return replacement;
}

template <typename Target>
Status SwappingManager::PatchInbound(SwapClusterId id, Target&& target,
                                     const char* patch_point,
                                     const char* finalize_point) {
  auto& inbound = inbound_[id].cells;
  size_t write = 0;
  std::vector<std::pair<Object*, Object*>> patched;  // (proxy, old target)
  Status fault = OkStatus();
  for (size_t read = 0; read < inbound.size(); ++read) {
    Object* proxy = inbound[read].get();
    if (proxy == nullptr) continue;
    if (ProxyTargetSc(proxy) == id && fault.ok()) {
      fault = CheckFaultPoint(patch_point);
      if (fault.ok()) {
        patched.emplace_back(proxy, proxy->RawSlot(kProxySlotTarget).ref());
        proxy->RawSlotMutable(kProxySlotTarget) = Value::Ref(target(proxy));
      }
    }
    if (write != read) inbound[write] = std::move(inbound[read]);
    ++write;
  }
  inbound.erase(inbound.begin() + static_cast<ptrdiff_t>(write),
                inbound.end());
  if (fault.ok()) fault = CheckFaultPoint(finalize_point);
  // A crash leaves the patch torn for Recover(); a clean error unwinds it,
  // last patch first, so a proxy listed twice ends on its first old target.
  if (!fault.ok() && !crashed_) {
    for (auto it = patched.rbegin(); it != patched.rend(); ++it)
      it->first->RawSlotMutable(kProxySlotTarget) = Value::Ref(it->second);
  }
  return fault;
}

namespace {
/// Fault points of the swap-out commit tail. A re-adopted clean image keeps
/// its own names, so fault scripts can target either path.
struct SwapOutPoints {
  const char* build_replacement;
  const char* patch_proxy;
  const char* finalize;
  const char* journal_commit;
};
constexpr SwapOutPoints kSwapOutPoints{
    "swap_out.build_replacement", "swap_out.patch_proxy", "swap_out.finalize",
    "swap_out.journal_commit"};
constexpr SwapOutPoints kCleanSwapOutPoints{
    "clean_swap_out.build_replacement", "clean_swap_out.patch_proxy",
    "clean_swap_out.finalize", "clean_swap_out.journal_commit"};
}  // namespace

Result<SwapKey> SwappingManager::SwapOut(SwapClusterId id) {
  std::vector<Object*> members;
  Result<SwapKey> key = DetachCluster(id, members);
  // Committed: every inbound proxy now targets the replacement and the
  // swap-out's LocalScope is closed, so only a root can still reach a
  // member. Free them now rather than at the next collection. `members` is
  // the set the swap-out serialized (or, on the clean path, the set the
  // image holds), rooted for the whole operation so no collection inside
  // it freed one; the full path registered every member it folded in, so
  // it is also what LiveMembers would return.
  if (key.ok() && !crashed_) {
#ifdef OBISWAP_VERIFY_RECLAIM
    OBISWAP_CHECK(members == registry_.LiveMembers(id));
#endif
    rt_.heap().Reclaim(members, id);
  }
  return key;
}

Result<SwapKey> SwappingManager::DetachCluster(SwapClusterId id,
                                               std::vector<Object*>& members) {
  if (crashed_) return CrashedError();
  PriorityScope priority_scope(this, net::Priority::kSwapOut);
  telemetry::ScopedSpan op_span(telemetry_, "swap_out", "swap",
                                telemetry::Hist(telemetry_, "swap_out_us"));
  const uint64_t op_begin_us = clock_ != nullptr ? clock_->now_us() : 0;
  SwapClusterInfo* info = registry_.Find(id);
  if (info == nullptr)
    return NotFoundError("no swap-cluster " + id.ToString());
  if (info->state != SwapState::kLoaded)
    return FailedPreconditionError("swap-cluster " + id.ToString() + " is " +
                                   SwapStateName(info->state));
  if ((store_ == nullptr || discovery_ == nullptr) && local_ == nullptr)
    return FailedPreconditionError("no store client or local store attached");
  for (SwapClusterId active : rt_.context_stack()) {
    if (active == id)
      return FailedPreconditionError("swap-cluster " + id.ToString() +
                                     " is currently executing");
  }
  if (victim_filter_ && victim_filter_(id)) {
    return FailedPreconditionError("swap-cluster " + id.ToString() +
                                   " is pinned (uncommitted transactional "
                                   "writes)");
  }

  members = registry_.LiveMembers(id);
  if (members.empty())
    return FailedPreconditionError("swap-cluster " + id.ToString() +
                                   " has no live members");
  // Root the members for the whole operation: once PatchInbound retargets
  // the proxies only this scope reaches them, and a collection the commit
  // tail runs (an allocation, a bus subscriber) must not free what SwapOut
  // hands to Reclaim.
  LocalScope scope(rt_.heap());
  for (Object* member : members) scope.Add(member);

  // The payload to install comes from one of three sources: the retained
  // image of a cluster untouched since its last swap-in (zero transfer — no
  // serialize, no compress, no bytes on the radio), a delta over the
  // image's base document, or a full serialization. One commit tail
  // follows; only a shipped payload runs the ship step.
  std::vector<Object*> outbound;  // the replacement's proxies, ref order
  std::optional<telemetry::ScopedSpan> clean_span;
  if (info->LoadedClean()) {
    clean_span.emplace(telemetry_, "clean_swap_out", "swap",
                       telemetry::Hist(telemetry_, "clean_swap_out_us"));
    // Nothing mutated yet: the cluster stays loaded and keeps its image.
    OBISWAP_RETURN_IF_ERROR(CheckFaultPoint("clean_swap_out.revalidate"));
    // An unusable image (dead outbound proxy or every replica of a group
    // lost) has been invalidated; fall through to a full serialize+ship.
    if (!RevalidateCleanImage(info, outbound)) clean_span.reset();
  }
  const bool clean = clean_span.has_value();
  for (Object* proxy : outbound) scope.Add(proxy);

  StoredPayload shipped;  // the payload a ship places (delta or full)
  bool ship_delta = false;
  serialization::SerializedCluster serialized;
  std::string wire_doc;  // what actually goes on the link
  std::string payload;   // wire_doc compressed
  std::vector<ReplicaLocation> old_delta_group;  // superseded delta replicas
  if (!clean) {
    // Objects allocated inside a member's methods inherit the cluster label
    // without explicit registration; fold every same-cluster object
    // reachable from the registered members into the swap unit.
    std::unordered_set<const Object*> seen(members.begin(), members.end());
    for (size_t scan = 0; scan < members.size(); ++scan) {
      Object* member = members[scan];
      for (size_t i = 0; i < member->slot_count(); ++i) {
        const Value& slot = member->RawSlot(i);
        if (!slot.is_ref() || slot.ref() == nullptr) continue;
        Object* target = slot.ref();
        if (target->kind() != ObjectKind::kRegular) continue;
        if (target->swap_cluster() != id) continue;
        if (!seen.insert(target).second) continue;
        members.push_back(target);
        scope.Add(target);
        info->members.push_back(rt_.heap().NewWeakRef(target));
      }
    }

    // Serialize. External targets must be mediation machinery — a raw
    // reference to another swap-cluster would violate the §3 invariant.
    auto describe =
        [](Object* external) -> Result<serialization::ExternalRef> {
      if (external->kind() != ObjectKind::kSwapClusterProxy &&
          external->kind() != ObjectKind::kReplicationProxy) {
        return InternalError(
            "raw cross-swap-cluster reference found during swap-out "
            "(mediation invariant violated): target class " +
            external->cls().name());
      }
      serialization::ExternalRef ref;
      ref.oid = external->oid();
      ref.class_name = external->cls().name();
      return ref;
    };
    {
      telemetry::ScopedSpan span(
          telemetry_, "serialize", "swap",
          telemetry::Hist(telemetry_, "swap_out_serialize_us"));
      OBISWAP_RETURN_IF_ERROR(CheckFaultPoint("swap_out.serialize"));
      OBISWAP_ASSIGN_OR_RETURN(
          serialized, SerializeForWire(id.value(), members, describe));
    }
    outbound = std::move(serialized.outbound);

    // Delta attempt: a dirty cluster whose clean image was retained (delta
    // mode) diffs the fresh document against the image's base document
    // (still in the payload cache) and ships only the difference. The base
    // replicas already on the stores are carried over; only the delta is
    // placed.
    if (DeltaRetainsImages() && info->clean_image.has_value() &&
        serialization::IsBinaryClusterPayload(serialized.payload)) {
      const CleanImage& image = *info->clean_image;
      OBISWAP_RETURN_IF_ERROR(CheckFaultPoint("swap_out.diff"));
      const ConstStoreGroup document = image.Groups().back();
      const std::string* cached = cache_.Get(id, document.epoch);
      if (cached != nullptr &&
          serialization::IsBinaryClusterPayload(*cached) &&
          Adler32(*cached) == document.checksum) {
        ++stats_.delta_base_cache_hits;
        auto delta =
            serialization::DiffClusterPayloads(*cached, serialized.payload);
        if (delta.ok() && delta->size() < serialized.payload.size()) {
          // Pre-ship insurance: the merged document must be byte-identical
          // to the fresh serialization before the delta may replace it.
          auto merged = serialization::ApplyClusterDelta(*cached, *delta);
          if (merged.ok() && *merged == serialized.payload) {
            ship_delta = true;
            wire_doc = *std::move(delta);
            // The base document stays where it already is — the stores
            // (and any tier entry) backing the image's document group,
            // which may have no remote replica yet: the delta facet is
            // marked by base_epoch, not by the list.
            shipped.base_replicas = *document.replicas;
            shipped.base_epoch = document.epoch;
            shipped.base_checksum = document.checksum;
            // The cache holds the fresh full document once committed; its
            // own checksum is what the next swap-in's cache probe verifies.
            shipped.merged_checksum = Adler32(serialized.payload);
            if (image.HasDelta()) old_delta_group = image.replicas;
          }
        }
      }
      if (!ship_delta) ++stats_.delta_fallbacks;
    }
    if (!ship_delta) wire_doc = serialized.payload;

    {
      telemetry::ScopedSpan span(
          telemetry_, "compress", "swap",
          telemetry::Hist(telemetry_, "swap_out_compress_us"));
      OBISWAP_RETURN_IF_ERROR(CheckFaultPoint("swap_out.compress"));
      const compress::Codec* codec = compress::FindCodec(options_.codec);
      OBISWAP_ASSIGN_OR_RETURN(payload,
                               compress::FrameCompress(*codec, wire_doc));
    }
    // The incarnation NewReplacement starts serializes this payload. Its
    // checksum is of the decompressed bytes actually shipped (delta or
    // full) — what fetch verification and failover check replica by
    // replica.
    shipped.payload_epoch = info->swap_epoch + 1;
    shipped.payload_checksum = Adler32(wire_doc);
    shipped.payload_bytes = payload.size();
    shipped.object_count = members.size();
    shipped.oids.reserve(members.size());
    for (Object* member : members) shipped.oids.push_back(member->oid());
  }
  StoredPayload& source = clean ? *info->clean_image : shipped;

  // WAL boundary: the operation's identity (new epoch, checksum, member and
  // proxy oids) is journaled before any side effect. A ship journals — and
  // persists — each replica key before its store RPC, so an orphaned store
  // entry is always reclaimable; a re-adoption journals up front the keys
  // it is about to re-adopt, so a torn op's recovery knows them. A
  // re-adopted delta image journals as a delta swap-out (the base fields
  // tell recovery which base document the payload applies to).
  uint64_t seq = 0;
  if (journal_ != nullptr) {
    std::vector<uint64_t> member_oids;
    member_oids.reserve(source.oids.size());
    for (ObjectId oid : source.oids) member_oids.push_back(oid.value());
    const IntentOp op = source.HasDelta() ? IntentOp::kDeltaSwapOut
                        : clean           ? IntentOp::kCleanSwapOut
                                          : IntentOp::kSwapOut;
    seq = journal_->BeginOp(op, id, info->swap_epoch + 1,
                            source.payload_checksum, std::move(member_oids),
                            LiveInboundProxyOids(id), source.base_epoch,
                            source.base_checksum);
    if (clean) {
      for (const ReplicaLocation& replica : source.replicas)
        journal_->NoteReplicaIntent(seq, replica.device, replica.key);
      (void)journal_->Persist();
    }
  }

  bool tier_admitted = false;
  SwapKey tier_key;
  if (!clean) {
    if (Status fault = CheckFaultPoint("swap_out.journal_begin");
        !fault.ok()) {
      // A clean (non-crash) error must seal the op or the dangling begin
      // record would be persisted by a later operation and replayed.
      if (!crashed_ && journal_ != nullptr) (void)journal_->Abort(seq);
      return fault;
    }

    // Tiered hierarchy: the payload lands in the fastest local tier with
    // headroom; the remote replicas become write-back debt the durability
    // sweep repays on its virtual-time ticks (remote stores stay the sole
    // durability tier). A delta ship bypasses the tiers, which hold full
    // documents only (a delta's base may be one of them).
    if (TierActive() && !ship_delta) {
      Result<bool> admit = TryTierAdmit(info, seq, shipped.payload_checksum,
                                        payload, &tier_key);
      if (!admit.ok()) return admit.status();  // injected crash mid-admission
      tier_admitted = *admit;
    }

    // Place the payload on up to `replication_factor` nearby stores, each
    // on a distinct device under its own key ("stores the swapped objects
    // in any nearby device with wireless connectivity and available
    // storage"). The first placement is mandatory; extra replicas are
    // best-effort durability against store departure. The local flash is
    // last resort only — it is part of the device's own scarce resources.
    // Brownout lowers the placement target; the shortfall is
    // re-replication debt the DurabilityMonitor repays once the
    // neighborhood recovers.
    const size_t full_want = options_.replication_factor;
    size_t want = EffectiveReplicationFactor();
    std::vector<ReplicaLocation>& placed = shipped.replicas;
    telemetry::ScopedSpan ship_span(
        telemetry_, "ship", "swap",
        telemetry::Hist(telemetry_, "swap_out_ship_us"));
    Status stored = OkStatus();
    if (!tier_admitted) {
      // A partial placement still completes the swap-out (under-replicated).
      stored = PlaceReplicas(id, payload, want, placed, seq,
                             "swap_out.ship_replica", op_begin_us);
      if (crashed_) return stored;
    }
    if (!tier_admitted && placed.empty() && local_ != nullptr &&
        local_->free_bytes() >= payload.size()) {
      SwapKey key = NextKey();
      if (journal_ != nullptr) {
        journal_->NoteReplicaIntent(seq, local_->device(), key);
        (void)journal_->Persist();
      }
      stored = CheckFaultPoint("swap_out.local_store");
      if (stored.ok()) stored = local_->Store(key, payload);
      if (crashed_) return stored;
      if (stored.ok()) {
        placed.push_back(ReplicaLocation{local_->device(), key});
        ++stats_.local_swap_outs;
      }
    }
    ship_span.Close();
    if (!tier_admitted && placed.empty()) {
      // Clean placement failure: every journaled key is known-unstored (the
      // failed stores never recorded them); seal the op as unwound.
      if (journal_ != nullptr) (void)journal_->Abort(seq);
      ++stats_.swap_out_failures;
      if (stored.code() == StatusCode::kDeadlineExceeded)
        ++stats_.deadline_aborts;
      return stored;
    }
    if (tier_admitted) {
      // Tier placement is not under-replication debt in the brownout sense:
      // the write-back obligation is tracked by the tier's pinned entries
      // and repaid by the durability sweep.
      ++stats_.tier_swap_outs;
    } else {
      stats_.replicas_placed += placed.size();
      // Under-replication is always measured against the configured K: a
      // brownout placement at reduced K is still debt to repay.
      if (placed.size() < full_want) ++stats_.under_replicated_outs;
      if (brownout_ && want < full_want) ++stats_.brownout_swap_outs;
    }
  }

  // From here a re-adopted image is committed to: failures are real
  // swap-out failures (the cluster stays loaded and keeps its image). The
  // re-adoption keeps its own fault-point names and has no "patch" span
  // (its whole op is the clean_swap_out span).
  const SwapOutPoints& points = clean ? kCleanSwapOutPoints : kSwapOutPoints;
  telemetry::Telemetry* const patch_telemetry = clean ? nullptr : telemetry_;
  telemetry::ScopedSpan patch_span(
      patch_telemetry, "patch", "swap",
      telemetry::Hist(patch_telemetry, "swap_out_patch_us"));
  // Build the replacement-object: "simply an array of references ... filled
  // with references to every swap-cluster-proxy referenced by" the cluster.
  // A fresh swap incarnation, so stale replacement finalizers stay harmless.
  Result<Object*> replacement =
      NewReplacement(info, outbound, points.build_replacement, scope);
  Status patched = replacement.status();
  if (patched.ok()) {
    // Patch every inbound swap-cluster-proxy to target the replacement
    // ("every swap-cluster referencing objects contained in swap-cluster-2
    // will be made to reference ReplacementObject-2 instead").
    patched = PatchInbound(
        id, [&](Object*) { return *replacement; }, points.patch_proxy,
        points.finalize);
  }
  if (!patched.ok()) {
    // A crash leaves the op torn for Recover(). A clean error (the patch
    // already unwound) rolls back the placed store entries (none for a
    // re-adoption); the cluster stays loaded. Failed drops (store out of
    // range) are queued for retry — a placed replica must never leak just
    // because the rollback could not reach its store.
    if (crashed_) return patched;
    ReleaseReplicas(shipped.replicas, /*count_as_drop=*/false);
    if (tier_admitted) tier_->Release(id);
    if (crashed_) return InternalError("simulated crash during rollback");
    if (journal_ != nullptr) (void)journal_->Abort(seq);
    ++stats_.swap_out_failures;
    return patched;
  }
  patch_span.Close();

  info->state = SwapState::kSwapped;
  info->replacement = rt_.heap().NewWeakRef(*replacement);
  // A re-adopted delta image keeps both groups (the stored payload is a
  // delta against the base); the same payload epoch, so the store bytes and
  // the cache entry still serve.
  static_cast<StoredPayload&>(*info) = std::move(source);
  if (clean) info->clean_image.reset();  // moved into the swapped state
  info->dirty = true;

  // Commit-last: once this record persists, recovery treats the swap-out
  // as fully applied. A crash here replays as a torn (uncommitted) op and
  // rolls forward off the verified replicas.
  OBISWAP_RETURN_IF_ERROR(CheckFaultPoint(points.journal_commit));
  if (journal_ != nullptr) (void)journal_->Commit(seq);

  // A shipped payload supersedes a retained (dirty) image, consumed now,
  // after commit. A delta ship adopted its base group above and merely
  // drops a superseded previous delta; a full ship supersedes the whole
  // image (replicas released, cached base evicted).
  if (info->clean_image.has_value()) {
    if (ship_delta) {
      if (!old_delta_group.empty())
        JournaledRelease(id, old_delta_group, /*count_as_drop=*/false);
      info->clean_image.reset();
    } else {
      InvalidateCleanImage(info, /*count_as_drop=*/false);
    }
  }

  ++stats_.swap_outs;
  if (clean) {
    if (info->replicas.size() < options_.replication_factor)
      ++stats_.under_replicated_outs;
    ++stats_.clean_swap_outs;
    // Every replica a ship would have placed stayed put.
    stats_.bytes_swap_transfer_saved +=
        info->payload_bytes * info->replicas.size();
  } else {
    stats_.bytes_swapped_out += payload.size();
    if (ship_delta) {
      ++stats_.delta_swap_outs;
      stats_.delta_bytes_shipped += payload.size();
      // Uncompressed document bytes the delta kept off the serialize path.
      stats_.delta_bytes_saved += serialized.payload.size() - wire_doc.size();
    }
  }
  // A speculatively loaded cluster evicted before the application touched
  // it was a wasted guess.
  NotePrefetchDiscard(id);
  // The decompressed payload just shipped is the likeliest next swap-in.
  // A delta ship caches the fresh full document it reconstructs (so the
  // next swap-in skips the link entirely) while pinning the base document
  // at base_epoch — what the next delta swap-out diffs against. A
  // re-adoption's cache entry is already the payload's.
  if (ship_delta) {
    cache_.Put(id, info->payload_epoch, std::move(serialized.payload),
               /*keep_epoch=*/info->base_epoch);
  } else if (!clean) {
    cache_.Put(id, info->payload_epoch, std::move(serialized.payload));
  }
  if (bus_ != nullptr) {
    int64_t device = 0;
    if (!tier_admitted) {
      device = static_cast<int64_t>(info->replicas.front().device.value());
    } else if (tier_->flash_device().valid()) {
      device = static_cast<int64_t>(tier_->flash_device().value());
    }
    context::Event event(context::kEventClusterSwappedOut);
    event.Set("swap_cluster", static_cast<int64_t>(id.value()))
        .Set("objects", static_cast<int64_t>(info->object_count))
        .Set("bytes", static_cast<int64_t>(payload.size()))
        .Set("device", device)
        .Set("replicas", static_cast<int64_t>(info->replicas.size()));
    if (clean) {
      event.Set("clean", int64_t{1});
    } else {
      event.Set("tier", tier_admitted ? int64_t{1} : int64_t{0})
          .Set("delta", ship_delta ? int64_t{1} : int64_t{0});
    }
    bus_->Publish(event);
  }
  // The members are now detached from the application graph; SwapOut
  // frees them once this frame's LocalScope roots are gone.
  return tier_admitted ? tier_key : info->replicas.front().key;
}

bool SwappingManager::RevalidateCleanImage(SwapClusterInfo* info,
                                           std::vector<Object*>& outbound) {
  CleanImage& image = *info->clean_image;
  // The retained payload resolves its external references by index through
  // the outbound proxies recorded at serialization time; if any has been
  // collected, the image can no longer back a replacement.
  for (const runtime::WeakRef& weak : image.outbound)
    outbound.push_back(weak->get());
  bool usable = std::find(outbound.begin(), outbound.end(), nullptr) ==
                outbound.end();
  // Revalidate the store entries: churn since the swap-in may have eaten
  // them without a departure event reaching us. A replica that cannot be
  // confirmed keeps its drop obligation (the store may merely be out of
  // range) but is not trusted to serve a fetch — nor dropped twice by the
  // invalidation. A delta image needs BOTH groups alive: the delta payload
  // is useless without its base document.
  for (const StoreGroup& group : image.Groups()) {
    if (!usable) break;
    PruneUnconfirmed(*group.replicas, /*keep_unreachable=*/false);
    usable = !group.replicas->empty();
  }
  if (usable) return true;
  outbound.clear();
  InvalidateCleanImage(info, /*count_as_drop=*/false);
  return false;
}

Result<SwapClusterId> SwappingManager::SwapOutVictim() {
  if (crashed_) return CrashedError();
  std::vector<SwapClusterId> exclude = rt_.context_stack();
  if (brownout_) {
    // Degraded neighborhood: prefer victims with a retained clean image —
    // their swap-out reuses the existing store copies (zero transfer) and
    // asks nothing of the sick stores. Pure preference: any failure falls
    // through to the normal LRU walk below.
    std::vector<SwapClusterId> skipped = exclude;
    for (;;) {
      SwapClusterId victim = registry_.PickLruVictim(skipped);
      if (!victim.valid()) break;
      skipped.push_back(victim);
      SwapClusterInfo* info = registry_.Find(victim);
      if (info == nullptr || !info->LoadedClean()) continue;
      Result<SwapKey> key = SwapOut(victim);
      if (key.ok()) return victim;
    }
  }
  for (;;) {
    SwapClusterId victim = registry_.PickLruVictim(exclude);
    if (!victim.valid())
      return FailedPreconditionError("no eligible swap-out victim");
    Result<SwapKey> key = SwapOut(victim);
    if (key.ok()) return victim;
    // No placement target at all means every further victim would pay the
    // serialize+compress cost only to hit the same dead network; fail fast.
    if (key.status().code() == StatusCode::kUnavailable &&
        !AnyStoreReachable()) {
      return key.status();
    }
    // This victim failed (e.g. store full for its payload); try the next.
    exclude.push_back(victim);
    if (key.status().code() == StatusCode::kFailedPrecondition ||
        key.status().code() == StatusCode::kResourceExhausted ||
        key.status().code() == StatusCode::kUnavailable) {
      continue;
    }
    return key.status();
  }
}

Result<std::string> SwappingManager::ResolveDeltaBase(
    SwapClusterInfo* info, const std::string& delta_payload,
    uint64_t op_start_us) {
  telemetry::ScopedSpan span(
      telemetry_, "resolve_delta_base", "swap",
      telemetry::Hist(telemetry_, "swap_in_delta_base_us"));
  if (!info->DeltaSwapped()) {
    return UnavailableError("swap-cluster " + info->id.ToString() +
                            " has no base group to merge a delta over");
  }
  // The payload cache holds full base documents under the base epoch (the
  // delta swap-out that shipped this delta relied on the same entry); a
  // tier holds the base when the full payload it was was tier-admitted.
  const StoreGroup base = info->Groups().back();
  OBISWAP_ASSIGN_OR_RETURN(
      FetchedCopy copy,
      FetchGroup(*info, base, FetchPurpose::kDeltaBase, op_start_us));
  // The merge verifies the embedded digests end-to-end: a wrong or damaged
  // base (or delta) surfaces as kDataLoss and the caller fails over.
  Result<std::string> merged =
      serialization::ApplyClusterDelta(copy.text(), delta_payload);
  if (copy.source == FetchSource::kCache) {
    ++stats_.delta_base_cache_hits;
  } else {
    if (copy.source == FetchSource::kReplica)
      stats_.bytes_swapped_in += copy.stored.size();
    // Keep the base around: the retained image's next delta swap-out (and
    // the next delta swap-in) diff/merge against this exact entry.
    cache_.Put(info->id, base.epoch, std::move(copy.decompressed));
  }
  return merged;
}

Status SwappingManager::SwapIn(SwapClusterId id, bool prefetch) {
  if (crashed_) return CrashedError();
  PriorityScope priority_scope(this, prefetch
                                         ? net::Priority::kPrefetch
                                         : net::Priority::kDemandSwapIn);
  const uint64_t begin_us = clock_ != nullptr ? clock_->now_us() : 0;
  // Demand faults and speculative loads get distinct categories and
  // histograms: the trace separates application stall from prefetch work.
  const char* span_category = prefetch ? "prefetch" : "swap";
  telemetry::ScopedSpan op_span(
      telemetry_, "swap_in", span_category,
      telemetry::Hist(telemetry_, prefetch ? "swap_in_prefetch_us"
                                           : "swap_in_demand_us"));
  SwapClusterInfo* info = registry_.Find(id);
  if (info == nullptr) return NotFoundError("no swap-cluster " + id.ToString());
  if (info->state != SwapState::kSwapped)
    return FailedPreconditionError("swap-cluster " + id.ToString() + " is " +
                                   SwapStateName(info->state));
  Object* replacement = info->replacement->get();
  if (replacement == nullptr)
    return InternalError("swap-in of cluster " + id.ToString() +
                         " whose replacement-object is dead");
  LocalScope scope(rt_.heap());
  scope.Add(replacement);

  // Outbound proxies were kept alive by the replacement; they resolve the
  // document's external references by index.
  auto resolve = [replacement](const serialization::ExternalRef& ref)
      -> Result<Object*> {
    size_t slot = kReplSlotFirstOutbound + ref.index;
    if (slot >= replacement->slot_count())
      return DataLossError("external ref index out of range");
    Object* target = replacement->RawSlot(slot).ref();
    if (target == nullptr)
      return InternalError("replacement outbound slot is null");
    return target;
  };
  serialization::DeserializeOptions options;
  options.expected_id = static_cast<int64_t>(id.value());
  options.assign_swap_cluster = id;

  // One verified copy of the shipped payload, through the fetch ladder:
  // payload cache, tiers, then replica failover (hedged on demand faults).
  // A copy must also deserialize; one that does not falls through like a
  // corrupt one — a partially deserialized attempt leaves only unrooted
  // objects behind for the next collection. A delta payload is merged over
  // its full base document first; the merged text then flows through
  // exactly like a full payload.
  std::vector<Object*> members;
  std::string merged;      // a delta payload merged over its base
  bool via_delta = false;  // members came from `merged`
  auto materialize = [&](const FetchedCopy& copy) -> Status {
    const std::string* text = &copy.text();
    if (serialization::IsClusterDeltaPayload(*text)) {
      OBISWAP_ASSIGN_OR_RETURN(merged,
                               ResolveDeltaBase(info, *text, begin_us));
      text = &merged;
    }
    // A tier copy decodes inside its tier_fetch span, with no fault point.
    std::optional<telemetry::ScopedSpan> span;
    if (copy.source != FetchSource::kTier) {
      span.emplace(telemetry_, "materialize", span_category,
                   telemetry::Hist(telemetry_, "swap_in_materialize_us"));
      OBISWAP_RETURN_IF_ERROR(CheckFaultPoint("swap_in.materialize"));
    }
    OBISWAP_ASSIGN_OR_RETURN(members, serialization::DeserializeClusterAny(
                                          rt_, *text, options, resolve));
    via_delta = text == &merged;
    return OkStatus();
  };
  Result<FetchedCopy> fetched = FetchGroup(
      *info, info->Groups().front(),
      prefetch ? FetchPurpose::kSpeculative : FetchPurpose::kDemand, begin_us,
      materialize);
  if (!fetched.ok()) {
    if (fetched.status().code() == StatusCode::kDeadlineExceeded)
      ++stats_.deadline_aborts;
    return fetched.status();
  }
  const bool from_cache = fetched->source == FetchSource::kCache;
  const bool from_tier = fetched->source == FetchSource::kTier;
  for (Object* member : members) scope.Add(member);

  std::unordered_map<uint64_t, Object*> by_oid;
  for (Object* member : members) by_oid[member->oid().value()] = member;

  telemetry::ScopedSpan patch_span(telemetry_, "patch", span_category);
  // All-or-nothing: every live inbound proxy must resolve against the
  // restored payload BEFORE anything is mutated. Bailing out mid-patch
  // would leave the cluster torn — membership clobbered, some proxies
  // pointing at fresh replicas, others still at the replacement. The
  // restored objects are unrooted past this frame; the collector reclaims
  // them on failure.
  auto& inbound = inbound_[id].cells;
  for (const runtime::WeakCell& cell : inbound) {
    Object* proxy = cell.get();
    if (proxy == nullptr || ProxyTargetSc(proxy) != id) continue;
    if (by_oid.count(ProxyTargetOid(proxy).value()) == 0) {
      return InternalError(
          "inbound proxy targets an oid missing from the swapped payload");
    }
  }

  // WAL boundary: journal the swap-in's identity before the first heap
  // mutation. The member oids let recovery find the half-materialized
  // objects (patched proxies keep them alive); the proxy oids are the
  // patch set to cross-check.
  uint64_t seq = 0;
  if (journal_ != nullptr) {
    std::vector<uint64_t> member_oids;
    member_oids.reserve(info->oids.size());
    for (ObjectId oid : info->oids) member_oids.push_back(oid.value());
    seq = journal_->BeginOp(IntentOp::kSwapIn, id, info->swap_epoch,
                            info->payload_checksum, std::move(member_oids),
                            LiveInboundProxyOids(id));
    // The current replicas ride along as intents: if the swap-in ends up
    // releasing them (no image retained) and crashes first, recovery can
    // still tell which keys the cluster stopped accounting for. A delta
    // swap-in accounts for both groups — delta and base.
    for (const StoreGroup& group : info->Groups()) {
      for (const ReplicaLocation& replica : *group.replicas)
        journal_->NoteReplicaIntent(seq, replica.device, replica.key);
    }
    (void)journal_->Persist();
  }
  if (Status fault = CheckFaultPoint("swap_in.journal_begin"); !fault.ok()) {
    if (!crashed_ && journal_ != nullptr) (void)journal_->Abort(seq);
    return fault;
  }

  // Patch all inbound proxies back to the fresh replicas ("their internal
  // references are patched in order to target the corresponding object
  // replicas being swapped-in"), then rebuild membership — proxies first,
  // so a torn patch can always be rolled back to the replacement without
  // having clobbered the members list.
  Status patch_fault = PatchInbound(
      id,
      [&by_oid](Object* proxy) {
        return by_oid.find(ProxyTargetOid(proxy).value())->second;
      },
      "swap_in.patch_proxy", "swap_in.finalize");
  if (!patch_fault.ok()) {
    // A clean error was unwound to the replacement; the materialized
    // objects are unrooted past this frame and die at the next collection.
    if (!crashed_ && journal_ != nullptr) (void)journal_->Abort(seq);
    return patch_fault;
  }
  info->members.clear();
  for (Object* member : members)
    info->members.push_back(rt_.heap().NewWeakRef(member));
  patch_span.Close();

  // Clean-image retention: the store copies are byte-identical to the
  // resident objects until the first write, so keep them (plus what is
  // needed to rebuild a replacement) instead of dropping them. An untouched
  // cluster then re-swaps-out without shipping a single byte. The
  // DurabilityMonitor keeps maintaining the retained replicas.
  bool retain = true;
  std::vector<runtime::WeakRef> outbound_refs;
  outbound_refs.reserve(replacement->slot_count() - kReplSlotFirstOutbound);
  for (size_t slot = kReplSlotFirstOutbound;
       slot < replacement->slot_count(); ++slot) {
    Object* out_proxy = replacement->RawSlot(slot).ref();
    if (out_proxy == nullptr) {
      retain = false;  // index-resolution would break; do not retain
      break;
    }
    outbound_refs.push_back(rt_.heap().NewWeakRef(out_proxy));
  }
  std::vector<ReplicaLocation> stale_replicas;
  // A failed swap-out commit write leaves the cluster swapped with the
  // superseded retained image still recorded (the image is normally
  // consumed post-commit). Overwriting the image slot below would leak its
  // keys — retire every one the incoming groups do not carry forward.
  if (info->clean_image.has_value()) {
    for (const StoreGroup& group : info->clean_image->Groups()) {
      for (const ReplicaLocation& replica : *group.replicas)
        if (!info->Lists(replica)) stale_replicas.push_back(replica);
      // Its tier copy goes too — unless that payload is the base the
      // swapped delta carried forward.
      if (tier_ != nullptr && group.epoch != info->base_epoch)
        tier_->Release(id, group.epoch, group.checksum);
    }
    info->clean_image.reset();
    ++stats_.clean_image_invalidations;
  }
  if (retain) {
    // A delta swap-in retains both groups: the delta it just applied (the
    // image's payload) and the base it applied it over — the next dirty
    // swap-out diffs against that same base.
    CleanImage image;
    static_cast<StoredPayload&>(image) = std::move(*info);
    image.outbound = std::move(outbound_refs);
    info->clean_image = std::move(image);
    info->dirty = false;
  } else {
    // Every store copy is stale with no image to account for it; the
    // drops are broadcast after the commit (as their own journaled op) so
    // a crash mid-release cannot leave half the keys forgotten. The tier
    // copy of the now-dead payload goes the same way — left behind it
    // would sit pinned forever (nothing loaded-dirty is ever written
    // back).
    for (const StoreGroup& group : info->Groups()) {
      if (tier_ != nullptr) tier_->Release(id, group.epoch, group.checksum);
      AppendNew(stale_replicas, *group.replicas);
    }
    info->dirty = true;
  }

  const uint64_t merged_base_epoch =
      via_delta && info->clean_image.has_value()
          ? info->clean_image->base_epoch
          : 0;
  info->state = SwapState::kLoaded;
  info->replicas.clear();
  info->ClearBaseGroup();
  info->replacement = runtime::WeakRef();
  info->oids.clear();
  registry_.RecordCrossing(id, ++crossing_seq_);

  OBISWAP_RETURN_IF_ERROR(CheckFaultPoint("swap_in.journal_commit"));
  if (journal_ != nullptr) (void)journal_->Commit(seq);
  if (!stale_replicas.empty()) {
    JournaledRelease(id, stale_replicas, /*count_as_drop=*/false);
    if (crashed_)
      return InternalError("simulated crash releasing stale replicas");
  }

  ++stats_.swap_ins;
  if (from_cache) {
    ++stats_.cache_hits;
    // The compressed payload would otherwise have crossed the radio.
    stats_.bytes_swap_transfer_saved += info->payload_bytes;
  } else if (from_tier) {
    ++stats_.tier_swap_ins;
    // Tier bytes never touch the radio either; per-tier hit counters live
    // in the TierManager's own stats.
    stats_.bytes_swap_transfer_saved += info->payload_bytes;
    cache_.Put(id, info->payload_epoch, std::move(fetched->decompressed));
  } else {
    stats_.bytes_swapped_in += fetched->stored.size();
    std::string decompressed =
        via_delta ? std::move(merged) : std::move(fetched->decompressed);
    // A delta merge caches the merged text under the payload epoch while
    // pinning the base document ResolveDeltaBase cached at base_epoch —
    // the next swap-in decodes from the cache, the next diff still finds
    // its base. Without a retained image there is no future diff, so the
    // merged text simply replaces whatever the cluster had cached.
    if (via_delta && merged_base_epoch != 0) {
      cache_.Put(id, info->payload_epoch, std::move(decompressed),
                 /*keep_epoch=*/merged_base_epoch);
    } else {
      cache_.Put(id, info->payload_epoch, std::move(decompressed));
    }
  }

  // Prefetch accounting. A demand fault that finds its payload staged in
  // the cache consumed the guess (hit); one that misses — the staging was
  // evicted before use — wasted it. A speculative swap-in of a staged
  // cluster merely upgrades the guess from "staged" to "loaded".
  const bool was_staged = staged_.erase(id) > 0;
  if (prefetch) {
    ++stats_.prefetched_swap_ins;
    speculative_loaded_.insert(id);
    if (clock_ != nullptr)
      stats_.prefetch_fetch_us += clock_->now_us() - begin_us;
  } else {
    if (was_staged) {
      if (from_cache) {
        ++stats_.prefetch_hits;
        PublishPrefetchEvent(context::kEventPrefetchHit, id, "staged");
      } else {
        ++stats_.prefetch_wastes;
        PublishPrefetchEvent(context::kEventPrefetchWaste, id, "staged");
      }
    }
    if (clock_ != nullptr)
      stats_.demand_fault_stall_us += clock_->now_us() - begin_us;
  }

  if (bus_ != nullptr) {
    bus_->Publish(context::Event(context::kEventClusterSwappedIn)
                      .Set("swap_cluster", static_cast<int64_t>(id.value()))
                      .Set("objects", static_cast<int64_t>(members.size()))
                      .Set("prefetch", prefetch ? int64_t{1} : int64_t{0})
                      .Set("cache", from_cache ? int64_t{1} : int64_t{0}));
  }
  // The replacement-object is now unreferenced: "as it is no longer needed,
  // [it] becomes eligible for local reclamation."
  return OkStatus();
}

Status SwappingManager::PrefetchStage(SwapClusterId id) {
  if (crashed_) return CrashedError();
  PriorityScope priority_scope(this, net::Priority::kPrefetch);
  telemetry::ScopedSpan op_span(
      telemetry_, "prefetch_stage", "prefetch",
      telemetry::Hist(telemetry_, "prefetch_stage_us"));
  SwapClusterInfo* info = registry_.Find(id);
  if (info == nullptr) return NotFoundError("no swap-cluster " + id.ToString());
  if (info->state != SwapState::kSwapped)
    return FailedPreconditionError("swap-cluster " + id.ToString() + " is " +
                                   SwapStateName(info->state));
  if (cache_.budget_bytes() == 0)
    return FailedPreconditionError(
        "payload staging requires the swap-in payload cache (see "
        "set_swap_in_cache_bytes)");
  // A delta-swapped cluster's cache slot is reserved for its base document
  // (base-only convention); staging the delta text would evict the base
  // and make the eventual swap-in strictly slower.
  if (info->DeltaSwapped())
    return FailedPreconditionError("swap-cluster " + id.ToString() +
                                   " is delta-swapped; its cache slot "
                                   "holds the base document");
  // Already resident (e.g. the swap-out just populated it): nothing to
  // fetch, and not the prefetcher's doing — no staging claimed.
  if (cache_.Get(id, info->payload_epoch) != nullptr) return OkStatus();

  // A tier-resident payload fills the cache without touching the radio,
  // making speculation nearly free; any tier problem falls through to the
  // replica fetch.
  const uint64_t begin_us = clock_ != nullptr ? clock_->now_us() : 0;
  OBISWAP_ASSIGN_OR_RETURN(
      FetchedCopy copy,
      FetchGroup(*info, info->Groups().front(), FetchPurpose::kStage));
  OBISWAP_RETURN_IF_ERROR(CheckFaultPoint("prefetch_stage.stage"));
  const size_t payload_bytes = copy.decompressed.size();
  cache_.Put(id, info->payload_epoch, std::move(copy.decompressed));
  if (cache_.Get(id, info->payload_epoch) == nullptr) {
    // The cache refused it (payload alone exceeds the budget).
    return ResourceExhaustedError("staged payload (" +
                                  FormatBytes(payload_bytes) +
                                  ") exceeds the cache budget");
  }
  staged_.insert(id);
  ++stats_.prefetch_stages;
  stats_.prefetch_stage_bytes += payload_bytes;
  if (clock_ != nullptr)
    stats_.prefetch_fetch_us += clock_->now_us() - begin_us;
  return OkStatus();
}

void SwappingManager::NoteClusterEntered(SwapClusterId id) {
  if (speculative_loaded_.erase(id) > 0) {
    // First application touch of a speculatively loaded cluster: the guess
    // paid off — the fault this crossing would have taken never happened.
    ++stats_.prefetch_hits;
    PublishPrefetchEvent(context::kEventPrefetchHit, id, "loaded");
  }
  if (crossing_observer_) crossing_observer_(id);
}

void SwappingManager::NotePrefetchDiscard(SwapClusterId id) {
  if (speculative_loaded_.erase(id) > 0) {
    ++stats_.prefetch_wastes;
    PublishPrefetchEvent(context::kEventPrefetchWaste, id, "loaded");
  }
  if (staged_.erase(id) > 0) {
    ++stats_.prefetch_wastes;
    PublishPrefetchEvent(context::kEventPrefetchWaste, id, "staged");
  }
}

void SwappingManager::PublishPrefetchEvent(const char* type, SwapClusterId id,
                                           const char* kind) {
  if (bus_ == nullptr) return;
  bus_->Publish(context::Event(type)
                    .Set("swap_cluster", static_cast<int64_t>(id.value()))
                    .Set("kind", std::string(kind)));
}

// ---------------------------------------------------------------------------
// Replica durability (churn maintenance; driven by the DurabilityMonitor)
// ---------------------------------------------------------------------------

void SwappingManager::set_replication_factor(size_t k) {
  options_.replication_factor = k > 0 ? k : size_t{1};
}

bool SwappingManager::AnyStoreReachable() const {
  if (store_ != nullptr && discovery_ != nullptr &&
      !discovery_->NearbyStores(store_->self()).empty()) {
    return true;
  }
  return local_ != nullptr && local_->free_bytes() > 0;
}

std::vector<ReplicaLocation> SwappingManager::ReplicaFetchOrder(
    const std::vector<ReplicaLocation>& replicas) const {
  // O(1) per replica: a K-replica fetch must not pay an O(fleet) discovery
  // walk just to order K candidates.
  const bool can_check = store_ != nullptr && discovery_ != nullptr;
  auto in_reach = [&](const ReplicaLocation& replica) {
    return IsLocalDevice(replica.device) ||
           (can_check &&
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

Status SwappingManager::PlaceReplicas(SwapClusterId id,
                                      const std::string& payload, size_t want,
                                      std::vector<ReplicaLocation>& group,
                                      uint64_t journal_seq,
                                      const char* fault_point,
                                      std::optional<uint64_t> op_begin_us) {
  const size_t need = payload.size();
  Status last = UnavailableError("no nearby store device with " +
                                 FormatBytes(need) + " free");
  if (store_ == nullptr || discovery_ == nullptr) return last;
  const bool via_directory = DirectoryActive();
  std::vector<net::StoreNode*> candidates =
      via_directory ? DirectoryCandidates(id, want, need)
                    : discovery_->NearbyStores(store_->self(), need);
  if (health_ != nullptr) {
    // Healthy stores first (rank or most-free order within each group);
    // stores with a tripped breaker sink to the back — still reachable as
    // last-resort probe pressure, never the first choice.
    std::stable_partition(candidates.begin(), candidates.end(),
                          [this](net::StoreNode* node) {
                            return health_->IsHealthy(node->device());
                          });
  }
  // A key minted for a failed store attempt is reused for the next
  // candidate (the failed store never recorded it) — the key space is not
  // burned by flaky placements. A run of consecutive failures aborts the
  // walk: every candidate failing in a row means the network is sick, and
  // retrying down a long candidate list only stalls the caller.
  SwapKey key;
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
    const uint64_t budget =
        op_begin_us.has_value() ? OpBudgetLeft(*op_begin_us) : UINT64_MAX;
    if (budget == 0) {
      // The operation's end-to-end budget is spent: fail fast rather than
      // stacking retries across the remaining candidates.
      return DeadlineExceededError("placement budget exhausted after " +
                                   std::to_string(group.size()) +
                                   " replicas");
    }
    if (!key.valid()) key = NextKey();
    if (journal_ != nullptr && journal_seq != 0) {
      // Intent before RPC: if the crash lands inside the store call, the
      // persisted intent is the only record this key ever existed.
      journal_->NoteReplicaIntent(journal_seq, device, key);
      (void)journal_->Persist();
    }
    Status attempt = CheckFaultPoint(fault_point);
    if (attempt.ok())
      attempt =
          StoreAt(device, key, payload, budget == UINT64_MAX ? 0 : budget);
    if (crashed_) return attempt;
    if (attempt.ok()) {
      group.push_back(ReplicaLocation{device, key});
      if (via_directory) ++stats_.fleet_placements;
      key = SwapKey();
      consecutive_failures = 0;
    } else {
      last = attempt;
      ++consecutive_failures;
    }
  }
  return group.size() >= want ? OkStatus() : last;
}

bool SwappingManager::DirectoryActive() const {
  return directory_ != nullptr && directory_->size() > 0 &&
         store_ != nullptr && discovery_ != nullptr;
}

std::vector<net::StoreNode*> SwappingManager::DirectoryCandidates(
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

void SwappingManager::ReleaseReplicas(
    const std::vector<ReplicaLocation>& replicas, bool count_as_drop) {
  // Drops are reclamation, never on the stall path: lowest shedding class.
  PriorityScope priority_scope(this, net::Priority::kMaintenance);
  for (const ReplicaLocation& replica : replicas) {
    Status dropped = CheckFaultPoint("drop.release_replica");
    if (crashed_) return;  // abandon mid-release; recovery reclaims the rest
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

size_t SwappingManager::ForgetReplica(SwapClusterId id, DeviceId device) {
  SwapClusterInfo* info = registry_.Find(id);
  if (info == nullptr) return 0;
  size_t forgotten = 0;
  bool emptied = false;
  for (const StoreGroup& group : info->Groups()) {
    std::erase_if(*group.replicas, [&](const ReplicaLocation& replica) {
      if (!(replica.device == device)) return false;
      // Should the store ever return, its now-orphaned payload must still
      // be reclaimed — keep the drop obligation alive.
      (void)EnqueuePendingDrop(device, replica.key);
      ++forgotten;
      return true;
    });
    emptied = emptied || group.replicas->empty();
  }
  stats_.replicas_forgotten += forgotten;
  if (info->state == SwapState::kLoaded && emptied) {
    // Not a single backing store entry left for one of the image's groups:
    // the image can no longer serve a zero-transfer re-swap-out (a delta
    // image needs both the delta and its base). The drop obligations for
    // the forgotten keys were queued above; invalidation releases the rest.
    InvalidateCleanImage(info, /*count_as_drop=*/false);
  }
  if (forgotten > 0 && bus_ != nullptr) {
    bus_->Publish(
        context::Event(context::kEventReplicaLost)
            .Set("swap_cluster", static_cast<int64_t>(id.value()))
            .Set("device", static_cast<int64_t>(device.value()))
            .Set("survivors", static_cast<int64_t>(FewestReplicas(*info))));
  }
  return forgotten;
}

Result<size_t> SwappingManager::ReReplicate(SwapClusterId id) {
  if (crashed_) return CrashedError();
  PriorityScope priority_scope(this, net::Priority::kMaintenance);
  telemetry::ScopedSpan op_span(
      telemetry_, "re_replicate", "durability",
      telemetry::Hist(telemetry_, "re_replicate_us"));
  SwapClusterInfo* info = registry_.Find(id);
  if (info == nullptr)
    return NotFoundError("no swap-cluster " + id.ToString());
  // Every store group gets the same durability maintenance: the shipped
  // payload (full or delta) and — for delta-swapped state or a delta image
  // — the base document group the delta is useless without. Retained
  // clean images are maintained like swapped payloads (a re-swap-out must
  // find enough surviving replicas); a dirty one is not.
  const StoreGroups<StoreGroup> groups = info->Groups();
  if (groups.empty() ||
      (info->state == SwapState::kLoaded && !info->LoadedClean())) {
    return FailedPreconditionError("swap-cluster " + id.ToString() +
                                   " holds no store replicas (" +
                                   SwapStateName(info->state) + ")");
  }
  const size_t want = options_.replication_factor;
  const uint64_t bytes_before = stats_.bytes_re_replicated;
  size_t added_total = 0;
  for (const StoreGroup& group : groups) {
    std::vector<ReplicaLocation>* replicas = group.replicas;
    if (replicas->size() >= want) continue;
    // The tier write-back path: a tier-placed payload (or a delta's base
    // that was one) has no remote replicas at all, and the tier is the
    // ladder's source for its top-up. Also the second chance for a group
    // whose last store copy died while a tier read-cache copy survives.
    if (replicas->empty() && tier_ != nullptr) {
      // AIMD write-back pacing: past this poll's cap the write-back waits
      // for a later sweep. Nothing is lost by deferring — the tier still
      // pins the payload until the group reaches K.
      if (write_back_pacer_.enabled() && !write_back_pacer_.Admit()) {
        ++stats_.write_backs_paced;
        break;
      }
      OBISWAP_RETURN_IF_ERROR(CheckFaultPoint("tier.write_back"));
    } else if (!replicas->empty()) {
      OBISWAP_RETURN_IF_ERROR(CheckFaultPoint("re_replicate.fetch"));
    }
    Result<FetchedCopy> source =
        FetchGroup(*info, group, FetchPurpose::kRepairSource);
    if (!source.ok()) {
      if (added_total > 0) break;  // partial progress across groups counts
      return source.status();
    }
    // Never copy a corrupted payload onto fresh replicas: the ladder has
    // verified this copy before it may propagate.
    const std::string& payload = source->stored;
    const bool tier_sourced = source->source == FetchSource::kTier;
    // Maintenance intents: each fresh key is journaled before its store
    // RPC; an uncommitted maintenance op's keys that never made it into
    // the replica list are dropped at recovery.
    uint64_t seq = 0;
    if (journal_ != nullptr) {
      seq = journal_->BeginOp(IntentOp::kReplicaMaintenance, id,
                              info->swap_epoch, info->payload_checksum, {},
                              {});
    }
    // Pacer feedback reads pushback-counter deltas, not statuses —
    // PlaceReplicas folds per-store failures into its walk.
    const net::StoreClient::Stats* client = StoreClientStats();
    const uint64_t pushbacks_before = client != nullptr ? client->pushbacks
                                                        : 0;
    const size_t before = replicas->size();
    Status place_failure =
        PlaceReplicas(id, payload, want, *replicas, seq, "re_replicate.place");
    // A partial top-up still counts as progress.
    const size_t added = replicas->size() - before;
    stats_.re_replications += added;
    stats_.bytes_re_replicated += added * payload.size();
    if (crashed_) return place_failure;
    if (tier_sourced && write_back_pacer_.enabled()) {
      if (client != nullptr && client->pushbacks > pushbacks_before)
        write_back_pacer_.OnPushback();
      else if (added > 0)
        write_back_pacer_.OnSuccess();
    }
    if (added == 0 && !place_failure.ok()) {
      if (journal_ != nullptr) (void)journal_->Abort(seq);
      if (added_total > 0) break;
      return place_failure;
    }
    if (journal_ != nullptr) (void)journal_->Commit(seq);
    added_total += added;
  }
  // A remote group may have just reached K: the tier entry stops being its
  // payload's only home and becomes an evictable read cache.
  MaybeCompleteTierWriteBack(info);
  op_span.Close();
  if (added_total > 0 && bus_ != nullptr) {
    bus_->Publish(
        context::Event(context::kEventReReplicated)
            .Set("swap_cluster", static_cast<int64_t>(id.value()))
            .Set("new_replicas", static_cast<int64_t>(added_total))
            .Set("bytes", static_cast<int64_t>(stats_.bytes_re_replicated -
                                               bytes_before))
            .Set("replicas", static_cast<int64_t>(FewestReplicas(*info))));
  }
  return added_total;
}

Result<size_t> SwappingManager::EvacuateReplicas(DeviceId leaving) {
  if (crashed_) return CrashedError();
  PriorityScope priority_scope(this, net::Priority::kMaintenance);
  telemetry::ScopedSpan op_span(telemetry_, "evacuate_replicas",
                                "durability");
  size_t moved = 0;
  for (SwapClusterId id : registry_.Ids()) {
    SwapClusterInfo* info = registry_.Find(id);
    if (info == nullptr) continue;
    if (info->state == SwapState::kLoaded && !info->LoadedClean()) continue;
    size_t cluster_moved = 0;
    // Every store group evacuates: a base document stranded on a departing
    // store would make every delta shipped against it unrecoverable.
    for (const StoreGroup& group : info->Groups()) {
      std::vector<ReplicaLocation>& replicas = *group.replicas;
      size_t at = 0;
      while (at < replicas.size() && !(replicas[at].device == leaving)) ++at;
      if (at == replicas.size()) continue;
      const ReplicaLocation old = replicas[at];
      // Prefer copying straight off the withdrawing store — a graceful
      // withdrawal means it is still reachable; fall back to any replica.
      Result<FetchedCopy> source =
          FetchGroup(*info, group, FetchPurpose::kRepairSource, 0,
                     AcceptAny(), &old);
      if (!source.ok()) {
        OBISWAP_LOG(kWarn) << "cannot evacuate swap-cluster " << id.ToString()
                           << ": " << source.status().ToString();
        continue;
      }
      // One maintenance op per move. The old key is journaled up-front
      // while it is still in the replica list (recovery keeps listed keys),
      // so every crash window resolves: before the list update the fresh
      // copy is the orphan to drop; after it, the old copy is.
      uint64_t seq = 0;
      if (journal_ != nullptr) {
        seq = journal_->BeginOp(IntentOp::kReplicaMaintenance, id,
                                info->swap_epoch, info->payload_checksum, {},
                                {});
        journal_->NoteReplicaIntent(seq, old.device, old.key);
      }
      // The walk appends the fresh copy (it never picks a listed device,
      // so never `leaving`); it then takes the old replica's slot.
      Status placed = PlaceReplicas(id, source->stored, replicas.size() + 1,
                                    replicas, seq, "evacuate.place");
      if (crashed_) return placed;
      if (!placed.ok()) {
        if (journal_ != nullptr) (void)journal_->Abort(seq);
        OBISWAP_LOG(kWarn) << "no evacuation target for swap-cluster "
                           << id.ToString() << ": " << placed.ToString();
        continue;
      }
      replicas[at] = replicas.back();
      replicas.pop_back();
      Status dropped = CheckFaultPoint("evacuate.drop_old");
      if (crashed_) return dropped;
      if (dropped.ok()) dropped = DropAt(old.device, old.key);
      if (!dropped.ok() && dropped.code() != StatusCode::kNotFound) {
        (void)EnqueuePendingDrop(old.device, old.key);
      }
      if (journal_ != nullptr) (void)journal_->Commit(seq);
      ++cluster_moved;
      ++stats_.evacuated_replicas;
    }
    moved += cluster_moved;
    if (cluster_moved > 0 && bus_ != nullptr) {
      bus_->Publish(
          context::Event(context::kEventReplicasEvacuated)
              .Set("swap_cluster", static_cast<int64_t>(id.value()))
              .Set("device", static_cast<int64_t>(leaving.value()))
              .Set("moved", static_cast<int64_t>(cluster_moved)));
    }
  }
  return moved;
}

size_t SwappingManager::FlushPendingDrops() {
  if (crashed_) return 0;  // no store traffic while torn; Recover() first
  if (pending_drops_.empty()) return 0;
  // Deferred drops are reclamation: lowest shedding class, first refused.
  PriorityScope priority_scope(this, net::Priority::kMaintenance);
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

// ---------------------------------------------------------------------------
// GC cooperation and event handling
// ---------------------------------------------------------------------------

void SwappingManager::OnProxyFinalized(Object* proxy) {
  // Paper §4: "When a swap-cluster-proxy becomes unreachable, its finalizer
  // invokes code that eliminates entries referring to it."
  ++stats_.proxies_finalized;
  reuse_.EraseIf(ProxySource(proxy), ProxyTargetOid(proxy), proxy);
  // inbound_ entries are weak cells: they clear with the proxy and are
  // pruned lazily (AddInbound, swaps, InboundProxyCount).
}

void SwappingManager::OnReplacementFinalized(Object* replacement) {
  // "When a replacement-object ... becomes unreachable, this means that all
  // object replicas enclosed in it are already unreachable ... the swapping
  // device may be instructed to discard the XML text."
  SwapClusterId id = ReplacementCluster(replacement);
  uint64_t epoch = ReplacementEpoch(replacement);
  SwapClusterInfo* info = registry_.Find(id);
  if (info == nullptr || info->state != SwapState::kSwapped ||
      info->swap_epoch != epoch) {
    return;  // already swapped back in (or re-swapped in a newer epoch)
  }
  info->state = SwapState::kDropped;
  info->replacement = runtime::WeakRef();
  if (store_ != nullptr || local_ != nullptr) {
    // One journaled release covers both groups: the shipped payload and —
    // for a delta-swapped cluster — the base document it applied to.
    std::vector<ReplicaLocation> all = info->replicas;
    AppendNew(all, info->base_replicas);
    JournaledRelease(id, all, /*count_as_drop=*/true);
  }
  // A dead cluster's tier copies (and their flash slots) go with it.
  if (tier_ != nullptr) tier_->Release(id);
  info->replicas.clear();
  info->ClearBaseGroup();
  NotePrefetchDiscard(id);  // a staged payload for a dropped cluster is waste
  cache_.Invalidate(id);
  if (bus_ != nullptr) {
    bus_->Publish(context::Event(context::kEventClusterDropped)
                      .Set("swap_cluster", static_cast<int64_t>(id.value())));
  }
}

namespace {
/// The snapshot's key order and spelling are frozen — benches and scripts
/// parse them — so the list lives in one table mapping each key to its
/// Stats field.
struct StatFieldSpec {
  const char* name;
  uint64_t SwappingManager::Stats::*field;
  /// Set instead of `field` for the journal's costs, which accrue inside
  /// the IntentJournal (0 with none attached): exported under the
  /// manager's keys so the WAL overhead shows up next to swap latency.
  uint64_t IntentJournal::Stats::*journal_field = nullptr;
};
constexpr StatFieldSpec kStatFields[] = {
    {"proxies_created", &SwappingManager::Stats::proxies_created},
    {"proxies_reused", &SwappingManager::Stats::proxies_reused},
    {"proxies_dismantled", &SwappingManager::Stats::proxies_dismantled},
    {"proxies_finalized", &SwappingManager::Stats::proxies_finalized},
    {"boundary_crossings", &SwappingManager::Stats::boundary_crossings},
    {"assigned_patches", &SwappingManager::Stats::assigned_patches},
    {"swap_outs", &SwappingManager::Stats::swap_outs},
    {"swap_ins", &SwappingManager::Stats::swap_ins},
    {"drops", &SwappingManager::Stats::drops},
    {"drop_failures", &SwappingManager::Stats::drop_failures},
    {"swap_out_failures", &SwappingManager::Stats::swap_out_failures},
    {"bytes_swapped_out", &SwappingManager::Stats::bytes_swapped_out},
    {"bytes_swapped_in", &SwappingManager::Stats::bytes_swapped_in},
    {"local_swap_outs", &SwappingManager::Stats::local_swap_outs},
    {"merges", &SwappingManager::Stats::merges},
    {"splits", &SwappingManager::Stats::splits},
    {"replicas_placed", &SwappingManager::Stats::replicas_placed},
    {"under_replicated_outs",
     &SwappingManager::Stats::under_replicated_outs},
    {"failover_fetches", &SwappingManager::Stats::failover_fetches},
    {"data_loss_failovers", &SwappingManager::Stats::data_loss_failovers},
    {"replicas_forgotten", &SwappingManager::Stats::replicas_forgotten},
    {"re_replications", &SwappingManager::Stats::re_replications},
    {"bytes_re_replicated", &SwappingManager::Stats::bytes_re_replicated},
    {"evacuated_replicas", &SwappingManager::Stats::evacuated_replicas},
    {"drops_deferred", &SwappingManager::Stats::drops_deferred},
    {"drops_drained", &SwappingManager::Stats::drops_drained},
    {"clean_swap_outs", &SwappingManager::Stats::clean_swap_outs},
    {"clean_image_invalidations",
     &SwappingManager::Stats::clean_image_invalidations},
    {"clean_images_reaped", &SwappingManager::Stats::clean_images_reaped},
    {"cache_hits", &SwappingManager::Stats::cache_hits},
    {"bytes_swap_transfer_saved",
     &SwappingManager::Stats::bytes_swap_transfer_saved},
    {"prefetched_swap_ins", &SwappingManager::Stats::prefetched_swap_ins},
    {"prefetch_stages", &SwappingManager::Stats::prefetch_stages},
    {"prefetch_stage_bytes", &SwappingManager::Stats::prefetch_stage_bytes},
    {"prefetch_hits", &SwappingManager::Stats::prefetch_hits},
    {"prefetch_wastes", &SwappingManager::Stats::prefetch_wastes},
    {"demand_fault_stall_us",
     &SwappingManager::Stats::demand_fault_stall_us},
    {"prefetch_fetch_us", &SwappingManager::Stats::prefetch_fetch_us},
    {"recoveries", &SwappingManager::Stats::recoveries},
    {"recovery_us", &SwappingManager::Stats::recovery_us},
    {"journal_append_us", nullptr, &IntentJournal::Stats::append_us},
    {"journal_bytes", nullptr, &IntentJournal::Stats::persisted_bytes},
    {"hedged_fetches", &SwappingManager::Stats::hedged_fetches},
    {"hedge_wins", &SwappingManager::Stats::hedge_wins},
    {"hedge_wastes", &SwappingManager::Stats::hedge_wastes},
    {"deadline_aborts", &SwappingManager::Stats::deadline_aborts},
    {"brownout_entries", &SwappingManager::Stats::brownout_entries},
    {"brownout_exits", &SwappingManager::Stats::brownout_exits},
    {"brownout_swap_outs", &SwappingManager::Stats::brownout_swap_outs},
    {"pending_drop_overflow",
     &SwappingManager::Stats::pending_drop_overflow},
    {"delta_swap_outs", &SwappingManager::Stats::delta_swap_outs},
    {"delta_fallbacks", &SwappingManager::Stats::delta_fallbacks},
    {"delta_bytes_shipped", &SwappingManager::Stats::delta_bytes_shipped},
    {"delta_bytes_saved", &SwappingManager::Stats::delta_bytes_saved},
    {"delta_base_cache_hits",
     &SwappingManager::Stats::delta_base_cache_hits},
    {"fields_marked_dirty", &SwappingManager::Stats::fields_marked_dirty},
    {"tier_swap_outs", &SwappingManager::Stats::tier_swap_outs},
    {"tier_swap_ins", &SwappingManager::Stats::tier_swap_ins},
    {"fleet_selections", &SwappingManager::Stats::fleet_selections},
    {"fleet_placements", &SwappingManager::Stats::fleet_placements},
    {"write_backs_paced", &SwappingManager::Stats::write_backs_paced},
};
}  // namespace

std::vector<std::pair<std::string, uint64_t>> SwappingManager::StatsSnapshot()
    const {
  std::vector<std::pair<std::string, uint64_t>> snapshot;
  for (const StatFieldSpec& spec : kStatFields) {
    uint64_t value = 0;
    if (spec.field != nullptr) {
      value = stats_.*spec.field;
    } else if (journal_ != nullptr) {
      value = journal_->stats().*spec.journal_field;
    }
    snapshot.emplace_back(spec.name, value);
  }

  const PayloadCache::Stats& cache = cache_.stats();
  const std::pair<const char*, uint64_t> cache_counters[] = {
      {"payload_cache_hits", cache.hits},
      {"payload_cache_misses", cache.misses},
      {"payload_cache_insertions", cache.insertions},
      {"payload_cache_evictions", cache.evictions},
      {"payload_cache_invalidations", cache.invalidations},
      {"payload_cache_bytes", static_cast<uint64_t>(cache_.bytes())},
      {"payload_cache_entries", static_cast<uint64_t>(cache_.entry_count())},
  };
  snapshot.insert(snapshot.end(), std::begin(cache_counters),
                  std::end(cache_counters));

  // Tier keys are emitted whether or not a TierManager is attached — zeros
  // when detached — so JSON key sets stay uniform across configurations.
  if (tier_ != nullptr) {
    for (const auto& [key, value] : tier_->StatsSnapshot())
      snapshot.emplace_back(key, value);
  } else {
    for (std::string_view key : tier::TierManager::StatKeys())
      snapshot.emplace_back(key, 0);
  }

  // Overload-control keys, same uniform-key-set contract: the client-side
  // view of admission control (pushbacks received, per-class sheds, retry
  // budget flow, deepest store queue observed). All zero while the knobs
  // are off or no remote store is attached.
  const net::StoreClient::Stats* client = StoreClientStats();
  static const net::StoreClient::Stats kZeroClientStats{};
  const net::StoreClient::Stats& c =
      client != nullptr ? *client : kZeroClientStats;
  const std::pair<const char*, uint64_t> overload_counters[] = {
      {"net.pushbacks", c.pushbacks},
      {"net.pushback_retries", c.pushback_retries},
      {"net.retry_budget_exhausted", c.retry_budget_exhausted},
      {"net.retry_budget_earned", c.retry_budget_earned},
      {"net.retry_budget_spent", c.retry_budget_spent},
      {"net.shed_demand", c.pushbacks_by_class[0]},
      {"net.shed_swap_out", c.pushbacks_by_class[1]},
      {"net.shed_hedge", c.pushbacks_by_class[2]},
      {"net.shed_prefetch", c.pushbacks_by_class[3]},
      {"net.shed_maintenance", c.pushbacks_by_class[4]},
      {"store_queue_depth", c.max_store_queue_depth},
  };
  snapshot.insert(snapshot.end(), std::begin(overload_counters),
                  std::end(overload_counters));
  return snapshot;
}

std::string SwappingManager::StatsJson() const {
  std::string json = "{";
  bool first = true;
  for (const auto& [name, value] : StatsSnapshot()) {
    if (!first) json += ",";
    first = false;
    json += "\"" + name + "\":" + std::to_string(value);
  }
  json += "}";
  return json;
}

void SwappingManager::OnClusterReplicated(const context::Event& event) {
  int64_t cluster_value = event.GetIntOr("cluster", -1);
  if (cluster_value < 0) return;
  ClusterId cluster(static_cast<uint32_t>(cluster_value));

  // Fold the arriving replication cluster into the current swap-cluster
  // group; start a new group every clusters_per_swap_cluster clusters.
  if (!current_group_.valid() ||
      clusters_in_group_ >= options_.clusters_per_swap_cluster) {
    current_group_ = registry_.Create();
    clusters_in_group_ = 0;
  }
  SwapClusterInfo* info = registry_.Find(current_group_);
  info->replication_clusters.push_back(cluster);
  ++clusters_in_group_;

  // Label the fresh replicas (they arrive without a swap-cluster).
  rt_.heap().ForEachObject([&](Object* obj) {
    if (obj->kind() != ObjectKind::kRegular) return;
    if (obj->cluster() != cluster) return;
    if (obj->swap_cluster().valid()) return;
    Status placed = Place(obj, current_group_);
    if (!placed.ok()) {
      OBISWAP_LOG(kWarn) << "placing replica failed: " << placed.ToString();
    }
  });
}

}  // namespace obiswap::swap
