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
using PriorityScope = ReplicaService::PriorityScope;

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
      pipe_{.telemetry = own_telemetry_.get()},
      cache_(options_.swap_in_cache_bytes),
      replicas_(pipe_, stats_),
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

void SwappingManager::AttachTelemetry(telemetry::Telemetry* t) {
  if (t == nullptr) return;
  pipe_.telemetry = t;
  if (pipe_.clock != nullptr) pipe_.telemetry->AttachClock(pipe_.clock);
}

void SwappingManager::AttachHealth(net::HealthTracker* health) {
  replicas_.SetHealth(health);
  if (health == nullptr) return;
  // The manager owns the bus and the journal, so it relays every breaker
  // transition for the tracker (which links only net + telemetry).
  health->SetTransitionObserver([this, health](DeviceId device,
                                               net::BreakerState from,
                                               net::BreakerState to) {
    pipe_.telemetry->journal().Record(
        "degraded", "breaker-transition",
        "device=" + std::to_string(device.value()) + " " +
            net::BreakerStateName(from) + "->" + net::BreakerStateName(to));
    pipe_.telemetry->metrics()
        .GetGauge("swap.open_breakers")
        .Set(static_cast<int64_t>(health->open_count()));
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
  pipe_.telemetry->metrics().GetGauge("swap.brownout").Set(1);
  pipe_.telemetry->journal().Record("degraded", "brownout-entered", reason);
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
  pipe_.telemetry->metrics().GetGauge("swap.brownout").Set(0);
  pipe_.telemetry->journal().Record("degraded", "brownout-exited", "");
  if (bus_ != nullptr) {
    bus_->Publish(
        context::Event(context::kEventBrownoutExited)
            .Set("effective_k",
                 static_cast<int64_t>(EffectiveReplicationFactor())));
  }
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
      [this](const context::Event&) { replicas_.FlushPendingDrops(); });
  // Mirror every bus event into the telemetry journal; a post-mortem dump
  // then interleaves middleware events with the spans around them. Record
  // only appends to a preallocated ring, so handlers that publish further
  // events (delivered re-entrantly) are safe.
  journal_token_ = bus_->SubscribeAll([this](const context::Event& event) {
    pipe_.telemetry->journal().Record("event", event.type(),
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
// Crash consistency: fault points + write-ahead intent journaling
// ---------------------------------------------------------------------------

Status PipelineContext::CheckFaultPoint(const char* point) {
  if (faults == nullptr || point == nullptr) return OkStatus();
  FaultInjector::Outcome outcome = faults->Hit(point);
  switch (outcome.action) {
    case FaultInjector::Action::kError:
      return UnavailableError(std::string("injected fault at ") + point);
    case FaultInjector::Action::kCrash:
      // The operation is abandoned at this instruction boundary: heap,
      // flash and remote stores keep whatever the op mutated so far, and
      // every entry point refuses until Recover().
      crashed = true;
      telemetry->journal().Record("fault", "crash", point);
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
  bool budget = false;  ///< Options::op_deadline_us caps every fetch
  bool hedge = false;   ///< Options::hedged_fetch applies
  /// The replica step's checks and counters. Its `swap_in` category also
  /// names the tier step's spans.
  ReplicaService::ReplicaRead replica = {};
};

/// Indexed by SwappingManager::FetchPurpose. Each row keeps its caller's
/// fault-point names and counters, which the crash sweeps and benches key
/// on. The delta base probes the tiers because a tier-admitted full
/// payload becomes a delta base with no remote replica until the
/// write-back runs.
constexpr LadderSteps kLadderSteps[] = {
    // kDemand
    {.cache = true, .tier = TierStep::kServe, .budget = true, .hedge = true,
     .replica = {.fetch_fault = "swap_in.fetch",
                 .decompress_fault = "swap_in.decompress", .swap_in = "swap"}},
    // kSpeculative
    {.cache = true, .tier = TierStep::kServe, .budget = true,
     .replica = {.fetch_fault = "swap_in.fetch",
                 .decompress_fault = "swap_in.decompress",
                 .swap_in = "prefetch"}},
    // kStage
    {.tier = TierStep::kProbe,
     .replica = {.fetch_fault = "prefetch_stage.fetch",
                 .decompress_fault = "prefetch_stage.decompress",
                 .checksum = true}},
    // kDeltaBase
    {.cache = true, .tier = TierStep::kServe, .budget = true,
     .replica = {.fetch_fault = "swap_in.fetch_base", .checksum = true}},
    // kRepairSource
    {.tier = TierStep::kWriteBack},
    // kRecoveryVerify
    {.replica = {.checksum = true, .data_loss = false}},
};
}  // namespace

template <typename Accept>
Result<SwappingManager::FetchedCopy> SwappingManager::FetchGroup(
    const SwapClusterInfo& info, const StoreGroup& group, FetchPurpose purpose,
    uint64_t op_start_us, Accept&& accept, const ReplicaLocation* first) {
  const LadderSteps& steps = kLadderSteps[static_cast<size_t>(purpose)];
  const SwapClusterId id = info.id;
  const char* swap_in = steps.replica.swap_in;
  telemetry::Telemetry* trace = swap_in != nullptr ? pipe_.telemetry : nullptr;
  const char* category = swap_in != nullptr ? swap_in : "";
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
        if (pipe_.crashed) return accepted;
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
    const uint64_t tier_begin_us = pipe_.now_us();
    telemetry::ScopedSpan tier_span(trace, "tier_fetch", category,
                                    telemetry::Hist(trace, "tier_fetch_us"));
    tier::TierHit hit = tier::TierHit::kNone;
    Result<std::string> probed =
        tier_->Probe(id, group.epoch, group.checksum, &hit);
    const bool serve = steps.tier == TierStep::kServe;
    Status fault = probed.ok() && serve ? CheckFaultPoint("swap_in.tier_fetch")
                                        : OkStatus();
    if (pipe_.crashed) return fault;
    if (!fault.ok()) {
      last = fault;  // injected miss: fall through to the replicas
    } else if (probed.ok()) {
      Result<std::string> text = compress::FrameDecompress(*probed);
      if (text.ok() && Adler32(*text) == group.checksum) {
        copy.source = FetchSource::kTier;
        copy.decompressed = std::move(*text);
        copy.stored = std::move(*probed);
        Status accepted = accept(copy);
        if (pipe_.crashed) return accepted;
        if (accepted.ok()) {
          if (hit == tier::TierHit::kFlash && serve) {
            // Volatile-only — crash-safe at any instruction; the flash copy
            // stays.
            Status promote = CheckFaultPoint("tier.promote");
            if (pipe_.crashed) return promote;
            if (promote.ok()) tier_->PromoteToRam(id, copy.stored);
          }
          tier_span.Close();
          if (trace != nullptr && pipe_.clock != nullptr) {
            telemetry::Hist(trace, hit == tier::TierHit::kRam
                                       ? "tier_ram_fetch_us"
                                       : "tier_flash_fetch_us")
                ->Record(pipe_.clock->now_us() - tier_begin_us);
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

  ReplicaService::ReplicaRead read = steps.replica;
  if (steps.budget)
    read.budget = {pipe_.clock, op_start_us, options_.op_deadline_us};
  read.hedge = steps.hedge && options_.hedged_fetch;
  read.first = first;
  copy.source = FetchSource::kReplica;
  Status fetched = replicas_.FetchReplicas(
      id, group, read, copy, [&copy, &accept] { return accept(copy); },
      std::move(last));
  if (!fetched.ok()) return fetched;
  return copy;
}
// Recovery (recovery.cc) reads with the default acceptance.
template Result<SwappingManager::FetchedCopy>
SwappingManager::FetchGroup<SwappingManager::AcceptAny>(
    const SwapClusterInfo&, const StoreGroup&, FetchPurpose, uint64_t,
    AcceptAny&&, const ReplicaLocation*);

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
      if (pipe_.crashed) return fault;
      // Injected clean error: skip the RAM tier this once, fall through.
    } else if (tier_->AdmitRam(id, epoch, wire_checksum, payload)) {
      // RAM placement leaves a progress breadcrumb on the op record: if
      // the op stays torn, recovery sees a payload that lived nowhere
      // durable and rolls the cluster back off the live heap.
      if (pipe_.journal != nullptr) {
        pipe_.journal->NoteProgress(seq, kProgressTierRamPlacement);
        (void)pipe_.journal->Persist();
      }
      // Caller-visible identity only — nothing is stored under this key.
      *tier_key = replicas_.NextKey();
      return true;
    }
  }
  if (tier_->flash_enabled()) {
    const SwapKey key = replicas_.NextKey();
    if (pipe_.journal != nullptr) {
      // Intent before the flash write, exactly like a remote replica: a
      // crash inside the write leaves the key reclaimable.
      pipe_.journal->NoteReplicaIntent(seq, tier_->flash_device(), key);
      (void)pipe_.journal->Persist();
    }
    if (Status fault = CheckFaultPoint("swap_out.tier_flash"); !fault.ok()) {
      if (pipe_.crashed) return fault;
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
          return !replicas_.IsLocalDevice(replica.device) &&
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

void SwappingManager::JournaledRelease(
    SwapClusterId id, const std::vector<ReplicaLocation>& replicas,
    bool count_as_drop) {
  if (replicas.empty()) return;
  uint64_t seq = 0;
  if (pipe_.journal != nullptr) {
    seq = pipe_.journal->BeginOp(IntentOp::kDrop, id, /*swap_epoch=*/0,
                            /*payload_checksum=*/0, {}, {});
    for (const ReplicaLocation& replica : replicas)
      pipe_.journal->NoteReplicaIntent(seq, replica.device, replica.key);
    (void)pipe_.journal->Persist();
  }
  replicas_.ReleaseReplicas(replicas, count_as_drop);
  if (pipe_.crashed) return;  // torn mid-release: recovery finishes it
  if (pipe_.journal != nullptr) (void)pipe_.journal->Commit(seq);
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
  if (!fault.ok() && !pipe_.crashed) {
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
  if (key.ok() && !pipe_.crashed) {
#ifdef OBISWAP_VERIFY_RECLAIM
    OBISWAP_CHECK(members == registry_.LiveMembers(id));
#endif
    rt_.heap().Reclaim(members, id);
  }
  return key;
}

Result<SwapKey> SwappingManager::DetachCluster(SwapClusterId id,
                                               std::vector<Object*>& members) {
  if (pipe_.crashed) return CrashedError();
  PriorityScope priority_scope(replicas_, net::Priority::kSwapOut);
  telemetry::ScopedSpan op_span(
      pipe_.telemetry, "swap_out", "swap",
      telemetry::Hist(pipe_.telemetry, "swap_out_us"));
  const uint64_t op_begin_us = pipe_.now_us();
  SwapClusterInfo* info = registry_.Find(id);
  if (info == nullptr)
    return NotFoundError("no swap-cluster " + id.ToString());
  if (info->state != SwapState::kLoaded)
    return FailedPreconditionError("swap-cluster " + id.ToString() + " is " +
                                   SwapStateName(info->state));
  if (!replicas_.attached())
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
    clean_span.emplace(pipe_.telemetry, "clean_swap_out", "swap",
                       telemetry::Hist(pipe_.telemetry, "clean_swap_out_us"));
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
          pipe_.telemetry, "serialize", "swap",
          telemetry::Hist(pipe_.telemetry, "swap_out_serialize_us"));
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
          pipe_.telemetry, "compress", "swap",
          telemetry::Hist(pipe_.telemetry, "swap_out_compress_us"));
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
  if (pipe_.journal != nullptr) {
    std::vector<uint64_t> member_oids;
    member_oids.reserve(source.oids.size());
    for (ObjectId oid : source.oids) member_oids.push_back(oid.value());
    const IntentOp op = source.HasDelta() ? IntentOp::kDeltaSwapOut
                        : clean           ? IntentOp::kCleanSwapOut
                                          : IntentOp::kSwapOut;
    seq = pipe_.journal->BeginOp(op, id, info->swap_epoch + 1,
                            source.payload_checksum, std::move(member_oids),
                            LiveInboundProxyOids(id), source.base_epoch,
                            source.base_checksum);
    if (clean) {
      for (const ReplicaLocation& replica : source.replicas)
        pipe_.journal->NoteReplicaIntent(seq, replica.device, replica.key);
      (void)pipe_.journal->Persist();
    }
  }

  bool tier_admitted = false;
  SwapKey tier_key;
  if (!clean) {
    if (Status fault = CheckFaultPoint("swap_out.journal_begin");
        !fault.ok()) {
      // A clean (non-crash) error must seal the op or the dangling begin
      // record would be persisted by a later operation and replayed.
      if (!pipe_.crashed && pipe_.journal != nullptr)
        (void)pipe_.journal->Abort(seq);
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
    // the walk's last candidate, tried only when no store took a copy.
    // Brownout lowers the placement target; the shortfall is
    // re-replication debt the DurabilityMonitor repays once the
    // neighborhood recovers.
    const size_t full_want = options_.replication_factor;
    size_t want = EffectiveReplicationFactor();
    std::vector<ReplicaLocation>& placed = shipped.replicas;
    telemetry::ScopedSpan ship_span(
        pipe_.telemetry, "ship", "swap",
        telemetry::Hist(pipe_.telemetry, "swap_out_ship_us"));
    Status stored = OkStatus();
    if (!tier_admitted) {
      // A partial placement still completes the swap-out (under-replicated).
      stored = replicas_.PlaceReplicas(
          id, payload, want, placed,
          {.journal_seq = seq,
           .fault_point = "swap_out.ship_replica",
           .budget = {pipe_.clock, op_begin_us, options_.op_deadline_us},
           .local_fault_point = "swap_out.local_store"});
      if (pipe_.crashed) return stored;
    }
    ship_span.Close();
    if (!tier_admitted && placed.empty()) {
      // Clean placement failure: every journaled key is known-unstored (the
      // failed stores never recorded them); seal the op as unwound.
      if (pipe_.journal != nullptr) (void)pipe_.journal->Abort(seq);
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
  telemetry::Telemetry* const patch_telemetry =
      clean ? nullptr : pipe_.telemetry;
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
    if (pipe_.crashed) return patched;
    replicas_.ReleaseReplicas(shipped.replicas, /*count_as_drop=*/false);
    if (tier_admitted) tier_->Release(id);
    if (pipe_.crashed) return InternalError("simulated crash during rollback");
    if (pipe_.journal != nullptr) (void)pipe_.journal->Abort(seq);
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
  if (pipe_.journal != nullptr) (void)pipe_.journal->Commit(seq);

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
    replicas_.PruneUnconfirmed(*group.replicas, /*keep_unreachable=*/false);
    usable = !group.replicas->empty();
  }
  if (usable) return true;
  outbound.clear();
  InvalidateCleanImage(info, /*count_as_drop=*/false);
  return false;
}

Result<SwapClusterId> SwappingManager::SwapOutVictim() {
  if (pipe_.crashed) return CrashedError();
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
        !replicas_.AnyStoreReachable()) {
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
      pipe_.telemetry, "resolve_delta_base", "swap",
      telemetry::Hist(pipe_.telemetry, "swap_in_delta_base_us"));
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
  if (pipe_.crashed) return CrashedError();
  PriorityScope priority_scope(replicas_, prefetch
                                         ? net::Priority::kPrefetch
                                         : net::Priority::kDemandSwapIn);
  const uint64_t begin_us = pipe_.now_us();
  // Demand faults and speculative loads get distinct categories and
  // histograms: the trace separates application stall from prefetch work.
  const char* span_category = prefetch ? "prefetch" : "swap";
  telemetry::ScopedSpan op_span(
      pipe_.telemetry, "swap_in", span_category,
      telemetry::Hist(pipe_.telemetry, prefetch ? "swap_in_prefetch_us"
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
      span.emplace(pipe_.telemetry, "materialize", span_category,
                   telemetry::Hist(pipe_.telemetry, "swap_in_materialize_us"));
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

  telemetry::ScopedSpan patch_span(pipe_.telemetry, "patch", span_category);
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
  if (pipe_.journal != nullptr) {
    std::vector<uint64_t> member_oids;
    member_oids.reserve(info->oids.size());
    for (ObjectId oid : info->oids) member_oids.push_back(oid.value());
    seq = pipe_.journal->BeginOp(IntentOp::kSwapIn, id, info->swap_epoch,
                            info->payload_checksum, std::move(member_oids),
                            LiveInboundProxyOids(id));
    // The current replicas ride along as intents: if the swap-in ends up
    // releasing them (no image retained) and crashes first, recovery can
    // still tell which keys the cluster stopped accounting for. A delta
    // swap-in accounts for both groups — delta and base.
    for (const StoreGroup& group : info->Groups()) {
      for (const ReplicaLocation& replica : *group.replicas)
        pipe_.journal->NoteReplicaIntent(seq, replica.device, replica.key);
    }
    (void)pipe_.journal->Persist();
  }
  if (Status fault = CheckFaultPoint("swap_in.journal_begin"); !fault.ok()) {
    if (!pipe_.crashed && pipe_.journal != nullptr)
      (void)pipe_.journal->Abort(seq);
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
    if (!pipe_.crashed && pipe_.journal != nullptr)
      (void)pipe_.journal->Abort(seq);
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
  if (pipe_.journal != nullptr) (void)pipe_.journal->Commit(seq);
  if (!stale_replicas.empty()) {
    JournaledRelease(id, stale_replicas, /*count_as_drop=*/false);
    if (pipe_.crashed)
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
    stats_.prefetch_fetch_us += pipe_.now_us() - begin_us;
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
    stats_.demand_fault_stall_us += pipe_.now_us() - begin_us;
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
  if (pipe_.crashed) return CrashedError();
  PriorityScope priority_scope(replicas_, net::Priority::kPrefetch);
  telemetry::ScopedSpan op_span(
      pipe_.telemetry, "prefetch_stage", "prefetch",
      telemetry::Hist(pipe_.telemetry, "prefetch_stage_us"));
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
  const uint64_t begin_us = pipe_.now_us();
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
  stats_.prefetch_fetch_us += pipe_.now_us() - begin_us;
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
      (void)replicas_.EnqueuePendingDrop(device, replica.key);
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
  if (pipe_.crashed) return CrashedError();
  PriorityScope priority_scope(replicas_, net::Priority::kMaintenance);
  telemetry::ScopedSpan op_span(
      pipe_.telemetry, "re_replicate", "durability",
      telemetry::Hist(pipe_.telemetry, "re_replicate_us"));
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
    if (pipe_.journal != nullptr) {
      seq = pipe_.journal->BeginOp(IntentOp::kReplicaMaintenance, id,
                              info->swap_epoch, info->payload_checksum, {},
                              {});
    }
    // Pacer feedback reads pushback-counter deltas, not statuses —
    // PlaceReplicas folds per-store failures into its walk.
    const net::StoreClient::Stats* client = replicas_.client_stats();
    const uint64_t pushbacks_before = client != nullptr ? client->pushbacks
                                                        : 0;
    const size_t before = replicas->size();
    Status place_failure = replicas_.PlaceReplicas(
        id, payload, want, *replicas,
        {.journal_seq = seq, .fault_point = "re_replicate.place"});
    // A partial top-up still counts as progress.
    const size_t added = replicas->size() - before;
    stats_.re_replications += added;
    stats_.bytes_re_replicated += added * payload.size();
    if (pipe_.crashed) return place_failure;
    if (tier_sourced && write_back_pacer_.enabled()) {
      if (client != nullptr && client->pushbacks > pushbacks_before)
        write_back_pacer_.OnPushback();
      else if (added > 0)
        write_back_pacer_.OnSuccess();
    }
    if (added == 0 && !place_failure.ok()) {
      if (pipe_.journal != nullptr) (void)pipe_.journal->Abort(seq);
      if (added_total > 0) break;
      return place_failure;
    }
    if (pipe_.journal != nullptr) (void)pipe_.journal->Commit(seq);
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
  if (pipe_.crashed) return CrashedError();
  PriorityScope priority_scope(replicas_, net::Priority::kMaintenance);
  telemetry::ScopedSpan op_span(pipe_.telemetry, "evacuate_replicas",
                                "durability");
  size_t moved = 0;
  // Only the clusters the holdings index maps to `leaving`, ascending; the
  // group scan below re-checks each.
  for (SwapClusterId id : replicas_.Holders(leaving)) {
    SwapClusterInfo* info = registry_.Find(id);
    if (info == nullptr) continue;
    if (info->state == SwapState::kLoaded && !info->LoadedClean()) continue;
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
      if (pipe_.journal != nullptr) {
        seq = pipe_.journal->BeginOp(IntentOp::kReplicaMaintenance, id,
                                info->swap_epoch, info->payload_checksum, {},
                                {});
        pipe_.journal->NoteReplicaIntent(seq, old.device, old.key);
      }
      // The walk appends the fresh copy (it never picks a listed device,
      // so never `leaving`); it then takes the old replica's slot.
      Status placed = replicas_.PlaceReplicas(
          id, source->stored, replicas.size() + 1, replicas,
          {.journal_seq = seq, .fault_point = "evacuate.place"});
      if (pipe_.crashed) return placed;
      if (!placed.ok()) {
        if (pipe_.journal != nullptr) (void)pipe_.journal->Abort(seq);
        OBISWAP_LOG(kWarn) << "no evacuation target for swap-cluster "
                           << id.ToString() << ": " << placed.ToString();
        continue;
      }
      replicas[at] = replicas.back();
      replicas.pop_back();
      Status dropped = CheckFaultPoint("evacuate.drop_old");
      if (pipe_.crashed) return dropped;
      if (dropped.ok()) dropped = replicas_.DropAt(old.device, old.key);
      if (!dropped.ok() && dropped.code() != StatusCode::kNotFound) {
        (void)replicas_.EnqueuePendingDrop(old.device, old.key);
      }
      if (pipe_.journal != nullptr) (void)pipe_.journal->Commit(seq);
      ++moved;
      ++stats_.evacuated_replicas;
    }
  }
  return moved;
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
  // One journaled release covers both groups: the shipped payload and —
  // for a delta-swapped cluster — the base document it applied to.
  std::vector<ReplicaLocation> all = info->replicas;
  AppendNew(all, info->base_replicas);
  JournaledRelease(id, all, /*count_as_drop=*/true);
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
    } else if (pipe_.journal != nullptr) {
      value = pipe_.journal->stats().*spec.journal_field;
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
  const net::StoreClient::Stats* client = replicas_.client_stats();
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
