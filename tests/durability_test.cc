// Durability layer tests: K-replica placement, failover swap-in under
// departure / corruption / crash, the DurabilityMonitor's churn recovery
// (forget + re-replicate + evacuate) and its bus-fed index, the
// deferred-drop retry queue, store retry idempotency and backoff, and the
// policy hooks that raise the replication factor when stores churn.
#include <gtest/gtest.h>

#include "test_support.h"

namespace obiswap {
namespace {

using runtime::Value;
using ::obiswap::testing::BuildClusteredList;
using ::obiswap::testing::MiddlewareWorld;
using ::obiswap::testing::RegisterNodeClass;
using ::obiswap::testing::SumList;

constexpr int kListLength = 12;
constexpr int64_t kListSum = kListLength * (kListLength - 1) / 2;

swap::SwappingManager::Options TwoReplicaOptions() {
  swap::SwappingManager::Options options;
  options.replication_factor = 2;
  return options;
}

/// The StoreNode a world-owned store list holds for `device`.
net::StoreNode* NodeFor(MiddlewareWorld& world, DeviceId device) {
  for (auto& store : world.stores) {
    if (store->device() == device) return store.get();
  }
  return nullptr;
}

TEST(ReplicationTest, SwapOutPlacesKReplicasOnDistinctDevices) {
  MiddlewareWorld world(TwoReplicaOptions());
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  net::StoreNode* store_a = world.AddStore(2, 1 << 20);
  net::StoreNode* store_b = world.AddStore(3, 1 << 20);
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     kListLength, kListLength, "head");

  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  const swap::SwapClusterInfo* info =
      world.manager.registry().Find(clusters[0]);
  ASSERT_EQ(info->replicas.size(), 2u);
  EXPECT_NE(info->replicas[0].device, info->replicas[1].device);
  EXPECT_NE(info->replicas[0].key, info->replicas[1].key);
  EXPECT_EQ(store_a->entry_count() + store_b->entry_count(), 2u);
  EXPECT_EQ(world.manager.stats().replicas_placed, 2u);
  EXPECT_EQ(world.manager.stats().under_replicated_outs, 0u);

  // Swap-in retains both replicas as the cluster's clean image; the first
  // write invalidates it and broadcasts the drop to every replica.
  ASSERT_TRUE(world.manager.SwapIn(clusters[0]).ok());
  EXPECT_EQ(store_a->entry_count() + store_b->entry_count(), 2u);
  ASSERT_NE(info->ActiveReplicas(), nullptr);
  EXPECT_EQ(info->ActiveReplicas()->size(), 2u);
  EXPECT_EQ(*SumList(world.rt, "head"), kListSum);  // walk reads, no writes
  world.manager.MarkDirty(clusters[0]);
  EXPECT_EQ(store_a->entry_count() + store_b->entry_count(), 0u);
  EXPECT_EQ(world.manager.pending_drop_count(), 0u);
}

TEST(ReplicationTest, SwapInSurvivesPermanentPrimaryDeparture) {
  MiddlewareWorld world(TwoReplicaOptions());
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 1 << 20);
  world.AddStore(3, 1 << 20);
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     kListLength, kListLength, "head");

  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  const swap::SwapClusterInfo* info =
      world.manager.registry().Find(clusters[0]);
  DeviceId primary = info->replicas[0].device;
  DeviceId survivor = info->replicas[1].device;
  world.network.SetOnline(primary, false);

  ASSERT_TRUE(world.manager.SwapIn(clusters[0]).ok());
  EXPECT_EQ(*SumList(world.rt, "head"), kListSum);
  // Both replicas are retained as the clean image (the primary's copy is
  // out of range, not gone). The first write invalidates the image: the
  // survivor's copy drops immediately, the departed primary's is parked.
  EXPECT_EQ(NodeFor(world, survivor)->entry_count(), 1u);
  world.manager.MarkDirty(clusters[0]);
  EXPECT_EQ(NodeFor(world, survivor)->entry_count(), 0u);
  EXPECT_EQ(world.manager.pending_drop_count(), 1u);
  EXPECT_EQ(world.manager.stats().drops_deferred, 1u);
  EXPECT_EQ(NodeFor(world, primary)->entry_count(), 1u);

  // ...and drained when it reconnects.
  world.network.SetOnline(primary, true);
  EXPECT_EQ(world.manager.FlushPendingDrops(), 1u);
  EXPECT_EQ(world.manager.pending_drop_count(), 0u);
  EXPECT_EQ(NodeFor(world, primary)->entry_count(), 0u);
}

TEST(ReplicationTest, CorruptedFirstReplicaFailsOverWithDataLossCounted) {
  MiddlewareWorld world(TwoReplicaOptions());
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 1 << 20);
  world.AddStore(3, 1 << 20);
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     kListLength, kListLength, "head");

  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  const swap::SwapClusterInfo* info =
      world.manager.registry().Find(clusters[0]);
  // At-rest corruption on the replica the fetch order tries first.
  ASSERT_TRUE(NodeFor(world, info->replicas[0].device)
                  ->CorruptStoredPayload(info->replicas[0].key)
                  .ok());

  ASSERT_TRUE(world.manager.SwapIn(clusters[0]).ok());
  EXPECT_GE(world.manager.stats().data_loss_failovers, 1u);
  EXPECT_EQ(world.manager.stats().failover_fetches, 1u);
  EXPECT_EQ(*SumList(world.rt, "head"), kListSum);
}

TEST(ReplicationTest, CrashedStoreFailsOverToSurvivor) {
  MiddlewareWorld world(TwoReplicaOptions());
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 1 << 20);
  world.AddStore(3, 1 << 20);
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     kListLength, kListLength, "head");

  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  const swap::SwapClusterInfo* info =
      world.manager.registry().Find(clusters[0]);
  net::StoreNode* primary = NodeFor(world, info->replicas[0].device);
  net::StoreNode::FaultPlan plan;
  plan.crash_after_ops = 0;  // the very next operation kills it
  primary->InjectFaults(plan);

  ASSERT_TRUE(world.manager.SwapIn(clusters[0]).ok());
  EXPECT_TRUE(primary->crashed());
  EXPECT_GE(primary->stats().faulted_ops, 1u);
  EXPECT_EQ(world.manager.stats().failover_fetches, 1u);
  EXPECT_EQ(*SumList(world.rt, "head"), kListSum);
}

TEST(DurabilityMonitorTest, UnderReplicatedSwapOutIsToppedUpByPoll) {
  MiddlewareWorld world(TwoReplicaOptions());
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 1 << 20);  // only one store in range at swap-out time
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     kListLength, kListLength, "head");

  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  EXPECT_EQ(world.manager.stats().under_replicated_outs, 1u);
  const swap::SwapClusterInfo* info =
      world.manager.registry().Find(clusters[0]);
  ASSERT_EQ(info->replicas.size(), 1u);

  int re_replicated_events = 0;
  world.bus.Subscribe(context::kEventReReplicated,
                      [&](const context::Event&) { ++re_replicated_events; });
  swap::DurabilityMonitor monitor(world.manager, world.discovery,
                                  MiddlewareWorld::kDevice, world.bus);
  net::StoreNode* late_store = world.AddStore(3, 1 << 20);
  monitor.Poll();

  EXPECT_EQ(info->replicas.size(), 2u);
  EXPECT_EQ(late_store->entry_count(), 1u);
  EXPECT_EQ(re_replicated_events, 1);
  EXPECT_EQ(monitor.stats().clusters_re_replicated, 1u);
  EXPECT_EQ(world.manager.stats().re_replications, 1u);
  EXPECT_GT(world.manager.stats().bytes_re_replicated, 0u);
  ASSERT_TRUE(world.manager.SwapIn(clusters[0]).ok());
  EXPECT_EQ(*SumList(world.rt, "head"), kListSum);
}

TEST(DurabilityMonitorTest, SilentDepartureIsPresumedAfterMissedPolls) {
  MiddlewareWorld world(TwoReplicaOptions());
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 1 << 20);
  world.AddStore(3, 1 << 20);
  world.AddStore(4, 1 << 20);
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     kListLength, kListLength, "head");
  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  const swap::SwapClusterInfo* info =
      world.manager.registry().Find(clusters[0]);
  DeviceId lost = info->replicas[0].device;

  int departed_events = 0, lost_events = 0;
  world.bus.Subscribe(context::kEventStoreDeparted,
                      [&](const context::Event&) { ++departed_events; });
  world.bus.Subscribe(context::kEventReplicaLost,
                      [&](const context::Event&) { ++lost_events; });
  swap::DurabilityMonitor monitor(world.manager, world.discovery,
                                  MiddlewareWorld::kDevice, world.bus);
  monitor.Poll();  // baseline: everyone reachable

  // The store vanishes without withdrawing — radio silence, permanently.
  world.network.RemoveDevice(lost);
  monitor.Poll();
  monitor.Poll();
  EXPECT_EQ(departed_events, 0);  // still within the miss threshold
  monitor.Poll();                 // third consecutive miss: presumed gone
  EXPECT_EQ(departed_events, 1);
  EXPECT_EQ(lost_events, 1);
  EXPECT_EQ(monitor.stats().replicas_lost, 1u);
  EXPECT_EQ(world.manager.stats().replicas_forgotten, 1u);

  // The same poll already re-replicated onto the spare store.
  ASSERT_EQ(info->replicas.size(), 2u);
  EXPECT_FALSE(info->HasReplicaOn(lost));
  monitor.Poll();  // no re-fire while the silence streak continues
  EXPECT_EQ(departed_events, 1);

  ASSERT_TRUE(world.manager.SwapIn(clusters[0]).ok());
  EXPECT_EQ(*SumList(world.rt, "head"), kListSum);
}

TEST(DurabilityMonitorTest, WithdrawnAnnouncementCountsAsDeparture) {
  MiddlewareWorld world(TwoReplicaOptions());
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 1 << 20);
  world.AddStore(3, 1 << 20);
  world.AddStore(4, 1 << 20);
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     kListLength, kListLength, "head");
  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  const swap::SwapClusterInfo* info =
      world.manager.registry().Find(clusters[0]);
  DeviceId leaving = info->replicas[0].device;

  swap::DurabilityMonitor monitor(world.manager, world.discovery,
                                  MiddlewareWorld::kDevice, world.bus);
  monitor.Poll();
  world.discovery.Withdraw(leaving);
  monitor.Poll();  // withdrawal is an explicit departure: no miss window

  EXPECT_EQ(monitor.stats().stores_departed, 1u);
  ASSERT_EQ(info->replicas.size(), 2u);
  EXPECT_FALSE(info->HasReplicaOn(leaving));
  ASSERT_TRUE(world.manager.SwapIn(clusters[0]).ok());
  EXPECT_EQ(*SumList(world.rt, "head"), kListSum);
}

TEST(DurabilityMonitorTest, GracefulWithdrawalEvacuatesReplicas) {
  MiddlewareWorld world;  // K = 1: evacuation must move the only copy
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 1 << 20);
  world.AddStore(3, 1 << 20);
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     kListLength, kListLength, "head");
  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  const swap::SwapClusterInfo* info =
      world.manager.registry().Find(clusters[0]);
  ASSERT_EQ(info->replicas.size(), 1u);
  DeviceId leaving = info->replicas[0].device;

  swap::DurabilityMonitor monitor(world.manager, world.discovery,
                                  MiddlewareWorld::kDevice, world.bus);
  Result<size_t> moved = monitor.OnStoreWithdrawing(leaving);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, 1u);
  EXPECT_EQ(monitor.stats().evacuated_replicas, 1u);
  ASSERT_EQ(info->replicas.size(), 1u);
  EXPECT_NE(info->replicas[0].device, leaving);
  EXPECT_EQ(NodeFor(world, leaving)->entry_count(), 0u);

  world.discovery.Withdraw(leaving);
  world.network.RemoveDevice(leaving);
  ASSERT_TRUE(world.manager.SwapIn(clusters[0]).ok());
  EXPECT_EQ(*SumList(world.rt, "head"), kListSum);
}

TEST(DurabilityMonitorTest, CleanImageReplicaLossIsReReplicated) {
  // A loaded-but-clean cluster's retained store copies are maintained like
  // swapped replicas: losing one to churn tops the image back up to K, so
  // the zero-transfer re-swap-out keeps working.
  MiddlewareWorld world(TwoReplicaOptions());
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 1 << 20);
  world.AddStore(3, 1 << 20);
  world.AddStore(4, 1 << 20);
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     kListLength, kListLength, "head");
  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  ASSERT_TRUE(world.manager.SwapIn(clusters[0]).ok());
  const swap::SwapClusterInfo* info =
      world.manager.registry().Find(clusters[0]);
  ASSERT_NE(info->ActiveReplicas(), nullptr);
  ASSERT_EQ(info->ActiveReplicas()->size(), 2u);
  DeviceId lost = (*info->ActiveReplicas())[0].device;

  swap::DurabilityMonitor monitor(world.manager, world.discovery,
                                  MiddlewareWorld::kDevice, world.bus);
  monitor.Poll();
  world.discovery.Withdraw(lost);
  monitor.Poll();  // forget the image replica, then top back up to K

  ASSERT_NE(info->ActiveReplicas(), nullptr);
  EXPECT_EQ(info->ActiveReplicas()->size(), 2u);
  EXPECT_FALSE(info->HasReplicaOn(lost));
  EXPECT_EQ(world.manager.stats().replicas_forgotten, 1u);
  EXPECT_EQ(world.manager.stats().re_replications, 1u);

  // The refreshed image still powers a zero-transfer re-swap-out.
  uint64_t shipped = world.manager.stats().bytes_swapped_out;
  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  EXPECT_EQ(world.manager.stats().clean_swap_outs, 1u);
  EXPECT_EQ(world.manager.stats().bytes_swapped_out, shipped);
  EXPECT_EQ(*SumList(world.rt, "head"), kListSum);
}

TEST(DurabilityMonitorTest, CleanImageLosingAllReplicasIsInvalidated) {
  // When churn eats the image's last replica there is nothing to reuse:
  // the image must be invalidated — the next swap-out re-serializes.
  // Never a stale fetch.
  MiddlewareWorld world;  // K = 1: the image holds exactly one replica
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 1 << 20);
  world.AddStore(3, 1 << 20);
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     kListLength, kListLength, "head");
  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  ASSERT_TRUE(world.manager.SwapIn(clusters[0]).ok());
  const swap::SwapClusterInfo* info =
      world.manager.registry().Find(clusters[0]);
  ASSERT_NE(info->ActiveReplicas(), nullptr);
  ASSERT_EQ(info->ActiveReplicas()->size(), 1u);
  DeviceId lost = (*info->ActiveReplicas())[0].device;

  swap::DurabilityMonitor monitor(world.manager, world.discovery,
                                  MiddlewareWorld::kDevice, world.bus);
  monitor.Poll();
  world.discovery.Withdraw(lost);
  monitor.Poll();

  EXPECT_EQ(info->ActiveReplicas(), nullptr);
  EXPECT_FALSE(info->clean_image.has_value());
  EXPECT_GE(world.manager.stats().clean_image_invalidations, 1u);

  uint64_t shipped = world.manager.stats().bytes_swapped_out;
  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  EXPECT_EQ(world.manager.stats().clean_swap_outs, 0u);
  EXPECT_GT(world.manager.stats().bytes_swapped_out, shipped);
  EXPECT_FALSE(info->HasReplicaOn(lost));
  EXPECT_EQ(*SumList(world.rt, "head"), kListSum);
}

TEST(DurabilityMonitorTest, DeltaBaseGroupIsMaintainedUnderChurn) {
  // A delta-swapped cluster is two store groups: the shipped delta and the
  // full base document it applies to. Stores holding only a base copy must
  // be maintained like any other replica holder.
  swap::SwappingManager::Options options = TwoReplicaOptions();
  options.wire_format = "binary";
  options.delta_swap_out = true;
  options.swap_in_cache_bytes = 64 * 1024;
  MiddlewareWorld world(options);
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  for (uint32_t device = 2; device <= 6; ++device)
    world.AddStore(device, 1 << 20);
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     kListLength, kListLength, "head");
  swap::SwappingManager& m = world.manager;
  ASSERT_TRUE(m.SwapOut(clusters[0]).ok());
  ASSERT_TRUE(m.SwapIn(clusters[0]).ok());
  Value head = *world.rt.GetGlobal("head");
  ASSERT_TRUE(world.rt.Invoke(head.ref(), "set_value", {Value::Int(100)}).ok());
  ASSERT_TRUE(m.SwapOut(clusters[0]).ok());
  ASSERT_EQ(m.stats().delta_swap_outs, 1u);
  const swap::SwapClusterInfo* info = m.registry().Find(clusters[0]);
  ASSERT_TRUE(info->DeltaSwapped());
  ASSERT_EQ(info->base_replicas.size(), 2u);
  // The delta lands on the emptiest stores, so the base is on two others.
  std::vector<DeviceId> base_only;
  for (const swap::ReplicaLocation& base : info->base_replicas) {
    bool shared = false;
    for (const swap::ReplicaLocation& delta : info->replicas)
      shared = shared || delta.device == base.device;
    if (!shared) base_only.push_back(base.device);
  }
  ASSERT_EQ(base_only.size(), 2u);
  auto base_on = [&](DeviceId device) {
    for (const swap::ReplicaLocation& replica : info->base_replicas)
      if (replica.device == device) return true;
    return false;
  };

  swap::DurabilityMonitor monitor(world.manager, world.discovery,
                                  MiddlewareWorld::kDevice, world.bus);
  monitor.Poll();
  for (DeviceId leaving : base_only) {
    world.discovery.Withdraw(leaving);
    monitor.Poll();  // forgets the base copy, then tops the group back up
    EXPECT_FALSE(base_on(leaving)) << "device " << leaving.value();
    EXPECT_FALSE(info->HasReplicaOn(leaving));
    EXPECT_EQ(info->base_replicas.size(), 2u);
    EXPECT_EQ(info->replicas.size(), 2u);
  }
  EXPECT_EQ(monitor.stats().replicas_lost, 2u);
  EXPECT_EQ(m.stats().re_replications, 2u);

  // Both original base stores are gone: the cold-cache fault must merge
  // the delta over a re-replicated base copy.
  m.set_swap_in_cache_bytes(0);
  m.set_swap_in_cache_bytes(64 * 1024);
  Status in = m.SwapIn(clusters[0]);
  ASSERT_TRUE(in.ok()) << in.ToString();
  EXPECT_EQ(*SumList(world.rt, "head"), kListSum + 100);
}

// The reverse index learns about replica changes only from the bus, so
// the manager's maintenance paths must publish even when called directly.

TEST(DurabilityIndexTest, DirectForgetReplicaIsRepairedByTheNextPoll) {
  MiddlewareWorld world(TwoReplicaOptions());
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  for (uint32_t id = 2; id <= 4; ++id) world.AddStore(id, 1 << 20);
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     kListLength, kListLength, "head");
  swap::DurabilityMonitor monitor(world.manager, world.discovery,
                                  MiddlewareWorld::kDevice, world.bus);
  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  monitor.Poll();
  const swap::SwapClusterInfo* info =
      world.manager.registry().Find(clusters[0]);
  ASSERT_EQ(info->replicas.size(), 2u);

  ASSERT_EQ(world.manager.ForgetReplica(clusters[0], info->replicas[0].device),
            1u);
  ASSERT_EQ(info->replicas.size(), 1u);
  monitor.Poll();
  EXPECT_EQ(info->replicas.size(), 2u);
  EXPECT_EQ(monitor.stats().clusters_re_replicated, 1u);
}

TEST(DurabilityIndexTest, DirectEvacuationIndexesTheNewHolder) {
  MiddlewareWorld world(TwoReplicaOptions());
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  for (uint32_t id = 2; id <= 5; ++id) world.AddStore(id, 1 << 20);
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     kListLength, kListLength, "head");
  swap::DurabilityMonitor monitor(world.manager, world.discovery,
                                  MiddlewareWorld::kDevice, world.bus);
  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  monitor.Poll();
  const swap::SwapClusterInfo* info =
      world.manager.registry().Find(clusters[0]);
  ASSERT_EQ(info->replicas.size(), 2u);

  const DeviceId leaving = info->replicas[0].device;
  Result<size_t> moved = world.manager.EvacuateReplicas(leaving);
  ASSERT_TRUE(moved.ok());
  ASSERT_EQ(*moved, 1u);
  const DeviceId holder = info->replicas[0].device;
  ASSERT_NE(holder, leaving);
  monitor.Poll();

  // The new holder departs: the monitor must know it held the replica.
  world.discovery.Withdraw(holder);
  monitor.Poll();
  EXPECT_EQ(monitor.stats().stores_departed, 1u);
  EXPECT_EQ(monitor.stats().replicas_lost, 1u);
  EXPECT_FALSE(info->HasReplicaOn(holder));
  EXPECT_EQ(info->replicas.size(), 2u);  // topped up in the same poll
}

TEST(DurabilityIndexDeathTest, PollOnAnotherBusThanTheManagerAborts) {
  MiddlewareWorld world;
  context::EventBus other;
  swap::DurabilityMonitor monitor(world.manager, world.discovery,
                                  MiddlewareWorld::kDevice, other);
  EXPECT_DEATH(monitor.Poll(), "CHECK");
}

TEST(DurabilityTest, FinalizerDropBroadcastsToAllReplicas) {
  MiddlewareWorld world;
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  net::StoreNode* store_a = world.AddStore(2, 1 << 20);
  net::StoreNode* store_b = world.AddStore(3, 1 << 20);
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     kListLength, kListLength, "head");
  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());

  // Raise K after the fact and top up, so the cluster's replicas carry
  // *different* keys than the original swap-out placed — the finalizer
  // must drop through the registry's current list (epoch match), not a
  // location baked into the replacement-object.
  world.manager.set_replication_factor(2);
  Result<size_t> added = world.manager.ReReplicate(clusters[0]);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 1u);
  EXPECT_EQ(store_a->entry_count() + store_b->entry_count(), 2u);

  world.rt.RemoveGlobal("head");
  world.rt.heap().Collect();

  EXPECT_EQ(world.manager.StateOf(clusters[0]), swap::SwapState::kDropped);
  EXPECT_EQ(world.manager.stats().drops, 2u);
  EXPECT_EQ(store_a->entry_count() + store_b->entry_count(), 0u);
}

TEST(StoreClientTest, RetriedStoreOfIdenticalContentIsIdempotent) {
  MiddlewareWorld world;
  net::StoreNode* store = world.AddStore(2, 1 << 20);
  SwapKey key(42);

  ASSERT_TRUE(world.client.Store(store->device(), key, "payload-a").ok());
  // A duplicate delivery of the same envelope (lost response, client
  // retried) must read as success, not kAlreadyExists...
  EXPECT_TRUE(world.client.Store(store->device(), key, "payload-a").ok());
  EXPECT_EQ(store->entry_count(), 1u);
  // ...while a genuine key collision with different content still fails.
  Status clash = world.client.Store(store->device(), key, "payload-b");
  EXPECT_EQ(clash.code(), StatusCode::kAlreadyExists);
}

TEST(StoreClientTest, RetryBackoffAdvancesVirtualClock) {
  MiddlewareWorld world;
  net::StoreNode* store = world.AddStore(2, 1 << 20);
  net::LinkParams dead;
  dead.loss_rate = 1.0;  // every attempt is lost: the client exhausts retries
  world.network.SetLinkParams(MiddlewareWorld::kDevice, store->device(), dead);

  uint64_t before = world.network.clock().now_us();
  Status status = world.client.Store(store->device(), SwapKey(7), "x");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  // Three attempts, exponential waits before the 2nd and 3rd: base + 2*base,
  // each stretched by at most 50% deterministic per-key jitter.
  uint64_t base = world.client.retry_backoff_us();
  EXPECT_GE(world.client.stats().backoff_us, 3 * base);
  EXPECT_LE(world.client.stats().backoff_us, 3 * base + (3 * base) / 2);
  EXPECT_GE(world.network.clock().now_us() - before, 3 * base);
}

TEST(NetworkTest, OutageWindowsScriptDeterministicFlapping) {
  net::Network network(1);
  DeviceId device(9);
  network.AddDevice(device);
  network.FlapDevice(device, /*first_down_us=*/100, /*down_us=*/50,
                     /*period_us=*/200, /*count=*/2);

  EXPECT_TRUE(network.IsOnline(device));  // t=0: before the first window
  network.clock().Advance(120);           // t=120: inside window 1
  EXPECT_TRUE(network.InOutage(device));
  EXPECT_FALSE(network.IsOnline(device));
  network.clock().Advance(60);            // t=180: between windows
  EXPECT_TRUE(network.IsOnline(device));
  network.clock().Advance(140);           // t=320: inside window 2
  EXPECT_FALSE(network.IsOnline(device));
  network.ClearOutages(device);
  EXPECT_TRUE(network.IsOnline(device));
}

TEST(PolicyTest, StoreChurnRaisesReplicationFactorThroughRule) {
  MiddlewareWorld world;
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 1 << 20);
  world.AddStore(3, 1 << 20);
  (void)BuildClusteredList(world.rt, world.manager, node_cls, kListLength,
                           kListLength, "head");

  context::PropertyRegistry props;
  policy::PolicyEngine engine(world.bus, props);
  ASSERT_TRUE(policy::RegisterSwapActions(engine, world.rt, world.manager)
                  .ok());
  Result<size_t> rules = engine.LoadXml(R"(
    <policies>
      <policy name="replicate-harder" on="store-departed"
              when="swap.store_churn ge 1">
        <action name="set-replication-factor">
          <param name="factor" value="3"/>
        </action>
      </policy>
    </policies>)");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(*rules, 1u);

  swap::DurabilityMonitor monitor(world.manager, world.discovery,
                                  MiddlewareWorld::kDevice, world.bus,
                                  &props);
  monitor.Poll();
  ASSERT_EQ(world.manager.options().replication_factor, 1u);
  world.discovery.Withdraw(DeviceId(2));
  monitor.Poll();

  EXPECT_EQ(engine.stats().actions_fired, 1u);
  EXPECT_EQ(world.manager.options().replication_factor, 3u);
}

TEST(PolicyTest, ReplicationFactorRaisedMidPollIsRepairedThatPoll) {
  MiddlewareWorld world;  // K = 1
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  for (uint32_t id = 2; id <= 4; ++id) world.AddStore(id, 1 << 20);
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     kListLength, kListLength, "head");
  context::PropertyRegistry props;
  policy::PolicyEngine engine(world.bus, props);
  ASSERT_TRUE(policy::RegisterSwapActions(engine, world.rt, world.manager)
                  .ok());
  ASSERT_TRUE(engine.LoadXml(R"(
    <policies>
      <policy name="replicate-harder" on="store-departed">
        <action name="set-replication-factor">
          <param name="factor" value="2"/>
        </action>
      </policy>
    </policies>)").ok());
  swap::DurabilityMonitor monitor(world.manager, world.discovery,
                                  MiddlewareWorld::kDevice, world.bus,
                                  &props);
  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  monitor.Poll();
  const swap::SwapClusterInfo* info =
      world.manager.registry().Find(clusters[0]);
  ASSERT_EQ(info->replicas.size(), 1u);

  // A store without the replica leaves; the rule raises K to 2 inside the
  // poll, whose sweep must already work to the new K.
  for (uint32_t id = 2; id <= 4; ++id) {
    if (!info->HasReplicaOn(DeviceId(id))) {
      world.discovery.Withdraw(DeviceId(id));
      break;
    }
  }
  monitor.Poll();
  EXPECT_EQ(world.manager.options().replication_factor, 2u);
  EXPECT_EQ(info->replicas.size(), 2u);
  EXPECT_EQ(*props.GetInt("swap.under_replicated"), 0);
}

}  // namespace
}  // namespace obiswap
