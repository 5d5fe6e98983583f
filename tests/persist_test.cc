// Tests for local persistence: FlashStore, the swapping manager's local
// fallback, and the runtime's extended weak references.
#include <gtest/gtest.h>

#include "test_support.h"

namespace obiswap {
namespace {

using persist::FlashParams;
using persist::FlashStore;
using runtime::LocalScope;
using runtime::Object;
using runtime::Value;
using ::obiswap::testing::BuildClusteredList;
using ::obiswap::testing::MiddlewareWorld;
using ::obiswap::testing::RegisterNodeClass;
using ::obiswap::testing::SumList;

// ------------------------------------------------------------ FlashStore --

TEST(FlashStoreTest, StoreFetchDrop) {
  net::SimClock clock;
  FlashStore flash(DeviceId(1), 4096, clock);
  ASSERT_TRUE(flash.Store(SwapKey(1), "payload").ok());
  EXPECT_TRUE(flash.Contains(SwapKey(1)));
  EXPECT_EQ(*flash.Fetch(SwapKey(1)), "payload");
  ASSERT_TRUE(flash.Drop(SwapKey(1)).ok());
  EXPECT_FALSE(flash.Contains(SwapKey(1)));
  EXPECT_EQ(flash.used_bytes(), 0u);
}

TEST(FlashStoreTest, CapacityAndDuplicates) {
  net::SimClock clock;
  FlashStore flash(DeviceId(1), 10, clock);
  ASSERT_TRUE(flash.Store(SwapKey(1), "12345").ok());
  EXPECT_EQ(flash.Store(SwapKey(2), "123456").code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(flash.Store(SwapKey(1), "12345").ok());  // idempotent
  // Overwriting an existing key replaces the entry in place (the intent
  // journal re-persists its image under one reserved key).
  ASSERT_TRUE(flash.Store(SwapKey(1), "other").ok());
  EXPECT_EQ(*flash.Fetch(SwapKey(1)), "other");
  EXPECT_FALSE(flash.Fetch(SwapKey(9)).ok());
  EXPECT_FALSE(flash.Drop(SwapKey(9)).ok());
}

TEST(FlashStoreTest, OverwriteAccountsBySizeDelta) {
  net::SimClock clock;
  persist::FlashParams params;
  params.op_latency_us = 0;
  FlashStore flash(DeviceId(1), 100, clock, params);
  ASSERT_TRUE(flash.Store(SwapKey(1), std::string(40, 'a')).ok());
  EXPECT_EQ(flash.used_bytes(), 40u);
  EXPECT_EQ(flash.stats().bytes_written, 40u);

  // Re-store with different content of a larger size: used_bytes moves by
  // the delta (no double-count), wear is charged for the bytes written.
  ASSERT_TRUE(flash.Store(SwapKey(1), std::string(60, 'b')).ok());
  EXPECT_EQ(flash.used_bytes(), 60u);
  EXPECT_EQ(flash.entry_count(), 1u);
  EXPECT_EQ(flash.stats().bytes_written, 40u + 60u);
  EXPECT_EQ(flash.stats().overwrites, 1u);

  // Shrinking overwrite frees the difference.
  ASSERT_TRUE(flash.Store(SwapKey(1), std::string(10, 'c')).ok());
  EXPECT_EQ(flash.used_bytes(), 10u);
  EXPECT_EQ(flash.stats().overwrites, 2u);

  // Capacity check is against the post-replacement footprint: a 100-byte
  // payload fits because the old 10 bytes are reclaimed by the same op...
  ASSERT_TRUE(flash.Store(SwapKey(1), std::string(100, 'd')).ok());
  EXPECT_EQ(flash.used_bytes(), 100u);
  // ...but a second key cannot squeeze in, and a failed store leaves the
  // old entry untouched.
  EXPECT_EQ(flash.Store(SwapKey(2), "x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(flash.Fetch(SwapKey(1))->size(), 100u);

  // Identical re-store stays free: no wear, no overwrite counted.
  const uint64_t wear = flash.stats().bytes_written;
  const uint64_t overwrites = flash.stats().overwrites;
  ASSERT_TRUE(flash.Store(SwapKey(1), std::string(100, 'd')).ok());
  EXPECT_EQ(flash.stats().bytes_written, wear);
  EXPECT_EQ(flash.stats().overwrites, overwrites);
}

TEST(FlashStoreTest, CapacityIsReconfigurable) {
  net::SimClock clock;
  FlashStore flash(DeviceId(1), 10, clock);
  ASSERT_TRUE(flash.Store(SwapKey(1), "12345678").ok());

  // Growing admits what previously overflowed.
  EXPECT_EQ(flash.Store(SwapKey(2), "1234").code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(flash.set_capacity_bytes(20).ok());
  EXPECT_EQ(flash.capacity_bytes(), 20u);
  ASSERT_TRUE(flash.Store(SwapKey(2), "1234").ok());
  EXPECT_EQ(flash.free_bytes(), 8u);

  // Shrinking below the stored bytes is refused and changes nothing; the
  // store never drops data to fit a new partition size.
  EXPECT_EQ(flash.set_capacity_bytes(11).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(flash.capacity_bytes(), 20u);
  EXPECT_TRUE(flash.Contains(SwapKey(1)));
  EXPECT_TRUE(flash.Contains(SwapKey(2)));

  // Shrinking to exactly the stored bytes is allowed — the store is full.
  ASSERT_TRUE(flash.set_capacity_bytes(12).ok());
  EXPECT_EQ(flash.free_bytes(), 0u);
  EXPECT_EQ(flash.Store(SwapKey(3), "x").code(),
            StatusCode::kResourceExhausted);
}

TEST(FlashStoreTest, AsymmetricAccessCosts) {
  net::SimClock clock;
  FlashParams params;
  params.op_latency_us = 0;
  params.read_us_per_kib = 100;
  params.write_us_per_kib = 1000;
  FlashStore flash(DeviceId(1), 1 << 20, clock, params);
  std::string blob(10 * 1024, 'x');
  uint64_t t0 = clock.now_us();
  ASSERT_TRUE(flash.Store(SwapKey(1), blob).ok());
  uint64_t write_cost = clock.now_us() - t0;
  t0 = clock.now_us();
  ASSERT_TRUE(flash.Fetch(SwapKey(1)).ok());
  uint64_t read_cost = clock.now_us() - t0;
  EXPECT_EQ(write_cost, 10u * 1000);
  EXPECT_EQ(read_cost, 10u * 100);
  EXPECT_EQ(flash.stats().bytes_written, blob.size());
}

// --------------------------------------------------- local swap fallback --

TEST(LocalFallbackTest, SwapsLocallyWhenNoDeviceNearby) {
  MiddlewareWorld world;  // NO stores added
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  FlashStore flash(MiddlewareWorld::kDevice, 1 << 20,
                   world.network.clock());
  world.manager.AttachLocalStore(&flash);
  auto clusters =
      BuildClusteredList(world.rt, world.manager, node_cls, 20, 10, "head");
  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  EXPECT_EQ(flash.entry_count(), 1u);
  EXPECT_EQ(world.manager.stats().local_swap_outs, 1u);
  // Transparent reload from flash. The flash entry is retained as a clean
  // image until the cluster is written.
  auto sum = SumList(world.rt, "head");
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(*sum, 190);
  EXPECT_EQ(flash.entry_count(), 1u);
  world.manager.MarkDirty(clusters[0]);
  EXPECT_EQ(flash.entry_count(), 0u);  // image invalidated, entry dropped
}

TEST(LocalFallbackTest, RemoteStorePreferredOverFlash) {
  MiddlewareWorld world;
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  net::StoreNode* remote = world.AddStore(2, 1 << 20);
  FlashStore flash(MiddlewareWorld::kDevice, 1 << 20,
                   world.network.clock());
  world.manager.AttachLocalStore(&flash);
  auto clusters =
      BuildClusteredList(world.rt, world.manager, node_cls, 10, 10, "head");
  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  EXPECT_EQ(remote->entry_count(), 1u);
  EXPECT_EQ(flash.entry_count(), 0u);
  EXPECT_EQ(world.manager.stats().local_swap_outs, 0u);
}

TEST(LocalFallbackTest, FlashTakesOverWhenStoresWanderOff) {
  MiddlewareWorld world;
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  net::StoreNode* remote = world.AddStore(2, 1 << 20);
  FlashStore flash(MiddlewareWorld::kDevice, 1 << 20,
                   world.network.clock());
  world.manager.AttachLocalStore(&flash);
  auto clusters =
      BuildClusteredList(world.rt, world.manager, node_cls, 20, 10, "head");
  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());  // -> remote
  world.network.SetOnline(remote->device(), false);
  ASSERT_TRUE(world.manager.SwapOut(clusters[1]).ok());  // -> flash
  EXPECT_EQ(flash.entry_count(), 1u);
  EXPECT_EQ(world.manager.stats().local_swap_outs, 1u);
  // Cluster 0 is unreachable on the offline remote; cluster 1 reloads from
  // flash regardless of connectivity.
  const swap::SwapClusterInfo* info1 =
      world.manager.registry().Find(clusters[1]);
  ASSERT_EQ(info1->replicas.size(), 1u);
  EXPECT_EQ(info1->replicas[0].device, MiddlewareWorld::kDevice);
  ASSERT_TRUE(world.manager.SwapIn(clusters[1]).ok());
  auto blocked = world.manager.SwapIn(clusters[0]);
  EXPECT_EQ(blocked.code(), StatusCode::kUnavailable);
}

TEST(LocalFallbackTest, FlashTakesOverAfterBoundedStoreFailures) {
  // Five stores in range that crash on every op, one more than the bound:
  // the walk gives up on them after the bound, and the flash still takes
  // the copy.
  constexpr size_t kBound =
      swap::ReplicaService::kMaxConsecutiveStoreFailures;
  MiddlewareWorld world;
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  std::vector<net::StoreNode*> dead;
  for (uint32_t device = 2; device <= kBound + 2; ++device) {
    net::StoreNode* node = world.AddStore(device, 1 << 20);
    net::StoreNode::FaultPlan plan;
    plan.crash_after_ops = 0;
    node->InjectFaults(plan);
    dead.push_back(node);
  }
  FlashStore flash(MiddlewareWorld::kDevice, 1 << 20,
                   world.network.clock());
  world.manager.AttachLocalStore(&flash);
  swap::FaultInjector faults;
  world.manager.AttachFaultInjector(&faults);
  auto clusters =
      BuildClusteredList(world.rt, world.manager, node_cls, 10, 10, "head");
  auto key = world.manager.SwapOut(clusters[0]);
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  size_t stores_tried = 0;
  for (net::StoreNode* node : dead) {
    if (node->stats().faulted_ops > 0) ++stores_tried;
  }
  EXPECT_EQ(stores_tried, kBound);
  EXPECT_EQ(flash.entry_count(), 1u);
  EXPECT_EQ(world.manager.stats().local_swap_outs, 1u);
  EXPECT_EQ(faults.hits("swap_out.local_store"), 1u);
  EXPECT_EQ(world.manager.StateOf(clusters[0]), swap::SwapState::kSwapped);
  // The flash copy takes the key minted for the failed store attempts —
  // the first this device minted — so the failures burned none.
  const swap::SwapClusterInfo* info =
      world.manager.registry().Find(clusters[0]);
  ASSERT_EQ(info->replicas.size(), 1u);
  EXPECT_EQ(info->replicas[0].key.value() & 0xffffffffu, 1u);
  EXPECT_EQ(*SumList(world.rt, "head"), 45);  // reloads from the flash
}

TEST(LocalFallbackTest, DropPathReachesFlash) {
  MiddlewareWorld world;
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  FlashStore flash(MiddlewareWorld::kDevice, 1 << 20,
                   world.network.clock());
  world.manager.AttachLocalStore(&flash);
  auto clusters =
      BuildClusteredList(world.rt, world.manager, node_cls, 10, 10, "head");
  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  world.rt.RemoveGlobal("head");
  world.rt.heap().Collect();
  world.rt.heap().Collect();
  EXPECT_EQ(flash.entry_count(), 0u);
  EXPECT_EQ(world.manager.StateOf(clusters[0]), swap::SwapState::kDropped);
}

TEST(LocalFallbackTest, FullFlashAndNoStoresFailsCleanly) {
  MiddlewareWorld world;
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  FlashStore flash(MiddlewareWorld::kDevice, 16, world.network.clock());
  world.manager.AttachLocalStore(&flash);
  auto clusters =
      BuildClusteredList(world.rt, world.manager, node_cls, 10, 10, "head");
  auto key = world.manager.SwapOut(clusters[0]);
  ASSERT_FALSE(key.ok());
  EXPECT_EQ(key.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(world.manager.StateOf(clusters[0]), swap::SwapState::kLoaded);
}

// ------------------------------------------------ extended weak references --

TEST(ExtendedWeakRefTest, PersistRunsOnceBeforeReclamation) {
  runtime::Runtime rt;
  const runtime::ClassInfo* cls = RegisterNodeClass(rt);
  int persisted = 0;
  int64_t seen_value = -1;
  runtime::WeakRef cell;
  {
    LocalScope scope(rt.heap());
    Object* obj = rt.New(cls);
    scope.Add(obj);
    ASSERT_TRUE(rt.SetField(obj, "value", Value::Int(42)).ok());
    cell = rt.heap().NewExtendedWeakRef(obj, [&](Object* dying) {
      ++persisted;
      seen_value = dying->RawSlot(1).as_int();  // object still intact
    });
    rt.heap().Collect();
    EXPECT_EQ(persisted, 0);  // still rooted
  }
  rt.heap().Collect();
  EXPECT_EQ(persisted, 1);
  EXPECT_EQ(seen_value, 42);
  EXPECT_TRUE(cell->cleared());
  rt.heap().Collect();
  EXPECT_EQ(persisted, 1);  // never again
  EXPECT_EQ(rt.heap().stats().extended_persists, 1u);
}

TEST(ExtendedWeakRefTest, DroppedHolderSkipsPersist) {
  runtime::Runtime rt;
  const runtime::ClassInfo* cls = RegisterNodeClass(rt);
  int persisted = 0;
  {
    runtime::WeakRef cell = rt.heap().NewExtendedWeakRef(
        rt.New(cls), [&](Object*) { ++persisted; });
    // Holder drops the extended reference before the object dies.
  }
  rt.heap().Collect();
  EXPECT_EQ(persisted, 0);
}

TEST(ExtendedWeakRefTest, PersistToFlashRoundTrip) {
  // The related-work use case end-to-end: persist a dying object's XML to
  // flash, then restore it.
  runtime::Runtime rt;
  const runtime::ClassInfo* cls = RegisterNodeClass(rt);
  net::SimClock clock;
  FlashStore flash(DeviceId(1), 1 << 20, clock);
  std::string saved_xml;
  runtime::WeakRef cell;  // the holder must keep the extended reference
  {
    LocalScope scope(rt.heap());
    Object* obj = rt.New(cls);
    scope.Add(obj);
    ASSERT_TRUE(rt.SetField(obj, "value", Value::Int(1234)).ok());
    cell = rt.heap().NewExtendedWeakRef(obj, [&](Object* dying) {
      auto describe =
          [](Object*) -> Result<serialization::ExternalRef> {
        return InternalError("self-contained");
      };
      auto doc = serialization::SerializeCluster(rt, 0, {dying}, describe);
      OBISWAP_CHECK(doc.ok());
      saved_xml = doc->payload;
    });
  }
  rt.heap().Collect();
  ASSERT_FALSE(saved_xml.empty());
  ASSERT_TRUE(flash.Store(SwapKey(1), saved_xml).ok());

  // Restore.
  auto resolve = [](const serialization::ExternalRef&) -> Result<Object*> {
    return InternalError("self-contained");
  };
  serialization::DeserializeOptions options;
  options.expected_id = 0;
  auto members =
      serialization::DeserializeCluster(rt, *flash.Fetch(SwapKey(1)),
                                        options, resolve);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ((*members)[0]->RawSlot(1).as_int(), 1234);
}

}  // namespace
}  // namespace obiswap
