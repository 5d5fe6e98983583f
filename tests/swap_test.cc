// Tests for the paper's core contribution: swap-cluster mediation rules,
// swap-out/swap-in, replacement-objects, GC cooperation, identity, and the
// assign() iteration optimization.
#include <gtest/gtest.h>

#include "test_support.h"

namespace obiswap::swap {
namespace {

using runtime::LocalScope;
using runtime::Object;
using runtime::ObjectKind;
using runtime::Value;
using ::obiswap::testing::BuildClusteredList;
using ::obiswap::testing::CheckMediationInvariant;
using ::obiswap::testing::MiddlewareWorld;
using ::obiswap::testing::RegisterNodeClass;
using ::obiswap::testing::SumList;

class SwapFixture : public ::testing::Test {
 protected:
  SwapFixture() : node_cls_(RegisterNodeClass(world_.rt)) {
    world_.AddStore(/*device=*/2, /*capacity=*/10 * 1024 * 1024);
  }

  /// Head proxy stored in the given global.
  Object* HeadRef(const std::string& global = "head") {
    return world_.rt.GetGlobal(global)->ref();
  }

  MiddlewareWorld world_;
  const runtime::ClassInfo* node_cls_;
};

// ------------------------------------------------------- mediation rules --

TEST_F(SwapFixture, SameClusterStoresStayRaw) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     /*n=*/5, /*per_cluster=*/5, "head");
  EXPECT_EQ(clusters.size(), 1u);
  // Only the global's cluster-0 proxy exists: intra-cluster links are raw.
  EXPECT_EQ(world_.manager.stats().proxies_created, 1u);
  EXPECT_EQ(CheckMediationInvariant(world_.rt), "");
}

TEST_F(SwapFixture, CrossClusterStoresGetProxies) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     /*n=*/10, /*per_cluster=*/5, "head");
  EXPECT_EQ(clusters.size(), 2u);
  // One boundary proxy (node4 -> node5) + the head's cluster-0 proxy.
  EXPECT_EQ(world_.manager.stats().proxies_created, 2u);
  EXPECT_EQ(CheckMediationInvariant(world_.rt), "");
}

TEST_F(SwapFixture, GlobalStoresAreCluster0Mediated) {
  BuildClusteredList(world_.rt, world_.manager, node_cls_, 3, 3, "head");
  Object* head = HeadRef();
  ASSERT_TRUE(IsSwapProxy(head));
  EXPECT_EQ(ProxySource(head), kSwapCluster0);
}

TEST_F(SwapFixture, ProxyReusedAcrossSamePair) {
  // Two distinct fields in cluster A referencing the same object in B reuse
  // one proxy ("only a swap-cluster-proxy is required").
  SwapClusterId a = world_.manager.NewSwapCluster();
  SwapClusterId b = world_.manager.NewSwapCluster();
  LocalScope scope(world_.rt.heap());
  Object* holder1 = world_.rt.New(node_cls_);
  Object* holder2 = world_.rt.New(node_cls_);
  Object* target = world_.rt.New(node_cls_);
  scope.Add(holder1);
  scope.Add(holder2);
  scope.Add(target);
  ASSERT_TRUE(world_.manager.Place(holder1, a).ok());
  ASSERT_TRUE(world_.manager.Place(holder2, a).ok());
  ASSERT_TRUE(world_.manager.Place(target, b).ok());
  ASSERT_TRUE(world_.rt.SetField(holder1, "next", Value::Ref(target)).ok());
  ASSERT_TRUE(world_.rt.SetField(holder2, "next", Value::Ref(target)).ok());
  EXPECT_EQ(world_.rt.GetFieldAt(holder1, 0).ref(),
            world_.rt.GetFieldAt(holder2, 0).ref());
  EXPECT_EQ(world_.manager.stats().proxies_created, 1u);
  EXPECT_GE(world_.manager.stats().proxies_reused, 1u);
}

TEST_F(SwapFixture, DifferentSourcePairsGetDifferentProxies) {
  SwapClusterId a = world_.manager.NewSwapCluster();
  SwapClusterId b = world_.manager.NewSwapCluster();
  SwapClusterId c = world_.manager.NewSwapCluster();
  LocalScope scope(world_.rt.heap());
  Object* in_a = world_.rt.New(node_cls_);
  Object* in_b = world_.rt.New(node_cls_);
  Object* target = world_.rt.New(node_cls_);
  scope.Add(in_a);
  scope.Add(in_b);
  scope.Add(target);
  ASSERT_TRUE(world_.manager.Place(in_a, a).ok());
  ASSERT_TRUE(world_.manager.Place(in_b, b).ok());
  ASSERT_TRUE(world_.manager.Place(target, c).ok());
  ASSERT_TRUE(world_.rt.SetField(in_a, "next", Value::Ref(target)).ok());
  ASSERT_TRUE(world_.rt.SetField(in_b, "next", Value::Ref(target)).ok());
  // "an object in swap-cluster-X, if referenced from two different
  // swap-clusters, will be necessarily represented by two different
  // swap-cluster-proxies".
  EXPECT_NE(world_.rt.GetFieldAt(in_a, 0).ref(),
            world_.rt.GetFieldAt(in_b, 0).ref());
  EXPECT_EQ(world_.manager.stats().proxies_created, 2u);
}

TEST_F(SwapFixture, StoringProxyBackIntoItsTargetClusterDismantles) {
  SwapClusterId a = world_.manager.NewSwapCluster();
  SwapClusterId b = world_.manager.NewSwapCluster();
  LocalScope scope(world_.rt.heap());
  Object* in_a = world_.rt.New(node_cls_);
  Object* in_b = world_.rt.New(node_cls_);
  Object* also_in_b = world_.rt.New(node_cls_);
  scope.Add(in_a);
  scope.Add(in_b);
  scope.Add(also_in_b);
  ASSERT_TRUE(world_.manager.Place(in_a, a).ok());
  ASSERT_TRUE(world_.manager.Place(in_b, b).ok());
  ASSERT_TRUE(world_.manager.Place(also_in_b, b).ok());
  // a -> b proxy.
  ASSERT_TRUE(world_.rt.SetField(in_a, "next", Value::Ref(in_b)).ok());
  Object* proxy = world_.rt.GetFieldAt(in_a, 0).ref();
  ASSERT_TRUE(IsSwapProxy(proxy));
  // Handing that proxy to an object *inside* b dismantles it (rule iii).
  ASSERT_TRUE(world_.rt.SetField(also_in_b, "next", Value::Ref(proxy)).ok());
  EXPECT_EQ(world_.rt.GetFieldAt(also_in_b, 0).ref(), in_b);
  EXPECT_GE(world_.manager.stats().proxies_dismantled, 1u);
}

TEST_F(SwapFixture, InvocationThroughProxyForwards) {
  BuildClusteredList(world_.rt, world_.manager, node_cls_, 10, 5, "head");
  Object* head = HeadRef();
  auto value = world_.rt.Invoke(head, "get_value");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->as_int(), 0);
  EXPECT_GE(world_.manager.stats().boundary_crossings, 1u);
}

TEST_F(SwapFixture, RecursionCrossesBoundariesTransparently) {
  BuildClusteredList(world_.rt, world_.manager, node_cls_, 40, 10, "head");
  auto depth = world_.rt.Invoke(HeadRef(), "step", {Value::Int(0)});
  ASSERT_TRUE(depth.ok()) << depth.status().ToString();
  EXPECT_EQ(depth->as_int(), 39);
  // One crossing entering the list + 3 internal boundaries.
  EXPECT_EQ(world_.manager.stats().boundary_crossings, 4u);
}

TEST_F(SwapFixture, ReturnsAcrossBoundaryCreateFreshProxies) {
  BuildClusteredList(world_.rt, world_.manager, node_cls_, 20, 10, "head");
  uint64_t before = world_.manager.stats().proxies_created;
  // probe(15) from the head walks across the boundary and returns a
  // reference to an object in the second cluster; the proxy chain mediates
  // the return with a fresh cluster-0 proxy.
  auto reached = world_.rt.Invoke(HeadRef(), "probe", {Value::Int(15)});
  ASSERT_TRUE(reached.ok());
  ASSERT_TRUE(reached->is_ref());
  Object* result = reached->ref();
  ASSERT_TRUE(IsSwapProxy(result));
  EXPECT_EQ(ProxySource(result), kSwapCluster0);
  EXPECT_GT(world_.manager.stats().proxies_created, before);
  auto value = world_.rt.Invoke(result, "get_value");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->as_int(), 15);
}

TEST_F(SwapFixture, ReturnIntoOwnClusterIsRaw) {
  // probe that stays within the first cluster returns ... through the
  // cluster-0 head proxy, so the result is mediated for cluster 0. Check
  // the *internal* case instead: an object's method returning a same-
  // cluster ref must yield a raw object at the direct-call level.
  BuildClusteredList(world_.rt, world_.manager, node_cls_, 10, 10, "head");
  Object* head = HeadRef();
  Object* raw_head = ProxyTarget(head);
  ASSERT_EQ(raw_head->kind(), ObjectKind::kRegular);
  auto next = world_.rt.Invoke(raw_head, "next");  // direct, same cluster
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->ref()->kind(), ObjectKind::kRegular);
}

TEST_F(SwapFixture, ArgumentsAreMediatedIntoTargetContext) {
  // Pass a reference argument across a boundary; the callee stores it; the
  // stored value must be mediated for the callee's cluster.
  const runtime::ClassInfo* keeper_cls = *world_.rt.types().Register(
      runtime::ClassBuilder("Keeper")
          .Field("kept", runtime::ValueKind::kRef)
          .Method("keep", [](runtime::Runtime& rt, Object* self,
                             std::vector<Value>& args) -> Result<Value> {
            OBISWAP_RETURN_IF_ERROR(rt.SetFieldAt(self, 0, args[0]));
            return Value::Nil();
          }));
  SwapClusterId a = world_.manager.NewSwapCluster();
  SwapClusterId b = world_.manager.NewSwapCluster();
  LocalScope scope(world_.rt.heap());
  Object* keeper = world_.rt.New(keeper_cls);
  Object* payload = world_.rt.New(node_cls_);
  scope.Add(keeper);
  scope.Add(payload);
  ASSERT_TRUE(world_.manager.Place(keeper, a).ok());
  ASSERT_TRUE(world_.manager.Place(payload, b).ok());
  // Call keeper through a cluster-0 proxy, passing a cluster-0 view of the
  // payload.
  ASSERT_TRUE(world_.rt.SetGlobal("keeper", Value::Ref(keeper)).ok());
  ASSERT_TRUE(world_.rt.SetGlobal("payload", Value::Ref(payload)).ok());
  Object* keeper_proxy = world_.rt.GetGlobal("keeper")->ref();
  Value payload_proxy = *world_.rt.GetGlobal("payload");
  ASSERT_TRUE(
      world_.rt.Invoke(keeper_proxy, "keep", {payload_proxy}).ok());
  Object* stored = world_.rt.GetFieldAt(keeper, 0).ref();
  ASSERT_TRUE(IsSwapProxy(stored));
  EXPECT_EQ(ProxySource(stored), a);
  EXPECT_EQ(ProxyTargetSc(stored), b);
  EXPECT_EQ(CheckMediationInvariant(world_.rt), "");
}

// ------------------------------------------------------------- swap-out --

TEST_F(SwapFixture, SwapOutDetachesAndFreesMemory) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     100, 50, "head");
  world_.rt.heap().Collect();
  size_t before_bytes = world_.rt.heap().used_bytes();
  size_t before_objects = world_.rt.heap().live_objects();

  auto key = world_.manager.SwapOut(clusters[1]);
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  EXPECT_EQ(world_.manager.StateOf(clusters[1]), SwapState::kSwapped);
  EXPECT_EQ(world_.stores[0]->entry_count(), 1u);

  world_.rt.heap().Collect();
  EXPECT_LT(world_.rt.heap().live_objects(), before_objects - 40);
  EXPECT_LT(world_.rt.heap().used_bytes(), before_bytes - 50 * 64);
  EXPECT_EQ(CheckMediationInvariant(world_.rt), "");
}

TEST_F(SwapFixture, SwapOutPatchesInboundProxiesToReplacement) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     20, 10, "head");
  ASSERT_TRUE(world_.manager.SwapOut(clusters[0]).ok());
  Object* head = HeadRef();
  ASSERT_TRUE(IsSwapProxy(head));
  EXPECT_TRUE(IsReplacement(ProxyTarget(head)));
}

TEST_F(SwapFixture, TransparentSwapInOnInvocation) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     30, 10, "head");
  ASSERT_TRUE(world_.manager.SwapOut(clusters[0]).ok());
  world_.rt.heap().Collect();
  // Touching the swapped cluster through the head proxy faults it back.
  auto value = world_.rt.Invoke(HeadRef(), "get_value");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(value->as_int(), 0);
  EXPECT_EQ(world_.manager.StateOf(clusters[0]), SwapState::kLoaded);
  EXPECT_EQ(world_.manager.stats().swap_ins, 1u);
  // The store entry is retained as a clean image (the cluster has not been
  // written since the reload) so a re-swap-out can reuse it.
  EXPECT_EQ(world_.stores[0]->entry_count(), 1u);
  // The first write invalidates the image and releases the store copy.
  auto cursor = world_.rt.Invoke(HeadRef(), "probe", {Value::Int(3)});
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE(world_.rt.SetGlobal("cursor", *cursor).ok());
  ASSERT_TRUE(world_.rt
                  .Invoke(world_.rt.GetGlobal("cursor")->ref(), "set_value",
                          {Value::Int(9)})
                  .ok());
  EXPECT_EQ(world_.stores[0]->entry_count(), 0u);
  EXPECT_EQ(world_.manager.stats().clean_image_invalidations, 1u);
  EXPECT_EQ(CheckMediationInvariant(world_.rt), "");
}

TEST_F(SwapFixture, FullTraversalAcrossSwappedClustersIsCorrect) {
  const int n = 60;
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     n, 20, "head");
  ASSERT_TRUE(world_.manager.SwapOut(clusters[1]).ok());
  ASSERT_TRUE(world_.manager.SwapOut(clusters[2]).ok());
  world_.rt.heap().Collect();
  auto sum = SumList(world_.rt, "head");
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(*sum, n * (n - 1) / 2);
  EXPECT_EQ(world_.manager.stats().swap_ins, 2u);
}

TEST_F(SwapFixture, DataSurvivesSwapRoundTrip) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     10, 5, "head");
  // Mutate a value, swap its cluster out and back, check the mutation. The
  // returned proxy must be rooted (globals are the application-level way).
  auto target = world_.rt.Invoke(HeadRef(), "probe", {Value::Int(7)});
  ASSERT_TRUE(target.ok());
  ASSERT_TRUE(world_.rt.SetGlobal("cursor", *target).ok());
  ASSERT_TRUE(
      world_.rt.Invoke(target->ref(), "set_value", {Value::Int(777)}).ok());
  ASSERT_TRUE(world_.manager.SwapOut(clusters[1]).ok());
  world_.rt.heap().Collect();
  auto value = world_.rt.Invoke(world_.rt.GetGlobal("cursor")->ref(),
                                "get_value");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->as_int(), 777);
}

TEST_F(SwapFixture, ReplacementKeepsDownstreamClustersAlive) {
  // Figure 4: cluster 4 only referenced from cluster 2; swapping 2 must
  // keep 4 alive through ReplacementObject-2's outbound proxies.
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     30, 10, "head");
  world_.rt.heap().Collect();
  size_t live_before = world_.rt.heap().live_objects();
  ASSERT_TRUE(world_.manager.SwapOut(clusters[1]).ok());
  world_.rt.heap().Collect();
  // Only the middle cluster's 10 objects die; the tail cluster survives.
  EXPECT_GE(world_.rt.heap().live_objects() + 12, live_before - 10);
  auto sum = SumList(world_.rt, "head");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 30 * 29 / 2);
}

TEST_F(SwapFixture, CleanReswapReusesKeyDirtyReswapMintsFresh) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     10, 10, "head");
  auto key1 = world_.manager.SwapOut(clusters[0]);
  ASSERT_TRUE(key1.ok());
  ASSERT_TRUE(world_.manager.SwapIn(clusters[0]).ok());
  // Untouched since the swap-in: the re-swap-out reuses the retained store
  // entry under the same key, shipping nothing.
  auto key2 = world_.manager.SwapOut(clusters[0]);
  ASSERT_TRUE(key2.ok());
  EXPECT_EQ(key1->value(), key2->value());
  EXPECT_EQ(world_.manager.stats().clean_swap_outs, 1u);
  EXPECT_EQ(world_.stores[0]->entry_count(), 1u);
  // A write after the next swap-in dirties the cluster; the following
  // swap-out serializes afresh under a fresh key.
  ASSERT_TRUE(world_.manager.SwapIn(clusters[0]).ok());
  auto cursor = world_.rt.Invoke(HeadRef(), "probe", {Value::Int(2)});
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE(world_.rt.SetGlobal("cursor", *cursor).ok());
  ASSERT_TRUE(world_.rt
                  .Invoke(world_.rt.GetGlobal("cursor")->ref(), "set_value",
                          {Value::Int(5)})
                  .ok());
  auto key3 = world_.manager.SwapOut(clusters[0]);
  ASSERT_TRUE(key3.ok());
  EXPECT_NE(key2->value(), key3->value());
  EXPECT_EQ(world_.manager.stats().clean_swap_outs, 1u);
  EXPECT_EQ(world_.stores[0]->entry_count(), 1u);
}

// ----------------------------------------------- clean-image swap cache --

TEST_F(SwapFixture, SwapThrashShipsBytesOnlyOnce) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     20, 10, "head");
  ASSERT_TRUE(world_.manager.SwapOut(clusters[0]).ok());
  const uint64_t shipped_once = world_.manager.stats().bytes_swapped_out;
  ASSERT_GT(shipped_once, 0u);
  // Thrash: the untouched cluster bounces in and out. Only the first
  // swap-out moved payload bytes; every later one reuses the store copy.
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(world_.manager.SwapIn(clusters[0]).ok());
    ASSERT_TRUE(world_.manager.SwapOut(clusters[0]).ok());
  }
  EXPECT_EQ(world_.manager.stats().bytes_swapped_out, shipped_once);
  EXPECT_EQ(world_.manager.stats().clean_swap_outs, 3u);
  EXPECT_GT(world_.manager.stats().bytes_swap_transfer_saved, 0u);
  EXPECT_EQ(world_.stores[0]->entry_count(), 1u);
  // A single field write forces the next swap-out back onto the full
  // serialize-and-ship path.
  ASSERT_TRUE(world_.manager.SwapIn(clusters[0]).ok());
  auto cursor = world_.rt.Invoke(HeadRef(), "probe", {Value::Int(1)});
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE(world_.rt.SetGlobal("cursor", *cursor).ok());
  ASSERT_TRUE(world_.rt
                  .Invoke(world_.rt.GetGlobal("cursor")->ref(), "set_value",
                          {Value::Int(100)})
                  .ok());
  ASSERT_TRUE(world_.manager.SwapOut(clusters[0]).ok());
  EXPECT_GT(world_.manager.stats().bytes_swapped_out, shipped_once);
  EXPECT_EQ(world_.manager.stats().clean_swap_outs, 3u);
  // Data survives the thrash (node 1's value is now 100: 190 - 1 + 100).
  EXPECT_EQ(*SumList(world_.rt, "head"), 289);
}

TEST_F(SwapFixture, PayloadCacheServesRepeatSwapInWithoutFetch) {
  world_.manager.set_swap_in_cache_bytes(1 << 20);
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     20, 10, "head");
  ASSERT_TRUE(world_.manager.SwapOut(clusters[0]).ok());
  // Swap-out seeded the cache: the swap-in decodes from device memory and
  // never touches the radio.
  ASSERT_TRUE(world_.manager.SwapIn(clusters[0]).ok());
  EXPECT_EQ(world_.manager.stats().cache_hits, 1u);
  EXPECT_EQ(world_.manager.stats().bytes_swapped_in, 0u);
  EXPECT_EQ(world_.manager.payload_cache().stats().hits, 1u);
  EXPECT_GT(world_.manager.stats().bytes_swap_transfer_saved, 0u);
  EXPECT_EQ(*SumList(world_.rt, "head"), 190);  // reads only
  // A clean re-swap-out keeps the payload epoch, so the entry stays valid.
  ASSERT_TRUE(world_.manager.SwapOut(clusters[0]).ok());
  ASSERT_TRUE(world_.manager.SwapIn(clusters[0]).ok());
  EXPECT_EQ(world_.manager.stats().cache_hits, 2u);
  EXPECT_EQ(world_.manager.stats().bytes_swapped_in, 0u);
}

TEST_F(SwapFixture, SwapInWithStrayInboundProxyFailsAtomically) {
  // Regression: an inbound proxy whose target oid is missing from the
  // swapped payload used to abort SwapIn *mid-patch*, leaving some proxies
  // retargeted at fresh objects while the cluster stayed kSwapped. The
  // validation must run before any mutation.
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     20, 10, "head");
  LocalScope scope(world_.rt.heap());
  Object* holder = world_.rt.New(node_cls_);
  scope.Add(holder);
  ASSERT_TRUE(world_.manager.Place(holder, clusters[0]).ok());
  // An object labeled into clusters[1] behind the registry's back: it is
  // never a registered member, so the serializer will not include it — but
  // storing it from clusters[0] mints a real inbound proxy.
  Object* bogus = world_.rt.New(node_cls_);
  scope.Add(bogus);
  bogus->set_swap_cluster(clusters[1]);
  ASSERT_TRUE(world_.rt.SetField(holder, "next", Value::Ref(bogus)).ok());
  ASSERT_TRUE(IsSwapProxy(world_.rt.GetFieldAt(holder, 0).ref()));

  ASSERT_TRUE(world_.manager.SwapOut(clusters[1]).ok());
  Status torn = world_.manager.SwapIn(clusters[1]);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.code(), StatusCode::kInternal);
  // All-or-nothing: the cluster is still swapped and the legitimate
  // boundary proxy (node9 -> node10) still targets the replacement.
  EXPECT_EQ(world_.manager.StateOf(clusters[1]), SwapState::kSwapped);
  Object* cursor = ProxyTarget(HeadRef());
  for (int i = 0; i < 9; ++i) cursor = world_.rt.GetFieldAt(cursor, 0).ref();
  Object* boundary = world_.rt.GetFieldAt(cursor, 0).ref();
  ASSERT_TRUE(IsSwapProxy(boundary));
  EXPECT_TRUE(IsReplacement(ProxyTarget(boundary)));

  // Once the stray proxy dies, the same swap-in succeeds and the data is
  // intact.
  ASSERT_TRUE(world_.rt.SetFieldAt(holder, 0, Value::Nil()).ok());
  world_.rt.heap().Collect();
  ASSERT_TRUE(world_.manager.SwapIn(clusters[1]).ok());
  EXPECT_EQ(*SumList(world_.rt, "head"), 190);
  EXPECT_EQ(CheckMediationInvariant(world_.rt), "");
}

TEST_F(SwapFixture, FailedStoreAttemptReusesTheMintedKey) {
  // Regression: every failed store attempt used to burn a fresh SwapKey.
  // A crashed store still announces itself — and with the most free space
  // it sorts first, so the healthy fixture store is tried second.
  net::StoreNode* dead = world_.AddStore(3, 20 * 1024 * 1024);
  net::StoreNode::FaultPlan plan;
  plan.crash_after_ops = 0;  // the very next operation kills it
  dead->InjectFaults(plan);
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     10, 10, "head");
  auto key = world_.manager.SwapOut(clusters[0]);
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  EXPECT_GE(dead->stats().faulted_ops, 1u);  // the dead store went first
  EXPECT_EQ(world_.stores[0]->entry_count(), 1u);
  // The key refused by the dead store was reused on the healthy one: it is
  // still the very first key this manager ever minted.
  EXPECT_EQ(key->value() & 0xffffffffu, 1u);
}

TEST(SwapPlacementTest, SwapOutGivesUpAfterBoundedStoreFailures) {
  // Regression: placement used to walk the entire candidate list however
  // long, retrying forever against a sick neighborhood.
  swap::SwappingManager::Options options;
  options.max_consecutive_store_failures = 2;
  MiddlewareWorld world{options};
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  std::vector<net::StoreNode*> dead;
  for (uint32_t device = 2; device <= 6; ++device) {
    net::StoreNode* node = world.AddStore(device, 1 << 20);
    net::StoreNode::FaultPlan plan;
    plan.crash_after_ops = 0;
    node->InjectFaults(plan);
    dead.push_back(node);
  }
  auto clusters =
      BuildClusteredList(world.rt, world.manager, node_cls, 10, 10, "head");
  auto key = world.manager.SwapOut(clusters[0]);
  ASSERT_FALSE(key.ok());
  EXPECT_EQ(key.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(world.manager.StateOf(clusters[0]), swap::SwapState::kLoaded);
  EXPECT_EQ(world.manager.stats().swap_out_failures, 1u);
  int stores_tried = 0;
  for (net::StoreNode* node : dead) {
    if (node->stats().faulted_ops > 0) ++stores_tried;
  }
  EXPECT_EQ(stores_tried, 2);  // the bound, not all five candidates
  EXPECT_EQ(*SumList(world.rt, "head"), 45);  // data untouched
}

// ----------------------------------------------- payload cache (unit) --

TEST(PayloadCacheTest, LruEvictionRespectsByteBudget) {
  PayloadCache cache(100);
  cache.Put(SwapClusterId(1), 1, std::string(40, 'a'));
  cache.Put(SwapClusterId(2), 1, std::string(40, 'b'));
  EXPECT_EQ(cache.entry_count(), 2u);
  // Touch cluster 1 so cluster 2 becomes the LRU victim.
  EXPECT_NE(cache.Get(SwapClusterId(1), 1), nullptr);
  cache.Put(SwapClusterId(3), 1, std::string(40, 'c'));
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_NE(cache.Get(SwapClusterId(1), 1), nullptr);
  EXPECT_EQ(cache.Get(SwapClusterId(2), 1), nullptr);
  EXPECT_NE(cache.Get(SwapClusterId(3), 1), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.bytes(), cache.budget_bytes());
}

TEST(PayloadCacheTest, EpochMismatchMissesAndPutReplaces) {
  PayloadCache cache(1 << 10);
  cache.Put(SwapClusterId(1), 1, "old");
  EXPECT_EQ(cache.Get(SwapClusterId(1), 2), nullptr);  // stale epoch
  cache.Put(SwapClusterId(1), 2, "new");
  EXPECT_EQ(cache.entry_count(), 1u);  // one entry per cluster
  const std::string* hit = cache.Get(SwapClusterId(1), 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "new");
  EXPECT_EQ(cache.Get(SwapClusterId(1), 1), nullptr);
}

TEST(PayloadCacheTest, SameKeyDifferentSizeOverwriteKeepsBytesExact) {
  // Regression guard: a Put over an existing key with a different payload
  // size must account exactly one entry at the NEW size — no stale bytes
  // from the replaced payload, no double-counting.
  PayloadCache cache(100);
  cache.Put(SwapClusterId(1), 1, std::string(40, 'a'));
  EXPECT_EQ(cache.bytes(), 40u);
  // Shrink.
  cache.Put(SwapClusterId(1), 2, std::string(10, 'b'));
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.bytes(), 10u);
  // Grow.
  cache.Put(SwapClusterId(1), 3, std::string(60, 'c'));
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.bytes(), 60u);
  // The overwrite must also refresh recency: cluster 1 was re-Put last,
  // so inserting a filler that overflows the budget evicts cluster 2.
  cache.Put(SwapClusterId(2), 1, std::string(30, 'd'));
  EXPECT_EQ(cache.bytes(), 90u);
  cache.Get(SwapClusterId(2), 1);          // 2 is now MRU
  cache.Put(SwapClusterId(1), 4, std::string(65, 'e'));  // re-Put: 1 is MRU
  cache.Put(SwapClusterId(3), 1, std::string(30, 'f'));  // overflow
  EXPECT_EQ(cache.Get(SwapClusterId(2), 1), nullptr);    // LRU evicted
  EXPECT_NE(cache.Get(SwapClusterId(1), 4), nullptr);
  EXPECT_NE(cache.Get(SwapClusterId(3), 1), nullptr);
  EXPECT_EQ(cache.bytes(), 95u);
  EXPECT_LE(cache.bytes(), cache.budget_bytes());
}

TEST(PayloadCacheTest, DisabledAndOversizedPutsAreNoOps) {
  PayloadCache off(0);
  off.Put(SwapClusterId(1), 1, "x");
  EXPECT_EQ(off.entry_count(), 0u);
  PayloadCache small(4);
  small.Put(SwapClusterId(1), 1, "toolarge");
  EXPECT_EQ(small.entry_count(), 0u);
  small.Put(SwapClusterId(2), 1, "ok");
  EXPECT_EQ(small.entry_count(), 1u);
  // Shrinking the budget to zero empties and disables the cache.
  small.set_budget_bytes(0);
  EXPECT_EQ(small.entry_count(), 0u);
  EXPECT_EQ(small.Get(SwapClusterId(2), 1), nullptr);
}

// ------------------------------------------------------ error conditions --

TEST_F(SwapFixture, SwapOutErrors) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     10, 5, "head");
  // Unknown cluster.
  EXPECT_EQ(world_.manager.SwapOut(SwapClusterId(999)).status().code(),
            StatusCode::kNotFound);
  // Swap-cluster-0 is never registered.
  EXPECT_EQ(world_.manager.SwapOut(kSwapCluster0).status().code(),
            StatusCode::kNotFound);
  // Double swap.
  ASSERT_TRUE(world_.manager.SwapOut(clusters[0]).ok());
  EXPECT_EQ(world_.manager.SwapOut(clusters[0]).status().code(),
            StatusCode::kFailedPrecondition);
  // Swap-in of a loaded cluster.
  EXPECT_EQ(world_.manager.SwapIn(clusters[1]).code(),
            StatusCode::kFailedPrecondition);
  // Empty cluster.
  SwapClusterId empty = world_.manager.NewSwapCluster();
  EXPECT_EQ(world_.manager.SwapOut(empty).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(SwapFixture, SwapOutWithoutNearbyStoreIsUnavailable) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     10, 5, "head");
  world_.network.SetOnline(world_.stores[0]->device(), false);
  auto key = world_.manager.SwapOut(clusters[0]);
  ASSERT_FALSE(key.ok());
  EXPECT_EQ(key.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(world_.manager.StateOf(clusters[0]), SwapState::kLoaded);
  EXPECT_EQ(world_.manager.stats().swap_out_failures, 1u);
}

TEST_F(SwapFixture, SwapInFailsWhileStoreOutOfRangeThenRecovers) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     10, 5, "head");
  ASSERT_TRUE(world_.manager.SwapOut(clusters[0]).ok());
  world_.rt.heap().Collect();
  DeviceId store_dev = world_.stores[0]->device();
  world_.network.SetInRange(MiddlewareWorld::kDevice, store_dev, false);
  auto value = world_.rt.Invoke(HeadRef(), "get_value");
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(world_.manager.StateOf(clusters[0]), SwapState::kSwapped);
  // The store comes back into range: the same invocation now succeeds.
  world_.network.SetInRange(MiddlewareWorld::kDevice, store_dev, true);
  value = world_.rt.Invoke(HeadRef(), "get_value");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(value->as_int(), 0);
}

TEST_F(SwapFixture, CorruptedStorePayloadIsDataLoss) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     10, 5, "head");
  auto key = world_.manager.SwapOut(clusters[0]);
  ASSERT_TRUE(key.ok());
  // Corrupt the stored bytes behind the middleware's back.
  net::StoreNode* store = world_.stores[0].get();
  std::string blob = *store->Fetch(*key);
  blob[blob.size() / 2] ^= 0x01;
  ASSERT_TRUE(store->Drop(*key).ok());
  ASSERT_TRUE(store->Store(*key, blob).ok());
  auto value = world_.rt.Invoke(HeadRef(), "get_value");
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kDataLoss);
}

TEST_F(SwapFixture, StoreFullTriesNextDevice) {
  net::StoreNode* tiny = world_.stores[0].get();
  // Fill the first store almost completely.
  ASSERT_TRUE(
      tiny->Store(SwapKey(9999),
                  std::string(tiny->capacity_bytes() - 10, 'x'))
          .ok());
  net::StoreNode* big = world_.AddStore(3, 10 * 1024 * 1024);
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     20, 20, "head");
  ASSERT_TRUE(world_.manager.SwapOut(clusters[0]).ok());
  EXPECT_EQ(big->entry_count(), 1u);
}

// --------------------------------------------------------- GC integration --

TEST_F(SwapFixture, UnreachableSwappedClusterIsDroppedFromStore) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     10, 10, "head");
  int dropped_events = 0;
  world_.bus.Subscribe(context::kEventClusterDropped,
                       [&](const context::Event&) { ++dropped_events; });
  ASSERT_TRUE(world_.manager.SwapOut(clusters[0]).ok());
  EXPECT_EQ(world_.stores[0]->entry_count(), 1u);
  // Drop the only application reference; replacement becomes garbage.
  world_.rt.RemoveGlobal("head");
  world_.rt.heap().Collect();
  world_.rt.heap().Collect();  // proxy dies first, then the replacement
  EXPECT_EQ(world_.stores[0]->entry_count(), 0u);
  EXPECT_EQ(world_.manager.StateOf(clusters[0]), SwapState::kDropped);
  EXPECT_EQ(world_.manager.stats().drops, 1u);
  EXPECT_EQ(dropped_events, 1);
}

TEST_F(SwapFixture, ReachableSwappedClusterIsPreservedOnStore) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     10, 10, "head");
  ASSERT_TRUE(world_.manager.SwapOut(clusters[0]).ok());
  for (int i = 0; i < 3; ++i) world_.rt.heap().Collect();
  // Still referenced by the head global: must stay on the store.
  EXPECT_EQ(world_.stores[0]->entry_count(), 1u);
  EXPECT_EQ(world_.manager.StateOf(clusters[0]), SwapState::kSwapped);
}

TEST_F(SwapFixture, ProxyFinalizersCleanTables) {
  BuildClusteredList(world_.rt, world_.manager, node_cls_, 10, 5, "head");
  uint64_t created = world_.manager.stats().proxies_created;
  ASSERT_GT(created, 0u);
  world_.rt.RemoveGlobal("head");
  world_.rt.heap().Collect();
  EXPECT_EQ(world_.manager.stats().proxies_finalized, created);
}

// ------------------------------------------------------- victim selection --

TEST_F(SwapFixture, LruVictimIsLeastRecentlyCrossed) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     40, 10, "head");
  // Touch the tail clusters by full traversal, then touch cluster 0 again.
  ASSERT_TRUE(SumList(world_.rt, "head").ok());
  ASSERT_TRUE(world_.rt.Invoke(HeadRef(), "get_value").ok());
  auto victim = world_.manager.SwapOutVictim();
  ASSERT_TRUE(victim.ok()) << victim.status().ToString();
  // The head cluster was just touched; the victim must be a later one.
  EXPECT_NE(*victim, clusters[0]);
}

TEST_F(SwapFixture, PressureHandlerSwapsOutAutomatically) {
  // Small heap: building a large list forces pressure-driven swap-outs.
  MiddlewareWorld small_world{swap::SwappingManager::Options(),
                              /*heap_capacity=*/160 * 1024};
  const runtime::ClassInfo* node_cls = RegisterNodeClass(small_world.rt);
  small_world.AddStore(2, 10 * 1024 * 1024);
  small_world.manager.InstallPressureHandler();
  // ~700 nodes x (64B payload + overhead) overflows 160 KiB several times.
  BuildClusteredList(small_world.rt, small_world.manager, node_cls, 700, 50,
                     "head");
  EXPECT_GT(small_world.manager.stats().swap_outs, 0u);
  EXPECT_GT(small_world.stores[0]->entry_count(), 0u);
  // And the data is still all there.
  auto sum = SumList(small_world.rt, "head");
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(*sum, 700 * 699 / 2);
}

// ------------------------------------------------------ assign optimization --

TEST_F(SwapFixture, AssignValidation) {
  BuildClusteredList(world_.rt, world_.manager, node_cls_, 10, 5, "head");
  Object* head = HeadRef();
  ASSERT_TRUE(world_.manager.Assign(head).ok());
  // Non-proxies and non-cluster-0 proxies are rejected.
  EXPECT_EQ(world_.manager.Assign(ProxyTarget(head)).code(),
            StatusCode::kInvalidArgument);
  Object* raw_head = ProxyTarget(head);
  Object* boundary = world_.rt.GetFieldAt(raw_head, 0).ref();
  // Walk to the cluster boundary to find an inter-cluster proxy.
  while (!IsSwapProxy(boundary)) {
    raw_head = boundary;
    boundary = world_.rt.GetFieldAt(raw_head, 0).ref();
  }
  EXPECT_EQ(world_.manager.Assign(boundary).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(SwapFixture, AssignedProxyPatchesItselfDuringIteration) {
  const int n = 50;
  BuildClusteredList(world_.rt, world_.manager, node_cls_, n, 10, "head");
  Object* cursor = HeadRef();
  ASSERT_TRUE(world_.manager.Assign(cursor).ok());
  uint64_t created_before = world_.manager.stats().proxies_created;
  int64_t sum = 0;
  Object* current = cursor;
  for (int i = 0; i < n; ++i) {
    sum += world_.rt.Invoke(current, "get_value")->as_int();
    Value next = *world_.rt.Invoke(current, "next");
    if (!next.is_ref() || next.ref() == nullptr) break;
    // B2 semantics: the proxy returns itself, already re-targeted.
    EXPECT_EQ(next.ref(), cursor);
    current = next.ref();
  }
  EXPECT_EQ(sum, n * (n - 1) / 2);
  EXPECT_EQ(world_.manager.stats().proxies_created, created_before);
  EXPECT_GE(world_.manager.stats().assigned_patches,
            static_cast<uint64_t>(n - 2));
}

TEST_F(SwapFixture, UnassignedIterationCreatesProxyPerStep) {
  const int n = 50;
  BuildClusteredList(world_.rt, world_.manager, node_cls_, n, 10, "head");
  uint64_t created_before = world_.manager.stats().proxies_created;
  auto sum = SumList(world_.rt, "head");  // B1-style iteration
  ASSERT_TRUE(sum.ok());
  // One fresh cluster-0 proxy per returned reference.
  EXPECT_GE(world_.manager.stats().proxies_created - created_before,
            static_cast<uint64_t>(n - 2));
}

TEST_F(SwapFixture, AssignedProxySurvivesSwapOfVisitedClusters) {
  const int n = 30;
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     n, 10, "head");
  Object* cursor = HeadRef();
  ASSERT_TRUE(world_.manager.Assign(cursor).ok());
  // Iterate halfway.
  Object* current = cursor;
  for (int i = 0; i < 14; ++i) {
    current = world_.rt.Invoke(current, "next")->ref();
  }
  // Swap out the cluster the assigned proxy currently points into.
  SwapClusterId pointed = ProxyTargetSc(cursor);
  ASSERT_TRUE(world_.manager.SwapOut(pointed).ok());
  EXPECT_TRUE(IsReplacement(ProxyTarget(cursor)));
  // Continue iterating: transparent swap-in, traversal completes.
  int64_t seen = world_.rt.Invoke(cursor, "get_value")->as_int();
  EXPECT_EQ(seen, 14);
}

// ---------------------------------------------------------------- identity --

TEST_F(SwapFixture, IdentityThroughDifferentProxies) {
  SwapClusterId a = world_.manager.NewSwapCluster();
  SwapClusterId b = world_.manager.NewSwapCluster();
  SwapClusterId c = world_.manager.NewSwapCluster();
  LocalScope scope(world_.rt.heap());
  Object* in_a = world_.rt.New(node_cls_);
  Object* in_b = world_.rt.New(node_cls_);
  Object* target = world_.rt.New(node_cls_);
  scope.Add(in_a);
  scope.Add(in_b);
  scope.Add(target);
  ASSERT_TRUE(world_.manager.Place(in_a, a).ok());
  ASSERT_TRUE(world_.manager.Place(in_b, b).ok());
  ASSERT_TRUE(world_.manager.Place(target, c).ok());
  ASSERT_TRUE(world_.rt.SetField(in_a, "next", Value::Ref(target)).ok());
  ASSERT_TRUE(world_.rt.SetField(in_b, "next", Value::Ref(target)).ok());
  Object* proxy_a = world_.rt.GetFieldAt(in_a, 0).ref();
  Object* proxy_b = world_.rt.GetFieldAt(in_b, 0).ref();
  ASSERT_NE(proxy_a, proxy_b);
  EXPECT_TRUE(world_.rt.SameObject(proxy_a, proxy_b));
  EXPECT_TRUE(world_.rt.SameObject(proxy_a, target));
  Object* other = world_.rt.New(node_cls_);
  scope.Add(other);
  EXPECT_FALSE(world_.rt.SameObject(proxy_a, other));
}

TEST_F(SwapFixture, IdentityHoldsWhileSwapped) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     10, 5, "head");
  Object* head = HeadRef();
  // The swap-out frees the member: keep its oid, not the pointer.
  const ObjectId raw_oid = ProxyTarget(head)->oid();
  ASSERT_TRUE(world_.manager.SwapOut(clusters[0]).ok());
  // head proxy now targets the replacement but keeps the identity.
  Object* head_after = HeadRef();
  EXPECT_TRUE(world_.rt.SameObject(head_after, head));
  EXPECT_EQ(ProxyTargetOid(head_after).value(), raw_oid.value());
}

// -------------------------------------------------------------- compression --

TEST_F(SwapFixture, CompressedSwapRoundTrips) {
  swap::SwappingManager::Options options;
  options.codec = "lz77";
  MiddlewareWorld world{options};
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 10 * 1024 * 1024);
  auto clusters =
      BuildClusteredList(world.rt, world.manager, node_cls, 50, 25, "head");
  ASSERT_TRUE(world.manager.SwapOut(clusters[1]).ok());
  // XML compresses well: stored payload much smaller than identity codec.
  const SwapClusterInfo* info = world.manager.registry().Find(clusters[1]);
  EXPECT_LT(info->swapped_payload_bytes, 3000u);
  auto sum = SumList(world.rt, "head");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 50 * 49 / 2);
}

// ------------------------------------------------------ adaptive grouping --

TEST_F(SwapFixture, MergeDismantlesBoundaryProxies) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     20, 10, "head");
  // The node4->node5... boundary: exactly one inter-cluster proxy.
  EXPECT_EQ(world_.manager.InboundProxyCount(clusters[1]), 1u);
  uint64_t dismantled_before = world_.manager.stats().proxies_dismantled;
  ASSERT_TRUE(
      world_.manager.MergeSwapClusters(clusters[0], clusters[1]).ok());
  EXPECT_GT(world_.manager.stats().proxies_dismantled, dismantled_before);
  EXPECT_EQ(world_.manager.registry().Find(clusters[1]), nullptr);
  EXPECT_EQ(CheckMediationInvariant(world_.rt), "");
  // The boundary link is raw again: walk from the head's raw object to the
  // 10th node without meeting a proxy.
  Object* cursor = ProxyTarget(HeadRef());
  for (int i = 0; i < 15; ++i) {
    ASSERT_EQ(cursor->kind(), ObjectKind::kRegular) << "at " << i;
    cursor = world_.rt.GetFieldAt(cursor, 0).ref();
  }
  // And traversal + data still work.
  EXPECT_EQ(*SumList(world_.rt, "head"), 190);
}

TEST_F(SwapFixture, MergedClusterSwapsAsOneUnit) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     20, 10, "head");
  ASSERT_TRUE(
      world_.manager.MergeSwapClusters(clusters[0], clusters[1]).ok());
  ASSERT_TRUE(world_.manager.SwapOut(clusters[0]).ok());
  const SwapClusterInfo* info = world_.manager.registry().Find(clusters[0]);
  EXPECT_EQ(info->swapped_object_count, 20u);  // all 20 in one unit
  world_.rt.heap().Collect();
  EXPECT_EQ(*SumList(world_.rt, "head"), 190);
}

TEST_F(SwapFixture, MergeErrorCases) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     20, 10, "head");
  EXPECT_FALSE(world_.manager.MergeSwapClusters(clusters[0], clusters[0]).ok());
  EXPECT_EQ(
      world_.manager.MergeSwapClusters(clusters[0], SwapClusterId(99)).code(),
      StatusCode::kNotFound);
  ASSERT_TRUE(world_.manager.SwapOut(clusters[1]).ok());
  EXPECT_EQ(world_.manager.MergeSwapClusters(clusters[0], clusters[1]).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(SwapFixture, SplitCreatesBoundaryProxies) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     20, 20, "head");
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(world_.manager.stats().proxies_created, 1u);  // head proxy only
  // Move the tail half (values 10..19) into a new cluster.
  std::vector<Object*> tail;
  Object* cursor = ProxyTarget(HeadRef());
  for (int i = 0; i < 20; ++i) {
    if (i >= 10) tail.push_back(cursor);
    Object* next = world_.rt.GetFieldAt(cursor, 0).ref();
    cursor = next;
  }
  auto fresh = world_.manager.SplitSwapCluster(clusters[0], tail);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(CheckMediationInvariant(world_.rt), "");
  // Exactly one new boundary proxy (node9 -> node10).
  EXPECT_EQ(world_.manager.InboundProxyCount(*fresh), 1u);
  EXPECT_EQ(*SumList(world_.rt, "head"), 190);
  // The split-off half swaps independently.
  ASSERT_TRUE(world_.manager.SwapOut(*fresh).ok());
  world_.rt.heap().Collect();
  EXPECT_EQ(*SumList(world_.rt, "head"), 190);
}

TEST_F(SwapFixture, SplitThenMergeRoundTrips) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     30, 30, "head");
  std::vector<Object*> tail;
  Object* cursor = ProxyTarget(HeadRef());
  for (int i = 0; i < 30; ++i) {
    if (i >= 15) tail.push_back(cursor);
    cursor = world_.rt.GetFieldAt(cursor, 0).ref();
  }
  auto fresh = world_.manager.SplitSwapCluster(clusters[0], tail);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(world_.manager.MergeSwapClusters(clusters[0], *fresh).ok());
  EXPECT_EQ(CheckMediationInvariant(world_.rt), "");
  EXPECT_EQ(*SumList(world_.rt, "head"), 435);
  // After the round trip the interior is proxy-free again.
  cursor = ProxyTarget(HeadRef());
  for (int i = 0; i < 29; ++i) {
    cursor = world_.rt.GetFieldAt(cursor, 0).ref();
    ASSERT_EQ(cursor->kind(), ObjectKind::kRegular) << "at " << i;
  }
}

TEST_F(SwapFixture, SplitErrorCases) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     10, 5, "head");
  EXPECT_FALSE(world_.manager.SplitSwapCluster(clusters[0], {}).ok());
  // Member of the wrong cluster.
  Object* wrong = ProxyTarget(world_.rt.GetGlobal("head")->ref());
  EXPECT_FALSE(
      world_.manager.SplitSwapCluster(clusters[1], {wrong}).ok());
  // Swapped cluster cannot split.
  ASSERT_TRUE(world_.manager.SwapOut(clusters[1]).ok());
  EXPECT_EQ(world_.manager
                .SplitSwapCluster(clusters[1], {wrong})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(SwapFixture, SwapOutOfASplitSourceFreesOnlyItsOwnMembers) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     20, 20, "head");
  std::vector<Object*> tail;
  Object* cursor = ProxyTarget(HeadRef());
  for (int i = 0; i < 20; ++i) {
    if (i >= 10) tail.push_back(cursor);
    cursor = world_.rt.GetFieldAt(cursor, 0).ref();
  }
  auto fresh = world_.manager.SplitSwapCluster(clusters[0], tail);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  // The source's registry list still names the moved members; its
  // swap-out must free only the ten objects that kept its label.
  size_t live = world_.rt.heap().live_objects();
  ASSERT_TRUE(world_.manager.SwapOut(clusters[0]).ok());
  EXPECT_EQ(world_.rt.heap().live_objects(), live - 10 + 1);  // + replacement
  EXPECT_EQ(*SumList(world_.rt, "head"), 190);
  ASSERT_TRUE(world_.manager.SwapOut(*fresh).ok());
  ASSERT_TRUE(world_.manager.SwapOut(clusters[0]).ok());
  EXPECT_EQ(*SumList(world_.rt, "head"), 190);
}

/// A dead object labelled `id` that no member reaches, pointing raw at a
/// member — what a temporary allocated by a member's method looks like.
/// Unrooted and unregistered, so `id`'s swap-out does not free it.
Object* PlantDeadTemporary(runtime::Runtime& rt,
                           const runtime::ClassInfo* node_cls,
                           SwapClusterId id, Object* member) {
  Object* temp = rt.New(node_cls);
  temp->set_swap_cluster(id);
  temp->RawSlotMutable(0) = Value::Ref(member);
  return temp;
}

bool InHeap(runtime::Heap& heap, const Object* obj) {
  bool found = false;
  heap.ForEachObject([&](Object* each) { found = found || each == obj; });
  return found;
}

TEST_F(SwapFixture, SplitAfterSwapRoundTripIgnoresDeadTemporaries) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     20, 20, "head");
  Object* temp = PlantDeadTemporary(world_.rt, node_cls_, clusters[0],
                                    ProxyTarget(HeadRef()));
  ASSERT_TRUE(world_.manager.SwapOut(clusters[0]).ok());
  EXPECT_EQ(*SumList(world_.rt, "head"), 190);  // swaps back in
  // The temporary outlived the swap-out; its slot names a freed member.
  ASSERT_TRUE(InHeap(world_.rt.heap(), temp));
  std::vector<Object*> tail;
  Object* cursor = ProxyTarget(HeadRef());
  for (int i = 0; i < 20; ++i) {
    if (i >= 10) tail.push_back(cursor);
    cursor = world_.rt.GetFieldAt(cursor, 0).ref();
  }
  auto fresh = world_.manager.SplitSwapCluster(clusters[0], tail);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(CheckMediationInvariant(world_.rt), "");
  EXPECT_EQ(world_.manager.InboundProxyCount(*fresh), 1u);
  EXPECT_EQ(*SumList(world_.rt, "head"), 190);
}

TEST_F(SwapFixture, MergeAfterSwapRoundTripIgnoresDeadTemporaries) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     20, 10, "head");
  ASSERT_EQ(clusters.size(), 2u);
  Object* cursor = ProxyTarget(HeadRef());
  for (int i = 0; i < 10; ++i) cursor = world_.rt.GetFieldAt(cursor, 0).ref();
  Object* second = ProxyTarget(cursor);  // node10, first of clusters[1]
  Object* temp =
      PlantDeadTemporary(world_.rt, node_cls_, clusters[1], second);
  ASSERT_TRUE(world_.manager.SwapOut(clusters[1]).ok());
  EXPECT_EQ(*SumList(world_.rt, "head"), 190);  // swaps back in
  ASSERT_TRUE(InHeap(world_.rt.heap(), temp));
  // Merging must neither read the temporary's slot nor adopt it: the
  // merged cluster's swap-out would serialize it.
  ASSERT_TRUE(world_.manager.MergeSwapClusters(clusters[0], clusters[1]).ok());
  EXPECT_EQ(CheckMediationInvariant(world_.rt), "");
  ASSERT_TRUE(world_.manager.SwapOut(clusters[0]).ok());
  EXPECT_EQ(*SumList(world_.rt, "head"), 190);
}

TEST(SwapQuantitativeTest, InnerRecursionProxyRateMatchesPaperPrediction) {
  // Paper §5 on test A2 at cluster size 20: an extra swap-cluster-proxy is
  // created "for roughly half of the object references returned by the
  // inner recursions (recall these have a maximum depth of 10)". With
  // depth-10 probes from every position and clusters of k, the crossing
  // probability is exactly 10/k.
  for (int k : {20, 50, 100}) {
    MiddlewareWorld world;
    const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
    const int n = 1000;
    BuildClusteredList(world.rt, world.manager, node_cls, n, k, "head");
    uint64_t before = world.manager.stats().proxies_created;
    auto depth = world.rt.Invoke(world.rt.GetGlobal("head")->ref(), "walk",
                                 {Value::Int(0)});
    ASSERT_TRUE(depth.ok()) << depth.status().ToString();
    double created =
        static_cast<double>(world.manager.stats().proxies_created - before);
    double expected = static_cast<double>(n) * 10.0 / k;
    EXPECT_NEAR(created / expected, 1.0, 0.15)
        << "k=" << k << " created=" << created << " expected~" << expected;
  }
}

TEST(SwapReentrancyTest, SwapInUnderPressureEvictsAnotherCluster) {
  // The hardest interleaving: a swap-in's deserialization does not fit, so
  // the pressure handler must evict a *different* (loaded, inactive)
  // cluster mid-swap-in. The cluster being swapped in is in kSwapped state
  // and must never be chosen as its own victim.
  MiddlewareWorld world{swap::SwappingManager::Options(),
                        /*heap_capacity=*/48 * 1024};
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 10 * 1024 * 1024);
  world.manager.InstallPressureHandler();

  // Five clusters of 60 x ~270B objects (~80 KiB total): at most two fit
  // in the 48 KiB heap at any moment.
  auto clusters =
      BuildClusteredList(world.rt, world.manager, node_cls, 300, 60, "head");
  // Building already forced at least one eviction.
  EXPECT_GT(world.manager.stats().swap_outs, 0u);

  // Repeated full traversals: every pass needs swap-ins whose allocations
  // evict whichever cluster is coldest at that moment.
  for (int round = 0; round < 4; ++round) {
    auto sum = SumList(world.rt, "head");
    ASSERT_TRUE(sum.ok()) << "round " << round << ": "
                          << sum.status().ToString();
    EXPECT_EQ(*sum, 300 * 299 / 2);
  }
  EXPECT_GT(world.manager.stats().swap_ins, 3u);
  EXPECT_EQ(CheckMediationInvariant(world.rt), "");
  // Heap never exceeded capacity by more than middleware overcommit slack.
  EXPECT_LE(world.rt.heap().used_bytes(), 48u * 1024 + 32 * 1024);
}

TEST(SwapParityTest, SwapHeavyRunMatchesPinnedCounters) {
  // A fixed swap-heavy run through a capped heap: five clusters of 60
  // nodes, of which at most two fit, traversed repeatedly with one write
  // per round so both clean and dirty swap-outs occur. The collector and
  // manager counters and the virtual clock are pinned: a change to the
  // collector's internals (e.g. how it tracks weak cells) must leave what
  // it frees, finalizes and clears, and so every swap decision, unchanged.
  MiddlewareWorld world{swap::SwappingManager::Options(),
                        /*heap_capacity=*/48 * 1024};
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 10 * 1024 * 1024);
  world.manager.InstallPressureHandler();
  BuildClusteredList(world.rt, world.manager, node_cls, 300, 60, "head");
  for (int round = 0; round < 20; ++round) {
    auto sum = SumList(world.rt, "head");
    ASSERT_TRUE(sum.ok()) << "round " << round << ": "
                          << sum.status().ToString();
    ASSERT_EQ(*sum, 300 * 299 / 2);
    // Rewrite the head's value unchanged: dirties its cluster.
    ASSERT_TRUE(world.rt
                    .Invoke(world.rt.GetGlobal("head")->ref(), "set_value",
                            {Value::Int(0)})
                    .ok());
  }
  ASSERT_GE(world.manager.stats().swap_outs, 50u);
  ASSERT_GE(world.manager.stats().swap_ins, 50u);

  const runtime::Heap::Stats& heap = world.rt.heap().stats();
  // Each of the 100 pressure-driven swap-outs frees its own members, so
  // the allocation then fits and the pressure loop runs no follow-up
  // collection.
  EXPECT_EQ(heap.collections, 1573u);
  EXPECT_EQ(heap.objects_freed, 12077u);
  EXPECT_EQ(heap.finalizers_run, 6077u);
  EXPECT_EQ(heap.weakrefs_cleared, 11980u);
  EXPECT_EQ(world.manager.StatsJson(),
      "{\"proxies_created\":5985,\"proxies_reused\":6000,"
      "\"proxies_dismantled\":0,\"proxies_finalized\":5980,"
      "\"boundary_crossings\":12020,\"assigned_patches\":0,"
      "\"swap_outs\":100,\"swap_ins\":98,\"drops\":0,\"drop_failures\":0,"
      "\"swap_out_failures\":0,\"bytes_swapped_out\":162874,"
      "\"bytes_swapped_in\":667802,\"local_swap_outs\":0,\"merges\":0,"
      "\"splits\":0,\"replicas_placed\":24,\"under_replicated_outs\":0,"
      "\"failover_fetches\":0,\"data_loss_failovers\":0,"
      "\"replicas_forgotten\":0,\"re_replications\":0,"
      "\"bytes_re_replicated\":0,\"evacuated_replicas\":0,"
      "\"drops_deferred\":0,\"drops_drained\":0,\"clean_swap_outs\":76,"
      "\"clean_image_invalidations\":20,\"clean_images_reaped\":0,"
      "\"cache_hits\":0,\"bytes_swap_transfer_saved\":518586,"
      "\"prefetched_swap_ins\":0,\"prefetch_stages\":0,"
      "\"prefetch_stage_bytes\":0,\"prefetch_hits\":0,"
      "\"prefetch_wastes\":0,\"demand_fault_stall_us\":0,"
      "\"prefetch_fetch_us\":0,\"recoveries\":0,\"recovery_us\":0,"
      "\"journal_append_us\":0,\"journal_bytes\":0,\"hedged_fetches\":0,"
      "\"hedge_wins\":0,\"hedge_wastes\":0,\"deadline_aborts\":0,"
      "\"brownout_entries\":0,\"brownout_exits\":0,"
      "\"brownout_swap_outs\":0,\"pending_drop_overflow\":0,"
      "\"delta_swap_outs\":0,\"delta_fallbacks\":0,"
      "\"delta_bytes_shipped\":0,\"delta_bytes_saved\":0,"
      "\"delta_base_cache_hits\":0,\"fields_marked_dirty\":0,"
      "\"tier_swap_outs\":0,\"tier_swap_ins\":0,\"fleet_selections\":0,"
      "\"fleet_placements\":0,\"write_backs_paced\":0,"
      "\"payload_cache_hits\":0,\"payload_cache_misses\":98,"
      "\"payload_cache_insertions\":0,\"payload_cache_evictions\":0,"
      "\"payload_cache_invalidations\":0,\"payload_cache_bytes\":0,"
      "\"payload_cache_entries\":0,\"tier_ram_admits\":0,"
      "\"tier_ram_rejects\":0,\"tier_ram_hits\":0,\"tier_ram_misses\":0,"
      "\"tier_ram_evictions\":0,\"tier_ram_bytes_saved\":0,"
      "\"tier_ram_entries_lost\":0,\"tier_ram_bytes\":0,"
      "\"tier_flash_admits\":0,\"tier_flash_rejects\":0,"
      "\"tier_flash_hits\":0,\"tier_flash_misses\":0,"
      "\"tier_flash_evictions\":0,\"tier_flash_discards\":0,"
      "\"tier_flash_slots_used\":0,\"tier_promotions\":0,"
      "\"tier_demotions\":0,\"tier_write_backs\":0,"
      "\"tier_write_back_bytes\":0,\"tier_pending_write_backs\":0,"
      "\"net.pushbacks\":0,\"net.pushback_retries\":0,"
      "\"net.retry_budget_exhausted\":0,\"net.retry_budget_earned\":0,"
      "\"net.retry_budget_spent\":0,\"net.shed_demand\":0,"
      "\"net.shed_swap_out\":0,\"net.shed_hedge\":0,"
      "\"net.shed_prefetch\":0,\"net.shed_maintenance\":0,"
      "\"store_queue_depth\":0}");
  EXPECT_EQ(world.network.clock().now_us(), 20692415u);
}

// ----------------------------------------------------------- misc surface --

TEST_F(SwapFixture, InboundProxyCountTracksLiveProxies) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     20, 10, "head");
  // head's cluster: one cluster-0 proxy inbound; second cluster: one
  // boundary proxy inbound.
  EXPECT_EQ(world_.manager.InboundProxyCount(clusters[0]), 1u);
  EXPECT_EQ(world_.manager.InboundProxyCount(clusters[1]), 1u);
  // Dropping the head global kills its proxy; the count prunes it.
  world_.rt.RemoveGlobal("head");
  world_.rt.heap().Collect();
  EXPECT_EQ(world_.manager.InboundProxyCount(clusters[0]), 0u);
}

TEST_F(SwapFixture, InboundListStaysBoundedUnderProxyChurn) {
  // B1-style churn into a cluster that never swaps: every reference
  // returned across the boundary gets a fresh proxy, which dies at the next
  // collection. InboundProxyCount never runs, so the list must prune
  // itself as it grows.
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     /*n=*/2, /*per_cluster=*/1, "head");
  const uint64_t before = world_.manager.stats().proxies_created;
  for (int i = 0; i < 50000; ++i) {
    ASSERT_TRUE(world_.rt.Invoke(HeadRef(), "next").ok());
    world_.rt.heap().Collect();
  }
  EXPECT_EQ(world_.manager.stats().proxies_created - before, 50000u);
  EXPECT_LE(world_.manager.InboundListSize(clusters[1]), 32u);
  // Only the node0 -> node1 boundary proxy is still alive.
  EXPECT_EQ(world_.manager.InboundProxyCount(clusters[1]), 1u);
}

TEST_F(SwapFixture, DirectInvocationOnReplacementIsRejected) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     10, 10, "head");
  ASSERT_TRUE(world_.manager.SwapOut(clusters[0]).ok());
  Object* replacement = ProxyTarget(HeadRef());
  ASSERT_TRUE(IsReplacement(replacement));
  auto result = world_.rt.Invoke(replacement, "get_value");
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SwapFixture, StoreMinFreeBytesOptionFiltersStores) {
  swap::SwappingManager::Options options;
  options.store_min_free_bytes = 1 << 20;  // demand 1 MiB free
  MiddlewareWorld world{options};
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 64 * 1024);  // too small to qualify
  auto clusters =
      BuildClusteredList(world.rt, world.manager, node_cls, 10, 10, "head");
  auto key = world.manager.SwapOut(clusters[0]);
  ASSERT_FALSE(key.ok());
  EXPECT_EQ(key.status().code(), StatusCode::kUnavailable);
  world.AddStore(3, 4 * 1024 * 1024);  // qualifies
  EXPECT_TRUE(world.manager.SwapOut(clusters[0]).ok());
}

TEST_F(SwapFixture, VictimSelectionRunsDryWhenAllSwapped) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     20, 10, "head");
  ASSERT_TRUE(world_.manager.SwapOutVictim().ok());
  ASSERT_TRUE(world_.manager.SwapOutVictim().ok());
  auto dry = world_.manager.SwapOutVictim();
  ASSERT_FALSE(dry.ok());
  EXPECT_EQ(dry.status().code(), StatusCode::kFailedPrecondition);
  (void)clusters;
}

TEST_F(SwapFixture, BadCodecOptionAborts) {
  swap::SwappingManager::Options options;
  options.codec = "zstd";  // not a registered codec
  EXPECT_DEATH(
      { swap::SwappingManager manager(world_.rt, options); }, "CHECK");
}

// --------------------------------------------------------------- events --

TEST_F(SwapFixture, SwapEventsPublished) {
  auto clusters = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                     10, 5, "head");
  std::vector<std::string> seen;
  int64_t out_objects = -1;
  int64_t out_device = -1;
  int64_t out_bytes = -1;
  world_.bus.SubscribeAll([&](const context::Event& event) {
    seen.push_back(event.type());
    if (event.type() == context::kEventClusterSwappedOut) {
      out_objects = event.GetIntOr("objects", -1);
      out_device = event.GetIntOr("device", -1);
      out_bytes = event.GetIntOr("bytes", -1);
    }
  });
  ASSERT_TRUE(world_.manager.SwapOut(clusters[0]).ok());
  ASSERT_TRUE(world_.manager.SwapIn(clusters[0]).ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], context::kEventClusterSwappedOut);
  EXPECT_EQ(seen[1], context::kEventClusterSwappedIn);
  EXPECT_EQ(out_objects, 5);
  EXPECT_EQ(out_device, 2);
  EXPECT_GT(out_bytes, 100);
}

}  // namespace
}  // namespace obiswap::swap
