// Chaos property tests: long randomized sequences of application mutations
// (field writes, re-linking), swapping operations, collections and store
// connectivity churn, validated against a shadow model after every phase.
// The invariants under test:
//   * values and graph structure always match the model, through any
//     interleaving of swap-outs, faults, and GC;
//   * the mediation invariant never breaks;
//   * the replica service's holdings index covers every listed replica;
//   * kUnavailable is the only acceptable deviation, and only while the
//     needed store is out of range.
#include <gtest/gtest.h>

#include "test_support.h"

namespace obiswap {
namespace {

using runtime::Object;
using runtime::Value;
using ::obiswap::testing::CheckHoldingsIndex;
using ::obiswap::testing::CheckMediationInvariant;
using ::obiswap::testing::MiddlewareWorld;

constexpr int kObjects = 60;
constexpr int kPerCluster = 10;
constexpr int kOps = 400;

/// Node class with a re-linking method (mutations must flow through
/// mediated invocation, like real application code).
const runtime::ClassInfo* RegisterChaosNode(runtime::Runtime& rt) {
  return *rt.types().Register(
      runtime::ClassBuilder("ChaosNode")
          .Field("next", runtime::ValueKind::kRef)
          .Field("value", runtime::ValueKind::kInt)
          .PayloadBytes(64)
          .Method("get_value",
                  [](runtime::Runtime& r, Object* self, runtime::Args) {
                    return Result<Value>(r.GetFieldAt(self, 1));
                  })
          .Method("set_value",
                  [](runtime::Runtime& r, Object* self,
                     runtime::Args args) -> Result<Value> {
                    OBISWAP_RETURN_IF_ERROR(r.SetFieldAt(self, 1, args[0]));
                    return Value::Nil();
                  })
          .Method("next",
                  [](runtime::Runtime& r, Object* self, runtime::Args) {
                    return Result<Value>(r.GetFieldAt(self, 0));
                  })
          .Method("link",
                  [](runtime::Runtime& r, Object* self,
                     runtime::Args args) -> Result<Value> {
                    OBISWAP_RETURN_IF_ERROR(r.SetFieldAt(self, 0, args[0]));
                    return Value::Nil();
                  }));
}

struct Model {
  std::vector<int64_t> values;
  std::vector<int> next;  // -1 = nil
};

class ChaosFixture : public ::testing::TestWithParam<uint64_t> {
 protected:
  ChaosFixture() : rng_(GetParam()) {
    node_cls_ = RegisterChaosNode(world_.rt);
    store_a_ = world_.AddStore(2, 8 * 1024 * 1024);
    store_b_ = world_.AddStore(3, 8 * 1024 * 1024);
    model_.values.resize(kObjects, 0);
    model_.next.resize(kObjects, -1);
    // Every object is a root (global) so reachability never depends on the
    // mutable links; clusters of kPerCluster consecutive objects.
    int cluster_count = (kObjects + kPerCluster - 1) / kPerCluster;
    for (int c = 0; c < cluster_count; ++c)
      clusters_.push_back(world_.manager.NewSwapCluster());
    for (int i = 0; i < kObjects; ++i) {
      runtime::LocalScope scope(world_.rt.heap());
      Object* obj = world_.rt.New(node_cls_);
      scope.Add(obj);
      OBISWAP_CHECK(
          world_.manager.Place(obj, clusters_[i / kPerCluster]).ok());
      OBISWAP_CHECK(
          world_.rt.SetGlobal(Global(i), Value::Ref(obj)).ok());
    }
  }

  static std::string Global(int index) {
    return "o" + std::to_string(index);
  }

  /// The cluster-0 proxy for object i.
  Object* Handle(int index) {
    return world_.rt.GetGlobal(Global(index))->ref();
  }

  bool StoreOfClusterReachable(SwapClusterId id) {
    const swap::SwapClusterInfo* info = world_.manager.registry().Find(id);
    if (info->state != swap::SwapState::kSwapped) return true;
    for (const swap::ReplicaLocation& replica : info->replicas) {
      if (world_.network.IsOnline(replica.device) &&
          world_.network.InRange(MiddlewareWorld::kDevice, replica.device)) {
        return true;
      }
    }
    return false;
  }

  /// Verifies object i's value and the value sequence reachable from it
  /// (bounded walk — links may form cycles).
  void VerifyFrom(int start) {
    // Skip verification if any swapped cluster's store is unreachable: the
    // walk may legitimately fail with kUnavailable then.
    for (SwapClusterId id : clusters_) {
      if (!StoreOfClusterReachable(id)) return;
    }
    int model_index = start;
    ASSERT_TRUE(world_.rt
                    .SetGlobal("cursor", *world_.rt.GetGlobal(Global(start)))
                    .ok());
    for (int steps = 0; steps <= kObjects + 2; ++steps) {
      Value cursor = *world_.rt.GetGlobal("cursor");
      if (model_index < 0) {
        ASSERT_TRUE(!cursor.is_ref() || cursor.ref() == nullptr)
            << "walk longer than model";
        return;
      }
      ASSERT_TRUE(cursor.is_ref() && cursor.ref() != nullptr)
          << "walk shorter than model at step " << steps;
      Result<Value> value = world_.rt.Invoke(cursor.ref(), "get_value");
      ASSERT_TRUE(value.ok()) << value.status().ToString();
      ASSERT_EQ(value->as_int(), model_.values[model_index])
          << "value mismatch at step " << steps;
      Result<Value> next = world_.rt.Invoke(cursor.ref(), "next");
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      ASSERT_TRUE(world_.rt.SetGlobal("cursor", *next).ok());
      model_index = model_.next[model_index];
    }
  }

  MiddlewareWorld world_;
  const runtime::ClassInfo* node_cls_ = nullptr;
  net::StoreNode* store_a_ = nullptr;
  net::StoreNode* store_b_ = nullptr;
  std::vector<SwapClusterId> clusters_;
  Model model_;
  Rng rng_;
};

TEST_P(ChaosFixture, RandomOperationsMatchShadowModel) {
  for (int op = 0; op < kOps; ++op) {
    switch (rng_.NextBelow(10)) {
      case 0:
      case 1:
      case 2: {  // write a value through the mediated handle
        int i = static_cast<int>(rng_.NextBelow(kObjects));
        int64_t v = rng_.NextInt(-1000, 1000);
        SwapClusterId cluster = clusters_[i / kPerCluster];
        Status status = world_.rt
                            .Invoke(Handle(i), "set_value", {Value::Int(v)})
                            .status();
        if (status.ok()) {
          model_.values[static_cast<size_t>(i)] = v;
        } else {
          ASSERT_EQ(status.code(), StatusCode::kUnavailable);
          ASSERT_FALSE(StoreOfClusterReachable(cluster));
        }
        break;
      }
      case 3:
      case 4: {  // re-link i -> j (possibly cross-cluster, possibly cyclic)
        int i = static_cast<int>(rng_.NextBelow(kObjects));
        Value target = Value::Nil();
        int j = -1;
        if (rng_.NextBool(0.8)) {
          j = static_cast<int>(rng_.NextBelow(kObjects));
          target = *world_.rt.GetGlobal(Global(j));
        }
        Status status =
            world_.rt.Invoke(Handle(i), "link", {target}).status();
        if (status.ok()) {
          model_.next[static_cast<size_t>(i)] = j;
        } else {
          ASSERT_EQ(status.code(), StatusCode::kUnavailable);
        }
        break;
      }
      case 5: {  // swap out a random cluster (any failure is acceptable)
        SwapClusterId id = clusters_[rng_.NextBelow(clusters_.size())];
        (void)world_.manager.SwapOut(id);
        break;
      }
      case 6: {  // explicit swap-in of a random cluster
        SwapClusterId id = clusters_[rng_.NextBelow(clusters_.size())];
        if (world_.manager.StateOf(id) == swap::SwapState::kSwapped &&
            StoreOfClusterReachable(id)) {
          ASSERT_TRUE(world_.manager.SwapIn(id).ok());
        }
        break;
      }
      case 7: {  // collection
        world_.rt.heap().Collect();
        break;
      }
      case 8: {  // store churn
        net::StoreNode* store = rng_.NextBool(0.5) ? store_a_ : store_b_;
        world_.network.SetOnline(store->device(),
                                 !world_.network.IsOnline(store->device()));
        break;
      }
      case 9: {  // verify a random walk right now
        VerifyFrom(static_cast<int>(rng_.NextBelow(kObjects)));
        break;
      }
    }
    std::string violation = CheckMediationInvariant(world_.rt);
    ASSERT_EQ(violation, "") << "after op " << op;
    ASSERT_EQ(CheckHoldingsIndex(world_.manager), "") << "after op " << op;
  }

  // Final: bring every store back, reload everything, verify all objects.
  world_.network.SetOnline(store_a_->device(), true);
  world_.network.SetOnline(store_b_->device(), true);
  for (SwapClusterId id : clusters_) {
    if (world_.manager.StateOf(id) == swap::SwapState::kSwapped) {
      ASSERT_TRUE(world_.manager.SwapIn(id).ok());
    }
  }
  for (int i = 0; i < kObjects; ++i) {
    VerifyFrom(i);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Reloaded-but-unwritten clusters legitimately retain clean-image store
  // entries; dirty everything and drain deferred drops, then the stores
  // must hold nothing.
  for (SwapClusterId id : clusters_) world_.manager.MarkDirty(id);
  world_.manager.replicas().FlushPendingDrops();
  EXPECT_EQ(store_a_->entry_count() + store_b_->entry_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosFixture,
                         ::testing::Range<uint64_t>(1, 13));

// Lossy links + store churn + one permanent departure, with K = 2.
// Stores flap on a fixed schedule (one at a time), every message can be
// lost, and halfway through one store leaves for good. The durability
// monitor runs alongside; at the end every cluster must still be loadable
// from a survivor and every value must match the shadow model — replication
// must turn churn into latency, never into data loss. (Store emptiness is
// NOT asserted: a store op whose response is lost through all retries can
// legitimately orphan one entry until the deferred-drop queue drains.)
TEST(ChurnChaosTest, LossyLinksAndChurningStoresLoseNoDataWithTwoReplicas) {
  swap::SwappingManager::Options options;
  options.replication_factor = 2;
  MiddlewareWorld world(options);
  net::LinkParams lossy;
  lossy.loss_rate = 0.08;
  world.network.SetDefaultLinkParams(lossy);
  const runtime::ClassInfo* node_cls = RegisterChaosNode(world.rt);
  std::vector<net::StoreNode*> stores = {world.AddStore(2, 8 * 1024 * 1024),
                                         world.AddStore(3, 8 * 1024 * 1024),
                                         world.AddStore(4, 8 * 1024 * 1024)};
  swap::DurabilityMonitor monitor(world.manager, world.discovery,
                                  MiddlewareWorld::kDevice, world.bus);

  Model model;
  model.values.resize(kObjects, 0);
  model.next.resize(kObjects, -1);
  std::vector<SwapClusterId> clusters;
  int cluster_count = (kObjects + kPerCluster - 1) / kPerCluster;
  for (int c = 0; c < cluster_count; ++c)
    clusters.push_back(world.manager.NewSwapCluster());
  auto global = [](int i) { return "o" + std::to_string(i); };
  for (int i = 0; i < kObjects; ++i) {
    runtime::LocalScope scope(world.rt.heap());
    Object* obj = world.rt.New(node_cls);
    scope.Add(obj);
    ASSERT_TRUE(world.manager.Place(obj, clusters[i / kPerCluster]).ok());
    ASSERT_TRUE(world.rt.SetGlobal(global(i), Value::Ref(obj)).ok());
  }

  Rng rng(99);
  DeviceId departed;  // invalid until the permanent departure happens
  for (int op = 0; op < kOps; ++op) {
    // Scripted churn, one store at a time: store (op/40 mod 3) is offline
    // for the second half of every 40-op window.
    for (size_t s = 0; s < stores.size(); ++s) {
      DeviceId device = stores[s]->device();
      if (device == departed) continue;
      bool down = (op / 40) % stores.size() == s && op % 40 >= 20;
      world.network.SetOnline(device, !down);
    }
    if (op == kOps / 2) {
      // Permanent, unannounced departure of whatever store currently
      // holds the most replicas.
      departed = stores[0]->device();
      world.network.RemoveDevice(departed);
    }
    if (op % 10 == 0) monitor.Poll();

    switch (rng.NextBelow(8)) {
      case 0:
      case 1:
      case 2: {  // write through the mediated handle
        int i = static_cast<int>(rng.NextBelow(kObjects));
        int64_t v = rng.NextInt(-1000, 1000);
        Object* handle = world.rt.GetGlobal(global(i))->ref();
        Status status =
            world.rt.Invoke(handle, "set_value", {Value::Int(v)}).status();
        if (status.ok()) {
          model.values[static_cast<size_t>(i)] = v;
        } else {
          // Loss or unreachable replicas: the write did not land.
          ASSERT_EQ(status.code(), StatusCode::kUnavailable);
        }
        break;
      }
      case 3: {  // re-link
        int i = static_cast<int>(rng.NextBelow(kObjects));
        Value target = Value::Nil();
        int j = -1;
        if (rng.NextBool(0.8)) {
          j = static_cast<int>(rng.NextBelow(kObjects));
          target = *world.rt.GetGlobal(global(j));
        }
        Object* handle = world.rt.GetGlobal(global(i))->ref();
        Status status = world.rt.Invoke(handle, "link", {target}).status();
        if (status.ok()) {
          model.next[static_cast<size_t>(i)] = j;
        } else {
          ASSERT_EQ(status.code(), StatusCode::kUnavailable);
        }
        break;
      }
      case 4:
      case 5: {  // swap a random cluster out (any failure tolerated)
        (void)world.manager.SwapOut(clusters[rng.NextBelow(clusters.size())]);
        break;
      }
      case 6: {  // swap a random cluster in (kUnavailable tolerated)
        SwapClusterId id = clusters[rng.NextBelow(clusters.size())];
        if (world.manager.StateOf(id) == swap::SwapState::kSwapped) {
          Status status = world.manager.SwapIn(id);
          if (!status.ok()) {
            ASSERT_EQ(status.code(), StatusCode::kUnavailable);
          }
        }
        break;
      }
      case 7: {
        world.rt.heap().Collect();
        break;
      }
    }
    std::string violation = CheckMediationInvariant(world.rt);
    ASSERT_EQ(violation, "") << "after op " << op;
    ASSERT_EQ(CheckHoldingsIndex(world.manager), "") << "after op " << op;
  }

  // Settle: survivors online, links clean, monitor finishes recovery.
  for (net::StoreNode* store : stores) {
    if (store->device() != departed)
      world.network.SetOnline(store->device(), true);
  }
  world.network.SetDefaultLinkParams(net::LinkParams());
  for (int i = 0; i < 5; ++i) monitor.Poll();

  // No data loss: every swapped cluster still has a fetchable replica on a
  // surviving store, and every value matches the shadow model.
  for (SwapClusterId id : clusters) {
    const swap::SwapClusterInfo* info = world.manager.registry().Find(id);
    if (info->state != swap::SwapState::kSwapped) continue;
    ASSERT_FALSE(info->replicas.empty()) << "cluster " << id.ToString();
    ASSERT_TRUE(world.manager.SwapIn(id).ok()) << "cluster " << id.ToString();
  }
  for (int i = 0; i < kObjects; ++i) {
    Object* handle = world.rt.GetGlobal(global(i))->ref();
    Result<Value> value = world.rt.Invoke(handle, "get_value");
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(value->as_int(), model.values[static_cast<size_t>(i)])
        << "object " << i;
  }
  EXPECT_GT(world.manager.stats().replicas_placed,
            world.manager.stats().swap_outs);
}

}  // namespace
}  // namespace obiswap
