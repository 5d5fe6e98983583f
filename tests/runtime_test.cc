// Tests for the managed runtime: type registry, heap/GC, weak refs,
// finalizers, handle scopes, capacity pressure, fields, globals, invocation.
#include <gtest/gtest.h>

#include <vector>

#include "runtime/runtime.h"

namespace obiswap::runtime {
namespace {

class RuntimeFixture : public ::testing::Test {
 protected:
  RuntimeFixture() {
    node_cls_ = *rt_.types().Register(
        ClassBuilder("Node")
            .Field("next", ValueKind::kRef)
            .Field("value", ValueKind::kInt)
            .Field("name", ValueKind::kStr)
            .PayloadBytes(64)
            .Method("get_value",
                    [](Runtime& rt, Object* self, runtime::Args) {
                      return Result<Value>(rt.GetFieldAt(self, 1));
                    })
            .Method("next",
                    [](Runtime& rt, Object* self, runtime::Args) {
                      return Result<Value>(rt.GetFieldAt(self, 0));
                    })
            .Method("add",
                    [](Runtime&, Object*, runtime::Args args) {
                      return Result<Value>(Value::Int(args[0].as_int() +
                                                      args[1].as_int()));
                    }));
  }

  /// Builds a rooted linked list of `n` nodes; returns the head.
  Object* MakeList(int n, const char* global_name = "head") {
    LocalScope scope(rt_.heap());
    Object* head = nullptr;
    for (int i = n - 1; i >= 0; --i) {
      Object** guard = scope.Add(head);  // keep previous head alive
      Object* node = rt_.New(node_cls_);
      OBISWAP_CHECK(rt_.SetField(node, "value", Value::Int(i)).ok());
      if (head != nullptr) {
        OBISWAP_CHECK(rt_.SetField(node, "next", Value::Ref(*guard)).ok());
      }
      head = node;
    }
    OBISWAP_CHECK(rt_.SetGlobal(global_name, Value::Ref(head)).ok());
    return head;
  }

  Runtime rt_;
  const ClassInfo* node_cls_ = nullptr;
};

// --------------------------------------------------------------- classes --

TEST_F(RuntimeFixture, ClassRegistration) {
  EXPECT_EQ(rt_.types().Find("Node"), node_cls_);
  EXPECT_EQ(rt_.types().Find("Missing"), nullptr);
  EXPECT_EQ(rt_.types().Find(node_cls_->id()), node_cls_);
  EXPECT_EQ(node_cls_->fields().size(), 3u);
  EXPECT_EQ(node_cls_->FieldIndex("value"), 1u);
  EXPECT_EQ(node_cls_->FieldIndex("nope"), ClassInfo::kNpos);
  EXPECT_NE(node_cls_->FindMethod(Selector("add")), nullptr);
  EXPECT_EQ(node_cls_->FindMethod(Selector("nope")), nullptr);
}

TEST_F(RuntimeFixture, DuplicateClassNameRejected) {
  auto result = rt_.types().Register(ClassBuilder("Node"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(RuntimeFixture, ObjectIdsAreUniqueAndNamespaced) {
  Object* a = rt_.New(node_cls_);
  Object* b = rt_.New(node_cls_);
  EXPECT_NE(a->oid(), b->oid());
  EXPECT_EQ(a->oid().value() >> 48, 1u);  // process id 1
  Runtime other(7);
  const ClassInfo* cls = *other.types().Register(ClassBuilder("X"));
  EXPECT_EQ(other.New(cls)->oid().value() >> 48, 7u);
}

// ---------------------------------------------------------------- fields --

TEST_F(RuntimeFixture, FieldRoundTrip) {
  LocalScope scope(rt_.heap());
  Object* node = rt_.New(node_cls_);
  scope.Add(node);
  ASSERT_TRUE(rt_.SetField(node, "value", Value::Int(9)).ok());
  ASSERT_TRUE(rt_.SetField(node, "name", Value::Str("n9")).ok());
  EXPECT_EQ(rt_.GetField(node, "value")->as_int(), 9);
  EXPECT_EQ(rt_.GetField(node, "name")->as_str(), "n9");
  EXPECT_TRUE(rt_.GetField(node, "next")->is_nil());
}

TEST_F(RuntimeFixture, FieldTypeEnforced) {
  Object* node = rt_.New(node_cls_);
  EXPECT_FALSE(rt_.SetField(node, "value", Value::Str("oops")).ok());
  EXPECT_TRUE(rt_.SetField(node, "value", Value::Nil()).ok());  // nil allowed
}

TEST_F(RuntimeFixture, UnknownFieldErrors) {
  Object* node = rt_.New(node_cls_);
  EXPECT_EQ(rt_.GetField(node, "zap").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(rt_.SetField(node, "zap", Value::Int(1)).code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(rt_.SetFieldAt(node, 99, Value::Int(1)).ok());
}

TEST_F(RuntimeFixture, NullObjectErrors) {
  EXPECT_FALSE(rt_.GetField(nullptr, "x").ok());
  EXPECT_FALSE(rt_.SetField(nullptr, "x", Value::Nil()).ok());
  EXPECT_FALSE(rt_.Invoke(nullptr, "m").ok());
}

TEST_F(RuntimeFixture, StringFieldAdjustsAccounting) {
  LocalScope scope(rt_.heap());
  Object* node = rt_.New(node_cls_);
  scope.Add(node);
  size_t before = rt_.heap().used_bytes();
  ASSERT_TRUE(
      rt_.SetField(node, "name", Value::Str(std::string(10000, 'x'))).ok());
  EXPECT_GT(rt_.heap().used_bytes(), before + 9000);
  ASSERT_TRUE(rt_.SetField(node, "name", Value::Str("")).ok());
  EXPECT_LT(rt_.heap().used_bytes(), before + 1000);
}

// --------------------------------------------------------------- globals --

TEST_F(RuntimeFixture, GlobalsRoundTrip) {
  ASSERT_TRUE(rt_.SetGlobal("counter", Value::Int(3)).ok());
  EXPECT_EQ(rt_.GetGlobal("counter")->as_int(), 3);
  EXPECT_TRUE(rt_.HasGlobal("counter"));
  rt_.RemoveGlobal("counter");
  EXPECT_FALSE(rt_.HasGlobal("counter"));
  EXPECT_FALSE(rt_.GetGlobal("counter").ok());
}

TEST_F(RuntimeFixture, GlobalsAreGcRoots) {
  MakeList(10);
  rt_.heap().Collect();
  EXPECT_GE(rt_.heap().live_objects(), 10u);
  rt_.RemoveGlobal("head");
  rt_.heap().Collect();
  EXPECT_EQ(rt_.heap().live_objects(), 0u);
}

// ------------------------------------------------------------ invocation --

TEST_F(RuntimeFixture, DirectInvocation) {
  LocalScope scope(rt_.heap());
  Object* node = rt_.New(node_cls_);
  scope.Add(node);
  ASSERT_TRUE(rt_.SetField(node, "value", Value::Int(5)).ok());
  auto result = rt_.Invoke(node, "get_value");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->as_int(), 5);
  EXPECT_EQ(rt_.stats().direct_invocations, 1u);
}

TEST_F(RuntimeFixture, InvocationWithArgs) {
  Object* node = rt_.New(node_cls_);
  auto result = rt_.Invoke(node, "add", {Value::Int(2), Value::Int(40)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->as_int(), 42);
}

TEST_F(RuntimeFixture, UnknownMethodErrors) {
  Object* node = rt_.New(node_cls_);
  EXPECT_EQ(rt_.Invoke(node, "fly").status().code(), StatusCode::kNotFound);
}

TEST_F(RuntimeFixture, CurrentSwapClusterTracksReceiver) {
  const ClassInfo* probe = *rt_.types().Register(ClassBuilder("Probe").Method(
      "whoami", [](Runtime& rt, Object*, runtime::Args) {
        return Result<Value>(
            Value::Int(static_cast<int64_t>(rt.CurrentSwapCluster().value())));
      }));
  LocalScope scope(rt_.heap());
  Object* obj = rt_.New(probe);
  scope.Add(obj);
  obj->set_swap_cluster(SwapClusterId(5));
  EXPECT_EQ(rt_.CurrentSwapCluster(), kSwapCluster0);
  EXPECT_EQ(rt_.Invoke(obj, "whoami")->as_int(), 5);
  EXPECT_EQ(rt_.CurrentSwapCluster(), kSwapCluster0);
}

TEST_F(RuntimeFixture, NewObjectsInheritCreatorsSwapCluster) {
  const ClassInfo* node_cls = node_cls_;
  const ClassInfo* factory = *rt_.types().Register(
      ClassBuilder("Factory").Method(
          "make", [node_cls](Runtime& rt, Object*, runtime::Args) {
            return Result<Value>(Value::Ref(rt.New(node_cls)));
          }));
  LocalScope scope(rt_.heap());
  Object* obj = rt_.New(factory);
  scope.Add(obj);
  obj->set_swap_cluster(SwapClusterId(9));
  auto result = rt_.Invoke(obj, "make");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ref()->swap_cluster(), SwapClusterId(9));
}

// --------------------------------------------------------------- heap/GC --

TEST_F(RuntimeFixture, UnreachableObjectsAreCollected) {
  for (int i = 0; i < 100; ++i) rt_.New(node_cls_);
  rt_.heap().Collect();
  EXPECT_EQ(rt_.heap().live_objects(), 0u);
  EXPECT_EQ(rt_.heap().stats().objects_freed, 100u);
}

TEST_F(RuntimeFixture, ReachableChainSurvives) {
  MakeList(50);
  rt_.heap().Collect();
  EXPECT_EQ(rt_.heap().live_objects(), 50u);
}

TEST_F(RuntimeFixture, LocalScopeRootsProtect) {
  LocalScope outer(rt_.heap());
  Object* kept = rt_.New(node_cls_);
  outer.Add(kept);
  {
    LocalScope inner(rt_.heap());
    inner.Add(rt_.New(node_cls_));
    rt_.heap().Collect();
    EXPECT_EQ(rt_.heap().live_objects(), 2u);
  }
  rt_.heap().Collect();
  EXPECT_EQ(rt_.heap().live_objects(), 1u);
}

TEST_F(RuntimeFixture, CyclesAreCollected) {
  {
    LocalScope scope(rt_.heap());
    Object* a = rt_.New(node_cls_);
    scope.Add(a);
    Object* b = rt_.New(node_cls_);
    ASSERT_TRUE(rt_.SetField(a, "next", Value::Ref(b)).ok());
    ASSERT_TRUE(rt_.SetField(b, "next", Value::Ref(a)).ok());
  }
  rt_.heap().Collect();
  EXPECT_EQ(rt_.heap().live_objects(), 0u);
}

TEST_F(RuntimeFixture, UsedBytesTracksAllocAndFree) {
  EXPECT_EQ(rt_.heap().used_bytes(), 0u);
  MakeList(10);
  size_t with_list = rt_.heap().used_bytes();
  EXPECT_GT(with_list, 10 * 64u);  // at least the payload bytes
  rt_.RemoveGlobal("head");
  rt_.heap().Collect();
  EXPECT_EQ(rt_.heap().used_bytes(), 0u);
}

TEST_F(RuntimeFixture, ScheduledGcBoundsFloatingGarbage) {
  // Allocate ~10 MiB of garbage; scheduled collections must keep the live
  // set bounded well below that.
  for (int i = 0; i < 100000; ++i) rt_.New(node_cls_);
  EXPECT_GT(rt_.heap().stats().collections, 0u);
  EXPECT_LT(rt_.heap().used_bytes(), 8u * 1024 * 1024);
}

// -------------------------------------------------------------- weakrefs --

TEST_F(RuntimeFixture, WeakRefClearsOnCollect) {
  WeakRef weak;
  {
    LocalScope scope(rt_.heap());
    Object* obj = rt_.New(node_cls_);
    scope.Add(obj);
    weak = rt_.heap().NewWeakRef(obj);
    rt_.heap().Collect();
    EXPECT_EQ(weak->get(), obj);  // still rooted
  }
  rt_.heap().Collect();
  EXPECT_EQ(weak->get(), nullptr);
  EXPECT_TRUE(weak->cleared());
  EXPECT_EQ(rt_.heap().stats().weakrefs_cleared, 1u);
}

TEST_F(RuntimeFixture, WeakRefDoesNotKeepAlive) {
  WeakRef weak = rt_.heap().NewWeakRef(rt_.New(node_cls_));
  rt_.heap().Collect();
  EXPECT_EQ(rt_.heap().live_objects(), 0u);
  EXPECT_TRUE(weak->cleared());
}

TEST_F(RuntimeFixture, DroppedWeakRefsArePruned) {
  for (int i = 0; i < 10; ++i) {
    WeakRef weak = rt_.heap().NewWeakRef(rt_.New(node_cls_));
    // dropped immediately
  }
  rt_.heap().Collect();
  // No crash and no stale growth: allocate again and collect again.
  rt_.New(node_cls_);
  rt_.heap().Collect();
  SUCCEED();
}

TEST_F(RuntimeFixture, ClearedWeakRefStaysClearedAndCountsOnce) {
  WeakRef weak = rt_.heap().NewWeakRef(rt_.New(node_cls_));
  rt_.heap().Collect();
  ASSERT_TRUE(weak->cleared());
  EXPECT_EQ(rt_.heap().stats().weakrefs_cleared, 1u);
  // The holder keeps the cell; later collections (with fresh garbage) must
  // neither revisit nor recount it.
  for (int i = 0; i < 100; ++i) {
    rt_.New(node_cls_);
    rt_.heap().Collect();
    EXPECT_TRUE(weak->cleared());
  }
  EXPECT_EQ(rt_.heap().stats().weakrefs_cleared, 1u);
  EXPECT_EQ(rt_.heap().tracked_weak_cells(), 0u);
}

TEST_F(RuntimeFixture, TrackedWeakCellsFallToLiveReferents) {
  rt_.heap().Collect();
  const size_t base = rt_.heap().tracked_weak_cells();
  LocalScope scope(rt_.heap());
  std::vector<WeakRef> held;
  for (int i = 0; i < 10; ++i) {
    Object* obj = rt_.New(node_cls_);
    if (i < 3) scope.Add(obj);  // three referents stay reachable
    held.push_back(rt_.heap().NewWeakRef(obj));
  }
  EXPECT_EQ(rt_.heap().tracked_weak_cells(), base + 10);
  rt_.heap().Collect();
  // Every holder still keeps its cell, but only live referents are tracked.
  EXPECT_EQ(rt_.heap().tracked_weak_cells(), base + 3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(held[i]->cleared(), i >= 3);
}

TEST_F(RuntimeFixture, ExtendedWeakRefPersistsOnceWhileHeld) {
  int persists = 0;
  WeakRef cell = rt_.heap().NewExtendedWeakRef(
      rt_.New(node_cls_), [&persists](Object*) { ++persists; });
  for (int i = 0; i < 10; ++i) rt_.heap().Collect();
  EXPECT_EQ(persists, 1);
  EXPECT_TRUE(cell->cleared());
  EXPECT_EQ(rt_.heap().stats().extended_persists, 1u);
  EXPECT_EQ(rt_.heap().tracked_extended_cells(), 0u);
}

TEST_F(RuntimeFixture, WeakRefsClearBeforeAnyFinalizerRuns) {
  // A and B die in the same collection and A's finalizer reads a weak ref
  // to B: it must see null whichever of the two the sweep reaches first.
  WeakRef to_b;
  int runs = 0;
  int saw_live_b = 0;
  const ClassInfo* watcher_cls = *rt_.types().Register(
      ClassBuilder("WatchesB").OnFinalize([&](Object*) {
        ++runs;
        if (to_b->get() != nullptr) ++saw_live_b;
      }));
  for (bool a_first : {true, false}) {
    {
      LocalScope scope(rt_.heap());
      Object* a = nullptr;
      Object* b = nullptr;
      if (a_first) {
        a = *scope.Add(rt_.New(watcher_cls));
        b = *scope.Add(rt_.New(node_cls_));
      } else {
        b = *scope.Add(rt_.New(node_cls_));
        a = *scope.Add(rt_.New(watcher_cls));
      }
      ASSERT_NE(a, nullptr);
      to_b = rt_.heap().NewWeakRef(b);
    }
    rt_.heap().Collect();
    EXPECT_TRUE(to_b->cleared());
  }
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(saw_live_b, 0);
}

// ------------------------------------------------------------ finalizers --

TEST_F(RuntimeFixture, FinalizerRunsOnceOnDeath) {
  int runs = 0;
  const ClassInfo* fin_cls = *rt_.types().Register(
      ClassBuilder("Fin").OnFinalize([&runs](Object*) { ++runs; }));
  {
    LocalScope scope(rt_.heap());
    scope.Add(rt_.New(fin_cls));
    rt_.heap().Collect();
    EXPECT_EQ(runs, 0);  // still alive
  }
  rt_.heap().Collect();
  EXPECT_EQ(runs, 1);
  rt_.heap().Collect();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(rt_.heap().stats().finalizers_run, 1u);
}

TEST_F(RuntimeFixture, FinalizerSeesObjectFields) {
  int64_t seen = 0;
  const ClassInfo* fin_cls = *rt_.types().Register(
      ClassBuilder("Fin2")
          .Field("tag", ValueKind::kInt)
          .OnFinalize([&seen](Object* obj) { seen = obj->RawSlot(0).as_int(); }));
  Object* obj = rt_.New(fin_cls);
  ASSERT_TRUE(rt_.SetField(obj, "tag", Value::Int(77)).ok());
  rt_.heap().Collect();
  EXPECT_EQ(seen, 77);
}

// ------------------------------------------------------ capacity/pressure --

TEST(HeapCapacityTest, AllocationFailsWhenFull) {
  Runtime rt(1, /*capacity_bytes=*/16 * 1024);
  const ClassInfo* cls =
      *rt.types().Register(ClassBuilder("Big").PayloadBytes(4096));
  LocalScope scope(rt.heap());
  // Fill the heap with rooted objects until exhaustion.
  Status last = OkStatus();
  int allocated = 0;
  for (int i = 0; i < 100; ++i) {
    auto result = rt.TryNew(cls);
    if (!result.ok()) {
      last = result.status();
      break;
    }
    scope.Add(*result);
    ++allocated;
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(allocated, 1);
  EXPECT_LT(allocated, 5);
}

TEST(HeapCapacityTest, CollectionMakesRoomForGarbage) {
  Runtime rt(1, /*capacity_bytes=*/64 * 1024);
  const ClassInfo* cls =
      *rt.types().Register(ClassBuilder("Big").PayloadBytes(4096));
  // Unrooted garbage: the capacity-triggered GC must reclaim it, so far more
  // than capacity/object_size allocations succeed.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(rt.TryNew(cls).ok()) << i;
  }
  EXPECT_GT(rt.heap().stats().collections, 0u);
}

TEST(HeapCapacityTest, PressureHandlerIsCalledAndCanFreeMemory) {
  Runtime rt(1, /*capacity_bytes=*/64 * 1024);
  const ClassInfo* cls =
      *rt.types().Register(ClassBuilder("Big").PayloadBytes(8 * 1024));
  LocalScope scope(rt.heap());
  std::vector<Object**> pinned;
  for (;;) {
    auto result = rt.TryNew(cls);
    if (!result.ok()) break;
    pinned.push_back(scope.Add(*result));
  }
  // Handler releases one pinned object per call ("swap-out" stand-in).
  int pressure_calls = 0;
  rt.heap().SetPressureHandler([&](size_t) {
    ++pressure_calls;
    if (pinned.empty()) return false;
    *pinned.back() = nullptr;
    pinned.pop_back();
    return true;
  });
  auto result = rt.TryNew(cls);
  EXPECT_TRUE(result.ok());
  EXPECT_GT(pressure_calls, 0);
  EXPECT_GT(rt.heap().stats().pressure_events, 0u);
}

TEST(HeapCapacityTest, PressureHandlerGivingUpYieldsExhausted) {
  Runtime rt(1, /*capacity_bytes=*/32 * 1024);
  const ClassInfo* cls =
      *rt.types().Register(ClassBuilder("Big").PayloadBytes(8 * 1024));
  LocalScope scope(rt.heap());
  for (;;) {
    auto result = rt.TryNew(cls);
    if (!result.ok()) break;
    scope.Add(*result);
  }
  int calls = 0;
  rt.heap().SetPressureHandler([&](size_t) {
    ++calls;
    return false;
  });
  auto result = rt.TryNew(cls);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------- values --

TEST(ValueTest, Kinds) {
  EXPECT_TRUE(Value::Nil().is_nil());
  EXPECT_TRUE(Value::Int(1).is_int());
  EXPECT_TRUE(Value::Real(1.5).is_real());
  EXPECT_TRUE(Value::Str("s").is_str());
  EXPECT_EQ(Value::Int(1).as_int(), 1);
  EXPECT_DOUBLE_EQ(Value::Real(1.5).as_real(), 1.5);
  EXPECT_EQ(Value::Str("s").as_str(), "s");
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value::Nil(), Value::Nil());
  EXPECT_EQ(Value::Int(3), Value::Int(3));
  EXPECT_FALSE(Value::Int(3) == Value::Int(4));
  EXPECT_FALSE(Value::Int(3) == Value::Real(3.0));
  EXPECT_EQ(Value::Str("a"), Value::Str("a"));
}

// ---------------------------------------------------- explicit reclamation --

constexpr SwapClusterId kReclaimed = SwapClusterId(7);

/// Every collector counter, for "changed nothing" comparisons.
std::vector<uint64_t> Counters(const Heap::Stats& s) {
  return {s.collections,    s.reclaims,          s.objects_freed,
          s.bytes_freed,    s.finalizers_run,    s.weakrefs_cleared,
          s.extended_persists, s.pressure_events};
}

/// A root provider holding one object (a replication registry stand-in).
class OneRoot : public RootProvider {
 public:
  explicit OneRoot(Object* root) : root_(root) {}
  void EnumerateRoots(const std::function<void(Object*)>& visit) override {
    visit(root_);
  }

 private:
  Object* root_;
};

class ReclaimFixture : public RuntimeFixture {
 protected:
  /// `n` unrooted nodes labelled kReclaimed, chained through "next".
  std::vector<Object*> MakeSet(int n) {
    LocalScope scope(rt_.heap());
    std::vector<Object*> set;
    for (int i = 0; i < n; ++i) {
      Object* node = rt_.New(node_cls_);
      scope.Add(node);
      node->set_swap_cluster(kReclaimed);
      OBISWAP_CHECK(rt_.SetField(node, "value", Value::Int(i)).ok());
      if (!set.empty())
        OBISWAP_CHECK(rt_.SetField(set.back(), "next", Value::Ref(node)).ok());
      set.push_back(node);
    }
    return set;
  }
};

TEST_F(ReclaimFixture, RefusesWhileALocalHoldsAMember) {
  std::vector<Object*> set = MakeSet(3);
  WeakRef weak = rt_.heap().NewWeakRef(set[0]);
  const std::vector<uint64_t> before = Counters(rt_.heap().stats());
  {
    LocalScope scope(rt_.heap());
    scope.Add(set[2]);
    EXPECT_FALSE(rt_.heap().Reclaim(set, kReclaimed));
  }
  EXPECT_EQ(Counters(rt_.heap().stats()), before);
  EXPECT_EQ(rt_.heap().live_objects(), 3u);
  EXPECT_FALSE(weak->cleared());
  EXPECT_TRUE(rt_.heap().Reclaim(set, kReclaimed));
  EXPECT_EQ(rt_.heap().live_objects(), 0u);
  EXPECT_TRUE(weak->cleared());
}

TEST_F(ReclaimFixture, RefusesWhileAGlobalHoldsAMember) {
  std::vector<Object*> set = MakeSet(3);
  const size_t used = rt_.heap().used_bytes();
  const std::vector<uint64_t> before = Counters(rt_.heap().stats());
  ASSERT_TRUE(rt_.SetGlobal("g", Value::Ref(set[1])).ok());
  EXPECT_FALSE(rt_.heap().Reclaim(set, kReclaimed));
  EXPECT_EQ(Counters(rt_.heap().stats()), before);
  EXPECT_EQ(rt_.heap().used_bytes(), used);
  rt_.RemoveGlobal("g");
  EXPECT_TRUE(rt_.heap().Reclaim(set, kReclaimed));
  EXPECT_EQ(rt_.heap().used_bytes(), 0u);
}

TEST_F(ReclaimFixture, RefusesWhileARootProviderHoldsAMember) {
  std::vector<Object*> set = MakeSet(3);
  const std::vector<uint64_t> before = Counters(rt_.heap().stats());
  OneRoot root(set[0]);
  rt_.heap().AddRootProvider(&root);
  EXPECT_FALSE(rt_.heap().Reclaim(set, kReclaimed));
  EXPECT_EQ(Counters(rt_.heap().stats()), before);
  EXPECT_EQ(rt_.heap().live_objects(), 3u);
  rt_.heap().RemoveRootProvider(&root);
  EXPECT_TRUE(rt_.heap().Reclaim(set, kReclaimed));
  EXPECT_EQ(rt_.heap().live_objects(), 0u);
  EXPECT_EQ(rt_.heap().stats().objects_freed, 3u);
  EXPECT_EQ(rt_.heap().stats().reclaims, 1u);
  EXPECT_EQ(rt_.heap().stats().collections, before[0]);
}

TEST_F(ReclaimFixture, RootsOutsideTheClusterDoNotBlock) {
  std::vector<Object*> set = MakeSet(2);
  LocalScope scope(rt_.heap());
  Object* bystander = rt_.New(node_cls_);
  scope.Add(bystander);
  EXPECT_TRUE(rt_.heap().Reclaim(set, kReclaimed));
  EXPECT_EQ(rt_.heap().live_objects(), 1u);
}

TEST(ReclaimFinalizerTest, FinalizerSeesWeakRefToAnotherMemberCleared) {
  // Each member's finalizer reads a weak ref to the other: both must read
  // null, whichever runs first.
  Runtime rt;
  std::vector<bool> saw_null;
  std::vector<WeakRef> peer;  // indexed by the member's "value"
  const ClassInfo* cls = *rt.types().Register(
      ClassBuilder("Finalized")
          .Field("value", ValueKind::kInt)
          .OnFinalize([&](Object* dying) {
            const int64_t self = dying->RawSlot(0).as_int();
            saw_null.push_back(peer[1 - self]->get() == nullptr);
          }));
  std::vector<Object*> set;
  {
    LocalScope scope(rt.heap());
    for (int i = 0; i < 2; ++i) {
      Object* obj = rt.New(cls);
      scope.Add(obj);
      obj->set_swap_cluster(kReclaimed);
      obj->RawSlotMutable(0) = Value::Int(i);
      set.push_back(obj);
    }
  }
  peer = {rt.heap().NewWeakRef(set[0]), rt.heap().NewWeakRef(set[1])};
  ASSERT_TRUE(rt.heap().Reclaim(set, kReclaimed));
  EXPECT_EQ(saw_null, std::vector<bool>({true, true}));
  EXPECT_EQ(rt.heap().stats().finalizers_run, 2u);
  EXPECT_EQ(rt.heap().stats().weakrefs_cleared, 2u);
}

TEST_F(ReclaimFixture, ExtendedWeakRefPersistsOnceWithTheObjectIntact) {
  std::vector<Object*> set = MakeSet(2);
  int persists = 0;
  int64_t seen_value = -1;
  WeakRef cell = rt_.heap().NewExtendedWeakRef(set[1], [&](Object* dying) {
    ++persists;
    seen_value = dying->RawSlot(1).as_int();
  });
  ASSERT_TRUE(rt_.heap().Reclaim(set, kReclaimed));
  EXPECT_EQ(persists, 1);
  EXPECT_EQ(seen_value, 1);
  EXPECT_TRUE(cell->cleared());
  EXPECT_EQ(rt_.heap().stats().extended_persists, 1u);
  rt_.heap().Collect();
  EXPECT_EQ(persists, 1);
  EXPECT_EQ(rt_.heap().stats().extended_persists, 1u);
}

TEST_F(ReclaimFixture, LaterCollectCountsNothingTwice) {
  std::vector<Object*> set = MakeSet(5);
  std::vector<WeakRef> weak;
  for (Object* obj : set) weak.push_back(rt_.heap().NewWeakRef(obj));
  ASSERT_TRUE(rt_.heap().Reclaim(set, kReclaimed));
  const Heap::Stats after = rt_.heap().stats();
  EXPECT_EQ(after.objects_freed, 5u);
  EXPECT_EQ(after.weakrefs_cleared, 5u);
  EXPECT_EQ(rt_.heap().used_bytes(), 0u);
  rt_.heap().Collect();
  EXPECT_EQ(rt_.heap().stats().objects_freed, after.objects_freed);
  EXPECT_EQ(rt_.heap().stats().bytes_freed, after.bytes_freed);
  EXPECT_EQ(rt_.heap().stats().weakrefs_cleared, after.weakrefs_cleared);
  EXPECT_EQ(rt_.heap().live_objects(), 0u);
}

TEST_F(ReclaimFixture, SurvivorsKeepAllocationOrderAcrossReclaims) {
  // Reclaiming most of the heap compacts its object table; the survivors
  // must still be visited exactly once, newest first, and still collect.
  MakeList(4, "kept");
  std::vector<Object*> set = MakeSet(20);
  std::vector<Object*> kept;
  rt_.heap().ForEachObject([&](Object* obj) {
    if (obj->swap_cluster() != kReclaimed) kept.push_back(obj);
  });
  ASSERT_EQ(kept.size(), 4u);
  ASSERT_TRUE(rt_.heap().Reclaim(
      std::vector<Object*>(set.begin(), set.begin() + 10), kReclaimed));
  ASSERT_TRUE(rt_.heap().Reclaim(
      std::vector<Object*>(set.begin() + 10, set.end()), kReclaimed));
  std::vector<Object*> seen;
  rt_.heap().ForEachObject([&](Object* obj) { seen.push_back(obj); });
  EXPECT_EQ(seen, kept);
  rt_.RemoveGlobal("kept");
  rt_.heap().Collect();
  EXPECT_EQ(rt_.heap().live_objects(), 0u);
  EXPECT_EQ(rt_.heap().stats().objects_freed, 24u);
}

TEST(ReclaimPressureTest, PressureLoopSkipsCollectWhenTheAllocationFits) {
  Runtime rt(1, /*capacity_bytes=*/64 * 1024);
  const ClassInfo* cls =
      *rt.types().Register(ClassBuilder("Big").PayloadBytes(8 * 1024));
  LocalScope scope(rt.heap());
  std::vector<Object**> pinned;
  for (;;) {
    auto result = rt.TryNew(cls);
    if (!result.ok()) break;
    // One cluster per object: the others stay rooted.
    (*result)->set_swap_cluster(
        SwapClusterId(static_cast<uint32_t>(100 + pinned.size())));
    pinned.push_back(scope.Add(*result));
  }
  // The handler frees one object the way a swap-out does: unroot, Reclaim.
  uint64_t collections_in_handler = 0;
  rt.heap().SetPressureHandler([&](size_t) {
    Object* victim = *pinned.back();
    *pinned.back() = nullptr;
    pinned.pop_back();
    collections_in_handler = rt.heap().stats().collections;
    return rt.heap().Reclaim({victim}, victim->swap_cluster());
  });
  ASSERT_TRUE(rt.TryNew(cls).ok());
  EXPECT_EQ(rt.heap().stats().pressure_events, 1u);
  EXPECT_EQ(rt.heap().stats().reclaims, 1u);
  EXPECT_EQ(rt.heap().stats().collections, collections_in_handler);
}

// --------------------------------------------------------- middleware bits --

TEST_F(RuntimeFixture, AppendedSlotsAreTracedByGc) {
  // Replacement-objects hold outbound references in appended slots; those
  // must keep their targets alive.
  const ClassInfo* holder_cls =
      *rt_.types().Register(ClassBuilder("Holder"));
  LocalScope scope(rt_.heap());
  Object* holder = rt_.New(holder_cls);
  scope.Add(holder);
  Object* kept = rt_.New(node_cls_);
  holder->AppendSlot(Value::Ref(kept));
  rt_.heap().RefreshAccounting(holder);
  rt_.heap().Collect();
  EXPECT_EQ(rt_.heap().live_objects(), 2u);
  holder->RawSlotMutable(0).set_ref(nullptr);
  holder->RawSlotMutable(0) = Value::Nil();
  rt_.heap().Collect();
  EXPECT_EQ(rt_.heap().live_objects(), 1u);
}

TEST(MiddlewareAllocTest, OvercommitsPastCapacityWithoutPressure) {
  runtime::Runtime rt(1, /*capacity_bytes=*/8 * 1024);
  const ClassInfo* cls =
      *rt.types().Register(ClassBuilder("Big").PayloadBytes(4096));
  LocalScope scope(rt.heap());
  // Fill to capacity with application objects.
  for (;;) {
    auto result = rt.TryNew(cls);
    if (!result.ok()) break;
    scope.Add(*result);
  }
  int pressure_calls = 0;
  rt.heap().SetPressureHandler([&](size_t) {
    ++pressure_calls;
    return false;
  });
  // Application allocation fails (after consulting the handler)...
  EXPECT_FALSE(rt.TryNew(cls).ok());
  EXPECT_EQ(pressure_calls, 1);
  // ...but middleware allocation overcommits and never re-enters pressure.
  auto proxyish = rt.TryNewMiddleware(cls);
  EXPECT_TRUE(proxyish.ok());
  EXPECT_EQ(pressure_calls, 1);
  EXPECT_GT(rt.heap().used_bytes(), rt.heap().capacity_bytes());
}

TEST_F(RuntimeFixture, GlobalRefsSnapshotsOnlyReferences) {
  LocalScope scope(rt_.heap());
  Object* a = rt_.New(node_cls_);
  scope.Add(a);
  ASSERT_TRUE(rt_.SetGlobal("obj", Value::Ref(a)).ok());
  ASSERT_TRUE(rt_.SetGlobal("num", Value::Int(3)).ok());
  auto refs = rt_.GlobalRefs();
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].first, "obj");
  EXPECT_EQ(refs[0].second, a);
}

TEST_F(RuntimeFixture, InterceptorMissingIsFailedPrecondition) {
  const ClassInfo* proxyish = *rt_.types().Register(
      ClassBuilder("Proxyish").Kind(runtime::ObjectKind::kSwapClusterProxy));
  LocalScope scope(rt_.heap());
  Object* obj = rt_.New(proxyish);
  scope.Add(obj);
  auto result = rt_.Invoke(obj, "anything");
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(RuntimeFixture, SameObjectDefaultsToPointerIdentity) {
  LocalScope scope(rt_.heap());
  Object* a = rt_.New(node_cls_);
  Object* b = rt_.New(node_cls_);
  scope.Add(a);
  scope.Add(b);
  EXPECT_TRUE(rt_.SameObject(a, a));
  EXPECT_FALSE(rt_.SameObject(a, b));
  EXPECT_FALSE(rt_.SameObject(a, nullptr));
  EXPECT_TRUE(rt_.SameObject(nullptr, nullptr));
}

TEST(ValueTest, KindNamesAreStable) {
  EXPECT_STREQ(ValueKindName(ValueKind::kNil), "nil");
  EXPECT_STREQ(ValueKindName(ValueKind::kRef), "ref");
  EXPECT_STREQ(ValueKindName(ValueKind::kInt), "int");
  EXPECT_STREQ(ValueKindName(ValueKind::kReal), "real");
  EXPECT_STREQ(ValueKindName(ValueKind::kStr), "str");
}

}  // namespace
}  // namespace obiswap::runtime
