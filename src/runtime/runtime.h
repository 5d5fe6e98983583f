// Runtime: one managed process (a "virtual machine" instance on a device).
//
// Ties together the type registry, the heap/LGC, the global variable table
// (the paper's swap-cluster-0), method invocation, and the two hooks the
// swapping layer plugs into *without* modifying this runtime — the whole
// point of the paper is that object-swapping needs only user-level code:
//
//   * Interceptor     — invocation on proxy/replacement kinds is delegated
//                       (object-fault handling, swap-cluster mediation).
//   * StoreMediator   — every reference store (field write or global write)
//                       is mediated so cross-swap-cluster references are
//                       wrapped in swap-cluster-proxies (rules i-iii, §4).
//
// With no hooks installed the runtime behaves like a plain VM — that is the
// paper's "NO SWAP-CLUSTERS" lower-bound configuration.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "runtime/class_registry.h"
#include "runtime/heap.h"
#include "runtime/object.h"

namespace obiswap::runtime {

/// Handles invocations on non-regular object kinds (proxies, replacements).
/// Runs inside Runtime::Invoke with the receiver and reference arguments
/// already rooted; forwards to the real object through Runtime::Invoke.
class Interceptor {
 public:
  virtual ~Interceptor() = default;
  virtual Result<Value> Invoke(Runtime& rt, Object* receiver, Selector method,
                               Args args) = 0;
};

/// Mediates reference stores. `holder` is the object whose field is being
/// written, or nullptr for a global (swap-cluster-0) store. Returns the
/// object that should actually be stored (the value itself, an existing
/// swap-cluster-proxy, or a freshly created one).
class StoreMediator {
 public:
  virtual ~StoreMediator() = default;
  virtual Object* MediateStore(Runtime& rt, Object* holder, Object* value) = 0;

  /// Write-barrier notification: field `slot` of `holder` is about to
  /// change (any value kind — MediateStore alone only sees reference
  /// stores). The swapping layer uses this to mark the holder's
  /// swap-cluster dirty and to track which fields changed (the input to
  /// delta swap-out). Must not allocate on `rt`'s heap. Default: no-op.
  virtual void ObserveFieldWrite(Runtime& rt, Object* holder, size_t slot) {
    (void)rt;
    (void)holder;
    (void)slot;
  }
};

/// Decides reference identity when proxies are involved (paper §4
/// "Enforcing Object Identity" — the C# operator== overload).
class IdentityHook {
 public:
  virtual ~IdentityHook() = default;
  virtual bool SameObject(const Object* a, const Object* b) = 0;
};

class Runtime : public RootProvider {
 public:
  struct Stats {
    uint64_t direct_invocations = 0;
    uint64_t intercepted_invocations = 0;
    uint64_t field_writes = 0;
    uint64_t global_writes = 0;
  };

  /// `process_id` namespaces ObjectIds so replicas keep global identity
  /// across devices; `capacity_bytes` models device RAM.
  explicit Runtime(uint16_t process_id = 1, size_t capacity_bytes = SIZE_MAX);
  ~Runtime() override;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  TypeRegistry& types() { return types_; }
  const TypeRegistry& types() const { return types_; }
  Heap& heap() { return heap_; }
  const Heap& heap() const { return heap_; }
  uint16_t process_id() const { return process_id_; }
  const Stats& stats() const { return stats_; }

  // --- allocation ---------------------------------------------------------
  /// Fresh ObjectId in this process's namespace.
  ObjectId NextObjectId();
  /// Allocates with a fresh id. New objects inherit the swap-cluster of the
  /// currently executing method's receiver (objects created by a cluster's
  /// code belong to that cluster); top-level allocations are unassigned.
  Result<Object*> TryNew(const ClassInfo* cls);
  /// Aborting variant for self-sized callers (benchmarks).
  Object* New(const ClassInfo* cls);
  /// Allocates preserving a replicated / swapped-in object's identity.
  Result<Object*> TryNewWithId(const ClassInfo* cls, ObjectId oid);
  /// Middleware allocation (proxies, replacement-objects): fresh id, no
  /// pressure-handler re-entry, may overcommit (see Heap::AllocPolicy).
  Result<Object*> TryNewMiddleware(const ClassInfo* cls);

  // --- fields (application-level access: write barrier applies) -----------
  Result<Value> GetField(Object* obj, std::string_view field) const;
  /// Unchecked-by-name fast path.
  const Value& GetFieldAt(const Object* obj, size_t index) const {
    return obj->RawSlot(index);
  }
  Status SetField(Object* obj, std::string_view field, Value value);
  Status SetFieldAt(Object* obj, size_t index, Value value);

  // --- globals (swap-cluster-0) -------------------------------------------
  /// Stores a global; reference values pass through the StoreMediator with
  /// holder = nullptr (they are held by swap-cluster-0, paper §3).
  Status SetGlobal(std::string_view name, Value value);
  Result<Value> GetGlobal(std::string_view name) const;
  bool HasGlobal(std::string_view name) const;
  void RemoveGlobal(std::string_view name);
  /// Snapshot of all reference-valued globals (middleware: proxy
  /// replacement patches these through SetGlobal).
  std::vector<std::pair<std::string, Object*>> GlobalRefs() const;

  // --- invocation ----------------------------------------------------------
  /// The invoke core, and the only code that runs a method body. Roots the
  /// receiver and every reference argument for the call (the callee or a
  /// proxy's mediation may allocate and so collect), then dispatches:
  /// regular objects through their class's selector table, proxy and
  /// replacement kinds through the registered Interceptor. `args` views
  /// the caller's storage; the core allocates nothing on the C++ heap.
  Result<Value> Invoke(Object* receiver, Selector method, Args args = {});
  Result<Value> Invoke(Object* receiver, Selector method,
                       std::initializer_list<Value> args) {
    return Invoke(receiver, method, Args(args.begin(), args.size()));
  }
  /// By-name front of the same core: interns `method`, then calls it.
  Result<Value> Invoke(Object* receiver, std::string_view method,
                       std::initializer_list<Value> args = {}) {
    return Invoke(receiver, Selector(method), Args(args.begin(), args.size()));
  }

  /// Reference identity test honoring swap-cluster-proxies.
  bool SameObject(const Object* a, const Object* b) const;

  // --- hooks (installed by the swapping / replication layers) -------------
  void SetInterceptor(ObjectKind kind, Interceptor* interceptor);
  Interceptor* interceptor(ObjectKind kind) const {
    return interceptors_[static_cast<size_t>(kind)];
  }
  void SetStoreMediator(StoreMediator* mediator) { mediator_ = mediator; }
  StoreMediator* store_mediator() const { return mediator_; }
  void SetIdentityHook(IdentityHook* hook) { identity_ = hook; }

  /// Swap-cluster of the currently executing method's receiver
  /// (kSwapCluster0 outside any invocation).
  SwapClusterId CurrentSwapCluster() const;

  /// The whole invocation-context stack (innermost last). The swapping
  /// layer's victim selection must never pick a cluster that is currently
  /// executing.
  const std::vector<SwapClusterId>& context_stack() const {
    return context_stack_;
  }

  // RootProvider: enumerates globals.
  void EnumerateRoots(const std::function<void(Object*)>& visit) override;

 private:
  Object* ApplyStoreMediation(Object* holder, Object* value);

  uint16_t process_id_;
  uint64_t next_object_seq_ = 1;
  TypeRegistry types_;
  Heap heap_;
  NameMap<Value> globals_;
  Interceptor* interceptors_[4] = {nullptr, nullptr, nullptr, nullptr};
  StoreMediator* mediator_ = nullptr;
  IdentityHook* identity_ = nullptr;
  std::vector<SwapClusterId> context_stack_;
  Stats stats_;
};

}  // namespace obiswap::runtime
