// Heap: capacity-limited allocation and the local garbage collector (LGC).
//
// Models the constrained device's managed heap: a byte capacity, a
// non-moving mark-sweep collector, weak references, finalizers, local handle
// scopes (thread-stack roots) and pluggable root providers. When an
// allocation cannot fit even after collection, the heap calls its pressure
// handler — this is the hook through which the policy engine triggers
// swap-out ("from time to time ... memory reaches a threshold value").
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "runtime/object.h"

namespace obiswap::runtime {

/// Target cell of a weak reference. `get()` is nullptr once the referent has
/// been collected. Holders keep the shared_ptr. A cell with a live referent
/// sits on that referent's intrusive cell chain, so the heap clears exactly
/// the cells of the objects it frees; a holder dropping the cell unlinks it.
/// Only the heap clears a cell, and it never re-sets it.
class WeakCell {
 public:
  /// Extended weak references run this on their dying referent.
  using PersistFn = std::function<void(Object*)>;

  explicit WeakCell(Object* target) : target_(target) {}
  ~WeakCell();

  WeakCell(const WeakCell&) = delete;
  WeakCell& operator=(const WeakCell&) = delete;

  Object* get() const { return target_; }
  bool cleared() const { return target_ == nullptr; }

 private:
  friend class Heap;

  Object* target_;
  WeakCell* prev_ = nullptr;  // the referent's cell chain
  WeakCell* next_ = nullptr;
  // Extended weak references only. Boxed: every proxy and member carries a
  // plain cell, so a plain cell stays three pointers and a null.
  std::unique_ptr<PersistFn> persist_;
};

using WeakRef = std::shared_ptr<WeakCell>;

/// Anything that contributes GC roots (the Runtime's global table, the
/// replication endpoint's proxy registry, ...).
class RootProvider {
 public:
  virtual ~RootProvider() = default;
  virtual void EnumerateRoots(const std::function<void(Object*)>& visit) = 0;
};

class Heap {
 public:
  struct Stats {
    uint64_t collections = 0;
    uint64_t reclaims = 0;  ///< explicit sets freed by Reclaim
    uint64_t objects_allocated = 0;
    uint64_t objects_freed = 0;
    uint64_t bytes_allocated = 0;
    uint64_t bytes_freed = 0;
    uint64_t finalizers_run = 0;
    uint64_t weakrefs_cleared = 0;
    uint64_t extended_persists = 0;
    uint64_t pressure_events = 0;
    uint64_t last_live_objects = 0;
    uint64_t last_live_bytes = 0;
  };

  /// `capacity_bytes` models the device's RAM budget for managed objects.
  explicit Heap(size_t capacity_bytes = SIZE_MAX);
  ~Heap();

  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  /// Who is allocating. kMiddleware (proxies, replacement-objects) never
  /// re-enters the pressure handler — swapping out *while creating the
  /// machinery of a swap* must not recurse — and may overcommit the
  /// capacity by the small proxy footprint (the paper's proxies also cost
  /// memory; the overhead benches account for it).
  enum class AllocPolicy { kApplication, kMiddleware };

  // --- allocation -------------------------------------------------------
  /// Allocates an instance. Collects (and asks the pressure handler to free
  /// memory, e.g. by swapping out) if the capacity would be exceeded.
  Result<Object*> TryAllocate(const ClassInfo* cls, ObjectId oid,
                              AllocPolicy policy = AllocPolicy::kApplication);
  /// Like TryAllocate but aborts on exhaustion (for code that sized the
  /// heap itself, e.g. benchmarks).
  Object* Allocate(const ClassInfo* cls, ObjectId oid);

  size_t capacity_bytes() const { return capacity_bytes_; }
  void set_capacity_bytes(size_t bytes) { capacity_bytes_ = bytes; }
  size_t used_bytes() const { return used_bytes_; }
  size_t live_objects() const { return live_objects_; }

  /// Fraction of the capacity currently free (0..1). Middleware allocation
  /// may overcommit slightly, so the used side is clamped to the capacity.
  /// Speculative work (prefetch) gates on this headroom.
  double free_fraction() const {
    if (capacity_bytes_ == 0) return 0.0;
    size_t used = used_bytes_ < capacity_bytes_ ? used_bytes_ : capacity_bytes_;
    return static_cast<double>(capacity_bytes_ - used) /
           static_cast<double>(capacity_bytes_);
  }

  /// Re-computes an object's byte accounting after a slot mutation (string
  /// payloads change an object's footprint).
  void RefreshAccounting(Object* obj);

  // --- garbage collection ------------------------------------------------
  /// Full mark-sweep: marks from local scopes + root providers, clears dead
  /// weak cells, runs finalizers of dead objects (no resurrection: a
  /// finalizer must only touch middleware bookkeeping), frees the rest.
  void Collect();

  /// Frees an explicit set of distinct live regular objects, every one
  /// labelled `cluster` (checked), without tracing the heap: a swap-out
  /// hands over the members it just detached. Refuses, freeing nothing,
  /// when a local slot or a root provider points at a regular object
  /// labelled `cluster` (nothing else may reach the set:
  /// every other path into a swapped cluster went through a proxy the
  /// swap-out re-targeted). Otherwise runs Collect's protocol on the set
  /// alone — extended-ref `persist` first, then every cell of the set
  /// cleared before the first finalizer runs, then free — and returns true.
  /// Costs the set, its cells and the roots, not the heap.
  bool Reclaim(const std::vector<Object*>& set, SwapClusterId cluster);

  const Stats& stats() const { return stats_; }

  void AddRootProvider(RootProvider* provider);
  void RemoveRootProvider(RootProvider* provider);

  /// Pressure handler: called when an allocation of `needed` bytes cannot
  /// fit even after a collection. Returns true if it (probably) freed
  /// memory and allocation should be retried.
  using PressureHandler = std::function<bool(size_t needed)>;
  void SetPressureHandler(PressureHandler handler) {
    pressure_handler_ = std::move(handler);
  }

  // --- weak references ----------------------------------------------------
  /// Creates a weak reference to `target` (cleared when it is collected).
  WeakRef NewWeakRef(Object* target);

  /// Extended weak reference (.Net Micro Framework style, the paper's
  /// related work [7]): "a specialized garbage collector attempts to copy
  /// to available persistent memory unreachable objects that are targeted
  /// by extended weak references, instead of reclaiming them." When the
  /// referent becomes unreachable, `persist` runs with the object still
  /// intact (typically serializing it to local flash), then the cell
  /// clears like a regular weak reference. Same restrictions as
  /// finalizers: no allocation, no resurrection.
  using PersistFn = WeakCell::PersistFn;
  WeakRef NewExtendedWeakRef(Object* target, PersistFn persist);

  /// Cells still linked to a live referent (held and not yet cleared).
  /// Walks every chain: white-box tests only.
  size_t tracked_weak_cells() const { return CountCells(false); }
  size_t tracked_extended_cells() const { return CountCells(true); }

  // --- local handle scopes (thread-stack roots) ---------------------------
  size_t LocalDepth() const { return locals_.size(); }
  /// Pushes `obj` as a root; returns a stable slot (valid until the
  /// enclosing LocalScope pops it). Middleware-level: no store mediation.
  Object** PushLocal(Object* obj);
  void TruncateLocals(size_t depth);

  /// Iterates every object not yet freed, newest first (white-box tests,
  /// replication patching). Dead objects are visited until the next
  /// collection, and after a Reclaim a dead one may point at freed
  /// memory: a scan that follows slot targets must Collect first.
  void ForEachObject(const std::function<void(Object*)>& visit) const;

 private:
  bool Fits(size_t bytes) const {
    return used_bytes_ + bytes <= capacity_bytes_;
  }
  /// Marks everything reachable from the locals and the root providers.
  void MarkFromRoots();
  /// Runs the extended-ref `persist` callbacks of the dying `set`, every
  /// object still intact, then clears every cell of the set.
  void PersistThenClear(const std::vector<Object*>& set);
  /// Clears and detaches every cell targeting `obj`.
  void ClearCells(Object* obj);
  /// Runs the set's finalizers and frees it, in `set` order. Every cell of
  /// the set must already be clear (invariant 6 in ARCHITECTURE.md).
  void FinalizeAndFree(const std::vector<Object*>& set);
  void Free(Object* obj);
  /// Drops the holes Reclaim left in `objects_`, keeping allocation order.
  void Compact();
  size_t CountCells(bool extended_only) const;

  size_t capacity_bytes_;
  size_t used_bytes_ = 0;
  size_t live_objects_ = 0;
  size_t next_gc_bytes_;

  // Every live object in allocation order, each at its `heap_index_`, so
  // Reclaim unlinks in O(1); it leaves a null hole that the next sweep or
  // Compact() closes.
  std::vector<Object*> objects_;
  size_t holes_ = 0;
  std::vector<Object*> dying_;     // Collect's scratch list
  std::deque<Object*> locals_;     // deque: stable slot addresses
  std::vector<RootProvider*> root_providers_;
  PressureHandler pressure_handler_;
  bool in_collect_ = false;
  bool in_pressure_ = false;

  Stats stats_;
};

/// RAII local root frame. All PushLocal slots created while the scope is
/// alive are released on destruction.
class LocalScope {
 public:
  explicit LocalScope(Heap& heap) : heap_(heap), base_(heap.LocalDepth()) {}
  ~LocalScope() { heap_.TruncateLocals(base_); }

  LocalScope(const LocalScope&) = delete;
  LocalScope& operator=(const LocalScope&) = delete;

  /// Roots `obj`; the returned slot may be re-assigned to re-root.
  Object** Add(Object* obj) { return heap_.PushLocal(obj); }

 private:
  Heap& heap_;
  size_t base_;
};

}  // namespace obiswap::runtime
