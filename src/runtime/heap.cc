#include "runtime/heap.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace obiswap::runtime {

namespace {
constexpr size_t kInitialGcBytes = 256 * 1024;
constexpr int kMaxPressureRetries = 8;
}  // namespace

Heap::Heap(size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes), next_gc_bytes_(kInitialGcBytes) {}

// The charge of every object starts at sizeof(Object) (ApproxBytes), and
// every capacity decision follows from the charges.
static_assert(sizeof(void*) != 8 || sizeof(Object) == 72,
              "Object's size is part of every object's heap charge");

WeakCell::~WeakCell() {
  if (target_ == nullptr) return;  // cleared: already off every chain
  if (prev_ != nullptr) {
    prev_->next_ = next_;
  } else {
    target_->weak_cells_ = next_;
  }
  if (next_ != nullptr) next_->prev_ = prev_;
}

Heap::~Heap() {
  // Free everything without running finalizers (process teardown). Cells
  // that outlive the heap read as cleared.
  for (Object* obj : objects_) {
    if (obj == nullptr) continue;
    for (WeakCell* cell = obj->weak_cells_; cell != nullptr;) {
      WeakCell* next = cell->next_;
      cell->target_ = nullptr;
      cell = next;
    }
    delete obj;
  }
}

Result<Object*> Heap::TryAllocate(const ClassInfo* cls, ObjectId oid,
                                  AllocPolicy policy) {
  OBISWAP_CHECK(cls != nullptr);
  // Estimate the new object's footprint before constructing it.
  const size_t estimate = sizeof(Object) +
                          cls->fields().size() * sizeof(Value) +
                          cls->payload_bytes();

  // Scheduled collection: keep floating garbage bounded even far below
  // capacity (proxies churn hard in the paper's B1 test).
  if (!in_collect_ && used_bytes_ + estimate > next_gc_bytes_) Collect();

  if (!Fits(estimate) && !in_collect_) {
    Collect();
    // The pressure handler typically swaps out a cluster, which itself
    // allocates (the replacement-object); guard against re-entry, and never
    // enter it at all for middleware allocations.
    if (!in_pressure_ && policy == AllocPolicy::kApplication) {
      in_pressure_ = true;
      int retries = 0;
      while (!Fits(estimate) && pressure_handler_ &&
             retries < kMaxPressureRetries) {
        ++stats_.pressure_events;
        if (!pressure_handler_(estimate)) break;
        // A swap-out frees its cluster at once (Reclaim); collect only
        // when that did not make room.
        if (!Fits(estimate)) Collect();
        ++retries;
      }
      in_pressure_ = false;
    }
  }
  if (policy == AllocPolicy::kMiddleware && !Fits(estimate)) {
    // Overcommit: middleware objects are small and transient; charging them
    // while exceeding capacity keeps the accounting honest without
    // deadlocking the swap machinery.
  } else if (!Fits(estimate)) {
    return ResourceExhaustedError(StrFormat(
        "heap full: need %zu bytes, used %zu of %zu", estimate, used_bytes_,
        capacity_bytes_));
  }

  OBISWAP_CHECK(objects_.size() < UINT32_MAX);
  Object* obj = new Object(cls, oid);
  obj->heap_index_ = static_cast<uint32_t>(objects_.size());
  objects_.push_back(obj);
  obj->accounted_bytes_ = obj->ApproxBytes();
  used_bytes_ += obj->accounted_bytes_;
  ++live_objects_;
  ++stats_.objects_allocated;
  stats_.bytes_allocated += obj->accounted_bytes_;
  return obj;
}

Object* Heap::Allocate(const ClassInfo* cls, ObjectId oid) {
  Result<Object*> result = TryAllocate(cls, oid);
  if (!result.ok()) {
    OBISWAP_LOG(kError) << "allocation failed: " << result.status().ToString();
    OBISWAP_CHECK(false && "Heap::Allocate exhausted");
  }
  return *result;
}

void Heap::RefreshAccounting(Object* obj) {
  size_t now = obj->ApproxBytes();
  if (now == obj->accounted_bytes_) return;
  if (now > obj->accounted_bytes_) {
    size_t delta = now - obj->accounted_bytes_;
    used_bytes_ += delta;
    stats_.bytes_allocated += delta;
  } else {
    size_t delta = obj->accounted_bytes_ - now;
    used_bytes_ -= delta;
    stats_.bytes_freed += delta;
  }
  obj->accounted_bytes_ = now;
}

void Heap::Collect() {
  if (in_collect_) return;
  in_collect_ = true;
  ++stats_.collections;
  MarkFromRoots();

  // --- sweep: unmark the live, close Reclaim's holes, gather the dead ------
  dying_.clear();
  size_t write = 0;
  for (Object* obj : objects_) {
    if (obj == nullptr) continue;
    if (!obj->marked_) {
      dying_.push_back(obj);
      continue;
    }
    obj->marked_ = false;
    obj->heap_index_ = static_cast<uint32_t>(write);
    objects_[write++] = obj;
  }
  objects_.resize(write);
  holes_ = 0;
  // Newest first: finalizers run in reverse allocation order.
  std::reverse(dying_.begin(), dying_.end());
  PersistThenClear(dying_);
  FinalizeAndFree(dying_);

  stats_.last_live_objects = live_objects_;
  stats_.last_live_bytes = used_bytes_;
  // Next scheduled collection: grow with the live set, bounded by capacity.
  next_gc_bytes_ = std::max(kInitialGcBytes, used_bytes_ * 2);
  if (capacity_bytes_ != SIZE_MAX)
    next_gc_bytes_ = std::min(next_gc_bytes_, capacity_bytes_);
  in_collect_ = false;
}

bool Heap::Reclaim(const std::vector<Object*>& set, SwapClusterId cluster) {
  if (in_collect_) return false;
  auto labelled = [cluster](const Object* obj) {
    return obj != nullptr && obj->kind() == ObjectKind::kRegular &&
           obj->swap_cluster() == cluster;
  };
  for (Object* local : locals_) {
    if (labelled(local)) return false;
  }
  bool rooted = false;
  for (RootProvider* provider : root_providers_) {
    provider->EnumerateRoots(
        [&](Object* root) { rooted = rooted || labelled(root); });
  }
  if (rooted) return false;
#ifdef OBISWAP_VERIFY_RECLAIM
  // Sanitizer builds prove the check above sufficient: a full mark from
  // every root reaches no object of the set.
  MarkFromRoots();
  for (Object* obj : set)
    OBISWAP_CHECK(!obj->marked_ && "Reclaim: object reachable from a root");
  for (Object* obj : objects_) {
    if (obj != nullptr) obj->marked_ = false;
  }
#endif

  in_collect_ = true;  // persist and finalizers run as in a collection
  ++stats_.reclaims;
  for (Object* obj : set) {
    // The root check above covers only objects carrying the label.
    OBISWAP_CHECK(labelled(obj));
    OBISWAP_CHECK(objects_[obj->heap_index_] == obj);  // live, listed once
    objects_[obj->heap_index_] = nullptr;
  }
  holes_ += set.size();
  PersistThenClear(set);
  FinalizeAndFree(set);
  if (holes_ > objects_.size() / 2) Compact();
  in_collect_ = false;
  return true;
}

void Heap::MarkFromRoots() {
  std::vector<Object*> worklist;
  auto mark = [&worklist](Object* obj) {
    if (obj != nullptr && !obj->marked_) {
      obj->marked_ = true;
      worklist.push_back(obj);
    }
  };
  for (Object* local : locals_) mark(local);
  for (RootProvider* provider : root_providers_) {
    provider->EnumerateRoots(mark);
  }
  while (!worklist.empty()) {
    Object* obj = worklist.back();
    worklist.pop_back();
    for (size_t i = 0; i < obj->slot_count(); ++i) {
      const Value& slot = obj->RawSlot(i);
      if (slot.is_ref()) mark(slot.ref());
    }
  }
}

void Heap::PersistThenClear(const std::vector<Object*>& set) {
  // --- extended weak references: persist dying referents first ------------
  // Each runs once, with every object of the set intact. The callback may
  // drop cells (a dropped cell never persists), so the chain is re-read
  // after each call; a persisted cell no longer holds its callback.
  for (Object* obj : set) {
    WeakCell* cell = obj->weak_cells_;
    while (cell != nullptr) {
      if (!cell->persist_) {
        cell = cell->next_;
        continue;
      }
      std::unique_ptr<PersistFn> persist = std::move(cell->persist_);
      ++stats_.extended_persists;
      (*persist)(obj);
      cell = obj->weak_cells_;
    }
  }
  for (Object* obj : set) ClearCells(obj);
}

void Heap::ClearCells(Object* obj) {
  for (WeakCell* cell = obj->weak_cells_; cell != nullptr;) {
    WeakCell* next = cell->next_;
    cell->target_ = nullptr;
    cell->prev_ = nullptr;
    cell->next_ = nullptr;
    ++stats_.weakrefs_cleared;
    cell = next;
  }
  obj->weak_cells_ = nullptr;
}

void Heap::FinalizeAndFree(const std::vector<Object*>& set) {
  for (Object* obj : set) {
    if (obj->cls().has_finalizer() && !obj->finalized_) {
      obj->finalized_ = true;
      ++stats_.finalizers_run;
      // No resurrection: finalizers only do middleware bookkeeping (the
      // paper's SwappingManager drops hash-table entries here).
      obj->cls().finalizer()(obj);
    }
    Free(obj);
  }
}

void Heap::Free(Object* obj) {
  used_bytes_ -= obj->accounted_bytes_;
  --live_objects_;
  ++stats_.objects_freed;
  stats_.bytes_freed += obj->accounted_bytes_;
  delete obj;
}

void Heap::Compact() {
  size_t write = 0;
  for (Object* obj : objects_) {
    if (obj == nullptr) continue;
    obj->heap_index_ = static_cast<uint32_t>(write);
    objects_[write++] = obj;
  }
  objects_.resize(write);
  holes_ = 0;
}

size_t Heap::CountCells(bool extended_only) const {
  size_t count = 0;
  for (Object* obj : objects_) {
    if (obj == nullptr) continue;
    for (WeakCell* cell = obj->weak_cells_; cell != nullptr;
         cell = cell->next_) {
      if (!extended_only || cell->persist_) ++count;
    }
  }
  return count;
}

void Heap::AddRootProvider(RootProvider* provider) {
  root_providers_.push_back(provider);
}

void Heap::RemoveRootProvider(RootProvider* provider) {
  root_providers_.erase(
      std::remove(root_providers_.begin(), root_providers_.end(), provider),
      root_providers_.end());
}

WeakRef Heap::NewWeakRef(Object* target) {
  auto cell = std::make_shared<WeakCell>(target);
  if (target != nullptr) {
    cell->next_ = target->weak_cells_;
    if (cell->next_ != nullptr) cell->next_->prev_ = cell.get();
    target->weak_cells_ = cell.get();
  }
  return cell;
}

WeakRef Heap::NewExtendedWeakRef(Object* target, PersistFn persist) {
  WeakRef cell = NewWeakRef(target);
  cell->persist_ = std::make_unique<PersistFn>(std::move(persist));
  return cell;
}

Object** Heap::PushLocal(Object* obj) {
  locals_.push_back(obj);
  return &locals_.back();
}

void Heap::TruncateLocals(size_t depth) {
  OBISWAP_CHECK(depth <= locals_.size());
  locals_.resize(depth);
}

void Heap::ForEachObject(const std::function<void(Object*)>& visit) const {
  for (size_t i = objects_.size(); i-- > 0;) {
    if (Object* obj = objects_[i]; obj != nullptr) visit(obj);
  }
}

}  // namespace obiswap::runtime
