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

Heap::~Heap() {
  // Free everything without running finalizers (process teardown).
  Object* obj = all_objects_;
  while (obj != nullptr) {
    Object* next = obj->next_;
    delete obj;
    obj = next;
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
        Collect();
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

  Object* obj = new Object(cls, oid);
  obj->next_ = all_objects_;
  all_objects_ = obj;
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

  // --- mark --------------------------------------------------------------
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

  // --- extended weak references: persist dying referents first ------------
  // An entry leaves the table with its cell: when the holder drops it, or
  // when its referent dies (persist runs once; the cell clears below).
  {
    size_t write = 0;
    for (size_t read = 0; read < extended_cells_.size(); ++read) {
      std::shared_ptr<WeakCell> cell = extended_cells_[read].cell.lock();
      if (cell == nullptr || cell->target_ == nullptr) continue;
      if (!cell->target_->marked_) {
        ++stats_.extended_persists;
        extended_cells_[read].persist(cell->target_);
        continue;
      }
      if (write != read)
        extended_cells_[write] = std::move(extended_cells_[read]);
      ++write;
    }
    extended_cells_.resize(write);
  }

  // --- clear dead weak cells ----------------------------------------------
  // A cell leaves the table when it clears or when its holder drops it.
  // Only the heap writes target_, so a cleared cell stays cleared and needs
  // no further visits: a collection costs the live objects plus the live
  // cells. All clears happen here, before the sweep runs any finalizer.
  size_t write = 0;
  for (size_t read = 0; read < weak_cells_.size(); ++read) {
    std::shared_ptr<WeakCell> cell = weak_cells_[read].lock();
    if (cell == nullptr || cell->target_ == nullptr) continue;
    if (!cell->target_->marked_) {
      cell->target_ = nullptr;
      ++stats_.weakrefs_cleared;
      continue;
    }
    if (write != read) weak_cells_[write] = std::move(weak_cells_[read]);
    ++write;
  }
  weak_cells_.resize(write);

  // --- sweep ---------------------------------------------------------------
  Object** link = &all_objects_;
  while (*link != nullptr) {
    Object* obj = *link;
    if (obj->marked_) {
      obj->marked_ = false;
      link = &obj->next_;
      continue;
    }
    *link = obj->next_;
    if (obj->cls().has_finalizer() && !obj->finalized_) {
      obj->finalized_ = true;
      ++stats_.finalizers_run;
      // No resurrection: finalizers only do middleware bookkeeping (the
      // paper's SwappingManager drops hash-table entries here).
      obj->cls().finalizer()(obj);
    }
    Free(obj);
  }

  stats_.last_live_objects = live_objects_;
  stats_.last_live_bytes = used_bytes_;
  // Next scheduled collection: grow with the live set, bounded by capacity.
  next_gc_bytes_ = std::max(kInitialGcBytes, used_bytes_ * 2);
  if (capacity_bytes_ != SIZE_MAX)
    next_gc_bytes_ = std::min(next_gc_bytes_, capacity_bytes_);
  in_collect_ = false;
}

void Heap::Free(Object* obj) {
  used_bytes_ -= obj->accounted_bytes_;
  --live_objects_;
  ++stats_.objects_freed;
  stats_.bytes_freed += obj->accounted_bytes_;
  delete obj;
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
  weak_cells_.push_back(cell);
  return cell;
}

WeakRef Heap::NewExtendedWeakRef(Object* target, PersistFn persist) {
  WeakRef cell = NewWeakRef(target);
  extended_cells_.push_back(ExtendedCell{cell, std::move(persist)});
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
  for (Object* obj = all_objects_; obj != nullptr; obj = obj->next_) {
    visit(obj);
  }
}

}  // namespace obiswap::runtime
