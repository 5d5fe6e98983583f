// Object: a managed heap instance.
//
// Objects are allocated by Heap, traced by the mark-sweep LGC, and carry the
// two cluster labels that drive replication and swapping: the replication
// cluster they arrived in (OBIWAN §2) and the swap-cluster they belong to
// (paper §3). They are NOT movable: the collector never relocates, so raw
// Object* stays valid while the object is reachable and, for a swap-cluster
// member, until its cluster swaps out (the swap-out frees its members).
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "runtime/class_registry.h"
#include "runtime/value.h"

namespace obiswap::runtime {

class Heap;
class WeakCell;

class Object {
 public:
  const ClassInfo& cls() const { return *cls_; }
  ObjectKind kind() const { return cls_->kind(); }
  ObjectId oid() const { return oid_; }

  ClusterId cluster() const { return cluster_; }
  void set_cluster(ClusterId id) { cluster_ = id; }

  SwapClusterId swap_cluster() const { return swap_cluster_; }
  void set_swap_cluster(SwapClusterId id) { swap_cluster_ = id; }

  size_t slot_count() const { return slots_.size(); }

  /// Raw slot access — middleware only. Application code must go through
  /// Runtime::GetField / Runtime::SetField so write barriers run.
  const Value& RawSlot(size_t index) const { return slots_[index]; }
  Value& RawSlotMutable(size_t index) { return slots_[index]; }

  /// Middleware: appends an anonymous slot beyond the class's named fields.
  /// Replacement-objects use this — they are "simply an array of
  /// references" (paper §3) whose length is the swapped cluster's outbound
  /// degree. Traced by the GC like any slot.
  size_t AppendSlot(Value value) {
    slots_.push_back(std::move(value));
    return slots_.size() - 1;
  }

  /// Approximate heap footprint: header + slots + class payload + dynamic
  /// string bytes. Used for capacity accounting on the constrained device.
  size_t ApproxBytes() const {
    size_t bytes = sizeof(Object) + slots_.capacity() * sizeof(Value) +
                   cls_->payload_bytes();
    for (const Value& slot : slots_) bytes += slot.DynamicBytes();
    return bytes;
  }

  // --- GC state (Heap only, exposed for white-box tests) ---------------
  bool marked() const { return marked_; }

 private:
  friend class Heap;
  friend class WeakCell;

  Object(const ClassInfo* cls, ObjectId oid)
      : cls_(cls), oid_(oid), slots_(cls->fields().size()) {}

  const ClassInfo* cls_;
  ObjectId oid_;
  ClusterId cluster_;
  SwapClusterId swap_cluster_;
  std::vector<Value> slots_;

  bool marked_ = false;
  bool finalized_ = false;
  uint32_t heap_index_ = 0;     // position in the heap's object table
  size_t accounted_bytes_ = 0;  // bytes charged to the heap for this object
  WeakCell* weak_cells_ = nullptr;  // weak cells targeting this object
};

}  // namespace obiswap::runtime
