// ReuseIndex: (source swap-cluster, target oid) -> the swap-cluster-proxy
// registered for that pair, for stored-reference reuse ("when there are
// multiple references to the same object, across the same pair of
// swap-clusters, only a swap-cluster-proxy is required", §3).
//
// Every proxy birth registers an entry and every proxy death drops one —
// thousands per traversal — so the index is one flat array with linear
// probing: once it has grown, neither allocates. Entries are raw pointers:
// the proxy finalizer (§4) drops a dying proxy's entry before the heap
// frees it, so an entry always names a live proxy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "runtime/object.h"

namespace obiswap::swap {

class ReuseIndex {
 public:
  /// The proxy registered for the pair, or nullptr.
  runtime::Object* Find(SwapClusterId source, ObjectId oid) const {
    if (slots_.empty()) return nullptr;
    return slots_[SlotOf(source.value(), oid.value())].proxy;
  }

  /// Registers `proxy` for the pair, replacing any entry.
  void Put(SwapClusterId source, ObjectId oid, runtime::Object* proxy) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    Slot& slot = slots_[SlotOf(source.value(), oid.value())];
    if (slot.proxy == nullptr) ++size_;
    slot = Slot{oid.value(), source.value(), proxy};
  }

  /// Drops the pair's entry if it names `proxy`; true if it did.
  bool EraseIf(SwapClusterId source, ObjectId oid,
               const runtime::Object* proxy) {
    if (slots_.empty() || proxy == nullptr) return false;
    size_t hole = SlotOf(source.value(), oid.value());
    if (slots_[hole].proxy != proxy) return false;
    // Backward-shift deletion: pull later members of the probe run into
    // the hole, so lookups never need tombstones.
    const size_t mask = slots_.size() - 1;
    for (size_t next = (hole + 1) & mask; slots_[next].proxy != nullptr;
         next = (next + 1) & mask) {
      const size_t home = Home(slots_[next].source, slots_[next].oid);
      // Move `next` into the hole unless its home lies cyclically in
      // (hole, next]: then it is already as close to home as it can be.
      if (((next - home) & mask) >= ((next - hole) & mask)) {
        slots_[hole] = slots_[next];
        hole = next;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

 private:
  struct Slot {
    uint64_t oid = 0;
    uint32_t source = 0;
    runtime::Object* proxy = nullptr;  ///< nullptr: the slot is empty
  };

  size_t Home(uint32_t source, uint64_t oid) const {
    return Mix64(oid ^ (static_cast<uint64_t>(source) << 48)) &
           (slots_.size() - 1);
  }

  /// The pair's slot, or the empty slot that ends its probe run.
  size_t SlotOf(uint32_t source, uint64_t oid) const {
    const size_t mask = slots_.size() - 1;
    size_t index = Home(source, oid);
    while (slots_[index].proxy != nullptr &&
           (slots_[index].oid != oid || slots_[index].source != source)) {
      index = (index + 1) & mask;
    }
    return index;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : 2 * old.size(), Slot{});
    for (const Slot& slot : old) {
      if (slot.proxy != nullptr) slots_[SlotOf(slot.source, slot.oid)] = slot;
    }
  }

  std::vector<Slot> slots_;  // power-of-two length, at most half full
  size_t size_ = 0;
};

}  // namespace obiswap::swap
