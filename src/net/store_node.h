// StoreNode: the paper's "dumb" swapping device.
//
// "The devices that receive swapped objects need not have neither OBIWAN nor
// even a virtual machine installed. They need only be able to store and
// return a textual representation of the serialized objects" (§3). A
// StoreNode does exactly three things — store, fetch, drop — on XML text
// keyed by a unique id, within a storage capacity.
//
// Because these devices are unreliable by design (they wander off, run out
// of battery, and hold data on commodity flash), a StoreNode also carries a
// deterministic fault-injection surface: payload bit-corruption (at rest or
// on fetch) and crash-on-nth-operation, so every durability path in the
// middleware is testable without randomness.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "net/priority.h"

namespace obiswap::net {

class StoreNode {
 public:
  struct Stats {
    uint64_t stores = 0;
    uint64_t fetches = 0;
    uint64_t drops = 0;
    uint64_t rejected_full = 0;
    uint64_t faulted_ops = 0;      ///< ops refused because the node crashed
    uint64_t corrupted_fetches = 0;  ///< fetches served with flipped bits
    // --- admission control (all zero while the queue is disabled) ----------
    uint64_t admitted = 0;           ///< requests that entered the queue
    uint64_t queue_wait_us = 0;      ///< total queueing delay charged
    uint64_t shed_total = 0;         ///< requests rejected with pushback
    uint64_t shed_by_class[kPriorityClasses] = {0, 0, 0, 0, 0};
    uint64_t max_queue_depth = 0;    ///< deepest backlog seen at an arrival
  };

  /// Bounded virtual-time service model (disabled by default — parity).
  ///
  /// The node tracks a work backlog in virtual time: every admitted request
  /// adds service_time_us of work, and the backlog drains at `concurrency`
  /// server-microseconds per clock microsecond as the shared clock
  /// advances. Waiting callers do not block the shared clock (that would
  /// serialize the whole simulation and the queue could never fill);
  /// instead the deterministic queueing delay is charged to the caller's
  /// latency accounting via the response path. A request arriving with
  /// `concurrency + queue_limit` requests already outstanding is rejected
  /// with kResourceExhausted pushback carrying a retry-after hint.
  struct QueueOptions {
    bool enabled = false;
    size_t concurrency = 2;       ///< simultaneous service slots
    size_t queue_limit = 8;       ///< waiting slots beyond the service slots
    uint64_t service_time_us = 1000;  ///< virtual service time per request
    /// Shed lowest-priority-first: class p keeps only (4-p)/4 of the
    /// waiting slots, so maintenance traffic is refused while demand
    /// swap-ins still have the full queue. Off = one shared FIFO limit.
    bool priority_shedding = false;
  };

  /// One admission decision, all in virtual time.
  struct AdmitResult {
    bool admitted = false;
    uint64_t queue_wait_us = 0;   ///< delay until this request's response
    uint64_t retry_after_us = 0;  ///< rejected: time until a slot frees
    size_t depth = 0;             ///< requests outstanding at arrival
  };

  /// Deterministic fault plan (all knobs off by default).
  struct FaultPlan {
    /// Every Fetch returns the payload with one bit flipped (the stored
    /// copy stays intact — a flaky reader/link on the store side).
    bool corrupt_fetches = false;
    /// After this many further operations (store/fetch/drop) the node
    /// crashes: every later op fails kUnavailable until Restart().
    /// Negative = never.
    int crash_after_ops = -1;
    /// A crash wipes the stored entries (battery pulled mid-life) instead
    /// of preserving them across Restart().
    bool crash_loses_data = false;
  };

  StoreNode(DeviceId device, size_t capacity_bytes)
      : device_(device), capacity_bytes_(capacity_bytes) {}

  DeviceId device() const { return device_; }
  size_t capacity_bytes() const { return capacity_bytes_; }
  size_t used_bytes() const { return used_bytes_; }
  size_t free_bytes() const { return capacity_bytes_ - used_bytes_; }
  size_t entry_count() const { return entries_.size(); }
  const Stats& stats() const { return stats_; }

  /// Stores `text` under `key`. kAlreadyExists if the key is taken (the
  /// node is dumb: retry idempotency is the service layer's job, decided by
  /// the content checksum in the request envelope), kResourceExhausted if
  /// it does not fit.
  Status Store(SwapKey key, std::string text);

  /// Returns the stored text. kNotFound if unknown.
  Result<std::string> Fetch(SwapKey key);

  /// Fetch without the copy, for a server that escapes the text straight
  /// into its reply: the same accounting and faults, but the text comes
  /// back as a view of the stored entry (valid until the next Store or
  /// Drop), or of `*scratch` when corrupt_fetches flipped a bit of a copy.
  Result<std::string_view> FetchView(SwapKey key, std::string* scratch);

  /// Discards the stored text (paper: issued when the swap-cluster's
  /// replacement-object became unreachable). kNotFound if unknown.
  Status Drop(SwapKey key);

  bool Contains(SwapKey key) const { return entries_.count(key) > 0; }

  /// The stored text without the side effects of Fetch (no stats, no fault
  /// accounting); nullptr if unknown. Used by the service layer to compare
  /// content checksums on retried stores.
  const std::string* Peek(SwapKey key) const;

  /// All stored keys (diagnostics / GC audits), unordered.
  std::vector<SwapKey> Keys() const;

  // --- admission control ---------------------------------------------------
  void ConfigureQueue(const QueueOptions& options) { queue_ = options; }
  const QueueOptions& queue_options() const { return queue_; }

  /// Admission decision for a request of class `priority` arriving at
  /// virtual time `now_us`. Always admits while the queue is disabled.
  /// `now_us` must be monotone across calls (it is the shared sim clock).
  AdmitResult Admit(uint64_t now_us, Priority priority);

  // --- fault injection -----------------------------------------------------
  void InjectFaults(const FaultPlan& plan) { faults_ = plan; }
  const FaultPlan& fault_plan() const { return faults_; }

  /// Flips one bit of the payload stored under `key` (at-rest corruption —
  /// the store device's flash went bad). kNotFound if unknown.
  Status CorruptStoredPayload(SwapKey key);

  /// True once crash_after_ops has elapsed; every op fails until Restart().
  bool crashed() const { return crashed_; }

  /// Brings a crashed node back (entries survive unless crash_loses_data).
  /// Clears the crash countdown but keeps the other fault knobs.
  void Restart();

 private:
  /// Counts one operation against the crash countdown; error if crashed.
  Status CheckAlive();

  DeviceId device_;
  size_t capacity_bytes_;
  size_t used_bytes_ = 0;
  std::unordered_map<SwapKey, std::string> entries_;
  Stats stats_;
  FaultPlan faults_;
  bool crashed_ = false;

  QueueOptions queue_;
  /// Outstanding work in server-microseconds, as of backlog_as_of_us_.
  uint64_t backlog_us_ = 0;
  uint64_t backlog_as_of_us_ = 0;
};

}  // namespace obiswap::net
