// Fault-history learning for predictive swap-in.
//
// The paper's swap-in is entirely demand-driven: touching a
// replacement-object stalls the application for a full fetch + decompress +
// deserialize over the slow link. The prefetch subsystem hides that stall
// by learning which swap-cluster the application enters *after* which, and
// swapping the likely successor back in before it is touched.
//
// The recorder maintains a first-order Markov transition graph over
// swap-cluster *entry order*: every boundary crossing reported by the
// SwappingManager (and every demand swap-in event) appends to a virtual
// entry sequence, and each consecutive pair (A entered, then B entered)
// strengthens the directed edge A->B. Edge weights decay exponentially in
// virtual time, so stale access patterns fade instead of poisoning
// predictions forever.
//
// Deliberately keyed on *temporal* adjacency, not on the proxy's source
// cluster: the common iteration pattern keeps its cursor in a
// swap-cluster-0 global, so every crossing is sourced in cluster 0 and a
// source-keyed chain would learn nothing.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "context/events.h"
#include "net/sim_clock.h"

namespace obiswap::prefetch {

class FaultHistoryRecorder {
 public:
  /// Virtual-time half-life of an edge weight: an edge last reinforced
  /// this long ago counts half.
  static constexpr uint64_t kHalfLifeUs = 30'000'000;
  /// Outgoing edges kept per cluster; the lightest edge is evicted when a
  /// new successor appears beyond the cap. Bounds memory on devices whose
  /// access patterns churn.
  static constexpr size_t kMaxSuccessors = 8;

  /// One ranked successor: `confidence` is this edge's share of the source
  /// cluster's total outgoing weight (1.0 = the only successor ever seen).
  struct Successor {
    SwapClusterId id;
    double weight = 0.0;
    double confidence = 0.0;
  };

  struct Stats {
    uint64_t entries_recorded = 0;  ///< OnEnter calls that were usable
    uint64_t edges_updated = 0;     ///< edge creations + reinforcements
    uint64_t edges_evicted = 0;     ///< successors dropped by the cap
    uint64_t sequence_breaks = 0;   ///< resets of the "last entered" state
  };

  FaultHistoryRecorder() = default;
  ~FaultHistoryRecorder();

  FaultHistoryRecorder(const FaultHistoryRecorder&) = delete;
  FaultHistoryRecorder& operator=(const FaultHistoryRecorder&) = delete;

  /// Subscribes to the swap events: a demand swap-in (prefetch flag absent
  /// or 0) records an entry, a swap-out of the last-entered cluster breaks
  /// the sequence (the application has moved on — an edge drawn across the
  /// eviction would link unrelated phases), and a drop forgets the cluster.
  void Attach(context::EventBus* bus);
  /// Edge decay runs on virtual time; without a clock weights are pure
  /// counts (decay disabled).
  void AttachClock(const net::SimClock* clock) { clock_ = clock; }

  /// Records that the application entered `id` (boundary crossing or
  /// demand fault). Consecutive duplicates and swap-cluster-0 (the ambient
  /// application cluster, never swappable) are ignored.
  void OnEnter(SwapClusterId id);

  /// Forgets the "last entered" state so the next entry starts a fresh
  /// transition pair instead of linking across a discontinuity.
  void BreakSequence();

  /// Outgoing edges of `from`, heaviest first, with decayed weights and
  /// confidences. Empty if `from` has never been followed by anything.
  std::vector<Successor> Successors(SwapClusterId from) const;

  /// Removes `id` from the graph entirely (dropped cluster: its id will
  /// never fault again).
  void Forget(SwapClusterId id);
  void Reset();

  size_t cluster_count() const { return edges_.size(); }
  size_t edge_count() const;
  SwapClusterId last_entered() const { return last_entered_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Edge {
    double weight = 0.0;
    uint64_t stamp_us = 0;  ///< virtual time of the last reinforcement
  };
  using EdgeMap = std::unordered_map<SwapClusterId, Edge>;

  uint64_t NowUs() const { return clock_ != nullptr ? clock_->now_us() : 0; }
  double Decayed(const Edge& edge) const;
  void EvictLightest(EdgeMap& out);

  const net::SimClock* clock_ = nullptr;
  context::EventBus* bus_ = nullptr;
  uint64_t in_token_ = 0;
  uint64_t out_token_ = 0;
  uint64_t drop_token_ = 0;

  SwapClusterId last_entered_;  ///< invalid until the first entry
  std::unordered_map<SwapClusterId, EdgeMap> edges_;
  Stats stats_;
};

}  // namespace obiswap::prefetch
