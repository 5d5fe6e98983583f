// Fleet placement directory: weighted rendezvous (HRW) hashing over the
// store fleet.
//
// The seed placement walked every reachable store "most-free-first" — O(S)
// per swap-out and, worse, a placement that changes whenever any store's
// free-byte count wiggles, so two devices (or one device across restarts)
// disagree about where a cluster's replicas belong. The directory replaces
// the walk with rendezvous hashing (Thaler & Ravishankar): each store s is
// scored against a placement key x as
//
//     score(s, x) = -weight(s) / ln(U(s, x)),   U in (0, 1)
//
// where U is a splitmix64-mixed hash of (store id, x) mapped into the unit
// interval. The K replica targets for x are the K highest-scoring healthy
// stores. Properties the swap layer leans on:
//
//  * deterministic — same fleet view (members, weights, health) → same
//    targets, on any device, across process restarts;
//  * weighted — a store with twice the weight (capacity) wins twice as
//    many keys in expectation (the -w/ln(U) form is exactly the weighted
//    rendezvous estimator);
//  * bounded rebalance — a store join/leave only moves the keys that store
//    wins/loses (~1/N of all keys per replica slot); every other key keeps
//    its full target set, so churn never triggers fleet-wide re-placement.
//
// The view is epoch-stamped: any membership/weight/health change bumps
// view_epoch(), letting callers cheaply detect "the fleet changed under
// me" without diffing member lists.
//
// Pure HRW is balls-in-bins: with R replicas over N stores the fullest
// store overshoots the mean by ~sqrt(ln N / (R/N)) sigma. LoadBound()
// supplies the bounded-load cap (ceil(c * mean), the consistent-hashing-
// with-bounded-loads rule): callers walk the rank order and defer stores
// at the cap to the back, which pins max/mean near c while keeping the
// order deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/ids.h"

namespace obiswap::fleet {

class PlacementDirectory {
 public:
  /// Bounded-load factor c: a store is deferred once it holds more than
  /// ceil(c * mean) placements. 1.2 keeps max/mean comfortably under the
  /// fleet_scale gate of 1.35 while rarely overriding pure HRW order.
  static constexpr double kLoadBoundFactor = 1.2;
  /// Floor for the cap so a near-empty fleet doesn't thrash placements
  /// over a bound of 1.
  static constexpr uint64_t kMinLoadBound = 4;

  struct Stats {
    uint64_t selections = 0;     ///< rank/target computations served
    uint64_t bounded_skips = 0;  ///< stores deferred at the load bound
    uint64_t joins = 0;          ///< stores added to the view
    uint64_t leaves = 0;         ///< stores removed from the view
  };

  PlacementDirectory() = default;

  /// Adds `store` with the given weight (> 0; clamped to 1e-6). Returns
  /// true if the view changed (new member, or weight changed for an
  /// existing one). New members start healthy.
  bool AddStore(DeviceId store, double weight = 1.0);
  bool RemoveStore(DeviceId store);
  /// Returns true (and bumps the epoch) only on an actual change.
  bool SetWeight(DeviceId store, double weight);
  bool SetHealthy(DeviceId store, bool healthy);

  bool Contains(DeviceId store) const { return stores_.count(store) != 0; }
  bool IsHealthy(DeviceId store) const;
  double WeightOf(DeviceId store) const;
  size_t size() const { return stores_.size(); }
  size_t healthy_count() const;
  /// All members, ascending by device id.
  std::vector<DeviceId> Stores() const;

  /// Monotonic view stamp: bumped on every membership/weight/health change.
  uint64_t view_epoch() const { return view_epoch_; }

  /// Placement key for one device's swap-cluster: mixes the owning device
  /// into the key so two devices' cluster #1 hash to unrelated stores.
  static uint64_t KeyFor(DeviceId self, SwapClusterId cluster);

  /// Full store preference order for `key`: healthy stores first, then
  /// unhealthy, each class by descending HRW score (ties by ascending
  /// device id). Deterministic for a given view.
  std::vector<DeviceId> RankAll(uint64_t key) const;

  /// The K-replica target set: the first min(k, size()) entries of
  /// RankAll(key).
  std::vector<DeviceId> Targets(uint64_t key, size_t k) const;

  /// Bounded-load cap for the current view: max(kMinLoadBound,
  /// ceil(kLoadBoundFactor * total_load / live_stores)). `live_stores`
  /// of zero returns the floor.
  uint64_t LoadBound(uint64_t total_load, size_t live_stores) const;

  /// Stats hook for callers applying the load bound themselves.
  void NoteBoundedSkips(uint64_t skips) { stats_.bounded_skips += skips; }

  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    double weight = 1.0;
    bool healthy = true;
  };

  // Ordered map: RankAll iterates members in ascending-id order, which
  // (with the explicit tie-break) keeps the rank deterministic regardless
  // of insertion order.
  std::map<DeviceId, Entry> stores_;
  uint64_t view_epoch_ = 0;
  mutable Stats stats_;
};

}  // namespace obiswap::fleet
