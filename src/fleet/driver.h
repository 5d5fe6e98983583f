// FleetDriver: a fleet-scale simulation harness.
//
// Stands up hundreds-to-thousands of device runtimes — each a full
// middleware stack (runtime, swapping manager, placement directory,
// durability monitor) — against one shared store pool on one simulated
// network, so everything runs in a single deterministic virtual-time
// world. The driver scripts the paper's environment at fleet scale:
// swap-out/swap-in rounds across every device, correlated store outages
// (a building losing power, not one neighbor wandering off), and the
// recovery convergence that follows. It measures what the single-device
// benches cannot: aggregate swap throughput, placement balance across the
// pool (max/mean store fill), and the incremental durability monitor's
// scan savings versus the full-scan baseline.
//
// Determinism: store/device ids, round-robin cluster choice, ascending
// poll order and the greedy outage-victim selection are all fixed by the
// options; the only randomness is the network's seeded RNG, so one seed =
// one run, byte for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "net/store_node.h"

namespace obiswap::net {
class Network;
class Discovery;
class SimClock;
}  // namespace obiswap::net

namespace obiswap::fleet {

struct FleetOptions {
  size_t devices = 8;              ///< device runtimes in the fleet
  size_t stores = 16;              ///< shared store pool size
  int clusters_per_device = 4;     ///< swap-clusters built on each device
  int objects_per_cluster = 12;    ///< 64-byte list nodes per cluster
  size_t replication_factor = 2;   ///< K replicas per swapped cluster
  int miss_threshold = 3;          ///< silent-departure detection window
  /// true: rendezvous directory placement (the monitors keep the
  /// directory in sync). false: the nearby-store walk (baseline).
  bool use_directory = true;
  uint64_t seed = 11;              ///< network RNG seed
  /// Client/producer-side overload controls: per-store retry budgets,
  /// priority annotation on every request, and AIMD pacing of the repair
  /// sweep and tier write-back. Store-side queues are configured
  /// separately (ConfigureStoreQueues) so setup traffic never queues.
  bool overload_controls = false;
};

/// Aggregate fleet metrics, summed across every device runtime.
struct FleetReport {
  uint64_t swap_outs = 0;
  uint64_t swap_ins = 0;
  uint64_t replicas_placed = 0;
  uint64_t fleet_placements = 0;   ///< replicas placed via the directory
  uint64_t replicas_lost = 0;
  uint64_t replicas_re_replicated = 0;
  uint64_t stores_departed = 0;    ///< departure detections (per monitor)
  uint64_t scan_replicas = 0;      ///< replica records monitors examined
  uint64_t full_scan_replicas = 0;  ///< what full scans would have examined
  uint64_t virtual_us = 0;         ///< simulation clock at snapshot time
  /// Placement balance over live stores: max entry count / mean entry
  /// count (1.0 = perfectly even; 0 when nothing is placed).
  double balance_max_over_mean = 0.0;
  size_t live_stores = 0;
  size_t clusters_below_k = 0;     ///< recoverable clusters still under K
  size_t clusters_lost = 0;        ///< swapped clusters with zero replicas
  /// Aggregate swap operations per virtual second.
  double swap_ops_per_s = 0.0;
  // --- overload accounting (all zero while the knobs are off) --------------
  uint64_t logical_calls = 0;      ///< StoreClient calls across the fleet
  uint64_t wire_attempts = 0;      ///< request envelopes actually sent
  uint64_t client_pushbacks = 0;   ///< shed responses clients received
  uint64_t client_pushbacks_by_class[net::kPriorityClasses] = {0, 0, 0, 0, 0};
  uint64_t retry_budget_exhausted = 0;
  uint64_t queue_wait_us = 0;      ///< store queueing delay charged to calls
  uint64_t max_queue_depth = 0;    ///< deepest store backlog observed
  uint64_t store_sheds = 0;        ///< store-side rejections (all stores)
  uint64_t store_sheds_by_class[net::kPriorityClasses] = {0, 0, 0, 0, 0};
  uint64_t repairs_paced = 0;      ///< sweep repairs deferred by AIMD caps
};

/// What one scripted recovery storm did (see RunRecoveryStorm).
struct StormReport {
  int polls = 0;                ///< storm polls executed
  uint64_t demand_faults = 0;   ///< demand swap-ins attempted during storm
  uint64_t demand_failures = 0;  ///< demand swap-ins that failed
  uint64_t total_stall_us = 0;  ///< summed demand stall (clock + queue wait)
  uint64_t p95_stall_us = 0;    ///< 95th-percentile demand stall
  uint64_t max_stall_us = 0;
};

/// One virtual-time fleet simulation. Build() wires the world; the
/// scripting calls below advance it. Not copyable; owns every runtime.
class FleetDriver {
 public:
  /// Capacity of each store in the shared pool.
  static constexpr size_t kStoreCapacityBytes = 8 * 1024 * 1024;
  /// Durability poll cadence (4 Hz).
  static constexpr uint64_t kPollPeriodUs = 250'000;

  explicit FleetDriver(const FleetOptions& options);
  ~FleetDriver();
  FleetDriver(const FleetDriver&) = delete;
  FleetDriver& operator=(const FleetDriver&) = delete;

  /// Creates the network, the store pool and every device runtime, builds
  /// each device's clustered list, runs one fleet poll (populating the
  /// placement directories from discovery) and swaps every cluster out.
  Status Build();

  /// One activity round per call: every device swaps one of its clusters
  /// in and back out (round-robin over its clusters, offset by device so
  /// rounds interleave), then the clock advances one poll period and the
  /// whole fleet polls.
  Status RunRounds(int rounds);

  /// Advances the clock by one poll period and polls every device's
  /// durability monitor, in ascending device order.
  void PollAll();

  /// Silently kills `fraction` of the live store pool at once (network
  /// removal — monitors must detect the silence). Victims are chosen
  /// greedily, ascending, skipping any store whose death would destroy a
  /// cluster's last replica, so the scripted outage models a correlated
  /// failure the placement spread can actually survive. Returns the number
  /// of stores taken down.
  size_t InjectCorrelatedOutage(double fraction);

  /// Polls the fleet (advancing one poll period each time) until every
  /// cluster with a surviving replica is back at K replicas, or
  /// `max_polls` is exhausted (kDeadlineExceeded). Returns polls used.
  Result<int> RunUntilRecovered(int max_polls);

  /// Applies one bounded-queue configuration to every live store node.
  /// Called after Build()/steady-state rounds so setup traffic is never
  /// shed; the storm then runs against saturating stores.
  void ConfigureStoreQueues(const net::StoreNode::QueueOptions& queue);

  /// The recovery-storm script: for `polls` rounds, every device demand-
  /// faults one swapped cluster (and swaps it back out) while the monitors
  /// repair the outage underneath — demand traffic and repair traffic
  /// compete for the surviving stores. Each demand swap-in's stall is the
  /// virtual time it consumed plus the store queueing delay charged to the
  /// device's calls during it; the report carries the p95 over all
  /// samples. Demand failures (replicas still dead, budgets exhausted) are
  /// counted, not fatal — the storm is *supposed* to overload the pool.
  Result<StormReport> RunRecoveryStorm(int polls);

  FleetReport Report() const;

  size_t device_count() const;
  size_t store_count() const;
  /// The i-th store node (tests audit stored keys / fill directly).
  net::StoreNode* store_at(size_t i) const;
  net::SimClock& clock();

 private:
  struct DeviceWorld;

  void CollectClusterHealth(size_t* below_k, size_t* lost) const;

  FleetOptions options_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<net::Discovery> discovery_;
  std::vector<std::unique_ptr<net::StoreNode>> stores_;
  std::vector<bool> store_dead_;
  std::vector<std::unique_ptr<DeviceWorld>> devices_;
  int rounds_run_ = 0;
};

}  // namespace obiswap::fleet
