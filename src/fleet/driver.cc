#include "fleet/driver.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "context/events.h"
#include "fleet/placement.h"
#include "net/bridge.h"
#include "net/network.h"
#include "net/store_node.h"
#include "runtime/runtime.h"
#include "swap/durability.h"
#include "swap/manager.h"
#include "workload/list_workload.h"

namespace obiswap::fleet {

namespace {
// Store ids live far above device ids so the two ranges can never collide
// no matter how large the fleet grows.
constexpr uint32_t kStoreIdBase = 1'000'000;

swap::SwappingManager::Options ManagerOptions(const FleetOptions& options) {
  swap::SwappingManager::Options out;
  out.replication_factor = options.replication_factor;
  out.pace_write_backs = options.overload_controls;
  return out;
}
}  // namespace

/// One device's full middleware stack. Every world shares the driver's
/// network/discovery (one virtual clock, one store pool) but owns its
/// runtime, bus, manager, directory and monitor.
struct FleetDriver::DeviceWorld {
  DeviceWorld(net::Network& network, net::Discovery& discovery, DeviceId self,
              const FleetOptions& options)
      : id(self),
        rt(static_cast<uint16_t>(self.value())),
        client(network, discovery, self),
        manager(rt, ManagerOptions(options)) {
    manager.AttachStore(&client, &discovery);
    manager.AttachBus(&bus);
    if (options.overload_controls) {
      // Client-side storm damping: per-store retry budgets plus priority
      // stamping so priority-shedding stores can classify the traffic.
      net::StoreClient::RetryBudgetOptions budget;
      budget.enabled = true;
      client.set_retry_budget(budget);
      client.set_annotate_priority(true);
    }
    swap::DurabilityMonitor::Options monitor_options;
    monitor_options.miss_threshold = options.miss_threshold;
    monitor_options.pace_repairs = options.overload_controls;
    monitor = std::make_unique<swap::DurabilityMonitor>(
        manager, discovery, self, bus, nullptr, monitor_options);
    if (options.use_directory) {
      manager.AttachPlacementDirectory(&directory);
      monitor->AttachFleet(&directory);
    }
  }

  DeviceId id;
  runtime::Runtime rt;
  context::EventBus bus;
  net::StoreClient client;
  swap::SwappingManager manager;
  PlacementDirectory directory;
  std::unique_ptr<swap::DurabilityMonitor> monitor;
  std::vector<SwapClusterId> clusters;
};

FleetDriver::FleetDriver(const FleetOptions& options) : options_(options) {}
FleetDriver::~FleetDriver() = default;

Status FleetDriver::Build() {
  if (network_ != nullptr) return FailedPreconditionError("already built");
  if (options_.devices == 0 || options_.stores == 0)
    return InvalidArgumentError("need at least one device and one store");
  network_ = std::make_unique<net::Network>(options_.seed);
  discovery_ = std::make_unique<net::Discovery>(*network_);

  for (size_t i = 0; i < options_.stores; ++i) {
    DeviceId store_id(kStoreIdBase + static_cast<uint32_t>(i));
    network_->AddDevice(store_id);
    stores_.push_back(std::make_unique<net::StoreNode>(
        store_id, kStoreCapacityBytes));
    store_dead_.push_back(false);
    discovery_->Announce(stores_.back().get());
  }

  const int objects =
      options_.clusters_per_device * options_.objects_per_cluster;
  for (size_t d = 0; d < options_.devices; ++d) {
    DeviceId device_id(static_cast<uint32_t>(d + 1));
    network_->AddDevice(device_id);
    for (const auto& store : stores_)
      network_->SetInRange(device_id, store->device(), true);
    devices_.push_back(std::make_unique<DeviceWorld>(*network_, *discovery_,
                                                     device_id, options_));
    DeviceWorld& world = *devices_.back();
    const runtime::ClassInfo* cls = workload::RegisterNodeClass(world.rt);
    world.clusters =
        workload::BuildList(world.rt, &world.manager, cls, objects,
                            options_.objects_per_cluster, "head");
  }

  // One quiescent poll (no clock advance, nothing swapped yet) seeds every
  // directory from discovery before the first placement asks for targets.
  for (auto& world : devices_) world->monitor->Poll();
  for (auto& world : devices_) {
    for (SwapClusterId id : world->clusters)
      OBISWAP_RETURN_IF_ERROR(world->manager.SwapOut(id).status());
  }
  return OkStatus();
}

void FleetDriver::PollAll() {
  network_->clock().Advance(kPollPeriodUs);
  for (auto& world : devices_) world->monitor->Poll();
}

Status FleetDriver::RunRounds(int rounds) {
  if (network_ == nullptr) return FailedPreconditionError("Build() first");
  for (int r = 0; r < rounds; ++r) {
    for (size_t d = 0; d < devices_.size(); ++d) {
      DeviceWorld& world = *devices_[d];
      if (world.clusters.empty()) continue;
      // Round-robin offset by device id so rounds interleave clusters
      // instead of the whole fleet hammering cluster 0 together.
      SwapClusterId cluster =
          world.clusters[(static_cast<size_t>(rounds_run_) + d) %
                         world.clusters.size()];
      if (world.manager.StateOf(cluster) == swap::SwapState::kSwapped)
        OBISWAP_RETURN_IF_ERROR(world.manager.SwapIn(cluster));
      OBISWAP_RETURN_IF_ERROR(world.manager.SwapOut(cluster).status());
    }
    PollAll();
    ++rounds_run_;
  }
  return OkStatus();
}

size_t FleetDriver::InjectCorrelatedOutage(double fraction) {
  if (network_ == nullptr || fraction <= 0.0) return 0;
  size_t live = 0;
  for (bool dead : store_dead_)
    if (!dead) ++live;
  size_t target = static_cast<size_t>(fraction * static_cast<double>(live) +
                                      0.5);
  if (target == 0) return 0;

  // Per-cluster replica store sets, plus a reverse store → clusters map so
  // the greedy pass only checks clusters the candidate actually backs.
  std::vector<std::vector<uint32_t>> cluster_stores;
  std::unordered_map<uint32_t, std::vector<size_t>> by_store;
  for (const auto& world : devices_) {
    for (SwapClusterId id : world->clusters) {
      const swap::SwapClusterInfo* info = world->manager.registry().Find(id);
      if (info == nullptr) continue;
      const std::vector<swap::ReplicaLocation>* active =
          info->ActiveReplicas();
      if (active == nullptr || active->empty()) continue;
      std::vector<uint32_t> holders;
      for (const swap::ReplicaLocation& replica : *active)
        holders.push_back(replica.device.value());
      size_t index = cluster_stores.size();
      for (uint32_t holder : holders) by_store[holder].push_back(index);
      cluster_stores.push_back(std::move(holders));
    }
  }

  std::unordered_set<uint32_t> killed;
  size_t taken = 0;
  for (size_t i = 0; i < stores_.size() && taken < target; ++i) {
    if (store_dead_[i]) continue;
    uint32_t candidate = stores_[i]->device().value();
    // Skip a victim whose death would take a cluster's *last* replica —
    // the scripted outage models correlated failure the placement spread
    // survives, so recovery convergence is a hard invariant, not luck.
    bool fatal = false;
    auto it = by_store.find(candidate);
    if (it != by_store.end()) {
      for (size_t index : it->second) {
        bool survivor = false;
        for (uint32_t holder : cluster_stores[index]) {
          if (holder != candidate && killed.count(holder) == 0) {
            survivor = true;
            break;
          }
        }
        if (!survivor) {
          fatal = true;
          break;
        }
      }
    }
    if (fatal) continue;
    killed.insert(candidate);
    network_->RemoveDevice(stores_[i]->device());
    store_dead_[i] = true;
    ++taken;
  }
  return taken;
}

void FleetDriver::CollectClusterHealth(size_t* below_k, size_t* lost) const {
  *below_k = 0;
  *lost = 0;
  const size_t want =
      options_.replication_factor == 0 ? 1 : options_.replication_factor;
  // Replica records pointing at a killed store are walking dead: the
  // registry still lists them until a monitor detects the silence, so
  // convergence counts only replicas on live stores — otherwise an outage
  // would look "recovered" before anyone even noticed it.
  std::unordered_set<uint32_t> dead;
  for (size_t i = 0; i < stores_.size(); ++i)
    if (store_dead_[i]) dead.insert(stores_[i]->device().value());
  for (const auto& world : devices_) {
    for (SwapClusterId id : world->clusters) {
      const swap::SwapClusterInfo* info = world->manager.registry().Find(id);
      if (info == nullptr) continue;
      const std::vector<swap::ReplicaLocation>* active =
          info->ActiveReplicas();
      size_t live = 0;
      if (active != nullptr) {
        for (const swap::ReplicaLocation& replica : *active)
          if (dead.count(replica.device.value()) == 0) ++live;
      }
      if (info->state == swap::SwapState::kSwapped && live == 0) {
        ++*lost;
        continue;
      }
      if (active != nullptr && !active->empty() && live < want) ++*below_k;
    }
  }
}

Result<int> FleetDriver::RunUntilRecovered(int max_polls) {
  if (network_ == nullptr) return FailedPreconditionError("Build() first");
  for (int polls = 0;; ++polls) {
    size_t below_k = 0;
    size_t lost = 0;
    CollectClusterHealth(&below_k, &lost);
    if (below_k == 0) return polls;
    if (polls >= max_polls) {
      return DeadlineExceededError(
          std::to_string(below_k) +
          " clusters still under K after " + std::to_string(max_polls) +
          " polls");
    }
    PollAll();
  }
}

void FleetDriver::ConfigureStoreQueues(
    const net::StoreNode::QueueOptions& queue) {
  for (size_t i = 0; i < stores_.size(); ++i) {
    if (store_dead_[i]) continue;
    stores_[i]->ConfigureQueue(queue);
  }
}

Result<StormReport> FleetDriver::RunRecoveryStorm(int polls) {
  if (network_ == nullptr) return FailedPreconditionError("Build() first");
  StormReport report;
  std::vector<uint64_t> stalls;
  for (int p = 0; p < polls; ++p) {
    for (size_t d = 0; d < devices_.size(); ++d) {
      DeviceWorld& world = *devices_[d];
      if (world.clusters.empty()) continue;
      SwapClusterId cluster =
          world.clusters[(static_cast<size_t>(rounds_run_) + d) %
                         world.clusters.size()];
      if (world.manager.StateOf(cluster) != swap::SwapState::kSwapped)
        continue;
      // A demand fault's stall is what the application would feel: the
      // virtual time the swap-in consumed (transfers, backoff, retry-after
      // sleeps) plus the deterministic store queueing delay charged to the
      // device's calls during it (waiting callers do not block the shared
      // clock — see StoreNode::QueueOptions).
      const uint64_t clock_before = network_->clock().now_us();
      const uint64_t wait_before = world.client.stats().queue_wait_us;
      Status faulted = world.manager.SwapIn(cluster);
      ++report.demand_faults;
      const uint64_t stall =
          (network_->clock().now_us() - clock_before) +
          (world.client.stats().queue_wait_us - wait_before);
      stalls.push_back(stall);
      report.total_stall_us += stall;
      report.max_stall_us = std::max(report.max_stall_us, stall);
      if (!faulted.ok()) {
        ++report.demand_failures;
        continue;  // replicas still dead or budget-exhausted: storm goes on
      }
      Status out = world.manager.SwapOut(cluster).status();
      if (!out.ok()) ++report.demand_failures;
    }
    PollAll();
    ++rounds_run_;
    ++report.polls;
  }
  if (!stalls.empty()) {
    std::sort(stalls.begin(), stalls.end());
    size_t index = (stalls.size() * 95) / 100;
    if (index >= stalls.size()) index = stalls.size() - 1;
    report.p95_stall_us = stalls[index];
  }
  return report;
}

FleetReport FleetDriver::Report() const {
  FleetReport report;
  for (const auto& world : devices_) {
    const swap::SwappingManager::Stats& stats = world->manager.stats();
    report.swap_outs += stats.swap_outs;
    report.swap_ins += stats.swap_ins;
    report.replicas_placed += stats.replicas_placed;
    report.fleet_placements += stats.fleet_placements;
    report.replicas_lost += stats.replicas_forgotten;
    const swap::DurabilityMonitor::Stats& monitor_stats =
        world->monitor->stats();
    report.replicas_re_replicated += monitor_stats.replicas_re_replicated;
    report.stores_departed += monitor_stats.stores_departed;
    report.scan_replicas += monitor_stats.scan_replicas;
    report.full_scan_replicas += monitor_stats.full_scan_replicas;
    report.repairs_paced += monitor_stats.repairs_paced;
    const net::StoreClient::Stats& client_stats = world->client.stats();
    report.logical_calls += client_stats.calls;
    report.wire_attempts += client_stats.wire_attempts;
    report.client_pushbacks += client_stats.pushbacks;
    for (int c = 0; c < net::kPriorityClasses; ++c)
      report.client_pushbacks_by_class[c] +=
          client_stats.pushbacks_by_class[c];
    report.retry_budget_exhausted += client_stats.retry_budget_exhausted;
    report.queue_wait_us += client_stats.queue_wait_us;
    report.max_queue_depth =
        std::max(report.max_queue_depth, client_stats.max_store_queue_depth);
  }
  for (const auto& store : stores_) {
    const net::StoreNode::Stats& store_stats = store->stats();
    report.store_sheds += store_stats.shed_total;
    for (int c = 0; c < net::kPriorityClasses; ++c)
      report.store_sheds_by_class[c] += store_stats.shed_by_class[c];
    report.max_queue_depth =
        std::max(report.max_queue_depth, store_stats.max_queue_depth);
  }
  size_t max_entries = 0;
  uint64_t total_entries = 0;
  for (size_t i = 0; i < stores_.size(); ++i) {
    if (store_dead_[i]) continue;
    ++report.live_stores;
    size_t entries = stores_[i]->entry_count();
    total_entries += entries;
    max_entries = std::max(max_entries, entries);
  }
  if (report.live_stores > 0 && total_entries > 0) {
    double mean = static_cast<double>(total_entries) /
                  static_cast<double>(report.live_stores);
    report.balance_max_over_mean = static_cast<double>(max_entries) / mean;
  }
  CollectClusterHealth(&report.clusters_below_k, &report.clusters_lost);
  if (network_ != nullptr) {
    report.virtual_us = network_->clock().now_us();
    if (report.virtual_us > 0) {
      report.swap_ops_per_s =
          static_cast<double>(report.swap_outs + report.swap_ins) /
          (static_cast<double>(report.virtual_us) / 1e6);
    }
  }
  return report;
}

size_t FleetDriver::device_count() const { return devices_.size(); }
size_t FleetDriver::store_count() const { return stores_.size(); }
net::StoreNode* FleetDriver::store_at(size_t i) const {
  return i < stores_.size() ? stores_[i].get() : nullptr;
}
net::SimClock& FleetDriver::clock() { return network_->clock(); }

}  // namespace obiswap::fleet
