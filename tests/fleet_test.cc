// Fleet layer tests: the rendezvous placement directory (determinism,
// weighting, bounded rebalance, epochs, the bounded-load cap), the
// manager's directory-driven placement and its detached walk, the
// indexed DurabilityMonitor pinned to the repair figures of the legacy
// full scan it replaced, the fleet policy actions, and the FleetDriver
// simulation harness.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "test_support.h"

namespace obiswap {
namespace {

using fleet::FleetDriver;
using fleet::FleetOptions;
using fleet::FleetReport;
using fleet::PlacementDirectory;
using policy::PolicyEngine;
using policy::RegisterFleetActions;
using ::obiswap::testing::BuildClusteredList;
using ::obiswap::testing::MiddlewareWorld;
using ::obiswap::testing::RegisterNodeClass;
using ::obiswap::testing::SumList;

// ------------------------------------------------ placement directory --

TEST(PlacementDirectoryTest, SameViewGivesIdenticalTargetsAcrossRestarts) {
  // Two directories built in different insertion orders (a "process
  // restart" rebuilds the view from discovery in whatever order it
  // arrives) must agree on every key's full rank order.
  PlacementDirectory forward;
  PlacementDirectory backward;
  for (uint32_t id = 100; id < 120; ++id)
    forward.AddStore(DeviceId(id), 1.0 + (id % 3));
  for (uint32_t id = 119; id >= 100; --id)
    backward.AddStore(DeviceId(id), 1.0 + (id % 3));

  for (uint32_t cluster = 1; cluster <= 64; ++cluster) {
    uint64_t key = PlacementDirectory::KeyFor(DeviceId(7),
                                              SwapClusterId(cluster));
    EXPECT_EQ(forward.RankAll(key), backward.RankAll(key)) << cluster;
    EXPECT_EQ(forward.Targets(key, 3), backward.Targets(key, 3));
  }
  // Different owning devices must not collide on the same stores for the
  // same cluster ids (the key mixes the device in).
  uint64_t key_a = PlacementDirectory::KeyFor(DeviceId(1), SwapClusterId(1));
  uint64_t key_b = PlacementDirectory::KeyFor(DeviceId(2), SwapClusterId(1));
  EXPECT_NE(key_a, key_b);
}

// The rendezvous ranks of a fixed view, pinned: a changed mixer would move
// every stored replica's home across a fleet restart.
TEST(PlacementDirectoryTest, RankAllIsPinned) {
  PlacementDirectory directory;
  const double kWeights[8] = {1.0, 1.0, 2.0, 1.0, 0.5, 1.0, 3.0, 1.0};
  for (uint32_t i = 0; i < 8; ++i)
    directory.AddStore(DeviceId(100 + i), kWeights[i]);
  const std::vector<std::pair<uint64_t, std::vector<uint32_t>>> kPinned = {
      {PlacementDirectory::KeyFor(DeviceId(1), SwapClusterId(1)),
       {100, 106, 101, 102, 103, 107, 105, 104}},
      {PlacementDirectory::KeyFor(DeviceId(7), SwapClusterId(42)),
       {100, 105, 102, 103, 106, 101, 107, 104}},
      {0, {106, 107, 105, 100, 103, 102, 104, 101}},
      {0xFFFFFFFFFFFFFFFFull, {102, 106, 100, 105, 101, 103, 107, 104}},
  };
  for (const auto& [key, ranks] : kPinned) {
    std::vector<uint32_t> got;
    for (DeviceId store : directory.RankAll(key)) got.push_back(store.value());
    EXPECT_EQ(got, ranks) << key;
  }
}

TEST(PlacementDirectoryTest, LeaveAndJoinMoveOnlyTheirShareOfKeys) {
  constexpr size_t kStores = 20;
  constexpr size_t kKeys = 400;
  constexpr size_t kReplicas = 2;
  PlacementDirectory directory;
  for (uint32_t id = 0; id < kStores; ++id)
    directory.AddStore(DeviceId(100 + id));

  std::vector<uint64_t> keys;
  std::vector<std::vector<DeviceId>> before;
  for (size_t i = 0; i < kKeys; ++i) {
    keys.push_back(PlacementDirectory::KeyFor(
        DeviceId(1), SwapClusterId(static_cast<uint32_t>(i + 1))));
    before.push_back(directory.Targets(keys.back(), kReplicas));
  }

  const DeviceId leaver(107);
  ASSERT_TRUE(directory.RemoveStore(leaver));
  size_t moved = 0;
  for (size_t i = 0; i < kKeys; ++i) {
    std::vector<DeviceId> after = directory.Targets(keys[i], kReplicas);
    bool had_leaver = std::find(before[i].begin(), before[i].end(),
                                leaver) != before[i].end();
    if (!had_leaver) {
      // Keys that did not target the leaver keep their exact target set.
      EXPECT_EQ(after, before[i]) << i;
      continue;
    }
    ++moved;
    // A departed target costs exactly one replica slot: the surviving
    // target stays, one replacement appears.
    std::set<DeviceId> old_set(before[i].begin(), before[i].end());
    std::set<DeviceId> new_set(after.begin(), after.end());
    old_set.erase(leaver);
    size_t kept = 0;
    for (DeviceId device : old_set) kept += new_set.count(device);
    EXPECT_EQ(kept, kReplicas - 1) << i;
  }
  // Expected move fraction is K/N = 10%; allow slack but require both
  // "some keys moved" and "nowhere near fleet-wide reshuffle".
  EXPECT_GT(moved, 0u);
  EXPECT_LT(static_cast<double>(moved) / kKeys, 0.25);

  // Re-join restores every original target set exactly.
  ASSERT_TRUE(directory.AddStore(leaver));
  for (size_t i = 0; i < kKeys; ++i)
    EXPECT_EQ(directory.Targets(keys[i], kReplicas), before[i]) << i;
}

TEST(PlacementDirectoryTest, WeightShiftsWinsProportionally) {
  PlacementDirectory directory;
  directory.AddStore(DeviceId(1), 1.0);
  directory.AddStore(DeviceId(2), 3.0);
  size_t heavy_wins = 0;
  constexpr size_t kKeys = 2000;
  for (size_t i = 0; i < kKeys; ++i) {
    uint64_t key = PlacementDirectory::KeyFor(
        DeviceId(9), SwapClusterId(static_cast<uint32_t>(i + 1)));
    if (directory.Targets(key, 1)[0] == DeviceId(2)) ++heavy_wins;
  }
  // Weighted rendezvous: expected win share is 3/4.
  double share = static_cast<double>(heavy_wins) / kKeys;
  EXPECT_GT(share, 0.65);
  EXPECT_LT(share, 0.85);
}

TEST(PlacementDirectoryTest, UnhealthyStoresRankLastAndEpochsTrackChanges) {
  PlacementDirectory directory;
  EXPECT_EQ(directory.view_epoch(), 0u);
  directory.AddStore(DeviceId(1));
  directory.AddStore(DeviceId(2));
  directory.AddStore(DeviceId(3));
  uint64_t epoch = directory.view_epoch();
  EXPECT_EQ(epoch, 3u);

  // No-op mutations must not bump the epoch (pollers diff against it).
  EXPECT_FALSE(directory.AddStore(DeviceId(2)));
  EXPECT_FALSE(directory.SetHealthy(DeviceId(2), true));
  EXPECT_FALSE(directory.SetWeight(DeviceId(2), 1.0));
  EXPECT_EQ(directory.view_epoch(), epoch);

  ASSERT_TRUE(directory.SetHealthy(DeviceId(2), false));
  EXPECT_EQ(directory.view_epoch(), epoch + 1);
  EXPECT_EQ(directory.healthy_count(), 2u);
  for (uint32_t cluster = 1; cluster <= 32; ++cluster) {
    uint64_t key = PlacementDirectory::KeyFor(DeviceId(5),
                                              SwapClusterId(cluster));
    std::vector<DeviceId> ranked = directory.RankAll(key);
    ASSERT_EQ(ranked.size(), 3u);
    // The sick store always sorts behind both healthy ones.
    EXPECT_EQ(ranked[2], DeviceId(2)) << cluster;
  }
  ASSERT_TRUE(directory.SetHealthy(DeviceId(2), true));
  ASSERT_TRUE(directory.SetWeight(DeviceId(2), 2.5));
  EXPECT_EQ(directory.WeightOf(DeviceId(2)), 2.5);
  ASSERT_TRUE(directory.RemoveStore(DeviceId(3)));
  EXPECT_EQ(directory.view_epoch(), epoch + 4);
  EXPECT_EQ(directory.stats().joins, 3u);
  EXPECT_EQ(directory.stats().leaves, 1u);
}

TEST(PlacementDirectoryTest, LoadBoundIsFlooredAndScalesWithMean) {
  PlacementDirectory directory;
  EXPECT_EQ(directory.LoadBound(0, 0), 4u);    // empty fleet: the floor
  EXPECT_EQ(directory.LoadBound(10, 10), 4u);  // mean 1 → capped by floor
  EXPECT_EQ(directory.LoadBound(100, 10), 12u);  // ceil(1.2 * 10)
  EXPECT_EQ(directory.LoadBound(101, 10), 13u);  // ceil rounds up
}

// ------------------------------------------- manager directory placement --

swap::SwappingManager::Options TwoReplicaOptions() {
  swap::SwappingManager::Options options;
  options.replication_factor = 2;
  return options;
}

TEST(FleetPlacementTest, SwapOutFollowsTheDirectoryRankOrder) {
  MiddlewareWorld world(TwoReplicaOptions());
  const runtime::ClassInfo* cls = RegisterNodeClass(world.rt);
  for (uint32_t id = 2; id <= 5; ++id) world.AddStore(id, 1 << 20);
  PlacementDirectory directory;
  for (uint32_t id = 2; id <= 5; ++id) directory.AddStore(DeviceId(id));
  world.manager.AttachPlacementDirectory(&directory);

  auto clusters =
      BuildClusteredList(world.rt, world.manager, cls, 24, 12, "head");
  for (SwapClusterId id : clusters) {
    ASSERT_TRUE(world.manager.SwapOut(id).ok());
    const swap::SwapClusterInfo* info = world.manager.registry().Find(id);
    ASSERT_EQ(info->replicas.size(), 2u);
    // Fresh stores are all under the load bound, so the placement is the
    // pure HRW rank prefix — reproducible from the directory alone.
    uint64_t key =
        PlacementDirectory::KeyFor(MiddlewareWorld::kDevice, id);
    std::vector<DeviceId> expected = directory.Targets(key, 2);
    EXPECT_EQ(info->replicas[0].device, expected[0]);
    EXPECT_EQ(info->replicas[1].device, expected[1]);
  }
  EXPECT_GT(world.manager.stats().fleet_selections, 0u);
  EXPECT_EQ(world.manager.stats().fleet_placements, 4u);
  EXPECT_EQ(world.manager.stats().fleet_placements,
            world.manager.stats().replicas_placed);

  // Traversal still round-trips through directory-placed replicas.
  EXPECT_EQ(*SumList(world.rt, "head"), 24 * 23 / 2);
}

TEST(FleetPlacementTest, DetachedAndWalkModeWorldsAreByteIdentical) {
  // With no directory attached the manager walks the nearby stores, and
  // the frozen stats snapshot carries the fleet keys at zero.
  MiddlewareWorld world(TwoReplicaOptions());
  const runtime::ClassInfo* cls = RegisterNodeClass(world.rt);
  for (uint32_t id = 2; id <= 4; ++id) world.AddStore(id, 1 << 20);
  auto clusters =
      BuildClusteredList(world.rt, world.manager, cls, 24, 12, "head");
  swap::DurabilityMonitor monitor(world.manager, world.discovery,
                                  MiddlewareWorld::kDevice, world.bus);
  for (SwapClusterId id : clusters)
    ASSERT_TRUE(world.manager.SwapOut(id).ok());
  monitor.Poll();
  ASSERT_TRUE(world.manager.SwapIn(clusters[0]).ok());
  world.manager.MarkDirty(clusters[0]);
  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  monitor.Poll();
  std::string json = world.manager.StatsJson();
  EXPECT_NE(json.find("\"fleet_selections\":0"), std::string::npos);
  EXPECT_NE(json.find("\"fleet_placements\":0"), std::string::npos);
}

// ------------------------------------------- incremental durability scans --

/// Walk placement (no directory) under the monitor, with the policy
/// gauges wired.
struct MonitorWorld {
  MonitorWorld()
      : world(TwoReplicaOptions()),
        monitor(world.manager, world.discovery, MiddlewareWorld::kDevice,
                world.bus, &props) {
    cls = RegisterNodeClass(world.rt);
    for (uint32_t id = 2; id <= 5; ++id) world.AddStore(id, 1 << 20);
    clusters =
        BuildClusteredList(world.rt, world.manager, cls, 48, 12, "head");
  }

  MiddlewareWorld world;
  PlacementDirectory directory;
  context::PropertyRegistry props;
  swap::DurabilityMonitor monitor;
  const runtime::ClassInfo* cls = nullptr;
  std::vector<SwapClusterId> clusters;
};

/// Clusters with a store group below K, counted over the whole registry.
int64_t BruteForceUnderReplicated(const swap::SwappingManager& manager) {
  int64_t under = 0;
  for (SwapClusterId id : manager.registry().Ids()) {
    for (const swap::ConstStoreGroup& group :
         manager.registry().Find(id)->Groups()) {
      if (group.replicas->size() < manager.options().replication_factor) {
        ++under;
        break;
      }
    }
  }
  return under;
}

// The figures the deleted legacy full-scan monitor produced for this
// scenario: the indexed monitor must reproduce its repairs exactly.
constexpr const char* kLegacyStatsJson =
    R"({"proxies_created":4,"proxies_reused":0,"proxies_dismantled":0,)"
    R"("proxies_finalized":0,"boundary_crossings":0,)"
    R"("assigned_patches":0,"swap_outs":5,"swap_ins":1,"drops":0,)"
    R"("drop_failures":0,"swap_out_failures":0,)"
    R"("bytes_swapped_out":7221,"bytes_swapped_in":1451,)"
    R"("local_swap_outs":0,"merges":0,"splits":0,"replicas_placed":10,)"
    R"("under_replicated_outs":0,"failover_fetches":0,)"
    R"("data_loss_failovers":0,"replicas_forgotten":2,)"
    R"("re_replications":2,"bytes_re_replicated":2910,)"
    R"("evacuated_replicas":0,"drops_deferred":2,"drops_drained":0,)"
    R"("clean_swap_outs":0,"clean_image_invalidations":1,)"
    R"("clean_images_reaped":0,"cache_hits":0,)"
    R"("bytes_swap_transfer_saved":0,"prefetched_swap_ins":0,)"
    R"("prefetch_stages":0,"prefetch_stage_bytes":0,"prefetch_hits":0,)"
    R"("prefetch_wastes":0,"demand_fault_stall_us":0,)"
    R"("prefetch_fetch_us":0,"recoveries":0,"recovery_us":0,)"
    R"("journal_append_us":0,"journal_bytes":0,"hedged_fetches":0,)"
    R"("hedge_wins":0,"hedge_wastes":0,"deadline_aborts":0,)"
    R"("brownout_entries":1,"brownout_exits":1,"brownout_swap_outs":0,)"
    R"("pending_drop_overflow":0,"delta_swap_outs":0,)"
    R"("delta_fallbacks":0,"delta_bytes_shipped":0,)"
    R"("delta_bytes_saved":0,"delta_base_cache_hits":0,)"
    R"("fields_marked_dirty":0,"tier_swap_outs":0,"tier_swap_ins":0,)"
    R"("fleet_selections":0,"fleet_placements":0,)"
    R"("write_backs_paced":0,"payload_cache_hits":0,)"
    R"("payload_cache_misses":1,"payload_cache_insertions":0,)"
    R"("payload_cache_evictions":0,"payload_cache_invalidations":0,)"
    R"("payload_cache_bytes":0,"payload_cache_entries":0,)"
    R"("tier_ram_admits":0,"tier_ram_rejects":0,"tier_ram_hits":0,)"
    R"("tier_ram_misses":0,"tier_ram_evictions":0,)"
    R"("tier_ram_bytes_saved":0,"tier_ram_entries_lost":0,)"
    R"("tier_ram_bytes":0,"tier_flash_admits":0,)"
    R"("tier_flash_rejects":0,"tier_flash_hits":0,)"
    R"("tier_flash_misses":0,"tier_flash_evictions":0,)"
    R"("tier_flash_discards":0,"tier_flash_slots_used":0,)"
    R"("tier_promotions":0,"tier_demotions":0,"tier_write_backs":0,)"
    R"("tier_write_back_bytes":0,"tier_pending_write_backs":0,)"
    R"("net.pushbacks":0,"net.pushback_retries":0,)"
    R"("net.retry_budget_exhausted":0,"net.retry_budget_earned":0,)"
    R"("net.retry_budget_spent":0,"net.shed_demand":0,)"
    R"("net.shed_swap_out":0,"net.shed_hedge":0,"net.shed_prefetch":0,)"
    R"("net.shed_maintenance":0,"store_queue_depth":0})";
constexpr uint64_t kLegacyClockUs = 2001755;
constexpr uint64_t kLegacyScanReplicas = 46;

TEST(IncrementalDurabilityTest, RepairSequenceMatchesLegacyByteForByte) {
  MonitorWorld w;
  std::vector<int64_t> gauges;
  auto poll = [&] {
    w.monitor.Poll();
    const int64_t gauge = *w.props.GetInt("swap.under_replicated");
    EXPECT_EQ(gauge, BruteForceUnderReplicated(w.world.manager))
        << "poll " << w.monitor.stats().polls;
    gauges.push_back(gauge);
  };
  for (SwapClusterId id : w.clusters)
    ASSERT_TRUE(w.world.manager.SwapOut(id).ok());
  poll();
  // Silent departure: the store with the first cluster's primary goes
  // dark. The third missed poll presumes it gone, in brownout: its
  // replicas are forgotten and the repair waits for the next poll.
  DeviceId victim =
      w.world.manager.registry().Find(w.clusters[0])->replicas[0].device;
  w.world.network.SetOnline(victim, false);
  poll();
  poll();
  w.world.manager.EnterBrownout("test");
  poll();
  w.world.manager.ExitBrownout();
  poll();
  // Post-recovery activity: swap-in, dirty, swap-out, one more poll —
  // exercises the event-fed dirty-cluster queue.
  ASSERT_TRUE(w.world.manager.SwapIn(w.clusters[0]).ok());
  w.world.manager.MarkDirty(w.clusters[0]);
  ASSERT_TRUE(w.world.manager.SwapOut(w.clusters[0]).ok());
  poll();
  EXPECT_EQ(gauges, (std::vector<int64_t>{0, 0, 0, 2, 0, 0}));

  EXPECT_EQ(w.world.manager.StatsJson(), kLegacyStatsJson);
  EXPECT_EQ(w.world.network.clock().now_us(), kLegacyClockUs);
  const swap::DurabilityMonitor::Stats& stats = w.monitor.stats();
  EXPECT_EQ(stats.polls, 6u);
  EXPECT_EQ(stats.stores_departed, 1u);
  EXPECT_EQ(stats.replicas_lost, 2u);
  EXPECT_EQ(stats.clusters_re_replicated, 2u);
  EXPECT_EQ(stats.replicas_re_replicated, 2u);
  EXPECT_EQ(stats.sweeps_deferred, 1u);
  EXPECT_EQ(stats.evacuated_replicas, 0u);
  EXPECT_EQ(stats.drops_drained, 0u);
  EXPECT_EQ(stats.clean_images_reaped, 0u);
  EXPECT_EQ(stats.repairs_paced, 0u);
  EXPECT_EQ(*w.props.GetInt("swap.store_churn"), 1);

  // Same work, fewer records examined: the computed full-scan meter is
  // what the legacy monitor actually examined.
  EXPECT_EQ(stats.full_scan_replicas, kLegacyScanReplicas);
  EXPECT_GT(stats.scan_replicas, 0u);
  EXPECT_LT(stats.scan_replicas, kLegacyScanReplicas);
}

TEST(IncrementalDurabilityTest, QuietPollsExamineNothingAfterTheRebuild) {
  MonitorWorld w;
  for (SwapClusterId id : w.clusters)
    OBISWAP_CHECK(w.world.manager.SwapOut(id).ok());
  w.monitor.Poll();  // first poll: one honest rebuild scan
  uint64_t after_rebuild = w.monitor.stats().scan_replicas;
  EXPECT_GT(after_rebuild, 0u);
  for (int i = 0; i < 10; ++i) w.monitor.Poll();
  // Ten quiet polls: the full-scan denominator keeps growing, the actual
  // examined count does not move at all.
  EXPECT_EQ(w.monitor.stats().scan_replicas, after_rebuild);
  EXPECT_GT(w.monitor.stats().full_scan_replicas, 10 * after_rebuild);
}

TEST(IncrementalDurabilityTest, FleetPollSyncsTheDirectoryFromDiscovery) {
  MonitorWorld w;
  context::PropertyRegistry props;
  swap::DurabilityMonitor monitor(w.world.manager, w.world.discovery,
                                  MiddlewareWorld::kDevice, w.world.bus,
                                  &props);
  monitor.AttachFleet(&w.directory);
  monitor.Poll();
  // Discovery announced stores 2..5; the sync pulled them all in.
  EXPECT_EQ(w.directory.size(), 4u);
  for (uint32_t id = 2; id <= 5; ++id)
    EXPECT_TRUE(w.directory.Contains(DeviceId(id))) << id;
  EXPECT_EQ(*props.GetInt("fleet.stores"), 4);
  EXPECT_GT(*props.GetInt("fleet.view_epoch"), 0);

  // A withdrawn store leaves the view on the next poll.
  w.world.discovery.Withdraw(DeviceId(5));
  monitor.Poll();
  EXPECT_EQ(w.directory.size(), 3u);
  EXPECT_FALSE(w.directory.Contains(DeviceId(5)));
  EXPECT_EQ(monitor.stats().stores_departed, 1u);
  EXPECT_EQ(*props.GetInt("swap.store_churn"), 1);
}

// ----------------------------------------------------------- policy hooks --

TEST(FleetPolicyTest, ActionsEditTheViewAndSwitchPlacementModes)
{
  MiddlewareWorld world(TwoReplicaOptions());
  PlacementDirectory directory;
  world.manager.AttachPlacementDirectory(&directory);
  context::PropertyRegistry props;
  PolicyEngine engine(world.bus, props);
  ASSERT_TRUE(RegisterFleetActions(engine, directory).ok());
  auto added = engine.LoadXml(R"(
    <policies>
      <policy name="join-big-store" on="store-found">
        <action name="set-fleet">
          <param name="op" value="join"/>
          <param name="store" value="42"/>
          <param name="weight" value="5"/>
        </action>
      </policy>
      <policy name="quarantine" on="store-sick">
        <action name="set-fleet">
          <param name="op" value="healthy"/>
          <param name="store" value="42"/>
          <param name="healthy" value="0"/>
        </action>
      </policy>
    </policies>)");
  ASSERT_TRUE(added.ok()) << added.status().ToString();

  world.bus.Publish(context::Event("store-found"));
  EXPECT_TRUE(directory.Contains(DeviceId(42)));
  EXPECT_EQ(directory.WeightOf(DeviceId(42)), 5.0);
  world.bus.Publish(context::Event("store-sick"));
  EXPECT_FALSE(directory.IsHealthy(DeviceId(42)));
  EXPECT_EQ(engine.stats().action_failures, 0u);
}

// ----------------------------------------------------------- fleet driver --

TEST(FleetDriverTest, SmallFleetBuildsRunsAndBalances) {
  FleetOptions options;
  options.devices = 6;
  options.stores = 9;
  options.clusters_per_device = 3;
  options.objects_per_cluster = 6;
  FleetDriver driver(options);
  ASSERT_TRUE(driver.Build().ok());
  EXPECT_EQ(driver.device_count(), 6u);
  EXPECT_EQ(driver.store_count(), 9u);
  ASSERT_TRUE(driver.RunRounds(3).ok());

  FleetReport report = driver.Report();
  EXPECT_EQ(report.clusters_lost, 0u);
  EXPECT_EQ(report.clusters_below_k, 0u);
  EXPECT_GT(report.swap_outs, 0u);
  EXPECT_GT(report.swap_ins, 0u);
  EXPECT_GT(report.fleet_placements, 0u);
  EXPECT_EQ(report.fleet_placements, report.replicas_placed);
  EXPECT_GE(report.balance_max_over_mean, 1.0);
  EXPECT_GT(report.swap_ops_per_s, 0.0);
}

TEST(FleetDriverTest, CorrelatedOutageRecoversEveryCluster) {
  FleetOptions options;
  options.devices = 8;
  options.stores = 10;
  options.clusters_per_device = 3;
  options.objects_per_cluster = 6;
  FleetDriver driver(options);
  ASSERT_TRUE(driver.Build().ok());
  ASSERT_TRUE(driver.RunRounds(1).ok());

  size_t killed = driver.InjectCorrelatedOutage(0.3);
  EXPECT_GE(killed, 2u);
  auto polls = driver.RunUntilRecovered(60);
  ASSERT_TRUE(polls.ok()) << polls.status().ToString();
  EXPECT_GT(*polls, 0);

  FleetReport report = driver.Report();
  EXPECT_EQ(report.clusters_below_k, 0u);
  EXPECT_EQ(report.clusters_lost, 0u);
  EXPECT_GT(report.stores_departed, 0u);
  EXPECT_GT(report.replicas_re_replicated, 0u);
  // The incremental monitors examined a fraction of the full-scan cost.
  EXPECT_LT(report.scan_replicas, report.full_scan_replicas);
}

TEST(FleetDriverTest, LegacyBaselineRunsWithoutTheDirectory) {
  FleetOptions options;
  options.devices = 4;
  options.stores = 6;
  options.clusters_per_device = 2;
  options.objects_per_cluster = 6;
  options.use_directory = false;
  FleetDriver driver(options);
  ASSERT_TRUE(driver.Build().ok());
  ASSERT_TRUE(driver.RunRounds(2).ok());
  FleetReport report = driver.Report();
  EXPECT_EQ(report.fleet_placements, 0u);
  EXPECT_GT(report.swap_outs, 0u);
  EXPECT_EQ(report.clusters_lost, 0u);
}

}  // namespace
}  // namespace obiswap
