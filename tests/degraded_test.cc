// Degraded-mode resilience tests: the per-store HealthTracker's circuit
// breaker state machine, the StoreClient's breaker gate / capped jittered
// backoff / call deadline, the manager's hedged failover fetch, end-to-end
// operation deadlines, brownout entry/exit with re-replication debt, the
// bounded pending-drop queue and the degraded policy actions.
#include <gtest/gtest.h>

#include "policy/engine.h"
#include "policy/standard_actions.h"
#include "swap/durability.h"
#include "test_support.h"

namespace obiswap {
namespace {

using runtime::Value;
using ::obiswap::testing::BuildClusteredList;
using ::obiswap::testing::MiddlewareWorld;
using ::obiswap::testing::RegisterNodeClass;
using ::obiswap::testing::SumList;

constexpr int kListLength = 12;
constexpr int64_t kListSum = kListLength * (kListLength - 1) / 2;
constexpr DeviceId kStore(99);

swap::SwappingManager::Options TwoReplicaOptions() {
  swap::SwappingManager::Options options;
  options.replication_factor = 2;
  return options;
}

// ---------------------------------------------------------------------------
// HealthTracker unit tests (virtual clock, no network)
// ---------------------------------------------------------------------------

TEST(BreakerTest, TripsOnConsecutiveFailuresAndRejects) {
  net::SimClock clock;
  net::HealthTracker tracker(&clock);
  for (int i = 0; i < 2; ++i) tracker.RecordOutcome(kStore, false, 1000);
  EXPECT_EQ(tracker.StateOf(kStore), net::BreakerState::kClosed);
  EXPECT_TRUE(tracker.IsHealthy(kStore));

  tracker.RecordOutcome(kStore, false, 1000);  // third consecutive: trip
  EXPECT_EQ(tracker.StateOf(kStore), net::BreakerState::kOpen);
  EXPECT_FALSE(tracker.IsHealthy(kStore));
  EXPECT_TRUE(tracker.IsOpen(kStore));
  EXPECT_FALSE(tracker.AllowRequest(kStore));  // cooldown not elapsed
  EXPECT_EQ(tracker.stats().trips, 1u);
  EXPECT_EQ(tracker.stats().rejections, 1u);
  EXPECT_EQ(tracker.open_count(), 1u);
}

TEST(BreakerTest, HalfOpenProbeClosesOnSuccess) {
  net::SimClock clock;
  net::HealthTracker tracker(&clock);
  for (int i = 0; i < 3; ++i) tracker.RecordOutcome(kStore, false, 1000);
  ASSERT_TRUE(tracker.IsOpen(kStore));

  clock.Advance(net::HealthTracker::kOpenCooldownUs);
  EXPECT_TRUE(tracker.AllowRequest(kStore));  // the one half-open probe
  EXPECT_EQ(tracker.StateOf(kStore), net::BreakerState::kHalfOpen);
  EXPECT_FALSE(tracker.AllowRequest(kStore));  // probe already in flight
  EXPECT_EQ(tracker.stats().probes, 1u);

  tracker.RecordOutcome(kStore, true, 1000);  // probe succeeded
  EXPECT_EQ(tracker.StateOf(kStore), net::BreakerState::kClosed);
  EXPECT_TRUE(tracker.IsHealthy(kStore));
  EXPECT_EQ(tracker.stats().closes, 1u);
  EXPECT_EQ(tracker.Find(kStore)->consecutive_failures, 0u);
}

TEST(BreakerTest, HalfOpenProbeFailureReopens) {
  net::SimClock clock;
  net::HealthTracker tracker(&clock);
  for (int i = 0; i < 3; ++i) tracker.RecordOutcome(kStore, false, 1000);
  clock.Advance(net::HealthTracker::kOpenCooldownUs);
  ASSERT_TRUE(tracker.AllowRequest(kStore));

  tracker.RecordOutcome(kStore, false, 1000);  // probe failed
  EXPECT_EQ(tracker.StateOf(kStore), net::BreakerState::kOpen);
  EXPECT_EQ(tracker.Find(kStore)->opens, 2u);
  // The cooldown restarts from the re-open instant.
  EXPECT_FALSE(tracker.AllowRequest(kStore));
}

TEST(BreakerTest, EwmaErrorRateTripsLossyStore) {
  net::SimClock clock;
  net::HealthTracker tracker(&clock);
  // fail fail ok fail fail: never three consecutive failures, but the
  // error EWMA crosses the trip threshold once enough attempts accrue.
  tracker.RecordOutcome(kStore, false, 1000);
  tracker.RecordOutcome(kStore, false, 1000);
  tracker.RecordOutcome(kStore, true, 1000);
  tracker.RecordOutcome(kStore, false, 1000);
  EXPECT_EQ(tracker.StateOf(kStore), net::BreakerState::kClosed);
  tracker.RecordOutcome(kStore, false, 1000);
  EXPECT_EQ(tracker.StateOf(kStore), net::BreakerState::kOpen);
  EXPECT_LT(tracker.Find(kStore)->consecutive_failures, 3u);
  EXPECT_GE(tracker.Find(kStore)->ewma_error_rate,
            net::HealthTracker::kErrorRateTrip);
}

TEST(BreakerTest, HedgeDeadlineNeedsWarmSamples) {
  net::SimClock clock;
  net::HealthTracker tracker(&clock);
  for (int i = 0; i < 7; ++i) tracker.RecordOutcome(kStore, true, 30'000);
  EXPECT_EQ(tracker.HedgeDeadlineUs(), 0u);  // cold: hedging stays off
  tracker.RecordOutcome(kStore, true, 30'000);
  // p95 resolves to the upper bound of the bucket holding 30ms.
  EXPECT_EQ(tracker.HedgeDeadlineUs(), 32767u);
}

TEST(BreakerTest, DeadlineExceededStatusRoundTrip) {
  Status status = DeadlineExceededError("late");
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(std::string(StatusCodeName(StatusCode::kDeadlineExceeded)),
            "DEADLINE_EXCEEDED");
}

// ---------------------------------------------------------------------------
// StoreClient: breaker gate, capped + jittered backoff, call deadline
// ---------------------------------------------------------------------------

TEST(DegradedClientTest, FastFailsOnOpenBreakerWithoutRadioTraffic) {
  MiddlewareWorld world;
  world.AddStore(2, 1 << 20);
  net::HealthTracker tracker(&world.network.clock());
  world.client.AttachHealth(&tracker);
  world.network.SetOnline(DeviceId(2), false);

  EXPECT_FALSE(world.client.Fetch(DeviceId(2), SwapKey(7)).ok());
  ASSERT_TRUE(tracker.IsOpen(DeviceId(2)));

  uint64_t now = world.network.clock().now_us();
  uint64_t failures = world.network.stats().transfer_failures;
  Result<std::string> second = world.client.Fetch(DeviceId(2), SwapKey(7));
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  // Refused before any radio traffic: no transfer attempted, no virtual
  // time burned on retries or backoff.
  EXPECT_EQ(world.network.stats().transfer_failures, failures);
  EXPECT_EQ(world.network.clock().now_us(), now);
  EXPECT_EQ(world.client.stats().breaker_rejections, 1u);
}

TEST(DegradedClientTest, BackoffShiftCappedAndBounded) {
  MiddlewareWorld world;
  world.AddStore(2, 1 << 20);
  world.network.SetOnline(DeviceId(2), false);
  // 40 attempts would shift the base left 39 bits without the cap —
  // far past overflow of base<<n growth into absurd virtual waits.
  net::StoreClient client(world.network, world.discovery,
                          MiddlewareWorld::kDevice, 40);
  EXPECT_FALSE(client.Fetch(DeviceId(2), SwapKey(7)).ok());
  EXPECT_EQ(client.stats().retries, 39u);
  // Every gap saturates at max_backoff_us (+ up to 50% jitter).
  uint64_t worst = 39u * (client.max_backoff_us() + client.max_backoff_us() / 2);
  EXPECT_LE(client.stats().backoff_us, worst);
  EXPECT_GE(client.stats().backoff_us, client.max_backoff_us());
  EXPECT_EQ(world.network.clock().now_us(), client.stats().backoff_us);
}

TEST(DegradedClientTest, BackoffJitterDeterministicPerKey) {
  auto backoff_for = [](uint64_t key) {
    MiddlewareWorld world;
    world.AddStore(2, 1 << 20);
    world.network.SetOnline(DeviceId(2), false);
    EXPECT_FALSE(world.client.Fetch(DeviceId(2), SwapKey(key)).ok());
    return world.client.stats().backoff_us;
  };
  // Same key: identical virtual schedule across runs. Different keys:
  // decorrelated gaps (retry herds against a shared store spread out).
  EXPECT_EQ(backoff_for(7), backoff_for(7));
  EXPECT_NE(backoff_for(7), backoff_for(8));
}

// The jittered backoff waits, pinned: three keys, the waits before retries
// 1..3 (a call with n attempts sleeps before retries 1..n-1).
TEST(DegradedClientTest, BackoffWaitsArePinned) {
  auto total_backoff = [](uint64_t key, int attempts) {
    MiddlewareWorld world;
    world.AddStore(2, 1 << 20);
    world.network.SetOnline(DeviceId(2), false);
    net::StoreClient client(world.network, world.discovery,
                            MiddlewareWorld::kDevice, attempts);
    EXPECT_FALSE(client.Fetch(DeviceId(2), SwapKey(key)).ok());
    return client.stats().backoff_us;
  };
  const std::vector<std::pair<uint64_t, std::vector<uint64_t>>> kPinned = {
      {7, {43543, 66806, 158924}},
      {8, {33265, 78491, 125020}},
      {(uint64_t{1} << 32) | 3, {37543, 62050, 141894}},
  };
  for (const auto& [key, waits] : kPinned) {
    std::vector<uint64_t> got;
    for (int attempts = 2; attempts <= 4; ++attempts)
      got.push_back(total_backoff(key, attempts) -
                    total_backoff(key, attempts - 1));
    EXPECT_EQ(got, waits) << key;
  }
}

TEST(DegradedClientTest, CallDeadlineCapsVirtualTime) {
  MiddlewareWorld world;
  world.AddStore(2, 1 << 20);
  net::LinkParams slow;
  slow.latency_us = 200'000;
  world.network.SetLinkParams(MiddlewareWorld::kDevice, DeviceId(2), slow);

  uint64_t before = world.network.clock().now_us();
  Result<std::string> fetched =
      world.client.Fetch(DeviceId(2), SwapKey(7), 50'000);
  EXPECT_EQ(fetched.status().code(), StatusCode::kDeadlineExceeded);
  // The radio was held exactly as long as the budget allowed, no longer.
  EXPECT_EQ(world.network.clock().now_us() - before, 50'000u);
  EXPECT_EQ(world.client.stats().deadline_failures, 1u);
  EXPECT_EQ(world.client.stats().retries, 0u);
}

// ---------------------------------------------------------------------------
// SwappingManager: operation deadlines, hedged fetch, brownout
// ---------------------------------------------------------------------------

TEST(DegradedSwapTest, SwapOutDeadlineFailsFastKeepsClusterLoaded) {
  swap::SwappingManager::Options options;
  options.op_deadline_us = 100'000;
  MiddlewareWorld world(options);
  world.manager.AttachClock(&world.network.clock());
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 1 << 20);
  net::LinkParams glacial;
  glacial.latency_us = 10'000'000;
  world.network.SetLinkParams(MiddlewareWorld::kDevice, DeviceId(2), glacial);
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     kListLength, kListLength, "head");

  uint64_t before = world.network.clock().now_us();
  Result<SwapKey> swapped = world.manager.SwapOut(clusters[0]);
  EXPECT_EQ(swapped.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(world.manager.stats().deadline_aborts, 1u);
  EXPECT_EQ(world.manager.stats().swap_out_failures, 1u);
  // Budget, not the 10s link, bounds the stall.
  EXPECT_LE(world.network.clock().now_us() - before, 200'000u);
  // The cluster is untouched and fully usable.
  EXPECT_EQ(world.manager.StateOf(clusters[0]), swap::SwapState::kLoaded);
  EXPECT_EQ(*SumList(world.rt, "head"), kListSum);
}

/// Eight cheap RPCs against a healthy fleet give the tracker its minimum
/// hedge-deadline sample count (missing keys: transport succeeds, the
/// remote NOT_FOUND still scores the store healthy).
void WarmHedgeSamples(MiddlewareWorld& world, net::HealthTracker& tracker) {
  for (uint64_t i = 0; i < 8; ++i)
    (void)world.client.Fetch(DeviceId(2), SwapKey(1000 + i));
  ASSERT_GT(tracker.HedgeDeadlineUs(), 0u);
}

TEST(DegradedSwapTest, HedgedFetchBeatsSlowPrimary) {
  MiddlewareWorld world(TwoReplicaOptions());
  world.manager.AttachClock(&world.network.clock());
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 1 << 20);
  world.AddStore(3, 1 << 20);
  net::HealthTracker tracker(&world.network.clock());
  world.client.AttachHealth(&tracker);
  world.manager.AttachHealth(&tracker);
  world.manager.set_hedged_fetch(true);
  WarmHedgeSamples(world, tracker);
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     kListLength, kListLength, "head");

  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  const swap::SwapClusterInfo* info =
      world.manager.registry().Find(clusters[0]);
  ASSERT_EQ(info->replicas.size(), 2u);
  // The replica the fetch order tries first turns glacial after placement.
  net::LinkParams glacial;
  glacial.latency_us = 5'000'000;
  world.network.SetLinkParams(MiddlewareWorld::kDevice,
                              info->replicas[0].device, glacial);

  uint64_t before = world.network.clock().now_us();
  ASSERT_TRUE(world.manager.SwapIn(clusters[0]).ok());
  EXPECT_EQ(world.manager.stats().hedged_fetches, 1u);
  EXPECT_EQ(world.manager.stats().hedge_wins, 1u);
  EXPECT_EQ(world.manager.stats().hedge_wastes, 0u);
  // The stall is one hedge window plus the healthy replica's fetch — far
  // under the slow store's 5s setup latency alone.
  EXPECT_LT(world.network.clock().now_us() - before, 2'000'000u);
  EXPECT_EQ(*SumList(world.rt, "head"), kListSum);
}

TEST(DegradedSwapTest, HedgeFallsBackToAbandonedPrimaryForAvailability) {
  MiddlewareWorld world(TwoReplicaOptions());
  world.manager.AttachClock(&world.network.clock());
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 1 << 20);
  world.AddStore(3, 1 << 20);
  net::HealthTracker tracker(&world.network.clock());
  world.client.AttachHealth(&tracker);
  world.manager.AttachHealth(&tracker);
  world.manager.set_hedged_fetch(true);
  WarmHedgeSamples(world, tracker);
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     kListLength, kListLength, "head");

  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  const swap::SwapClusterInfo* info =
      world.manager.registry().Find(clusters[0]);
  ASSERT_EQ(info->replicas.size(), 2u);
  // Slow primary AND dead secondary: the hedge abandons the only working
  // copy, so the final uncapped retry of that copy must still serve it.
  net::LinkParams glacial;
  glacial.latency_us = 5'000'000;
  world.network.SetLinkParams(MiddlewareWorld::kDevice,
                              info->replicas[0].device, glacial);
  world.network.SetOnline(info->replicas[1].device, false);

  ASSERT_TRUE(world.manager.SwapIn(clusters[0]).ok());
  EXPECT_EQ(world.manager.stats().hedged_fetches, 1u);
  EXPECT_EQ(world.manager.stats().hedge_wins, 0u);
  EXPECT_EQ(world.manager.stats().hedge_wastes, 1u);
  EXPECT_EQ(*SumList(world.rt, "head"), kListSum);
}

TEST(DegradedSwapTest, BrownoutAutoEntryReducedPlacementAndDebtRepayment) {
  MiddlewareWorld world(TwoReplicaOptions());
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 1 << 20);
  world.AddStore(3, 1 << 20);
  net::HealthTracker tracker(&world.network.clock());
  world.client.AttachHealth(&tracker);
  world.manager.AttachHealth(&tracker);
  swap::DurabilityMonitor monitor(world.manager, world.discovery,
                                  MiddlewareWorld::kDevice, world.bus);
  monitor.AttachHealth(&tracker);
  int entered = 0, exited = 0;
  world.bus.Subscribe(context::kEventBrownoutEntered,
                      [&](const context::Event&) { ++entered; });
  world.bus.Subscribe(context::kEventBrownoutExited,
                      [&](const context::Event&) { ++exited; });
  auto clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                     kListLength, kListLength / 2, "head");

  ASSERT_TRUE(world.manager.SwapOut(clusters[0]).ok());
  world.network.SetOnline(DeviceId(3), false);
  monitor.Poll();
  EXPECT_TRUE(world.manager.brownout());
  EXPECT_EQ(world.manager.EffectiveReplicationFactor(), 1u);
  EXPECT_EQ(monitor.stats().sweeps_deferred, 1u);
  EXPECT_EQ(entered, 1);

  // Degraded placement: one copy now, the shortfall becomes debt.
  ASSERT_TRUE(world.manager.SwapOut(clusters[1]).ok());
  const swap::SwapClusterInfo* info =
      world.manager.registry().Find(clusters[1]);
  EXPECT_EQ(info->replicas.size(), 1u);
  EXPECT_EQ(world.manager.stats().brownout_swap_outs, 1u);
  EXPECT_EQ(world.manager.stats().under_replicated_outs, 1u);

  // Recovery: brownout exits and the next sweep repays the debt.
  world.network.SetOnline(DeviceId(3), true);
  monitor.Poll();
  EXPECT_FALSE(world.manager.brownout());
  EXPECT_EQ(exited, 1);
  EXPECT_EQ(world.manager.stats().brownout_exits, 1u);
  EXPECT_GE(monitor.stats().clusters_re_replicated, 1u);
  EXPECT_EQ(info->replicas.size(), 2u);
  EXPECT_EQ(*SumList(world.rt, "head"), kListSum);
}

TEST(DegradedSwapTest, BrownoutPrefersCleanImageVictims) {
  MiddlewareWorld world;
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 1 << 20);
  auto old_clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                         kListLength, kListLength, "old");
  auto clean_clusters = BuildClusteredList(world.rt, world.manager, node_cls,
                                           kListLength, kListLength, "clean");

  // Give the newer cluster a retained clean image (swap out, back in, read
  // only), and make it the most recently crossed — the LRU victim would be
  // the old cluster.
  ASSERT_TRUE(world.manager.SwapOut(clean_clusters[0]).ok());
  ASSERT_TRUE(world.manager.SwapIn(clean_clusters[0]).ok());
  EXPECT_EQ(*SumList(world.rt, "clean"), kListSum);

  world.manager.EnterBrownout("test");
  Result<SwapClusterId> victim = world.manager.SwapOutVictim();
  ASSERT_TRUE(victim.ok());
  // Brownout swaps the zero-transfer clean cluster, not the LRU one.
  EXPECT_EQ(*victim, clean_clusters[0]);
  EXPECT_EQ(world.manager.stats().clean_swap_outs, 1u);
  EXPECT_EQ(world.manager.StateOf(old_clusters[0]), swap::SwapState::kLoaded);
}

TEST(DegradedSwapTest, PendingDropQueueBoundedOnPermanentDeparture) {
  constexpr size_t kCap = swap::ReplicaService::kMaxPendingDrops;
  MiddlewareWorld world;
  const runtime::ClassInfo* node_cls = RegisterNodeClass(world.rt);
  world.AddStore(2, 64 << 20);
  swap::DurabilityMonitor monitor(world.manager, world.discovery,
                                  MiddlewareWorld::kDevice, world.bus);
  // Two more single-replica clusters than the queue holds.
  auto clusters =
      BuildClusteredList(world.rt, world.manager, node_cls,
                         static_cast<int>(2 * (kCap + 2)), 2, "head");
  ASSERT_EQ(clusters.size(), kCap + 2);
  for (SwapClusterId id : clusters)
    ASSERT_TRUE(world.manager.SwapOut(id).ok());

  // The store dies and never returns: three silent polls presume departure
  // and queue every orphaned key for a drop that can never be delivered.
  world.network.SetOnline(DeviceId(2), false);
  for (int i = 0; i < 3; ++i) monitor.Poll();
  EXPECT_EQ(monitor.stats().stores_departed, 1u);
  EXPECT_EQ(monitor.stats().replicas_lost, kCap + 2);
  // The queue holds the cap; the oldest obligations were evicted, counted.
  EXPECT_EQ(world.manager.replicas().pending_drop_count(), kCap);
  EXPECT_EQ(world.manager.stats().pending_drop_overflow, 2u);

  // Further polls must not grow it.
  for (int i = 0; i < 5; ++i) monitor.Poll();
  EXPECT_LE(world.manager.replicas().pending_drop_count(), kCap);
}

// ---------------------------------------------------------------------------
// Policy actions
// ---------------------------------------------------------------------------

TEST(DegradedPolicyTest, DegradedKnobsAreActionTargets) {
  MiddlewareWorld world;
  context::PropertyRegistry props;
  policy::PolicyEngine engine(world.bus, props);
  ASSERT_TRUE(
      policy::RegisterSwapActions(engine, world.rt, world.manager).ok());

  auto fire = [&](const std::string& action, const std::string& key,
                  const std::string& value) {
    policy::PolicyRule rule;
    rule.name = action + "-rule-" + value;
    rule.on_event = "degrade-" + action + value;
    rule.action = action;
    rule.params[key] = value;
    ASSERT_TRUE(engine.AddRule(std::move(rule)).ok());
    world.bus.Publish(context::Event("degrade-" + action + value));
  };

  fire("set-hedged-fetch", "enabled", "1");
  EXPECT_TRUE(world.manager.options().hedged_fetch);
  fire("set-op-deadline", "us", "250000");
  EXPECT_EQ(world.manager.options().op_deadline_us, 250'000u);
  fire("set-brownout", "enabled", "1");
  EXPECT_TRUE(world.manager.brownout());
  EXPECT_EQ(world.manager.stats().brownout_entries, 1u);
  fire("set-brownout", "enabled", "0");
  EXPECT_FALSE(world.manager.brownout());
  EXPECT_EQ(engine.stats().action_failures, 0u);
}

TEST(DegradedPolicyTest, SetWireFormatAppliesBothParamsOrNeither) {
  MiddlewareWorld world;
  context::PropertyRegistry props;
  policy::PolicyEngine engine(world.bus, props);
  ASSERT_TRUE(
      policy::RegisterSwapActions(engine, world.rt, world.manager).ok());

  int fired = 0;
  auto fire = [&](const std::string& format, const char* delta) {
    policy::PolicyRule rule;
    rule.name = "wire-rule-" + std::to_string(fired);
    rule.on_event = "wire-" + std::to_string(fired);
    rule.action = "set-wire-format";
    rule.params["format"] = format;
    if (delta != nullptr) rule.params["delta"] = delta;
    ASSERT_TRUE(engine.AddRule(std::move(rule)).ok());
    world.bus.Publish(context::Event("wire-" + std::to_string(fired++)));
  };

  fire("msgpack", nullptr);  // unknown format: nothing changes
  EXPECT_EQ(world.manager.wire_format(), "xml");
  EXPECT_FALSE(world.manager.delta_swap_out());
  EXPECT_EQ(engine.stats().action_failures, 1u);

  fire("binary", "x");  // bad delta: the format must not switch either
  EXPECT_EQ(world.manager.wire_format(), "xml");
  EXPECT_FALSE(world.manager.delta_swap_out());
  EXPECT_EQ(engine.stats().action_failures, 2u);

  fire("binary", "1");
  EXPECT_EQ(world.manager.wire_format(), "binary");
  EXPECT_TRUE(world.manager.delta_swap_out());
  EXPECT_EQ(engine.stats().action_failures, 2u);
}

}  // namespace
}  // namespace obiswap
