// Overload-resilience tests: StoreNode admission control (fluid backlog,
// per-class shedding limits, retry-after math), the StoreClient's pushback
// handling (retry-after pacing, terminal statuses, the deadline edge, the
// per-store retry budget), HealthTracker pushback neutrality, the AIMD
// pacer, the policy actions, the knobs-off byte-parity contract, and the
// correlated-outage recovery storm on the FleetDriver.
#include <gtest/gtest.h>

#include "test_support.h"

namespace obiswap {
namespace {

using net::HealthTracker;
using net::IsPushback;
using net::Priority;
using net::StoreClient;
using net::StoreNode;
using ::obiswap::testing::BuildClusteredList;
using ::obiswap::testing::MiddlewareWorld;
using ::obiswap::testing::RegisterNodeClass;

constexpr uint64_t kService = 1'000'000;  ///< 1 s of work per admitted op

StoreNode::QueueOptions TightQueue(bool shedding = false) {
  StoreNode::QueueOptions queue;
  queue.enabled = true;
  queue.concurrency = 1;
  queue.queue_limit = 2;
  queue.service_time_us = kService;
  queue.priority_shedding = shedding;
  return queue;
}

// ------------------------------------------------- StoreNode admission --

TEST(StoreAdmissionTest, DisabledQueueAlwaysAdmitsAtZeroCost) {
  StoreNode node(DeviceId(2), 1 << 20);
  for (int i = 0; i < 100; ++i) {
    StoreNode::AdmitResult result = node.Admit(0, Priority::kMaintenance);
    EXPECT_TRUE(result.admitted);
    EXPECT_EQ(result.queue_wait_us, 0u);
  }
  EXPECT_EQ(node.stats().admitted, 0u);
  EXPECT_EQ(node.stats().shed_total, 0u);
}

TEST(StoreAdmissionTest, BoundedQueueFillsAndRejectsWithRetryAfter) {
  StoreNode node(DeviceId(2), 1 << 20);
  node.ConfigureQueue(TightQueue());  // 1 server + 2 waiting slots

  // Back-to-back arrivals (no clock movement): each admit stacks one
  // service time of backlog and the queueing delay is the backlog ahead.
  for (uint64_t i = 0; i < 3; ++i) {
    StoreNode::AdmitResult r = node.Admit(0, Priority::kDemandSwapIn);
    ASSERT_TRUE(r.admitted) << i;
    EXPECT_EQ(r.depth, i);
    EXPECT_EQ(r.queue_wait_us, i * kService + kService) << i;
  }
  // Fourth arrival: depth 3 at limit 3 — shed, with an honest hint of when
  // the tail slot frees (backlog beyond the queue-capacity work).
  StoreNode::AdmitResult shed = node.Admit(0, Priority::kDemandSwapIn);
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.depth, 3u);
  EXPECT_EQ(shed.retry_after_us, kService);
  EXPECT_EQ(node.stats().admitted, 3u);
  EXPECT_EQ(node.stats().shed_total, 1u);
  EXPECT_EQ(node.stats().shed_by_class[0], 1u);
  EXPECT_EQ(node.stats().max_queue_depth, 3u);

  // The backlog drains at `concurrency` server-us per clock-us: two
  // service times later there is room again.
  StoreNode::AdmitResult later =
      node.Admit(2 * kService, Priority::kDemandSwapIn);
  EXPECT_TRUE(later.admitted);
  EXPECT_EQ(later.depth, 1u);
}

TEST(StoreAdmissionTest, PrioritySheddingDropsLowestClassesFirst) {
  StoreNode node(DeviceId(2), 1 << 20);
  StoreNode::QueueOptions queue;
  queue.enabled = true;
  queue.concurrency = 1;
  queue.queue_limit = 4;
  queue.service_time_us = kService;
  queue.priority_shedding = true;
  node.ConfigureQueue(queue);
  // Per-class depth limits: demand 5, swap-out 4, hedge 3, prefetch 2,
  // maintenance 1 (class p keeps (4-p)/4 of the waiting slots).

  ASSERT_TRUE(node.Admit(0, Priority::kMaintenance).admitted);  // depth 0
  // One outstanding request already locks maintenance out while every
  // higher class still has room.
  EXPECT_FALSE(node.Admit(0, Priority::kMaintenance).admitted);
  ASSERT_TRUE(node.Admit(0, Priority::kPrefetch).admitted);     // depth 1
  EXPECT_FALSE(node.Admit(0, Priority::kPrefetch).admitted);    // depth 2
  ASSERT_TRUE(node.Admit(0, Priority::kHedgedFetch).admitted);
  EXPECT_FALSE(node.Admit(0, Priority::kHedgedFetch).admitted);  // depth 3
  ASSERT_TRUE(node.Admit(0, Priority::kSwapOut).admitted);
  EXPECT_FALSE(node.Admit(0, Priority::kSwapOut).admitted);      // depth 4
  ASSERT_TRUE(node.Admit(0, Priority::kDemandSwapIn).admitted);
  EXPECT_FALSE(node.Admit(0, Priority::kDemandSwapIn).admitted);  // depth 5

  EXPECT_EQ(node.stats().admitted, 5u);
  EXPECT_EQ(node.stats().shed_total, 5u);
  for (int p = 0; p < net::kPriorityClasses; ++p)
    EXPECT_EQ(node.stats().shed_by_class[p], 1u) << p;
  // Lower classes see a *longer* retry-after (their slot frees later).
  uint64_t demand_wait =
      node.Admit(0, Priority::kDemandSwapIn).retry_after_us;
  uint64_t maintenance_wait =
      node.Admit(0, Priority::kMaintenance).retry_after_us;
  EXPECT_GT(maintenance_wait, demand_wait);
}

TEST(StoreAdmissionTest, PlacementsAreShedInTheirOperationsClass) {
  MiddlewareWorld world;  // K = 1
  world.client.set_annotate_priority(true);
  const runtime::ClassInfo* cls = RegisterNodeClass(world.rt);
  auto clusters = BuildClusteredList(world.rt, world.manager, cls, 20, 10,
                                     "head");
  StoreNode* busy = world.AddStore(3, 1 << 20);
  StoreNode::QueueOptions queue = TightQueue(/*shedding=*/true);
  queue.queue_limit = 4;  // depth limits: demand 5 ... maintenance 1
  busy->ConfigureQueue(queue);
  // Four queued demand requests: a fifth demand request would still be
  // admitted, a swap-out or maintenance request is shed.
  auto fill = [&] {
    for (int i = 0; i < 4; ++i)
      busy->Admit(world.network.clock().now_us(), Priority::kDemandSwapIn);
  };

  fill();
  (void)world.manager.SwapOut(clusters[0]);  // may succeed after retries
  EXPECT_GE(busy->stats().shed_by_class[1], 1u);
  EXPECT_EQ(busy->stats().shed_by_class[0], 0u);

  // A second store holds the next cluster; raising K sends its top-up to
  // the busy store under the maintenance class.
  world.AddStore(2, 1 << 20);
  ASSERT_TRUE(world.manager.SwapOut(clusters[1]).ok());
  ASSERT_NE(world.manager.registry().Find(clusters[1])->replicas[0].device,
            busy->device());
  world.manager.set_replication_factor(2);
  world.network.clock().Advance(60'000'000);  // let the busy store drain
  fill();
  (void)world.manager.ReReplicate(clusters[1]);
  EXPECT_GE(busy->stats().shed_by_class[4], 1u);
  EXPECT_EQ(busy->stats().shed_by_class[0], 0u);

  const std::string json = world.manager.StatsJson();
  EXPECT_EQ(json.find("\"net.shed_swap_out\":0"), std::string::npos);
  EXPECT_EQ(json.find("\"net.shed_maintenance\":0"), std::string::npos);
  EXPECT_NE(json.find("\"net.shed_demand\":0"), std::string::npos);
}

// ----------------------------------------------- client pushback handling --

TEST(PushbackClientTest, RetryHonorsTheRetryAfterHint) {
  MiddlewareWorld world;
  StoreNode* store = world.AddStore(2, 1 << 20);
  store->ConfigureQueue(TightQueue());

  // Three stores saturate the queue (transfer time drains almost nothing
  // against 1 s of service each)...
  for (uint64_t k = 1; k <= 3; ++k)
    ASSERT_TRUE(world.client.Store(DeviceId(2), SwapKey(k), "<xml/>").ok());
  EXPECT_EQ(world.client.stats().pushbacks, 0u);
  EXPECT_GT(world.client.stats().queue_wait_us, 0u);

  // ...so the fourth is shed once, waits out the store's own hint (not an
  // exponential guess) and lands on the retry.
  uint64_t clock_before = world.network.clock().now_us();
  uint64_t backoff_before = world.client.stats().backoff_us;
  ASSERT_TRUE(world.client.Store(DeviceId(2), SwapKey(4), "<xml/>").ok());
  const StoreClient::Stats& stats = world.client.stats();
  EXPECT_EQ(stats.pushbacks, 1u);
  EXPECT_EQ(stats.pushback_retries, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.wire_attempts, 5u);
  EXPECT_GE(stats.max_store_queue_depth, 3u);
  // The gap the client waited is exactly the shed backlog's drain time —
  // within one service slot of the hint, charged as backoff.
  uint64_t waited = stats.backoff_us - backoff_before;
  EXPECT_GE(waited, kService / 2);
  EXPECT_LE(waited, 2 * kService);
  EXPECT_GE(world.network.clock().now_us() - clock_before, waited);
  EXPECT_EQ(store->stats().shed_total, 1u);
  EXPECT_EQ(store->stats().admitted, 4u);
}

TEST(PushbackClientTest, TerminalRemoteStatusesNeverRetry) {
  MiddlewareWorld world;
  world.AddStore(2, 64);  // 64 bytes: the second store cannot fit

  // Remote kNotFound: one attempt, no retries.
  uint64_t attempts_before = world.client.stats().wire_attempts;
  auto missing = world.client.Fetch(DeviceId(2), SwapKey(99));
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(world.client.stats().wire_attempts, attempts_before + 1);
  EXPECT_EQ(world.client.stats().retries, 0u);

  // Remote capacity exhaustion is kResourceExhausted but NOT pushback —
  // still terminal, still one attempt.
  ASSERT_TRUE(world.client.Store(DeviceId(2), SwapKey(1), "<x/>").ok());
  attempts_before = world.client.stats().wire_attempts;
  Status full = world.client.Store(DeviceId(2), SwapKey(2),
                                   std::string(128, 'y'));
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(IsPushback(full));
  EXPECT_EQ(world.client.stats().wire_attempts, attempts_before + 1);
  EXPECT_EQ(world.client.stats().retries, 0u);
}

TEST(PushbackClientTest, RetryAfterPastTheDeadlineFailsFast) {
  MiddlewareWorld world;
  StoreNode* store = world.AddStore(2, 1 << 20);
  store->ConfigureQueue(TightQueue());
  for (uint64_t k = 1; k <= 3; ++k)
    ASSERT_TRUE(world.client.Store(DeviceId(2), SwapKey(k), "<xml/>").ok());

  // The shed response's retry-after (~1 s) cannot fit a 200 ms rpc budget
  // (one round trip is ~62 ms of link time): the call must fail
  // kDeadlineExceeded immediately instead of sleeping toward a deadline it
  // already knows it will miss.
  uint64_t clock_before = world.network.clock().now_us();
  Status late = world.client.Store(DeviceId(2), SwapKey(4), "<xml/>",
                                   /*deadline_us=*/200'000);
  EXPECT_EQ(late.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(world.client.stats().deadline_failures, 1u);
  EXPECT_EQ(world.client.stats().pushbacks, 1u);
  EXPECT_EQ(world.client.stats().pushback_retries, 0u);
  // No sleep happened: one round trip of link time, nowhere near the
  // retry-after hint (and under the deadline itself).
  EXPECT_LT(world.network.clock().now_us() - clock_before, 200'000u);
}

TEST(PushbackClientTest, ExhaustedRetryBudgetFailsWithoutTheRadio) {
  MiddlewareWorld world;
  StoreNode* store = world.AddStore(2, 1 << 20);
  store->ConfigureQueue(TightQueue());
  StoreClient::RetryBudgetOptions budget;
  budget.enabled = true;
  budget.initial_centitokens = 0;  // nothing banked: no retry is covered
  world.client.set_retry_budget(budget);

  for (uint64_t k = 1; k <= 3; ++k)
    ASSERT_TRUE(world.client.Store(DeviceId(2), SwapKey(k), "<xml/>").ok());
  // Each success banked 10 centitokens = 30 total, still under the 100 a
  // retry costs: the shed call surfaces the pushback untouched.
  uint64_t attempts_before = world.client.stats().wire_attempts;
  Status shed = world.client.Store(DeviceId(2), SwapKey(4), "<xml/>");
  EXPECT_TRUE(IsPushback(shed)) << shed.ToString();
  EXPECT_EQ(world.client.stats().wire_attempts, attempts_before + 1);
  EXPECT_EQ(world.client.stats().retry_budget_exhausted, 1u);
  EXPECT_EQ(world.client.stats().retry_budget_earned, 30u);
  EXPECT_EQ(world.client.stats().retry_budget_spent, 0u);
  EXPECT_EQ(world.client.stats().pushback_retries, 0u);

  // Offline store, same shape: the one transport failure is not followed
  // by budget-less retries (nor their backoff clock cost).
  world.network.SetOnline(DeviceId(2), false);
  attempts_before = world.client.stats().wire_attempts;
  Status down = world.client.Store(DeviceId(2), SwapKey(5), "<xml/>");
  EXPECT_EQ(down.code(), StatusCode::kUnavailable);
  EXPECT_EQ(world.client.stats().wire_attempts, attempts_before + 1);
  EXPECT_EQ(world.client.stats().retry_budget_exhausted, 2u);
}

TEST(PushbackClientTest, SuccessesReplenishTheBudget) {
  MiddlewareWorld world;
  world.AddStore(2, 1 << 20);
  StoreClient::RetryBudgetOptions budget;
  budget.enabled = true;
  budget.initial_centitokens = 0;
  budget.max_centitokens = 120;
  budget.earn_per_success = 10;
  world.client.set_retry_budget(budget);

  // Twelve successes fill the bucket to its cap; a thirteenth earns only
  // the headroom (zero at the cap).
  for (uint64_t k = 1; k <= 13; ++k)
    ASSERT_TRUE(world.client.Store(DeviceId(2), SwapKey(k), "<xml/>").ok());
  EXPECT_EQ(world.client.stats().retry_budget_earned, 120u);

  // Now a dead store: the bucket covers one 100-centitoken retry, then
  // exhausts — three configured attempts, two allowed on the wire.
  world.network.SetOnline(DeviceId(2), false);
  uint64_t attempts_before = world.client.stats().wire_attempts;
  Status down = world.client.Store(DeviceId(2), SwapKey(99), "<xml/>");
  EXPECT_EQ(down.code(), StatusCode::kUnavailable);
  EXPECT_EQ(world.client.stats().wire_attempts, attempts_before + 2);
  EXPECT_EQ(world.client.stats().retry_budget_spent, 100u);
  EXPECT_EQ(world.client.stats().retry_budget_exhausted, 1u);
}

// ------------------------------------------------ health: pushback neutral --

TEST(HealthPushbackTest, PushbackNeverFeedsTheBreaker) {
  net::SimClock clock;
  HealthTracker health(&clock);
  const DeviceId store(2);

  // Two real failures put the store one failure from tripping...
  health.RecordOutcome(store, false, 1000);
  health.RecordOutcome(store, false, 1000);
  ASSERT_EQ(health.Find(store)->consecutive_failures, 2u);
  double error_rate_before = health.Find(store)->ewma_error_rate;

  // ...and a storm of shed responses moves none of the breaker inputs:
  // no streak growth, no EWMA sample, no trip. An overloaded store is
  // healthy; it asked us to come back later.
  for (int i = 0; i < 50; ++i) health.RecordPushback(store);
  EXPECT_EQ(health.StateOf(store), net::BreakerState::kClosed);
  EXPECT_EQ(health.Find(store)->consecutive_failures, 2u);
  EXPECT_EQ(health.Find(store)->ewma_error_rate, error_rate_before);
  EXPECT_EQ(health.Find(store)->attempts, 2u);
  EXPECT_EQ(health.stats().trips, 0u);
  EXPECT_EQ(health.stats().pushbacks_recorded, 50u);

  // The third *real* failure still trips it — neutrality, not immunity.
  health.RecordOutcome(store, false, 1000);
  EXPECT_EQ(health.StateOf(store), net::BreakerState::kOpen);
}

TEST(HealthPushbackTest, ShedHalfOpenProbeClosesTheBreaker) {
  net::SimClock clock;
  HealthTracker health(&clock);
  const DeviceId store(2);
  for (int i = 0; i < 3; ++i) health.RecordOutcome(store, false, 1000);
  ASSERT_EQ(health.StateOf(store), net::BreakerState::kOpen);

  clock.Advance(health.options().open_cooldown_us + 1);
  ASSERT_TRUE(health.AllowRequest(store));  // the half-open probe
  ASSERT_EQ(health.StateOf(store), net::BreakerState::kHalfOpen);
  // The probe reached a live-but-saturated store: transport worked, so the
  // breaker closes rather than leaving the probe dangling forever.
  health.RecordPushback(store);
  EXPECT_EQ(health.StateOf(store), net::BreakerState::kClosed);
  EXPECT_EQ(health.stats().closes, 1u);
  EXPECT_FALSE(health.Find(store)->probe_in_flight);
}

// --------------------------------------------------------------- AIMD pacer --

TEST(AimdPacerTest, DisabledAdmitsEverything) {
  AimdPacer pacer;
  pacer.BeginWindow();
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(pacer.Admit());
  EXPECT_EQ(pacer.stats().deferred, 0u);
}

TEST(AimdPacerTest, CapOpensAdditivelyAndHalvesOnPushback) {
  AimdPacer::Options options;
  options.enabled = true;
  options.initial_cap = 4;
  options.min_cap = 1;
  options.max_cap = 6;
  AimdPacer pacer(options);

  pacer.BeginWindow();
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(pacer.Admit()) << i;
  EXPECT_FALSE(pacer.Admit());  // cap reached within the window
  EXPECT_EQ(pacer.stats().deferred, 1u);

  pacer.OnSuccess();
  pacer.OnSuccess();
  pacer.OnSuccess();  // saturates at max_cap
  EXPECT_EQ(pacer.cap(), 6u);
  pacer.BeginWindow();  // fresh window, carried-over cap
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(pacer.Admit()) << i;
  EXPECT_FALSE(pacer.Admit());

  pacer.OnPushback();
  EXPECT_EQ(pacer.cap(), 3u);
  pacer.OnPushback();
  pacer.OnPushback();
  pacer.OnPushback();
  EXPECT_EQ(pacer.cap(), 1u);  // floored at min_cap
  EXPECT_EQ(pacer.stats().backoffs, 4u);
}

// ------------------------------------------------------------ policy knobs --

TEST(OverloadPolicyTest, ActionsConfigureStoresAndTheClient) {
  MiddlewareWorld world;
  StoreNode* a = world.AddStore(2, 1 << 20);
  StoreNode* b = world.AddStore(3, 1 << 20);
  context::PropertyRegistry props;
  policy::PolicyEngine engine(world.bus, props);
  ASSERT_TRUE(policy::RegisterOverloadActions(engine, world.discovery,
                                              world.client)
                  .ok());
  auto added = engine.LoadXml(R"(
    <policies>
      <policy name="brace-queues" on="storm-warning">
        <action name="set-store-queue">
          <param name="enabled" value="1"/>
          <param name="concurrency" value="3"/>
          <param name="queue_limit" value="5"/>
          <param name="service_time_us" value="2000"/>
        </action>
      </policy>
      <policy name="brace-shedding" on="storm-warning">
        <action name="set-priority-shedding">
          <param name="enabled" value="1"/>
        </action>
      </policy>
      <policy name="brace-budget" on="storm-warning">
        <action name="set-retry-budget">
          <param name="enabled" value="1"/>
          <param name="earn" value="20"/>
          <param name="cost" value="50"/>
        </action>
      </policy>
      <policy name="stand-down" on="storm-over">
        <action name="set-store-queue">
          <param name="enabled" value="0"/>
        </action>
      </policy>
    </policies>)");
  ASSERT_TRUE(added.ok()) << added.status().ToString();

  world.bus.Publish(context::Event("storm-warning"));
  EXPECT_EQ(engine.stats().action_failures, 0u);
  for (StoreNode* node : {a, b}) {
    EXPECT_TRUE(node->queue_options().enabled);
    EXPECT_EQ(node->queue_options().concurrency, 3u);
    EXPECT_EQ(node->queue_options().queue_limit, 5u);
    EXPECT_EQ(node->queue_options().service_time_us, 2000u);
    EXPECT_TRUE(node->queue_options().priority_shedding);
  }
  EXPECT_TRUE(world.client.annotate_priority());
  EXPECT_TRUE(world.client.retry_budget().enabled);
  EXPECT_EQ(world.client.retry_budget().earn_per_success, 20u);
  EXPECT_EQ(world.client.retry_budget().cost_per_retry, 50u);

  // Disabling the queue keeps the shedding flag (separate knob).
  world.bus.Publish(context::Event("storm-over"));
  EXPECT_FALSE(a->queue_options().enabled);
  EXPECT_TRUE(a->queue_options().priority_shedding);
}

// ------------------------------------------------------ knobs-off parity --

TEST(OverloadParityTest, DisabledKnobsAreByteIdentical) {
  // Two worlds, same scenario. One is plain; the other has every overload
  // surface wired but switched off: a configured-disabled store queue, a
  // disabled retry budget, disabled pacer options with non-default caps.
  // StatsJson and the virtual clock must not diverge by one byte/us, and
  // the frozen snapshot must carry the new keys at zero.
  auto run = [](MiddlewareWorld& world) {
    const runtime::ClassInfo* cls = RegisterNodeClass(world.rt);
    swap::DurabilityMonitor monitor(world.manager, world.discovery,
                                    MiddlewareWorld::kDevice, world.bus);
    auto clusters =
        BuildClusteredList(world.rt, world.manager, cls, 24, 12, "head");
    for (SwapClusterId id : clusters)
      OBISWAP_CHECK(world.manager.SwapOut(id).ok());
    monitor.Poll();
    OBISWAP_CHECK(world.manager.SwapIn(clusters[0]).ok());
    world.manager.MarkDirty(clusters[0]);
    OBISWAP_CHECK(world.manager.SwapOut(clusters[0]).ok());
    monitor.Poll();
  };

  swap::SwappingManager::Options wired_options;
  wired_options.write_back_pacer.enabled = false;
  wired_options.write_back_pacer.initial_cap = 2;  // ignored while disabled

  MiddlewareWorld plain;
  MiddlewareWorld wired(wired_options);
  for (uint32_t id = 2; id <= 4; ++id) plain.AddStore(id, 1 << 20);
  for (uint32_t id = 2; id <= 4; ++id) {
    StoreNode* store = wired.AddStore(id, 1 << 20);
    StoreNode::QueueOptions queue = TightQueue(/*shedding=*/true);
    queue.enabled = false;  // wired but off: must admit at zero cost
    store->ConfigureQueue(queue);
  }
  StoreClient::RetryBudgetOptions budget;
  budget.enabled = false;
  budget.initial_centitokens = 0;  // would fast-fail everything if live
  wired.client.set_retry_budget(budget);
  wired.client.set_annotate_priority(false);

  run(plain);
  run(wired);
  EXPECT_EQ(plain.manager.StatsJson(), wired.manager.StatsJson());
  EXPECT_EQ(plain.network.clock().now_us(), wired.network.clock().now_us());

  std::string json = plain.manager.StatsJson();
  for (const char* key :
       {"\"net.pushbacks\":0", "\"net.pushback_retries\":0",
        "\"net.retry_budget_exhausted\":0", "\"net.shed_demand\":0",
        "\"net.shed_swap_out\":0", "\"net.shed_hedge\":0",
        "\"net.shed_prefetch\":0", "\"net.shed_maintenance\":0",
        "\"store_queue_depth\":0", "\"write_backs_paced\":0"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

// ----------------------------------------------------- fleet recovery storm --

TEST(RecoveryStormTest, StormConvergesAndAccountingBalances) {
  fleet::FleetOptions options;
  options.devices = 6;
  options.stores = 8;
  options.clusters_per_device = 3;
  options.objects_per_cluster = 6;
  options.overload_controls = true;
  fleet::FleetDriver driver(options);
  ASSERT_TRUE(driver.Build().ok());
  ASSERT_TRUE(driver.RunRounds(1).ok());

  // Tighten every surviving store's queue *after* the steady phase, then
  // hit the pool with a correlated outage plus demand traffic. The service
  // time must exceed one call's own link time (~85 ms: 2 x 30 ms latency
  // plus payload) or the backlog drains faster than it builds.
  StoreNode::QueueOptions queue;
  queue.enabled = true;
  queue.concurrency = 1;
  queue.queue_limit = 2;
  queue.service_time_us = 250'000;
  queue.priority_shedding = true;
  driver.ConfigureStoreQueues(queue);

  size_t killed = driver.InjectCorrelatedOutage(0.3);
  ASSERT_GE(killed, 1u);
  auto storm = driver.RunRecoveryStorm(6);
  ASSERT_TRUE(storm.ok()) << storm.status().ToString();
  EXPECT_EQ(storm->polls, 6);
  EXPECT_GT(storm->demand_faults, 0u);
  EXPECT_GE(storm->p95_stall_us, 0u);
  EXPECT_GE(storm->max_stall_us, storm->p95_stall_us);

  // Recovery must still converge with the tight queues in place (the AIMD
  // pacers spread the repair traffic over polls instead of flooding).
  auto polls = driver.RunUntilRecovered(400);
  ASSERT_TRUE(polls.ok()) << polls.status().ToString();

  fleet::FleetReport report = driver.Report();
  EXPECT_EQ(report.clusters_lost, 0u);
  EXPECT_EQ(report.clusters_below_k, 0u);
  EXPECT_GT(report.store_sheds, 0u);
  EXPECT_GT(report.queue_wait_us, 0u);
  EXPECT_GT(report.wire_attempts, report.logical_calls);

  // Conservation: every shed the stores counted arrived at exactly one
  // client as a pushback, class by class — nothing lost, nothing double-
  // counted, even under the outage.
  EXPECT_EQ(report.client_pushbacks, report.store_sheds);
  for (int p = 0; p < net::kPriorityClasses; ++p)
    EXPECT_EQ(report.client_pushbacks_by_class[p],
              report.store_sheds_by_class[p])
        << net::PriorityName(static_cast<Priority>(p));
}

}  // namespace
}  // namespace obiswap
