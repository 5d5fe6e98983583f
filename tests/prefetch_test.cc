// Tests for the predictive prefetch subsystem: the fault-history recorder's
// transition graph, the predictor's confidence gate, the manager's staging
// and speculative swap-in paths with their hit/waste accounting, the
// prefetcher's budget/headroom gates, and the policy actions that tune it.
#include <gtest/gtest.h>

#include <string>

#include "test_support.h"

namespace obiswap::prefetch {
namespace {

using ::obiswap::testing::BuildClusteredList;
using ::obiswap::testing::MiddlewareWorld;
using ::obiswap::testing::RegisterNodeClass;
using ::obiswap::testing::SumList;

// ------------------------------------------------------------- recorder --

TEST(FaultHistoryTest, LearnsTemporalAdjacency) {
  FaultHistoryRecorder recorder;
  recorder.OnEnter(SwapClusterId(1));
  recorder.OnEnter(SwapClusterId(2));
  recorder.OnEnter(SwapClusterId(3));

  auto from1 = recorder.Successors(SwapClusterId(1));
  ASSERT_EQ(from1.size(), 1u);
  EXPECT_EQ(from1[0].id, SwapClusterId(2));
  EXPECT_DOUBLE_EQ(from1[0].confidence, 1.0);

  auto from2 = recorder.Successors(SwapClusterId(2));
  ASSERT_EQ(from2.size(), 1u);
  EXPECT_EQ(from2[0].id, SwapClusterId(3));
  EXPECT_TRUE(recorder.Successors(SwapClusterId(3)).empty());
}

TEST(FaultHistoryTest, IgnoresCluster0DuplicatesAndInvalid) {
  FaultHistoryRecorder recorder;
  recorder.OnEnter(SwapClusterId(1));
  recorder.OnEnter(kSwapCluster0);   // ambient cluster: never a prediction
  recorder.OnEnter(SwapClusterId());  // invalid
  recorder.OnEnter(SwapClusterId(1));  // consecutive duplicate
  recorder.OnEnter(SwapClusterId(2));

  EXPECT_EQ(recorder.edge_count(), 1u);
  auto from1 = recorder.Successors(SwapClusterId(1));
  ASSERT_EQ(from1.size(), 1u);
  EXPECT_EQ(from1[0].id, SwapClusterId(2));
}

TEST(FaultHistoryTest, ConfidenceSplitsAcrossSuccessors) {
  FaultHistoryRecorder recorder;
  // 1 -> 2 three times, 1 -> 3 once (sequence broken between pairs so the
  // reverse edges 2->1 / 3->1 never form).
  for (int i = 0; i < 3; ++i) {
    recorder.OnEnter(SwapClusterId(1));
    recorder.OnEnter(SwapClusterId(2));
    recorder.BreakSequence();
  }
  recorder.OnEnter(SwapClusterId(1));
  recorder.OnEnter(SwapClusterId(3));
  recorder.BreakSequence();

  auto successors = recorder.Successors(SwapClusterId(1));
  ASSERT_EQ(successors.size(), 2u);
  EXPECT_EQ(successors[0].id, SwapClusterId(2));  // heaviest first
  EXPECT_DOUBLE_EQ(successors[0].confidence, 0.75);
  EXPECT_EQ(successors[1].id, SwapClusterId(3));
  EXPECT_DOUBLE_EQ(successors[1].confidence, 0.25);
  EXPECT_TRUE(recorder.Successors(SwapClusterId(2)).empty());
}

TEST(FaultHistoryTest, EdgeWeightsDecayInVirtualTime) {
  net::SimClock clock;
  FaultHistoryRecorder recorder;
  recorder.AttachClock(&clock);

  recorder.OnEnter(SwapClusterId(1));
  recorder.OnEnter(SwapClusterId(2));
  recorder.BreakSequence();
  clock.Advance(FaultHistoryRecorder::kHalfLifeUs);  // one half-life
  recorder.OnEnter(SwapClusterId(1));
  recorder.OnEnter(SwapClusterId(3));

  auto successors = recorder.Successors(SwapClusterId(1));
  ASSERT_EQ(successors.size(), 2u);
  EXPECT_EQ(successors[0].id, SwapClusterId(3));  // fresh edge outranks
  EXPECT_DOUBLE_EQ(successors[0].weight, 1.0);
  EXPECT_EQ(successors[1].id, SwapClusterId(2));
  EXPECT_DOUBLE_EQ(successors[1].weight, 0.5);
  EXPECT_NEAR(successors[0].confidence, 2.0 / 3.0, 1e-9);
}

TEST(FaultHistoryTest, EvictsLightestSuccessorBeyondCap) {
  FaultHistoryRecorder recorder;
  auto follow = [&](uint32_t to, int times) {
    for (int i = 0; i < times; ++i) {
      recorder.OnEnter(SwapClusterId(1));
      recorder.OnEnter(SwapClusterId(to));
      recorder.BreakSequence();
    }
  };
  const uint32_t cap = FaultHistoryRecorder::kMaxSuccessors;
  follow(2, 3);  // the heavy edge
  follow(3, 1);  // the one light edge
  for (uint32_t to = 4; to <= cap + 1; ++to) follow(to, 2);  // fills the cap
  ASSERT_EQ(recorder.Successors(SwapClusterId(1)).size(), cap);
  EXPECT_EQ(recorder.stats().edges_evicted, 0u);
  follow(cap + 2, 1);  // cap hit: evicts 1->3

  EXPECT_EQ(recorder.stats().edges_evicted, 1u);
  auto successors = recorder.Successors(SwapClusterId(1));
  ASSERT_EQ(successors.size(), cap);
  EXPECT_EQ(successors.front().id, SwapClusterId(2));
  EXPECT_EQ(successors.back().id, SwapClusterId(cap + 2));
  for (const auto& successor : successors)
    EXPECT_NE(successor.id, SwapClusterId(3));
}

TEST(FaultHistoryTest, ForgetRemovesClusterFromBothSides) {
  FaultHistoryRecorder recorder;
  recorder.OnEnter(SwapClusterId(1));
  recorder.OnEnter(SwapClusterId(2));
  recorder.OnEnter(SwapClusterId(3));
  recorder.Forget(SwapClusterId(2));

  EXPECT_TRUE(recorder.Successors(SwapClusterId(1)).empty());
  EXPECT_TRUE(recorder.Successors(SwapClusterId(2)).empty());
  EXPECT_EQ(recorder.edge_count(), 0u);
}

TEST(FaultHistoryTest, AttachLearnsFromSwapEvents) {
  context::EventBus bus;
  FaultHistoryRecorder recorder;
  recorder.Attach(&bus);

  auto swapped_in = [&](int64_t sc, int64_t prefetch) {
    bus.Publish(context::Event(context::kEventClusterSwappedIn)
                    .Set("swap_cluster", sc)
                    .Set("prefetch", prefetch));
  };
  swapped_in(1, 0);
  swapped_in(2, 0);
  swapped_in(3, 1);  // speculative: must not be learned as an entry
  swapped_in(4, 0);

  auto from2 = recorder.Successors(SwapClusterId(2));
  ASSERT_EQ(from2.size(), 1u);
  EXPECT_EQ(from2[0].id, SwapClusterId(4));  // 3 was skipped
  EXPECT_TRUE(recorder.Successors(SwapClusterId(3)).empty());

  // Swap-out of the last-entered cluster breaks the sequence...
  bus.Publish(context::Event(context::kEventClusterSwappedOut)
                  .Set("swap_cluster", int64_t{4}));
  EXPECT_EQ(recorder.stats().sequence_breaks, 1u);
  swapped_in(5, 0);  // ...so no 4->5 edge forms
  EXPECT_TRUE(recorder.Successors(SwapClusterId(4)).empty());

  // A dropped cluster is forgotten entirely.
  bus.Publish(context::Event(context::kEventClusterDropped)
                  .Set("swap_cluster", int64_t{2}));
  EXPECT_TRUE(recorder.Successors(SwapClusterId(1)).empty());
}

// ------------------------------------------------------------ predictor --

TEST(PredictorTest, ConfidenceThresholdAndCapFilter) {
  FaultHistoryRecorder recorder;
  for (int i = 0; i < 3; ++i) {
    recorder.OnEnter(SwapClusterId(1));
    recorder.OnEnter(SwapClusterId(2));
    recorder.BreakSequence();
  }
  recorder.OnEnter(SwapClusterId(1));
  recorder.OnEnter(SwapClusterId(3));
  recorder.BreakSequence();

  Predictor predictor(recorder);  // defaults: threshold 0.4, max 2
  auto picks = predictor.Predict(SwapClusterId(1));
  ASSERT_EQ(picks.size(), 1u);  // conf 0.25 for cluster 3: filtered
  EXPECT_EQ(picks[0], SwapClusterId(2));

  predictor.set_confidence_threshold(0.1);
  picks = predictor.Predict(SwapClusterId(1));
  ASSERT_EQ(picks.size(), 2u);
  EXPECT_EQ(picks[0], SwapClusterId(2));
  EXPECT_EQ(picks[1], SwapClusterId(3));

  predictor.set_max_predictions(1);
  picks = predictor.Predict(SwapClusterId(1));
  ASSERT_EQ(picks.size(), 1u);
  EXPECT_EQ(picks[0], SwapClusterId(2));

  EXPECT_TRUE(predictor.Predict(SwapClusterId(9)).empty());
}

TEST(PrefetchModeTest, ParseRoundTrips) {
  EXPECT_EQ(*ParsePrefetchMode("off"), PrefetchMode::kOff);
  EXPECT_EQ(*ParsePrefetchMode("cache"), PrefetchMode::kCacheOnly);
  EXPECT_EQ(*ParsePrefetchMode("full"), PrefetchMode::kFull);
  EXPECT_FALSE(ParsePrefetchMode("banana").ok());
  EXPECT_STREQ(PrefetchModeName(PrefetchMode::kCacheOnly), "cache");
}

// -------------------------------------------- manager speculative paths --

class PrefetchFixture : public ::testing::Test {
 protected:
  PrefetchFixture() {
    node_cls_ = RegisterNodeClass(world_.rt);
    world_.AddStore(2, 10 * 1024 * 1024);
    clusters_ = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                   /*n=*/60, /*per_cluster=*/20, "head");
  }

  /// Roots a 1 MiB ballast object and shrinks the heap's capacity so that
  /// `free_fraction` of it stays free. Each demand fault that follows adds
  /// a few KiB, far too little to move the free fraction across a gate.
  void FillHeapLeaving(double free_fraction) {
    const runtime::ClassInfo* ballast = *world_.rt.types().Register(
        runtime::ClassBuilder("Ballast").PayloadBytes(1 << 20));
    ASSERT_TRUE(world_.rt
                    .SetGlobal("ballast",
                               runtime::Value::Ref(world_.rt.New(ballast)))
                    .ok());
    runtime::Heap& heap = world_.rt.heap();
    heap.set_capacity_bytes(
        static_cast<size_t>(heap.used_bytes() / (1.0 - free_fraction)));
  }

  MiddlewareWorld world_;
  const runtime::ClassInfo* node_cls_ = nullptr;
  std::vector<SwapClusterId> clusters_;
};

TEST_F(PrefetchFixture, PrefetchStageRequiresCacheAndSwappedState) {
  // Cache disabled (the default): staging has nowhere to put the payload.
  ASSERT_TRUE(world_.manager.SwapOut(clusters_[0]).ok());
  EXPECT_EQ(world_.manager.PrefetchStage(clusters_[0]).code(),
            StatusCode::kFailedPrecondition);
  // A loaded cluster cannot be staged either.
  world_.manager.set_swap_in_cache_bytes(1 << 20);
  EXPECT_FALSE(world_.manager.PrefetchStage(clusters_[1]).ok());
}

TEST_F(PrefetchFixture, PrefetchStageServesLaterDemandFaultFromCache) {
  // Swap out while the cache is disabled so the payload is NOT retained,
  // then enable the cache: the stage must do a real fetch.
  ASSERT_TRUE(world_.manager.SwapOut(clusters_[0]).ok());
  world_.manager.set_swap_in_cache_bytes(1 << 20);

  ASSERT_TRUE(world_.manager.PrefetchStage(clusters_[0]).ok());
  EXPECT_EQ(world_.manager.stats().prefetch_stages, 1u);
  EXPECT_GT(world_.manager.stats().prefetch_stage_bytes, 0u);
  EXPECT_EQ(world_.manager.PrefetchOutstanding(), 1u);
  // Staging is not a swap-in: the cluster stays swapped.
  EXPECT_EQ(world_.manager.StateOf(clusters_[0]), swap::SwapState::kSwapped);

  // Re-staging a staged-and-cached cluster is a no-op, not double credit.
  ASSERT_TRUE(world_.manager.PrefetchStage(clusters_[0]).ok());
  EXPECT_EQ(world_.manager.stats().prefetch_stages, 1u);

  uint64_t radio_before = world_.network.stats().bytes_moved;
  ASSERT_TRUE(world_.manager.SwapIn(clusters_[0]).ok());
  EXPECT_EQ(world_.network.stats().bytes_moved, radio_before);  // no radio
  EXPECT_EQ(world_.manager.stats().prefetch_hits, 1u);
  EXPECT_EQ(world_.manager.stats().cache_hits, 1u);
  EXPECT_EQ(world_.manager.PrefetchOutstanding(), 0u);
}

TEST_F(PrefetchFixture, SpeculativeSwapInHitOnEntryWasteOnEviction) {
  ASSERT_TRUE(world_.manager.SwapOut(clusters_[1]).ok());
  ASSERT_TRUE(world_.manager.SwapIn(clusters_[1], /*prefetch=*/true).ok());
  EXPECT_EQ(world_.manager.stats().prefetched_swap_ins, 1u);
  EXPECT_EQ(world_.manager.PrefetchOutstanding(), 1u);

  int hit_events = 0;
  world_.bus.Subscribe(context::kEventPrefetchHit,
                       [&](const context::Event&) { ++hit_events; });
  // Touching the cluster consumes the speculation as a hit.
  ASSERT_TRUE(SumList(world_.rt, "head").ok());
  EXPECT_EQ(world_.manager.stats().prefetch_hits, 1u);
  EXPECT_EQ(hit_events, 1);
  EXPECT_EQ(world_.manager.PrefetchOutstanding(), 0u);

  // A speculative load evicted before any touch is a waste.
  ASSERT_TRUE(world_.manager.SwapOut(clusters_[2]).ok());
  ASSERT_TRUE(world_.manager.SwapIn(clusters_[2], /*prefetch=*/true).ok());
  int waste_events = 0;
  world_.bus.Subscribe(context::kEventPrefetchWaste,
                       [&](const context::Event&) { ++waste_events; });
  ASSERT_TRUE(world_.manager.SwapOut(clusters_[2]).ok());
  EXPECT_EQ(world_.manager.stats().prefetch_wastes, 1u);
  EXPECT_EQ(waste_events, 1);
  EXPECT_EQ(world_.manager.PrefetchOutstanding(), 0u);
}

// ------------------------------------------------------ full prefetcher --

TEST_F(PrefetchFixture, ChainsAlongLearnedSequence) {
  Prefetcher::Options options;
  options.mode = PrefetchMode::kFull;
  options.budget = 2;
  Prefetcher prefetcher(world_.rt, world_.manager, world_.bus, options);

  // Learning pass with everything resident: crossings teach 1->2->3.
  ASSERT_TRUE(SumList(world_.rt, "head").ok());
  EXPECT_GE(prefetcher.recorder().edge_count(), 2u);
  for (SwapClusterId id : clusters_) {
    ASSERT_TRUE(world_.manager.SwapOut(id).ok());
  }

  uint64_t swap_ins0 = world_.manager.stats().swap_ins;
  auto sum = SumList(world_.rt, "head");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 60 * 59 / 2);

  // One demand fault on the first cluster; the rest arrived speculatively
  // ahead of the cursor and were consumed as hits.
  EXPECT_EQ(world_.manager.stats().prefetched_swap_ins, 2u);
  EXPECT_EQ(world_.manager.stats().prefetch_hits, 2u);
  EXPECT_EQ(world_.manager.stats().prefetch_wastes, 0u);
  EXPECT_EQ(world_.manager.stats().swap_ins - swap_ins0, 3u);
  EXPECT_EQ(prefetcher.stats().demand_faults, 1u);
  EXPECT_EQ(prefetcher.stats().speculative_swap_ins, 2u);
}

TEST_F(PrefetchFixture, OffModeLearnsButNeverActs) {
  Prefetcher prefetcher(world_.rt, world_.manager, world_.bus);  // kOff
  ASSERT_TRUE(SumList(world_.rt, "head").ok());
  for (SwapClusterId id : clusters_) {
    ASSERT_TRUE(world_.manager.SwapOut(id).ok());
  }
  ASSERT_TRUE(SumList(world_.rt, "head").ok());

  EXPECT_GE(prefetcher.recorder().edge_count(), 2u);  // learning still on
  EXPECT_EQ(world_.manager.stats().prefetched_swap_ins, 0u);
  EXPECT_EQ(world_.manager.stats().prefetch_stages, 0u);
  EXPECT_EQ(world_.manager.stats().prefetch_hits, 0u);
  EXPECT_EQ(world_.manager.PrefetchOutstanding(), 0u);
  EXPECT_EQ(prefetcher.stats().predictions, 0u);
}

TEST_F(PrefetchFixture, BudgetZeroDefersAllSpeculation) {
  Prefetcher::Options options;
  options.mode = PrefetchMode::kFull;
  options.budget = 0;
  Prefetcher prefetcher(world_.rt, world_.manager, world_.bus, options);

  ASSERT_TRUE(SumList(world_.rt, "head").ok());
  for (SwapClusterId id : clusters_) {
    ASSERT_TRUE(world_.manager.SwapOut(id).ok());
  }
  ASSERT_TRUE(SumList(world_.rt, "head").ok());

  EXPECT_EQ(world_.manager.stats().prefetched_swap_ins, 0u);
  EXPECT_GT(prefetcher.stats().budget_deferred, 0u);
}

TEST_F(PrefetchFixture, InsufficientHeadroomBlocksAllSpeculation) {
  // Half the stage gate's headroom left: every drain attempt must stop at
  // the headroom check and nothing speculative may touch the store.
  Prefetcher::Options options;
  options.mode = PrefetchMode::kFull;
  Prefetcher prefetcher(world_.rt, world_.manager, world_.bus, options);

  ASSERT_TRUE(SumList(world_.rt, "head").ok());
  for (SwapClusterId id : clusters_) {
    ASSERT_TRUE(world_.manager.SwapOut(id).ok());
  }
  FillHeapLeaving(Prefetcher::kStageHeadroom / 2);
  ASSERT_TRUE(world_.manager.SwapIn(clusters_[0]).ok());
  EXPECT_LT(world_.rt.heap().free_fraction(), Prefetcher::kStageHeadroom);

  EXPECT_EQ(world_.manager.stats().prefetched_swap_ins, 0u);
  EXPECT_EQ(world_.manager.stats().prefetch_stages, 0u);
  EXPECT_GT(prefetcher.stats().headroom_blocked, 0u);
}

TEST_F(PrefetchFixture, FullModeDegradesToStagingBelowSwapInHeadroom) {
  // Free heap between the two gates: kFull must fall back to staging
  // payloads instead of fully swapping clusters in.
  Prefetcher::Options options;
  options.mode = PrefetchMode::kFull;
  Prefetcher prefetcher(world_.rt, world_.manager, world_.bus, options);

  ASSERT_TRUE(SumList(world_.rt, "head").ok());
  for (SwapClusterId id : clusters_) {
    ASSERT_TRUE(world_.manager.SwapOut(id).ok());
  }
  FillHeapLeaving(
      (Prefetcher::kStageHeadroom + Prefetcher::kSwapInHeadroom) / 2);
  // Enable the cache only now: the swap-outs above did not retain their
  // payloads, so every stage below is a real speculative fetch.
  world_.manager.set_swap_in_cache_bytes(1 << 20);
  ASSERT_TRUE(SumList(world_.rt, "head").ok());
  EXPECT_GE(world_.rt.heap().free_fraction(), Prefetcher::kStageHeadroom);
  EXPECT_LT(world_.rt.heap().free_fraction(), Prefetcher::kSwapInHeadroom);

  EXPECT_EQ(world_.manager.stats().prefetched_swap_ins, 0u);
  EXPECT_EQ(prefetcher.stats().speculative_swap_ins, 0u);
  EXPECT_GT(world_.manager.stats().prefetch_stages, 0u);
  EXPECT_GT(world_.manager.stats().prefetch_hits, 0u);
}

// -------------------------------------------------------- policy tuning --

TEST_F(PrefetchFixture, PolicyActionsTuneModeAndBudget) {
  Prefetcher prefetcher(world_.rt, world_.manager, world_.bus);
  context::PropertyRegistry props;
  policy::PolicyEngine engine(world_.bus, props);
  ASSERT_TRUE(policy::RegisterPrefetchActions(engine, prefetcher).ok());

  auto rule = [](const std::string& name, const std::string& on,
                 const std::string& action,
                 policy::ActionParams params) {
    policy::PolicyRule r;
    r.name = name;
    r.on_event = on;
    r.action = action;
    r.params = std::move(params);
    return r;
  };
  ASSERT_TRUE(engine
                  .AddRule(rule("mode", "go-full", "set-prefetch-mode",
                                {{"mode", "full"}}))
                  .ok());
  ASSERT_TRUE(engine
                  .AddRule(rule("budget", "go-full", "set-prefetch-budget",
                                {{"budget", "5"}}))
                  .ok());
  world_.bus.Publish(context::Event("go-full"));
  EXPECT_EQ(prefetcher.options().mode, PrefetchMode::kFull);
  EXPECT_EQ(prefetcher.options().budget, 5u);
  EXPECT_EQ(engine.stats().action_failures, 0u);

  // Bad parameters fail the action without touching the prefetcher.
  ASSERT_TRUE(engine
                  .AddRule(rule("bad-mode", "go-bad", "set-prefetch-mode",
                                {{"mode", "banana"}}))
                  .ok());
  ASSERT_TRUE(engine
                  .AddRule(rule("bad-budget", "go-bad", "set-prefetch-budget",
                                {{"budget", "-3"}}))
                  .ok());
  ASSERT_TRUE(engine
                  .AddRule(rule("no-param", "go-bad", "set-prefetch-budget",
                                {}))
                  .ok());
  world_.bus.Publish(context::Event("go-bad"));
  EXPECT_EQ(engine.stats().action_failures, 3u);
  EXPECT_EQ(prefetcher.options().mode, PrefetchMode::kFull);
  EXPECT_EQ(prefetcher.options().budget, 5u);
}

// ------------------------------------------------------- stats snapshot --

TEST_F(PrefetchFixture, StatsSnapshotFoldsManagerAndCacheCounters) {
  world_.manager.set_swap_in_cache_bytes(1 << 20);
  ASSERT_TRUE(world_.manager.SwapOut(clusters_[0]).ok());
  ASSERT_TRUE(world_.manager.SwapIn(clusters_[0]).ok());

  auto snapshot = world_.manager.StatsSnapshot();
  auto find = [&](const std::string& key) -> const uint64_t* {
    for (const auto& [name, value] : snapshot) {
      if (name == key) return &value;
    }
    return nullptr;
  };
  ASSERT_NE(find("swap_outs"), nullptr);
  EXPECT_EQ(*find("swap_outs"), 1u);
  ASSERT_NE(find("swap_ins"), nullptr);
  EXPECT_EQ(*find("swap_ins"), 1u);
  ASSERT_NE(find("prefetch_stages"), nullptr);
  ASSERT_NE(find("payload_cache_hits"), nullptr);
  ASSERT_NE(find("payload_cache_entries"), nullptr);
  EXPECT_EQ(*find("payload_cache_hits"),
            world_.manager.payload_cache().stats().hits);

  std::string json = world_.manager.StatsJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"swap_ins\":1"), std::string::npos);
  EXPECT_NE(json.find("\"payload_cache_hits\":"), std::string::npos);
}

}  // namespace
}  // namespace obiswap::prefetch
