// Crash-consistency tests: the write-ahead intent journal, the fault
// injector, and SwappingManager::Recover().
//
// The centerpiece is the crash-everywhere sweep: a clean run of a scripted
// pipeline scenario enumerates every (fault point, hit ordinal) actually
// traversed; then each pair is re-run with a crash armed there, the torn
// world is recovered, and the full-heap invariants are asserted — the
// mediation invariant holds, the workload still reads every value, and no
// store key leaks (every stored entry is accounted for by a replica list).
// The same sweep runs with error-kind faults (every stage's clean unwind)
// and the journal image is fuzzed byte-by-byte (truncation + bit flips).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "test_support.h"

namespace obiswap {
namespace {

using runtime::Object;
using runtime::Value;
using swap::FaultInjector;
using swap::FaultKind;
using swap::IntentJournal;
using swap::IntentOp;
using swap::ReplicaLocation;
using swap::SwapState;
using ::obiswap::testing::BuildClusteredList;
using ::obiswap::testing::CheckHoldingsIndex;
using ::obiswap::testing::CheckMediationInvariant;
using ::obiswap::testing::MiddlewareWorld;
using ::obiswap::testing::RegisterNodeClass;
using ::obiswap::testing::SumList;

constexpr int kNodes = 30;
constexpr int kPerCluster = 10;
constexpr int64_t kExpectedSum = kNodes * (kNodes - 1) / 2;

swap::SwappingManager::Options CrashOptions() {
  swap::SwappingManager::Options options;
  options.replication_factor = 2;
  options.swap_in_cache_bytes = 64 * 1024;
  options.codec = "rle";
  return options;
}

/// Tier configurations for the tiered variants of the chaos runs. The
/// sweeps use the flash tier only: every tier entry is then flash-resident,
/// which keeps the store-key accounting exact (`stored == replicas + tier
/// entries`) and survives the crash.
tier::TierManager::Options FlashTierOptions() {
  tier::TierManager::Options options;
  options.mode = tier::TierMode::kFlash;
  options.flash_slot_bytes = 512;
  options.flash_slots = 256;
  return options;
}

tier::TierManager::Options RamTierOptions() {
  tier::TierManager::Options options;
  options.mode = tier::TierMode::kRam;
  options.ram_bytes = 1 << 16;
  return options;
}

/// A MiddlewareWorld wired for crash testing: local flash (shared by the
/// journal), intent journal, fault injector, durability monitor, and —
/// when tier options are given — the tier stack sharing the same flash.
struct CrashWorld {
  explicit CrashWorld(
      std::optional<tier::TierManager::Options> tier_options = std::nullopt)
      : world(CrashOptions()),
        flash(MiddlewareWorld::kDevice, 1 << 20, world.network.clock()),
        journal(&flash),
        monitor(world.manager, world.discovery, MiddlewareWorld::kDevice,
                world.bus, nullptr) {
    world.manager.AttachClock(&world.network.clock());
    world.manager.AttachLocalStore(&flash);
    world.manager.AttachIntentJournal(&journal);
    if (tier_options.has_value()) {
      tiers = std::make_unique<tier::TierManager>(&flash, *tier_options);
      world.manager.AttachTierManager(tiers.get());
    }
    faults.AttachClock(&world.network.clock());
    world.manager.AttachFaultInjector(&faults);
    node_cls = RegisterNodeClass(world.rt);
    world.AddStore(2, 1 << 20);
    world.AddStore(3, 1 << 20);
    world.AddStore(4, 1 << 20);
    clusters = BuildClusteredList(world.rt, world.manager, node_cls, kNodes,
                                  kPerCluster, "head");
  }

  MiddlewareWorld world;
  persist::FlashStore flash;
  IntentJournal journal;
  std::unique_ptr<tier::TierManager> tiers;
  FaultInjector faults;
  swap::DurabilityMonitor monitor;
  const runtime::ClassInfo* node_cls = nullptr;
  std::vector<SwapClusterId> clusters;
};

/// The scripted pipeline scenario the sweeps replay. Deterministic, and
/// identical up to the moment an armed fault fires, so any (point, hit)
/// pair recorded by a clean run fires at the same place in a faulted run.
/// Each step tolerates failure (error-kind sweeps exercise clean unwinds)
/// but the script stops at a crash — a crashed manager only recovers.
void RunScenario(CrashWorld& w) {
  swap::SwappingManager& m = w.world.manager;
  const std::vector<SwapClusterId>& c = w.clusters;
  const auto alive = [&] { return !m.crashed(); };
  // Full dirty swap-out, demand swap-in, then the clean re-swap-out of the
  // retained image, and the cache-served swap-in after it.
  if (alive()) (void)m.SwapOut(c[1]);
  if (alive()) (void)m.SwapIn(c[1]);
  if (alive()) (void)m.SwapOut(c[1]);
  if (alive()) (void)m.SwapIn(c[1]);
  // First write since the round-trip: releases the clean image's replicas
  // through the journaled drop path.
  if (alive()) m.MarkDirty(c[1]);
  // Speculative pipeline: stage a swapped payload, then prefetch it in.
  if (alive()) (void)m.SwapOut(c[2]);
  if (alive()) (void)m.PrefetchStage(c[2]);
  if (alive()) (void)m.SwapIn(c[2], /*prefetch=*/true);
  // Replica maintenance: lose one of c0's replicas, let the durability
  // poll re-replicate, then evacuate a store wholesale.
  if (alive()) (void)m.SwapOut(c[0]);
  if (alive()) (void)m.ForgetReplica(c[0], DeviceId(2));
  if (alive()) w.monitor.Poll();
  if (alive()) (void)m.EvacuateReplicas(DeviceId(3));
}

/// The tiered variant: every tier fault point — flash admission, write-back
/// through the durability poll, the tier-served demand fault, promotion —
/// sits on this path. The payload cache is drained (budget 0) before the
/// demand faults so they reach the tier probe instead of the cache.
void RunTierScenario(CrashWorld& w) {
  swap::SwappingManager& m = w.world.manager;
  const std::vector<SwapClusterId>& c = w.clusters;
  const auto alive = [&] { return !m.crashed(); };
  // Tier swap-out: the payload lands in flash slots, remote group empty.
  if (alive()) (void)m.SwapOut(c[1]);
  // The poll repays the write-back debt: remote replicas reach K.
  if (alive()) w.monitor.Poll();
  // Drain the cache, then demand-fault through the tier probe (flash hit,
  // then the promotion attempt — a no-op in flash-only mode, but the fault
  // point is traversed).
  if (alive()) m.set_swap_in_cache_bytes(0);
  if (alive()) (void)m.SwapIn(c[1]);
  if (alive()) m.set_swap_in_cache_bytes(64 * 1024);
  // First write after the round-trip: invalidates the retained image and
  // releases its tier copy through the journaled drop path.
  if (alive()) m.MarkDirty(c[1]);
  // Speculative pipeline served by the tier: stage, then prefetch in.
  if (alive()) (void)m.SwapOut(c[2]);
  if (alive()) m.set_swap_in_cache_bytes(0);
  if (alive()) m.set_swap_in_cache_bytes(64 * 1024);
  if (alive()) (void)m.PrefetchStage(c[2]);
  if (alive()) (void)m.SwapIn(c[2], /*prefetch=*/true);
  // A second tier swap-out and its write-back poll.
  if (alive()) (void)m.SwapOut(c[0]);
  if (alive()) w.monitor.Poll();
}

size_t TotalActiveReplicas(swap::SwappingManager& m) {
  size_t total = 0;
  for (SwapClusterId id : m.registry().Ids()) {
    const swap::SwapClusterInfo* info = m.registry().Find(id);
    if (info == nullptr) continue;
    const std::vector<ReplicaLocation>* active = info->ActiveReplicas();
    if (active != nullptr) total += active->size();
  }
  return total;
}

size_t TotalStoredEntries(CrashWorld& w) {
  size_t total = 0;
  for (const auto& store : w.world.stores) total += store->entry_count();
  total += w.flash.entry_count();
  if (w.flash.Contains(IntentJournal::kKey)) --total;  // the journal itself
  return total;
}

/// The post-recovery acceptance bar, applied after every chaos run: the
/// mediation invariant holds, the holdings index covers every listed
/// replica, every value is still readable through the mediated path, and
/// — once deferred drops drain — the stores hold exactly the keys the
/// replica lists (plus, in a tiered world, the tier-owned flash entries)
/// account for. The tier term is exact because
/// the chaos worlds run the flash tier only: every tier entry is
/// flash-resident, so `entry_count()` is its share of the stored keys.
void ExpectWorldIntact(CrashWorld& w, const std::string& label) {
  EXPECT_EQ(CheckMediationInvariant(w.world.rt), "") << label;
  EXPECT_EQ(CheckHoldingsIndex(w.world.manager), "") << label;
  Result<int64_t> sum = SumList(w.world.rt, "head");
  ASSERT_TRUE(sum.ok()) << label << ": " << sum.status().ToString();
  EXPECT_EQ(*sum, kExpectedSum) << label;
  w.world.manager.replicas().FlushPendingDrops();
  EXPECT_EQ(w.world.manager.replicas().pending_drop_count(), 0u) << label;
  const size_t tier_entries = w.tiers != nullptr ? w.tiers->entry_count() : 0;
  EXPECT_EQ(TotalStoredEntries(w),
            TotalActiveReplicas(w.world.manager) + tier_entries)
      << label << ": leaked or lost store keys";
}

// ------------------------------------------------- crash-everywhere sweep --

TEST(CrashSweepTest, EveryFaultPointCrashRecoversWithFullInvariants) {
  // Clean run: enumerate the traversed (point, hits) universe.
  std::vector<std::pair<std::string, uint64_t>> universe;
  {
    CrashWorld clean;
    RunScenario(clean);
    ASSERT_FALSE(clean.world.manager.crashed());
    // Snapshot the universe before the invariant check: its verification
    // traversal faults clusters back in, which would count hits the
    // faulted runs (which stop at RunScenario) never reach.
    for (const auto& [point, hits] : clean.faults.hit_counts())
      universe.emplace_back(point, hits);
    ASSERT_GE(universe.size(), 20u)
        << "scenario no longer covers the pipeline";
    ExpectWorldIntact(clean, "clean run");
  }

  for (const auto& [point, hits] : universe) {
    for (uint64_t nth = 1; nth <= hits; ++nth) {
      const std::string label =
          "crash at " + point + " hit " + std::to_string(nth);
      CrashWorld w;
      w.faults.Arm(point, FaultKind::kCrash, nth);
      RunScenario(w);
      ASSERT_EQ(w.faults.stats().crashes, 1u) << label;
      ASSERT_TRUE(w.world.manager.crashed()) << label;
      Result<swap::SwappingManager::RecoveryReport> report =
          w.world.manager.Recover();
      ASSERT_TRUE(report.ok()) << label << ": "
                               << report.status().ToString();
      EXPECT_FALSE(w.world.manager.crashed()) << label;
      // Immediate recovery never loses data: the heap copy survives any
      // torn op, so every cluster is either rolled back or rolled forward
      // onto verified replicas.
      EXPECT_EQ(report->clusters_lost, 0u) << label;
      ExpectWorldIntact(w, label);
    }
  }
}

TEST(CrashSweepTest, EveryFaultPointErrorUnwindsCleanlyAndJournalStaysTight) {
  std::vector<std::pair<std::string, uint64_t>> universe;
  {
    CrashWorld clean;
    RunScenario(clean);  // hit counts snapshotted before any verification
    for (const auto& [point, hits] : clean.faults.hit_counts())
      universe.emplace_back(point, hits);
  }

  for (const auto& [point, hits] : universe) {
    for (uint64_t nth = 1; nth <= hits; ++nth) {
      const std::string label =
          "error at " + point + " hit " + std::to_string(nth);
      CrashWorld w;
      w.faults.Arm(point, FaultKind::kError, nth);
      RunScenario(w);
      ASSERT_EQ(w.faults.stats().errors, 1u) << label;
      ASSERT_FALSE(w.world.manager.crashed()) << label;
      // A clean error path must leave no dangling begin record: every op
      // the pipeline opened was committed or aborted before returning. The
      // one modeled exception is a failed commit *write* — the op is fully
      // applied and recovery rolls it to a consistent state.
      Result<swap::SwappingManager::RecoveryReport> report =
          w.world.manager.Recover();
      ASSERT_TRUE(report.ok()) << label;
      if (point.find("journal_commit") == std::string::npos) {
        EXPECT_EQ(report->pending_ops, 0u) << label;
      }
      ExpectWorldIntact(w, label);
    }
  }
}

TEST(CrashSweepTest, DelayFaultsOnlyCostVirtualTime) {
  CrashWorld w;
  const uint64_t before = w.world.network.clock().now_us();
  w.faults.Arm("swap_out.ship_replica", FaultKind::kDelay, 1,
               /*delay_us=*/250000);
  RunScenario(w);
  EXPECT_FALSE(w.world.manager.crashed());
  EXPECT_EQ(w.faults.stats().delays, 1u);
  EXPECT_GE(w.world.network.clock().now_us() - before, 250000u);
  ExpectWorldIntact(w, "delay");
}

/// The (point, hits) universe a clean run of `scenario` traverses, in
/// hit_counts() order.
std::vector<std::pair<std::string, uint64_t>> CleanUniverse(
    void (*scenario)(CrashWorld&), CrashWorld& w) {
  scenario(w);
  EXPECT_FALSE(w.world.manager.crashed());
  return {w.faults.hit_counts().begin(), w.faults.hit_counts().end()};
}

// The sweeps crash only at points a clean run reaches, so a change that
// drops or moves a fault point shrinks them without failing. These pins
// fail instead: a deliberate change to the pipeline's points edits them.
TEST(CrashSweepTest, FaultPointUniverseIsPinned) {
  CrashWorld w;
  const std::vector<std::pair<std::string, uint64_t>> expected = {
      {"clean_swap_out.build_replacement", 1},
      {"clean_swap_out.finalize", 1},
      {"clean_swap_out.journal_commit", 1},
      {"clean_swap_out.patch_proxy", 1},
      {"clean_swap_out.revalidate", 1},
      {"drop.release_replica", 2},
      {"durability.poll", 1},
      {"evacuate.drop_old", 2},
      {"evacuate.place", 2},
      {"re_replicate.fetch", 1},
      {"re_replicate.place", 1},
      {"swap_in.finalize", 3},
      {"swap_in.journal_begin", 3},
      {"swap_in.journal_commit", 3},
      {"swap_in.materialize", 3},
      {"swap_in.patch_proxy", 3},
      {"swap_out.build_replacement", 3},
      {"swap_out.compress", 3},
      {"swap_out.finalize", 3},
      {"swap_out.journal_begin", 3},
      {"swap_out.journal_commit", 3},
      {"swap_out.patch_proxy", 3},
      {"swap_out.serialize", 3},
      {"swap_out.ship_replica", 6},
  };
  EXPECT_EQ(CleanUniverse(RunScenario, w), expected);
}

// ------------------------------------------------ tiered chaos sweeps -----

TEST(TierCrashSweepTest, EveryFaultPointCrashRecoversWithTiers) {
  // Clean tiered run: enumerate the traversed universe and require the
  // tier-specific points to be on it — otherwise the sweep would silently
  // stop covering the tier pipeline.
  std::vector<std::pair<std::string, uint64_t>> universe;
  {
    CrashWorld clean(FlashTierOptions());
    RunTierScenario(clean);
    ASSERT_FALSE(clean.world.manager.crashed());
    for (const auto& [point, hits] : clean.faults.hit_counts())
      universe.emplace_back(point, hits);
    for (const char* want : {"swap_out.tier_flash", "swap_in.tier_fetch",
                             "tier.promote", "tier.write_back"}) {
      bool traversed = false;
      for (const auto& [point, hits] : universe)
        traversed = traversed || point == want;
      EXPECT_TRUE(traversed) << want << " not traversed by the tier scenario";
    }
    EXPECT_GE(clean.world.manager.stats().tier_swap_outs, 2u);
    EXPECT_GE(clean.world.manager.stats().tier_swap_ins, 1u);
    ExpectWorldIntact(clean, "clean tier run");
  }

  for (const auto& [point, hits] : universe) {
    for (uint64_t nth = 1; nth <= hits; ++nth) {
      const std::string label =
          "tier crash at " + point + " hit " + std::to_string(nth);
      CrashWorld w(FlashTierOptions());
      w.faults.Arm(point, FaultKind::kCrash, nth);
      RunTierScenario(w);
      ASSERT_EQ(w.faults.stats().crashes, 1u) << label;
      ASSERT_TRUE(w.world.manager.crashed()) << label;
      Result<swap::SwappingManager::RecoveryReport> report =
          w.world.manager.Recover();
      ASSERT_TRUE(report.ok()) << label << ": "
                               << report.status().ToString();
      // The flash tier survives the crash, so no torn point may lose a
      // cluster: a tier-only payload is either rolled back onto the heap
      // copy or re-verified on flash at recovery.
      EXPECT_EQ(report->clusters_lost, 0u) << label;
      ExpectWorldIntact(w, label);
    }
  }
}

TEST(TierCrashSweepTest, FaultPointUniverseIsPinned) {
  CrashWorld w(FlashTierOptions());
  const std::vector<std::pair<std::string, uint64_t>> expected = {
      {"drop.release_replica", 2},
      {"durability.poll", 2},
      {"prefetch_stage.stage", 1},
      {"re_replicate.place", 6},
      {"swap_in.finalize", 2},
      {"swap_in.journal_begin", 2},
      {"swap_in.journal_commit", 2},
      {"swap_in.materialize", 1},
      {"swap_in.patch_proxy", 2},
      {"swap_in.tier_fetch", 1},
      {"swap_out.build_replacement", 3},
      {"swap_out.compress", 3},
      {"swap_out.finalize", 3},
      {"swap_out.journal_begin", 3},
      {"swap_out.journal_commit", 3},
      {"swap_out.patch_proxy", 3},
      {"swap_out.serialize", 3},
      {"swap_out.tier_flash", 3},
      {"tier.promote", 1},
      {"tier.write_back", 3},
  };
  EXPECT_EQ(CleanUniverse(RunTierScenario, w), expected);
}

TEST(TierCrashSweepTest, EveryFaultPointErrorUnwindsCleanlyWithTiers) {
  std::vector<std::pair<std::string, uint64_t>> universe;
  {
    CrashWorld clean(FlashTierOptions());
    RunTierScenario(clean);
    for (const auto& [point, hits] : clean.faults.hit_counts())
      universe.emplace_back(point, hits);
  }

  for (const auto& [point, hits] : universe) {
    for (uint64_t nth = 1; nth <= hits; ++nth) {
      const std::string label =
          "tier error at " + point + " hit " + std::to_string(nth);
      CrashWorld w(FlashTierOptions());
      w.faults.Arm(point, FaultKind::kError, nth);
      RunTierScenario(w);
      ASSERT_EQ(w.faults.stats().errors, 1u) << label;
      ASSERT_FALSE(w.world.manager.crashed()) << label;
      Result<swap::SwappingManager::RecoveryReport> report =
          w.world.manager.Recover();
      ASSERT_TRUE(report.ok()) << label;
      if (point.find("journal_commit") == std::string::npos) {
        EXPECT_EQ(report->pending_ops, 0u) << label;
      }
      ExpectWorldIntact(w, label);
    }
  }
}

// ------------------------------------------------------ targeted recovery --

TEST(CrashRecoveryTest, TornSwapOutBeforeShipRollsBackAndReclaimsNothing) {
  CrashWorld w;
  // The replica intent is journaled and persisted, but the crash lands
  // before the store RPC: recovery rolls the cluster back to loaded and
  // the journaled key resolves to a no-op orphan drop.
  w.faults.Arm("swap_out.ship_replica", FaultKind::kCrash, 1);
  Result<SwapKey> key = w.world.manager.SwapOut(w.clusters[1]);
  ASSERT_FALSE(key.ok());
  ASSERT_TRUE(w.world.manager.crashed());

  auto report = w.world.manager.Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->pending_ops, 1u);
  EXPECT_EQ(report->rolled_back, 1u);
  EXPECT_EQ(report->rolled_forward, 0u);
  EXPECT_GE(report->orphan_drops_enqueued, 1u);
  EXPECT_EQ(w.world.manager.StateOf(w.clusters[1]), SwapState::kLoaded);
  ExpectWorldIntact(w, "pre-ship rollback");
}

TEST(CrashRecoveryTest, TornSwapOutAtCommitRollsBackThroughPatchedProxies) {
  CrashWorld w;
  // Every side effect is applied (replicas shipped, proxies patched,
  // state flipped to swapped) — only the commit is missing. With the
  // members still on the heap, recovery prefers the heap copy: proxies
  // are re-pointed at the live members and the replicas reclaimed.
  w.faults.Arm("swap_out.journal_commit", FaultKind::kCrash, 1);
  (void)w.world.manager.SwapOut(w.clusters[1]);
  ASSERT_TRUE(w.world.manager.crashed());

  auto report = w.world.manager.Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->rolled_back, 1u);
  EXPECT_GT(report->proxies_restored, 0u);
  EXPECT_EQ(w.world.manager.StateOf(w.clusters[1]), SwapState::kLoaded);
  ExpectWorldIntact(w, "at-commit rollback");
}

TEST(CrashRecoveryTest, TornSwapOutRollsForwardOnceHeapCopyIsCollected) {
  CrashWorld w;
  // Same torn point, but a GC runs before recovery (a restart that came
  // late): the original members are garbage once the proxies point at the
  // replacement. Recovery must go the other way — verify a journaled
  // replica against the journaled checksum and adopt the swapped state.
  w.faults.Arm("swap_out.journal_commit", FaultKind::kCrash, 1);
  (void)w.world.manager.SwapOut(w.clusters[1]);
  ASSERT_TRUE(w.world.manager.crashed());
  w.world.rt.heap().Collect();

  auto report = w.world.manager.Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->rolled_forward, 1u);
  EXPECT_EQ(report->rolled_back, 0u);
  EXPECT_EQ(report->clusters_lost, 0u);
  EXPECT_EQ(w.world.manager.StateOf(w.clusters[1]), SwapState::kSwapped);
  // The adopted replicas re-verify against the journaled checksum, and the
  // payload is still fully readable through a demand swap-in.
  EXPECT_GT(report->replicas_verified, 0u);
  ExpectWorldIntact(w, "roll-forward");
}

TEST(CrashRecoveryTest, TornSwapInRollsBackToReplacement) {
  CrashWorld w;
  ASSERT_TRUE(w.world.manager.SwapOut(w.clusters[1]).ok());
  w.faults.Arm("swap_in.patch_proxy", FaultKind::kCrash, 1);
  ASSERT_FALSE(w.world.manager.SwapIn(w.clusters[1]).ok());
  ASSERT_TRUE(w.world.manager.crashed());

  auto report = w.world.manager.Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->rolled_back, 1u);
  EXPECT_EQ(w.world.manager.StateOf(w.clusters[1]), SwapState::kSwapped);
  ExpectWorldIntact(w, "swap-in rollback");
}

TEST(CrashRecoveryTest, CrashedManagerRefusesEverythingUntilRecovered) {
  CrashWorld w;
  w.faults.Arm("swap_out.serialize", FaultKind::kCrash, 1);
  ASSERT_FALSE(w.world.manager.SwapOut(w.clusters[0]).ok());
  ASSERT_TRUE(w.world.manager.crashed());

  EXPECT_EQ(w.world.manager.SwapOut(w.clusters[1]).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(w.world.manager.SwapIn(w.clusters[1]).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(w.world.manager.PrefetchStage(w.clusters[1]).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(w.world.manager.ReReplicate(w.clusters[1]).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(w.world.manager.EvacuateReplicas(DeviceId(2)).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(w.world.manager.replicas().FlushPendingDrops(), 0u);
  const uint64_t polls_before = w.monitor.stats().polls;
  w.monitor.Poll();  // a crashed manager is not driven by maintenance
  EXPECT_EQ(w.monitor.stats().polls, polls_before);

  ASSERT_TRUE(w.world.manager.Recover().ok());
  EXPECT_FALSE(w.world.manager.crashed());
  EXPECT_TRUE(w.world.manager.SwapOut(w.clusters[1]).ok());
  EXPECT_TRUE(w.world.manager.SwapIn(w.clusters[1]).ok());
  EXPECT_EQ(w.world.manager.stats().recoveries, 1u);
}

TEST(CrashRecoveryTest, RecoveryEmitsEventsAndCountsTime) {
  CrashWorld w;
  size_t recovery_ops = 0;
  size_t completions = 0;
  w.world.bus.Subscribe(context::kEventRecoveryOp,
                        [&](const context::Event&) { ++recovery_ops; });
  w.world.bus.Subscribe(context::kEventRecoveryCompleted,
                        [&](const context::Event& event) {
                          ++completions;
                          EXPECT_EQ(event.GetIntOr("pending_ops", -1), 1);
                          EXPECT_EQ(event.GetIntOr("rolled_back", -1), 1);
                          EXPECT_EQ(event.GetIntOr("clusters_lost", -1), 0);
                        });
  w.faults.Arm("swap_out.ship_replica", FaultKind::kCrash, 1);
  (void)w.world.manager.SwapOut(w.clusters[1]);
  ASSERT_TRUE(w.world.manager.Recover().ok());
  EXPECT_EQ(recovery_ops, 1u);
  EXPECT_EQ(completions, 1u);
  // Stats flow into the registry-backed snapshot, journal costs included.
  std::string json = w.world.manager.StatsJson();
  EXPECT_NE(json.find("\"recoveries\":1"), std::string::npos);
  EXPECT_NE(json.find("\"journal_bytes\":"), std::string::npos);
  EXPECT_NE(json.find("\"journal_append_us\":"), std::string::npos);
  EXPECT_GT(w.journal.stats().persisted_bytes, 0u);
}

// ------------------------------------------ partial-replica leak (fix) -----

TEST(CrashRecoveryTest, FailedSwapOutReleasesPartiallyPlacedReplicas) {
  CrashWorld w;
  // Replicas land on stores, then replacement allocation fails: the
  // placed replicas must be released (not silently dropped one-by-one
  // with their errors ignored) and the journal op aborted.
  const size_t entries_before = TotalStoredEntries(w);
  w.faults.Arm("swap_out.build_replacement", FaultKind::kError, 1);
  Result<SwapKey> key = w.world.manager.SwapOut(w.clusters[1]);
  ASSERT_FALSE(key.ok());
  ASSERT_FALSE(w.world.manager.crashed());
  w.world.manager.replicas().FlushPendingDrops();
  EXPECT_EQ(TotalStoredEntries(w), entries_before)
      << "partially placed replicas leaked";
  EXPECT_EQ(w.world.manager.stats().swap_out_failures, 1u);
  EXPECT_EQ(w.world.manager.StateOf(w.clusters[1]), SwapState::kLoaded);
  auto report = w.world.manager.Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->pending_ops, 0u) << "abort record missing";
}

// ------------------------------------------------- tiered torn recovery ---

TEST(CrashRecoveryTest, CrashAtRamTierAdmissionRollsBackToLoaded) {
  CrashWorld w(RamTierOptions());
  // The crash lands between the journaled begin and the RAM admission: no
  // tier copy exists, no replica was ever placed, and the begin record was
  // never persisted (the RAM placement journals no replica intent — there
  // is no flash key to reclaim). Recovery finds nothing pending and the
  // heap copy simply remains authoritative.
  w.faults.Arm("swap_out.tier_ram", FaultKind::kCrash, 1);
  ASSERT_FALSE(w.world.manager.SwapOut(w.clusters[1]).ok());
  ASSERT_TRUE(w.world.manager.crashed());

  auto report = w.world.manager.Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->clusters_lost, 0u);
  EXPECT_EQ(w.world.manager.StateOf(w.clusters[1]), SwapState::kLoaded);
  EXPECT_EQ(w.tiers->entry_count(), 0u);
  ExpectWorldIntact(w, "ram-tier admission rollback");
}

TEST(CrashRecoveryTest, RamTierLossAtRecoveryIsCountedAndContained) {
  CrashWorld w(RamTierOptions());
  swap::SwappingManager& m = w.world.manager;
  // A committed tier swap-out whose only copy is the volatile RAM pool —
  // the write-back poll never ran. The crash (on an unrelated operation)
  // models a restart: recovery wipes the RAM pool, and with no flash copy
  // and no remote replica the payload is genuinely gone. This is the
  // window the write-back policy exists to keep short; the report must
  // name the casualty instead of pretending.
  ASSERT_TRUE(m.SwapOut(w.clusters[1]).ok());
  ASSERT_EQ(m.stats().tier_swap_outs, 1u);
  ASSERT_TRUE(w.tiers->PendingWriteBack(w.clusters[1]));
  // Hit ordinals are cumulative: the serialize point already fired once
  // during the committed swap-out above.
  w.faults.Arm("swap_out.serialize", FaultKind::kCrash, 2);
  ASSERT_FALSE(m.SwapOut(w.clusters[2]).ok());
  ASSERT_TRUE(m.crashed());

  auto report = m.Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tier_ram_entries_lost, 1u);
  EXPECT_EQ(report->clusters_lost, 1u);
  EXPECT_EQ(w.tiers->entry_count(), 0u);
  // The payload cache is as volatile as the RAM pool but the same-process
  // harness keeps it across the modeled restart — drain it so the demand
  // fault sees what a rebooted device would see.
  m.set_swap_in_cache_bytes(0);
  // The lost cluster fails loudly; the rest of the world is untouched.
  EXPECT_FALSE(m.SwapIn(w.clusters[1]).ok());
  m.set_swap_in_cache_bytes(64 * 1024);
  EXPECT_EQ(w.world.manager.StateOf(w.clusters[2]), SwapState::kLoaded);
  EXPECT_EQ(CheckMediationInvariant(w.world.rt), "");
  ASSERT_TRUE(m.SwapOut(w.clusters[0]).ok());
  ASSERT_TRUE(m.SwapIn(w.clusters[0]).ok());
}

TEST(CrashRecoveryTest, CrashDuringTierWriteBackKeepsFlashCopyAuthoritative) {
  CrashWorld w(FlashTierOptions());
  swap::SwappingManager& m = w.world.manager;
  ASSERT_TRUE(m.SwapOut(w.clusters[1]).ok());
  ASSERT_EQ(m.stats().tier_swap_outs, 1u);
  {
    const swap::SwapClusterInfo* info = m.registry().Find(w.clusters[1]);
    ASSERT_NE(info, nullptr);
    ASSERT_TRUE(info->replicas.empty()) << "payload should be tier-only";
  }
  // The poll crashes at the write-back fetch: the remote group is still
  // empty, the flash copy is the payload's only home.
  w.faults.Arm("tier.write_back", FaultKind::kCrash, 1);
  w.monitor.Poll();
  ASSERT_TRUE(m.crashed());

  auto report = m.Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->clusters_lost, 0u);
  EXPECT_GE(report->tier_flash_verified, 1u);
  // The durability debt survived recovery; the next poll repays it.
  EXPECT_TRUE(w.tiers->PendingWriteBack(w.clusters[1]));
  w.monitor.Poll();
  const swap::SwapClusterInfo* info = m.registry().Find(w.clusters[1]);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->replicas.size(), 2u);
  EXPECT_FALSE(w.tiers->PendingWriteBack(w.clusters[1]));
  ExpectWorldIntact(w, "tier write-back crash");
}

// ------------------------------------------------- journal torn images ----

IntentJournal::ParseResult BuildFuzzImage(std::string* image_out) {
  net::SimClock clock;
  persist::FlashStore flash(DeviceId(1), 1 << 20, clock);
  // Retain completed-op records (the default compacts them away at commit)
  // so the fuzzed image holds both a committed and a torn operation.
  IntentJournal::Options options;
  options.compact_record_limit = 64;
  IntentJournal journal(&flash, options);
  uint64_t committed = journal.BeginOp(IntentOp::kSwapOut, SwapClusterId(7),
                                       3, 0xAB12, {101, 102}, {900});
  journal.NoteReplicaIntent(committed, DeviceId(2), SwapKey(11));
  journal.NoteReplicaIntent(committed, DeviceId(3), SwapKey(12));
  OBISWAP_CHECK(journal.Commit(committed).ok());
  uint64_t torn = journal.BeginOp(IntentOp::kSwapIn, SwapClusterId(8), 4,
                                  0xCD34, {103}, {});
  journal.NoteReplicaIntent(torn, DeviceId(3), SwapKey(13));
  journal.NoteProgress(torn, 2);
  OBISWAP_CHECK(journal.Persist().ok());
  *image_out = *flash.Fetch(IntentJournal::kKey);
  return IntentJournal::Parse(*image_out);
}

// The journal image bytes, pinned by FNV-1a: a restart must read the image
// an earlier build wrote. One begin of each op, every record type.
TEST(IntentJournalImageTest, ImageBytesArePinned) {
  net::SimClock clock;
  persist::FlashStore flash(DeviceId(1), 1 << 20, clock);
  IntentJournal::Options options;
  options.compact_record_limit = 64;
  IntentJournal journal(&flash, options);
  for (IntentOp op : {IntentOp::kSwapOut, IntentOp::kCleanSwapOut,
                      IntentOp::kSwapIn, IntentOp::kDrop,
                      IntentOp::kReplicaMaintenance,
                      IntentOp::kDeltaSwapOut}) {
    const uint64_t n = static_cast<uint64_t>(op);
    uint64_t seq = journal.BeginOp(
        op, SwapClusterId(static_cast<uint32_t>(10 + n)), n, 0xAB000000u + n,
        {100 + n, 300 + n}, {900 + n},
        op == IntentOp::kDeltaSwapOut ? 5 : 0,
        op == IntentOp::kDeltaSwapOut ? 0xFEEDBEEFu : 0);
    journal.NoteReplicaIntent(seq, DeviceId(static_cast<uint32_t>(2 + n)),
                              SwapKey((uint64_t{1} << 32) | n));
    journal.NoteProgress(seq, n);
    if (n % 2 == 0) {
      OBISWAP_CHECK(journal.Commit(seq).ok());
    } else if (n == 5) {
      OBISWAP_CHECK(journal.Abort(seq).ok());
    }
  }
  OBISWAP_CHECK(journal.Persist().ok());
  std::string image = *flash.Fetch(IntentJournal::kKey);
  EXPECT_EQ(image.size(), 506u);
  EXPECT_EQ(Fnv1a64(image), 0x66480fcfc7915eaaull);
  EXPECT_EQ(IntentJournal::Parse(image).records.size(), 22u);
}

TEST(IntentJournalTornWriteTest, TruncationAtEveryByteKeepsAnExactPrefix) {
  std::string image;
  IntentJournal::ParseResult full = BuildFuzzImage(&image);
  ASSERT_EQ(full.skipped, 0u);
  ASSERT_EQ(full.records.size(), 7u);  // 2 begins, 3 intents, 1 commit, 1 progress
  ASSERT_EQ(full.bad_tail_bytes, 0u);

  for (size_t len = 0; len <= image.size(); ++len) {
    IntentJournal::ParseResult torn =
        IntentJournal::Parse(std::string_view(image).substr(0, len));
    ASSERT_LE(torn.records.size(), full.records.size()) << "len " << len;
    // Torn tails shrink the record list from the end — they never invent
    // or reorder records.
    for (size_t i = 0; i < torn.records.size(); ++i) {
      EXPECT_EQ(torn.records[i].seq, full.records[i].seq) << "len " << len;
      EXPECT_EQ(torn.records[i].type, full.records[i].type) << "len " << len;
    }
    if (len < image.size()) {
      EXPECT_LT(torn.records.size(), full.records.size())
          << "len " << len << ": a truncated image parsed as complete";
    }
  }
}

TEST(IntentJournalTornWriteTest, TruncatedImageLoadsTheSurvivingOps) {
  std::string image;
  (void)BuildFuzzImage(&image);

  for (size_t len = 0; len <= image.size(); ++len) {
    net::SimClock clock;
    persist::FlashStore flash(DeviceId(1), 1 << 20, clock);
    OBISWAP_CHECK(flash.Store(IntentJournal::kKey, image.substr(0, len)).ok());
    IntentJournal journal(&flash);
    Result<std::vector<IntentJournal::PendingOp>> pending =
        journal.LoadForRecovery();
    ASSERT_TRUE(pending.ok()) << "len " << len;
    // At most one op can be pending at any cut: either the first op (its
    // commit record was truncated away, so it resurfaces uncommitted) or
    // the second (its begin survived; its commit never existed) — never
    // both, because the second op's records follow the first's commit.
    ASSERT_LE(pending->size(), 1u) << "len " << len;
    if (!pending->empty()) {
      const IntentJournal::PendingOp& op = (*pending)[0];
      if (op.cluster == SwapClusterId(7)) {
        EXPECT_EQ(op.op, IntentOp::kSwapOut) << "len " << len;
      } else {
        EXPECT_EQ(op.cluster, SwapClusterId(8)) << "len " << len;
        EXPECT_EQ(op.op, IntentOp::kSwapIn) << "len " << len;
      }
    }
    // The fence epoch always outranks whatever was stored.
    EXPECT_GE(journal.epoch(), 2u) << "len " << len;
  }
}

TEST(IntentJournalTornWriteTest, BitFlipAtEveryByteIsDetectedNeverInvented) {
  std::string image;
  IntentJournal::ParseResult full = BuildFuzzImage(&image);

  auto matches_original = [&](const swap::JournalRecord& record) {
    for (const swap::JournalRecord& original : full.records) {
      if (original.seq == record.seq && original.type == record.type &&
          original.device == record.device && original.key == record.key &&
          original.payload_checksum == record.payload_checksum) {
        return true;
      }
    }
    return false;
  };

  for (size_t pos = 0; pos < image.size(); ++pos) {
    std::string flipped = image;
    flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << (pos % 8)));
    IntentJournal::ParseResult parsed = IntentJournal::Parse(flipped);
    // A single flipped bit may cost records (CRC reject, broken framing,
    // stale fence) but must never fabricate one.
    for (const swap::JournalRecord& record : parsed.records) {
      EXPECT_TRUE(matches_original(record))
          << "pos " << pos << " invented record seq " << record.seq;
    }
    if (parsed.records.size() < full.records.size()) {
      EXPECT_GT(parsed.skipped + parsed.bad_tail_bytes +
                    (parsed.epoch == full.epoch ? 0u : 1u),
                0u)
          << "pos " << pos << " lost records without accounting";
    }

    // And the full recovery path stays calm on the same corrupt image.
    net::SimClock clock;
    persist::FlashStore flash(DeviceId(1), 1 << 20, clock);
    OBISWAP_CHECK(flash.Store(IntentJournal::kKey, flipped).ok());
    IntentJournal journal(&flash);
    EXPECT_TRUE(journal.LoadForRecovery().ok()) << "pos " << pos;
  }
}

TEST(IntentJournalTornWriteTest, StaleEpochRecordsAreFenced) {
  net::SimClock clock;
  persist::FlashStore flash(DeviceId(1), 1 << 20, clock);
  {
    IntentJournal journal(&flash);
    // Restart once so the persisted header epoch moves past 1.
    OBISWAP_CHECK(journal.LoadForRecovery().ok());
    uint64_t seq = journal.BeginOp(IntentOp::kSwapOut, SwapClusterId(5), 1,
                                   0, {1}, {});
    journal.NoteReplicaIntent(seq, DeviceId(2), SwapKey(50));
    OBISWAP_CHECK(journal.Persist().ok());
  }
  std::string image = *flash.Fetch(IntentJournal::kKey);
  // Append a record stamped with the pre-restart epoch: a stale survivor
  // from an older incarnation that compaction never reached.
  swap::JournalRecord stale;
  stale.epoch = 1;
  stale.seq = 99;
  stale.type = swap::RecordType::kBegin;
  stale.op = IntentOp::kDrop;
  IntentJournal::EncodeRecord(stale, &image);
  OBISWAP_CHECK(flash.Store(IntentJournal::kKey, image).ok());

  IntentJournal journal(&flash);
  Result<std::vector<IntentJournal::PendingOp>> pending =
      journal.LoadForRecovery();
  ASSERT_TRUE(pending.ok());
  ASSERT_EQ(pending->size(), 1u);  // the real op, not the stale one
  EXPECT_EQ((*pending)[0].cluster, SwapClusterId(5));
  EXPECT_EQ(journal.stats().records_skipped, 1u);
}

TEST(IntentJournalTest, CompactionDropsCompletedOpsAndKeepsInFlight) {
  net::SimClock clock;
  persist::FlashStore flash(DeviceId(1), 1 << 20, clock);
  IntentJournal::Options options;
  options.compact_record_limit = 8;
  IntentJournal journal(&flash, options);
  uint64_t open_seq = journal.BeginOp(IntentOp::kSwapIn, SwapClusterId(42),
                                      1, 0, {}, {});
  journal.NoteReplicaIntent(open_seq, DeviceId(9), SwapKey(77));
  for (int i = 0; i < 16; ++i) {
    uint64_t seq = journal.BeginOp(IntentOp::kSwapOut,
                                   SwapClusterId(100 + i), 1, 0, {}, {});
    journal.NoteReplicaIntent(seq, DeviceId(2), SwapKey(200 + i));
    OBISWAP_CHECK(journal.Commit(seq).ok());
  }
  EXPECT_GT(journal.stats().compactions, 0u);
  EXPECT_LE(journal.record_count(), options.compact_record_limit + 3);
  // The in-flight op survives every compaction round.
  Result<std::vector<IntentJournal::PendingOp>> pending =
      journal.LoadForRecovery();
  ASSERT_TRUE(pending.ok());
  ASSERT_EQ(pending->size(), 1u);
  EXPECT_EQ((*pending)[0].seq, open_seq);
  ASSERT_EQ((*pending)[0].replica_intents.size(), 1u);
  EXPECT_EQ((*pending)[0].replica_intents[0].key, SwapKey(77));
}

}  // namespace
}  // namespace obiswap
