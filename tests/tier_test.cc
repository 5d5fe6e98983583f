// Tests for the tiered swap hierarchy: the TierManager's compressed-RAM
// pool and wear-levelled flash slots in isolation, and the SwappingManager
// integration — tier placement on swap-out, fastest-first probing with
// promotion on swap-in, asynchronous write-back toward the remote replica
// group, and the tiers-disabled parity guarantee.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/checksum.h"
#include "test_support.h"

namespace obiswap {
namespace {

using policy::PolicyEngine;
using policy::RegisterTierActions;
using runtime::Value;
using swap::ReplicaLocation;
using tier::ParseTierMode;
using tier::TierHit;
using tier::TierManager;
using tier::TierMode;
using tier::TierModeName;
using ::obiswap::testing::BuildClusteredList;
using ::obiswap::testing::MiddlewareWorld;
using ::obiswap::testing::RegisterNodeClass;
using ::obiswap::testing::SumList;

// A store-form payload: the frame-compressed document a remote store would
// hold, exactly what the manager hands the tier. Reconcile and the probe
// verify by decompressing the frame and checksumming the document.
struct Payload {
  std::string text;   ///< compressed frame (what the tier stores)
  uint32_t checksum;  ///< Adler-32 of the decompressed document
};

Payload MakePayload(const std::string& doc) {
  const compress::Codec* codec = compress::FindCodec("lz77");
  auto framed = compress::FrameCompress(*codec, doc);
  OBISWAP_CHECK(framed.ok());
  return Payload{*framed, Adler32(doc)};
}

/// Deterministic noise the codec cannot shrink, for tests whose budget
/// arithmetic must not be disturbed by compression.
std::string IncompressibleDoc(size_t n, uint32_t seed) {
  std::string out;
  out.reserve(n);
  uint32_t x = seed * 2654435761u + 12345u;
  for (size_t i = 0; i < n; ++i) {
    x = x * 1664525u + 1013904223u;
    out.push_back(static_cast<char>('!' + (x >> 24) % 90));
  }
  return out;
}

// ----------------------------------------------------------- TierManager --

TEST(TierModeTest, NamesRoundTripAndBadNamesAreRejected) {
  for (TierMode mode :
       {TierMode::kOff, TierMode::kRam, TierMode::kFlash, TierMode::kAll}) {
    auto parsed = ParseTierMode(TierModeName(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_EQ(ParseTierMode("turbo").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TierManagerTest, RamAdmitServesExactEpochAndPinningBlocksEviction) {
  TierManager::Options options;
  options.ram_bytes = 256;
  options.mode = TierMode::kRam;
  TierManager tiers(nullptr, options);
  Payload p = MakePayload(IncompressibleDoc(150, 1));
  ASSERT_LE(p.text.size(), 256u);

  ASSERT_TRUE(tiers.AdmitRam(SwapClusterId(1), 3, p.checksum, p.text));
  TierHit hit = TierHit::kNone;
  auto probed = tiers.Probe(SwapClusterId(1), 3, p.checksum, &hit);
  ASSERT_TRUE(probed.ok());
  EXPECT_EQ(*probed, p.text);
  EXPECT_EQ(hit, TierHit::kRam);
  // A stale epoch or checksum never serves the copy.
  EXPECT_FALSE(tiers.Probe(SwapClusterId(1), 2, p.checksum, &hit).ok());
  EXPECT_FALSE(tiers.Probe(SwapClusterId(1), 3, p.checksum + 1, &hit).ok());

  // The entry is pinned (write-back still owed): another cluster that
  // does not fit alongside it is rejected, not admitted over it.
  EXPECT_TRUE(tiers.PendingWriteBack(SwapClusterId(1)));
  Payload q = MakePayload(IncompressibleDoc(150, 2));
  ASSERT_GT(q.text.size() + tiers.ram_bytes_used(), tiers.ram_bytes_budget());
  EXPECT_FALSE(tiers.AdmitRam(SwapClusterId(2), 1, q.checksum, q.text));
  EXPECT_EQ(tiers.stats().ram_rejects, 1u);

  // Written back: the entry becomes a pure read cache and LRU eviction
  // may reclaim it for the next admission.
  tiers.MarkWrittenBack(SwapClusterId(1));
  EXPECT_FALSE(tiers.PendingWriteBack(SwapClusterId(1)));
  EXPECT_EQ(tiers.stats().write_backs, 1u);
  ASSERT_TRUE(tiers.AdmitRam(SwapClusterId(2), 1, q.checksum, q.text));
  EXPECT_GE(tiers.stats().ram_evictions, 1u);
  EXPECT_FALSE(tiers.Probe(SwapClusterId(1), 3, p.checksum, &hit).ok());
}

TEST(TierManagerTest, RamPoolRecompressesWhenItPays) {
  TierManager::Options options;
  options.ram_bytes = 1 << 16;
  options.mode = TierMode::kRam;
  TierManager tiers(nullptr, options);
  // An RLE-style doc compressed with lz77 still leaves slack a second
  // squeeze can claim... but the robust assertion is the round-trip: the
  // probe returns the exact store-form payload whether or not the pool
  // wrapped it, and any saving is accounted.
  std::string doc;
  for (int i = 0; i < 200; ++i) doc += "<node value=\"42\"/>";
  Payload p = MakePayload(doc);
  ASSERT_TRUE(tiers.AdmitRam(SwapClusterId(5), 1, p.checksum, p.text));
  EXPECT_LE(tiers.ram_bytes_used(), p.text.size());
  TierHit hit = TierHit::kNone;
  auto probed = tiers.Probe(SwapClusterId(5), 1, p.checksum, &hit);
  ASSERT_TRUE(probed.ok());
  EXPECT_EQ(*probed, p.text);
  EXPECT_EQ(tiers.ram_bytes_used() + tiers.stats().ram_bytes_saved,
            p.text.size());
}

TEST(TierManagerTest, FlashPlacementIsWearAware) {
  net::SimClock clock;
  persist::FlashStore flash(DeviceId(1), 1 << 20, clock);
  TierManager::Options options;
  options.mode = TierMode::kFlash;
  options.flash_slot_bytes = 64;
  options.flash_slots = 4;
  TierManager tiers(&flash, options);
  Payload p = MakePayload(IncompressibleDoc(100, 3));
  const size_t need =
      (p.text.size() + options.flash_slot_bytes - 1) / options.flash_slot_bytes;
  ASSERT_LE(need, 2u) << "payload grew past the test's slot budget";

  // First admission takes the least-worn slots: 0..need-1.
  ASSERT_TRUE(
      tiers.AdmitFlash(SwapClusterId(1), 1, p.checksum, SwapKey(100), p.text)
          .ok());
  EXPECT_EQ(tiers.flash_slots_used(), need);
  for (size_t s = 0; s < need; ++s) EXPECT_EQ(tiers.slot_wear(s), 1u);

  // Released and re-admitted: the freed slots now carry wear, so the
  // least-write-count-first allocator moves to the untouched ones.
  tiers.Release(SwapClusterId(1));
  EXPECT_EQ(tiers.flash_slots_used(), 0u);
  ASSERT_TRUE(
      tiers.AdmitFlash(SwapClusterId(2), 1, p.checksum, SwapKey(101), p.text)
          .ok());
  for (size_t s = 0; s < need; ++s)
    EXPECT_EQ(tiers.slot_wear(need + s), 1u) << "slot " << need + s;
  for (size_t s = 0; s < need; ++s)
    EXPECT_EQ(tiers.slot_wear(s), 1u) << "slot " << s << " worn again";
}

TEST(TierManagerTest, FlashSlotCapacityRejectsWhenPinnedAndEvictsWhenNot) {
  net::SimClock clock;
  persist::FlashStore flash(DeviceId(1), 1 << 20, clock);
  TierManager::Options options;
  options.mode = TierMode::kFlash;
  options.flash_slot_bytes = 32;
  options.flash_slots = 2;
  TierManager tiers(&flash, options);
  Payload p = MakePayload(IncompressibleDoc(40, 4));
  ASSERT_GT(p.text.size(), options.flash_slot_bytes) << "need 2 slots";
  ASSERT_TRUE(
      tiers.AdmitFlash(SwapClusterId(1), 1, p.checksum, SwapKey(1), p.text)
          .ok());
  EXPECT_EQ(tiers.flash_slots_used(), 2u);

  // Partition full of a pinned entry: admission fails loudly.
  Payload q = MakePayload("second");
  EXPECT_EQ(
      tiers.AdmitFlash(SwapClusterId(2), 1, q.checksum, SwapKey(2), q.text)
          .code(),
      StatusCode::kResourceExhausted);
  EXPECT_EQ(tiers.stats().flash_rejects, 1u);

  // Unpinned, the LRU entry makes way — and its flash bytes are dropped.
  tiers.MarkWrittenBack(SwapClusterId(1));
  ASSERT_TRUE(
      tiers.AdmitFlash(SwapClusterId(2), 1, q.checksum, SwapKey(2), q.text)
          .ok());
  EXPECT_EQ(tiers.stats().flash_evictions, 1u);
  EXPECT_FALSE(flash.Contains(SwapKey(1)));
  EXPECT_TRUE(flash.Contains(SwapKey(2)));
}

TEST(TierManagerTest, RamEvictionDemotesSoleCopiesToFlashAndSparesThemLRU) {
  net::SimClock clock;
  persist::FlashStore flash(DeviceId(1), 1 << 20, clock);
  TierManager::Options options;
  options.mode = TierMode::kAll;
  options.ram_bytes = 256;
  options.flash_slot_bytes = 64;
  options.flash_slots = 8;
  TierManager tiers(&flash, options);
  uint64_t next_key = 500;
  tiers.set_key_source([&next_key] { return SwapKey(next_key++); });

  Payload p = MakePayload(IncompressibleDoc(150, 5));
  Payload q = MakePayload(IncompressibleDoc(150, 6));
  ASSERT_GT(p.text.size() + q.text.size(), 256u) << "both fit; no eviction";
  ASSERT_TRUE(tiers.AdmitRam(SwapClusterId(1), 1, p.checksum, p.text));
  tiers.MarkWrittenBack(SwapClusterId(1));

  // The next admission squeezes the read-cache entry out of the pool —
  // but with free flash slots it is demoted, not dropped, and the next
  // probe is a flash hit instead of a radio fault.
  ASSERT_TRUE(tiers.AdmitRam(SwapClusterId(2), 1, q.checksum, q.text));
  EXPECT_EQ(tiers.stats().ram_evictions, 1u);
  EXPECT_EQ(tiers.stats().demotions, 1u);
  TierHit hit = TierHit::kNone;
  auto probed = tiers.Probe(SwapClusterId(1), 1, p.checksum, &hit);
  ASSERT_TRUE(probed.ok());
  EXPECT_EQ(*probed, p.text);
  EXPECT_EQ(hit, TierHit::kFlash);

  // Promotion-driven eviction demotes too: promoting cluster 1 back up
  // squeezes cluster 2 (a sole RAM copy) out of the pool, and it slides
  // down into free flash slots instead of falling out of the tier.
  tiers.MarkWrittenBack(SwapClusterId(2));
  tiers.PromoteToRam(SwapClusterId(1), *probed);
  EXPECT_EQ(tiers.stats().demotions, 2u);
  EXPECT_TRUE(tiers.Probe(SwapClusterId(2), 1, q.checksum, &hit).ok());
  EXPECT_EQ(hit, TierHit::kFlash);

  // Without a key source (or free slots) the old behavior stands: the
  // sole RAM copy is simply dropped.
  tiers.set_key_source(nullptr);
  Payload r = MakePayload(IncompressibleDoc(150, 7));
  tiers.Release(SwapClusterId(1));
  tiers.Release(SwapClusterId(2));
  ASSERT_TRUE(tiers.AdmitRam(SwapClusterId(3), 1, r.checksum, r.text));
  tiers.MarkWrittenBack(SwapClusterId(3));
  ASSERT_TRUE(tiers.AdmitRam(SwapClusterId(4), 2, p.checksum, p.text));
  EXPECT_EQ(tiers.stats().demotions, 2u) << "no key source, no demotion";
  EXPECT_FALSE(tiers.Probe(SwapClusterId(3), 1, r.checksum, &hit).ok());
}

TEST(TierManagerTest, ProbeSelfHealsAFlashEntryDroppedBehindItsBack) {
  net::SimClock clock;
  persist::FlashStore flash(DeviceId(1), 1 << 20, clock);
  TierManager::Options options;
  options.mode = TierMode::kFlash;
  options.flash_slot_bytes = 64;
  options.flash_slots = 8;
  TierManager tiers(&flash, options);
  Payload p = MakePayload("soon to vanish behind the tier's back");
  ASSERT_TRUE(
      tiers.AdmitFlash(SwapClusterId(3), 1, p.checksum, SwapKey(9), p.text)
          .ok());
  ASSERT_TRUE(flash.Drop(SwapKey(9)).ok());  // e.g. an orphan-drop drain

  TierHit hit = TierHit::kNone;
  EXPECT_FALSE(tiers.Probe(SwapClusterId(3), 1, p.checksum, &hit).ok());
  EXPECT_EQ(tiers.stats().flash_discards, 1u);
  EXPECT_EQ(tiers.flash_slots_used(), 0u) << "slots of the dead entry leak";
  EXPECT_EQ(tiers.entry_count(), 0u);
}

TEST(TierManagerTest, NewerAdmissionSupersedesTheOlderEpochEverywhere) {
  net::SimClock clock;
  persist::FlashStore flash(DeviceId(1), 1 << 20, clock);
  TierManager::Options options;
  options.mode = TierMode::kAll;
  options.ram_bytes = 4096;
  options.flash_slot_bytes = 64;
  options.flash_slots = 8;
  TierManager tiers(&flash, options);
  Payload p1 = MakePayload("epoch one payload");
  Payload p2 = MakePayload("epoch two payload, fresher");
  ASSERT_TRUE(
      tiers.AdmitFlash(SwapClusterId(4), 1, p1.checksum, SwapKey(21), p1.text)
          .ok());
  // The RAM admission of the NEXT epoch releases the flash copy of the old
  // one: the tier holds exactly one payload generation per cluster.
  ASSERT_TRUE(tiers.AdmitRam(SwapClusterId(4), 2, p2.checksum, p2.text));
  EXPECT_EQ(tiers.entry_count(), 1u);
  EXPECT_FALSE(flash.Contains(SwapKey(21)));
  EXPECT_EQ(tiers.flash_slots_used(), 0u);
  TierHit hit = TierHit::kNone;
  EXPECT_FALSE(tiers.Probe(SwapClusterId(4), 1, p1.checksum, &hit).ok());
  EXPECT_TRUE(tiers.Probe(SwapClusterId(4), 2, p2.checksum, &hit).ok());

  // Epoch-scoped release ignores a mismatched generation and retires an
  // exact match.
  tiers.Release(SwapClusterId(4), 1, p1.checksum);
  EXPECT_EQ(tiers.entry_count(), 1u);
  tiers.Release(SwapClusterId(4), 2, p2.checksum);
  EXPECT_EQ(tiers.entry_count(), 0u);
}

TEST(TierManagerTest, RamPoolDoesNotSurviveRecoveryButFlashDoes) {
  net::SimClock clock;
  persist::FlashStore flash(DeviceId(1), 1 << 20, clock);
  TierManager::Options options;
  options.mode = TierMode::kAll;
  options.ram_bytes = 1 << 16;
  options.flash_slot_bytes = 64;
  options.flash_slots = 16;
  TierManager tiers(&flash, options);
  Payload ram_only = MakePayload("volatile payload, ram only");
  Payload on_flash = MakePayload("durable payload, flash backed");
  ASSERT_TRUE(tiers.AdmitRam(SwapClusterId(1), 1, ram_only.checksum,
                             ram_only.text));
  ASSERT_TRUE(tiers.AdmitFlash(SwapClusterId(2), 1, on_flash.checksum,
                               SwapKey(31), on_flash.text)
                  .ok());
  // Promote the flash entry so it is resident in both tiers.
  TierHit hit = TierHit::kNone;
  auto probed = tiers.Probe(SwapClusterId(2), 1, on_flash.checksum, &hit);
  ASSERT_TRUE(probed.ok());
  tiers.PromoteToRam(SwapClusterId(2), *probed);
  EXPECT_EQ(tiers.stats().promotions, 1u);

  EXPECT_EQ(tiers.DropRamPoolForRecovery(), 1u);  // only the RAM-only one
  EXPECT_EQ(tiers.stats().ram_entries_lost, 1u);
  EXPECT_EQ(tiers.ram_bytes_used(), 0u);
  EXPECT_FALSE(tiers.Probe(SwapClusterId(1), 1, ram_only.checksum, &hit).ok());
  // The both-tier entry survives as flash-only.
  ASSERT_TRUE(tiers.Probe(SwapClusterId(2), 1, on_flash.checksum, &hit).ok());
  EXPECT_EQ(hit, TierHit::kFlash);
}

TEST(TierManagerTest, ReconcileKeepsVerifiedWantedEntriesAndDropsTheRest) {
  net::SimClock clock;
  persist::FlashStore flash(DeviceId(1), 1 << 20, clock);
  TierManager::Options options;
  options.mode = TierMode::kFlash;
  options.flash_slot_bytes = 64;
  options.flash_slots = 16;
  TierManager tiers(&flash, options);
  Payload wanted = MakePayload("still wanted after the restart");
  Payload stale = MakePayload("cluster re-swapped at another epoch");
  Payload corrupt = MakePayload("flash bytes rotted under this one");
  ASSERT_TRUE(tiers.AdmitFlash(SwapClusterId(1), 1, wanted.checksum,
                               SwapKey(41), wanted.text)
                  .ok());
  ASSERT_TRUE(tiers.AdmitFlash(SwapClusterId(2), 1, stale.checksum,
                               SwapKey(42), stale.text)
                  .ok());
  ASSERT_TRUE(tiers.AdmitFlash(SwapClusterId(3), 1, corrupt.checksum,
                               SwapKey(43), corrupt.text)
                  .ok());
  ASSERT_TRUE(flash.Store(SwapKey(43), "not a frame at all").ok());

  TierManager::ReconcileOutcome outcome = tiers.ReconcileAfterRestart(
      [](SwapClusterId id, uint64_t, uint32_t) {
        return id != SwapClusterId(2);  // cluster 2 moved on
      });
  EXPECT_EQ(outcome.verified, 1u);
  EXPECT_EQ(outcome.discarded, 2u);
  EXPECT_TRUE(tiers.HasFlashCopy(SwapClusterId(1), 1, wanted.checksum));
  EXPECT_EQ(tiers.FlashKey(SwapClusterId(1)), SwapKey(41));
  EXPECT_FALSE(tiers.FlashKey(SwapClusterId(2)).valid());
  EXPECT_EQ(tiers.entry_count(), 1u);
  EXPECT_FALSE(flash.Contains(SwapKey(42)));
  EXPECT_FALSE(flash.Contains(SwapKey(43)));
  // Survivors stay pinned: the durability sweep re-queues their write-back.
  EXPECT_TRUE(tiers.PendingWriteBack(SwapClusterId(1)));
}

TEST(TierManagerTest, ShrinkingBudgetsEvictsUnpinnedEntriesOnly) {
  net::SimClock clock;
  persist::FlashStore flash(DeviceId(1), 1 << 20, clock);
  TierManager::Options options;
  options.mode = TierMode::kAll;
  options.ram_bytes = 1 << 16;
  options.flash_slot_bytes = 64;
  options.flash_slots = 16;
  TierManager tiers(&flash, options);
  Payload pinned = MakePayload("pinned: write-back still owed here");
  Payload loose = MakePayload("unpinned read-cache entry");
  ASSERT_TRUE(tiers.AdmitRam(SwapClusterId(1), 1, pinned.checksum,
                             pinned.text));
  ASSERT_TRUE(tiers.AdmitRam(SwapClusterId(2), 1, loose.checksum, loose.text));
  tiers.MarkWrittenBack(SwapClusterId(2));

  tiers.set_ram_bytes(1);  // far below either entry
  EXPECT_EQ(tiers.ram_bytes_budget(), 1u);
  // The unpinned entry went; the pinned one overhangs until written back.
  TierHit hit = TierHit::kNone;
  EXPECT_FALSE(tiers.Probe(SwapClusterId(2), 1, loose.checksum, &hit).ok());
  EXPECT_TRUE(tiers.Probe(SwapClusterId(1), 1, pinned.checksum, &hit).ok());
  EXPECT_GT(tiers.ram_bytes_used(), tiers.ram_bytes_budget());

  // Same for flash slots.
  ASSERT_TRUE(tiers.AdmitFlash(SwapClusterId(3), 1, loose.checksum,
                               SwapKey(51), loose.text)
                  .ok());
  tiers.MarkWrittenBack(SwapClusterId(3));
  tiers.set_flash_slots(0);
  EXPECT_EQ(tiers.flash_slots_used(), 0u);
  EXPECT_FALSE(flash.Contains(SwapKey(51)));
}

TEST(TierManagerTest, StatsSnapshotKeysStayInFrozenOrder) {
  TierManager tiers(nullptr);
  auto snapshot = tiers.StatsSnapshot();
  const auto& keys = TierManager::StatKeys();
  ASSERT_EQ(snapshot.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(snapshot[i].first, keys[i]);
    EXPECT_EQ(snapshot[i].second, 0u);
  }
}

// ------------------------------------------------- manager integration --

swap::SwappingManager::Options TierIntegrationOptions() {
  swap::SwappingManager::Options options;
  options.replication_factor = 2;
  options.swap_in_cache_bytes = 0;  // let the tiers serve re-faults
  options.codec = "rle";
  return options;
}

/// A MiddlewareWorld with the full tier stack wired in: local flash shared
/// by the journal and the flash tier, TierManager, durability monitor.
struct TierWorld {
  explicit TierWorld(
      TierManager::Options tier_options, bool attach_tier = true,
      swap::SwappingManager::Options options = TierIntegrationOptions())
      : world(options),
        flash(MiddlewareWorld::kDevice, 1 << 20, world.network.clock()),
        journal(&flash),
        tiers(&flash, tier_options),
        monitor(world.manager, world.discovery, MiddlewareWorld::kDevice,
                world.bus, nullptr) {
    world.manager.AttachClock(&world.network.clock());
    world.manager.AttachLocalStore(&flash);
    world.manager.AttachIntentJournal(&journal);
    if (attach_tier) world.manager.AttachTierManager(&tiers);
    node_cls = RegisterNodeClass(world.rt);
    world.AddStore(2, 1 << 20);
    world.AddStore(3, 1 << 20);
    clusters = BuildClusteredList(world.rt, world.manager, node_cls, 30, 10,
                                  "head");
  }

  MiddlewareWorld world;
  persist::FlashStore flash;
  swap::IntentJournal journal;
  TierManager tiers;
  swap::DurabilityMonitor monitor;
  const runtime::ClassInfo* node_cls = nullptr;
  std::vector<SwapClusterId> clusters;
};

TierManager::Options AllTiersOptions() {
  TierManager::Options options;
  options.mode = TierMode::kAll;
  options.ram_bytes = 1 << 16;
  options.flash_slot_bytes = 512;
  options.flash_slots = 64;
  return options;
}

TEST(TierIntegrationTest, SwapOutLandsInTierAndWriteBackReachesK) {
  TierWorld w(AllTiersOptions());
  swap::SwappingManager& m = w.world.manager;
  ASSERT_TRUE(m.SwapOut(w.clusters[1]).ok());
  EXPECT_EQ(m.stats().tier_swap_outs, 1u);
  EXPECT_EQ(m.stats().replicas_placed, 0u) << "payload went to the radio";

  // The swap-out did not reach any remote store — the tier holds the only
  // copy, pinned as write-back debt.
  const swap::SwapClusterInfo* info = m.registry().Find(w.clusters[1]);
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->replicas.empty());
  EXPECT_TRUE(w.tiers.PendingWriteBack(w.clusters[1]));

  // The durability poll repays the debt: the remote group is topped up to
  // K and the tier entry unpinned into a read cache.
  w.monitor.Poll();
  info = m.registry().Find(w.clusters[1]);
  ASSERT_EQ(info->replicas.size(), 2u);
  for (const ReplicaLocation& replica : info->replicas)
    EXPECT_NE(replica.device, MiddlewareWorld::kDevice)
        << "write-back must land off-device";
  EXPECT_FALSE(w.tiers.PendingWriteBack(w.clusters[1]));
  EXPECT_EQ(w.tiers.stats().write_backs, 1u);

  // The re-fault is served by the tier, not the radio.
  const uint64_t radio_bytes_before = m.stats().bytes_swapped_in;
  ASSERT_TRUE(m.SwapIn(w.clusters[1]).ok());
  EXPECT_EQ(m.stats().tier_swap_ins, 1u);
  EXPECT_EQ(m.stats().bytes_swapped_in, radio_bytes_before);
  EXPECT_GE(w.tiers.stats().ram_hits + w.tiers.stats().flash_hits, 1u);
  auto sum = SumList(w.world.rt, "head");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 30 * 29 / 2);
}

TEST(TierIntegrationTest, FlashHitIsPromotedIntoTheRamPool) {
  TierManager::Options options = AllTiersOptions();
  options.mode = TierMode::kFlash;  // admission lands on flash
  TierWorld w(options);
  swap::SwappingManager& m = w.world.manager;
  ASSERT_TRUE(m.SwapOut(w.clusters[1]).ok());
  ASSERT_EQ(w.tiers.stats().flash_admits, 1u);

  // Open the RAM pool, then fault: the flash hit is copied up so the next
  // re-fault of the cluster runs at memory speed.
  w.tiers.set_mode(TierMode::kAll);
  ASSERT_TRUE(m.SwapIn(w.clusters[1]).ok());
  EXPECT_EQ(w.tiers.stats().flash_hits, 1u);
  EXPECT_EQ(w.tiers.stats().promotions, 1u);
  EXPECT_GT(w.tiers.ram_bytes_used(), 0u);

  ASSERT_TRUE(m.SwapOut(w.clusters[1]).ok());  // re-swap: fresh admission
  ASSERT_TRUE(m.SwapIn(w.clusters[1]).ok());
  EXPECT_GE(w.tiers.stats().ram_hits, 1u);
}

TEST(TierIntegrationTest, ModeGatesAdmissionButNeverStrandsPinnedEntries) {
  TierWorld w(AllTiersOptions());
  swap::SwappingManager& m = w.world.manager;
  ASSERT_TRUE(m.SwapOut(w.clusters[1]).ok());
  ASSERT_TRUE(w.tiers.PendingWriteBack(w.clusters[1]));

  // Flip admission off mid-flight: the pinned entry still serves probes
  // and still drains through the durability sweep.
  w.tiers.set_mode(TierMode::kOff);
  ASSERT_TRUE(m.SwapOut(w.clusters[2]).ok());
  EXPECT_EQ(m.stats().tier_swap_outs, 1u) << "admission was not gated";
  EXPECT_GT(m.stats().replicas_placed, 0u);
  w.monitor.Poll();
  EXPECT_FALSE(w.tiers.PendingWriteBack(w.clusters[1]));
  const swap::SwapClusterInfo* info = m.registry().Find(w.clusters[1]);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->replicas.size(), 2u);
  ASSERT_TRUE(m.SwapIn(w.clusters[1]).ok());
  ASSERT_TRUE(m.SwapIn(w.clusters[2]).ok());
}

TEST(TierIntegrationTest, DetachedAndModeOffWorldsAreByteIdentical) {
  // Three worlds run the same scenario: no TierManager at all, one
  // attached but switched off, and the stats/clock must not diverge — the
  // off-tier configuration is behavior-identical, and the stats snapshot
  // carries the same (zeroed) key set either way.
  auto run = [](TierWorld& w) {
    swap::SwappingManager& m = w.world.manager;
    OBISWAP_CHECK(m.SwapOut(w.clusters[0]).ok());
    OBISWAP_CHECK(m.SwapIn(w.clusters[0]).ok());
    OBISWAP_CHECK(m.SwapOut(w.clusters[1]).ok());
    w.monitor.Poll();
    OBISWAP_CHECK(m.SwapIn(w.clusters[1]).ok());
  };
  TierManager::Options off = AllTiersOptions();
  off.mode = TierMode::kOff;
  TierWorld with_tier(off, /*attach_tier=*/true);
  TierWorld without(AllTiersOptions(), /*attach_tier=*/false);
  run(with_tier);
  run(without);
  EXPECT_EQ(with_tier.world.manager.StatsJson(),
            without.world.manager.StatsJson());
  EXPECT_EQ(with_tier.world.network.clock().now_us(),
            without.world.network.clock().now_us());
  EXPECT_EQ(with_tier.tiers.entry_count(), 0u);
}

TEST(TierIntegrationTest, StatsSnapshotAlwaysCarriesTierKeys) {
  MiddlewareWorld world;  // no tier attached at all
  std::string json = world.manager.StatsJson();
  for (std::string_view key : TierManager::StatKeys()) {
    EXPECT_NE(json.find("\"" + std::string(key) + "\":"), std::string::npos)
        << key;
  }
  EXPECT_NE(json.find("\"tier_swap_outs\":0"), std::string::npos);
  EXPECT_NE(json.find("\"tier_swap_ins\":0"), std::string::npos);
}

// ------------------------------------------------ delta over a tier base --

/// Binary wire format with delta swap-out and a payload cache (the delta
/// diffs against the cached base), K = 2, flash-only tier admission.
struct DeltaTierWorld : TierWorld {
  static swap::SwappingManager::Options Options() {
    swap::SwappingManager::Options options = TierIntegrationOptions();
    options.wire_format = "binary";
    options.delta_swap_out = true;
    options.swap_in_cache_bytes = 64 * 1024;
    // Cap 1 per window, windows opened by hand: the write-back test
    // decides when the base may be written back.
    options.write_back_pacer.enabled = true;
    options.write_back_pacer.initial_cap = 1;
    return options;
  }
  static TierManager::Options FlashOnly() {
    TierManager::Options options = AllTiersOptions();
    options.mode = TierMode::kFlash;
    return options;
  }
  DeltaTierWorld() : TierWorld(FlashOnly(), /*attach_tier=*/true, Options()) {}

  /// Tier-admitted full swap-out, swap-in, one mediated write to the head
  /// (cluster 0), then the dirty swap-out that ships a delta against the
  /// tier-held full payload.
  void ShipDeltaOverTierBase() {
    swap::SwappingManager& m = world.manager;
    ASSERT_TRUE(m.SwapOut(clusters[0]).ok());
    ASSERT_EQ(m.stats().tier_swap_outs, 1u);
    ASSERT_TRUE(m.SwapIn(clusters[0]).ok());
    Value head = *world.rt.GetGlobal("head");
    ASSERT_TRUE(
        world.rt.Invoke(head.ref(), "set_value", {Value::Int(100)}).ok());
    ASSERT_TRUE(m.SwapOut(clusters[0]).ok());
    ASSERT_EQ(m.stats().delta_swap_outs, 1u);
  }
};

TEST(TierDeltaTest, DemandFaultMergesTheDeltaOverATierHeldBase) {
  DeltaTierWorld w;
  w.ShipDeltaOverTierBase();
  swap::SwappingManager& m = w.world.manager;
  const swap::SwapClusterInfo* info = m.registry().Find(w.clusters[0]);
  ASSERT_NE(info, nullptr);
  // The base document has no remote replica yet — only the tier holds it —
  // and the cluster still counts as delta-swapped.
  EXPECT_TRUE(info->DeltaSwapped());
  EXPECT_TRUE(info->base_replicas.empty());
  EXPECT_EQ(info->replicas.size(), 2u);

  // Cold cache: the fault must fetch the delta and read the base from the
  // flash tier.
  m.set_swap_in_cache_bytes(0);
  m.set_swap_in_cache_bytes(64 * 1024);
  const uint64_t flash_hits = w.tiers.stats().flash_hits;
  Status in = m.SwapIn(w.clusters[0]);
  ASSERT_TRUE(in.ok()) << in.ToString();
  EXPECT_EQ(w.tiers.stats().flash_hits, flash_hits + 1);
  auto sum = SumList(w.world.rt, "head");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 30 * 29 / 2 + 100);
}

TEST(TierDeltaTest, BaseStaysPinnedUntilItsOwnGroupReachesK) {
  DeltaTierWorld w;
  w.ShipDeltaOverTierBase();
  swap::SwappingManager& m = w.world.manager;
  const SwapClusterId id = w.clusters[0];
  const swap::SwapClusterInfo* info = m.registry().Find(id);
  ASSERT_NE(info, nullptr);
  ASSERT_EQ(info->replicas.size(), 2u);
  ASSERT_TRUE(w.tiers.PendingWriteBack(id));

  // The delta group is at K but the base group has no remote copy: a
  // repair pass whose write-back is paced away must leave the tier entry
  // pinned.
  ASSERT_TRUE(m.write_back_pacer().Admit());  // spend this window's cap
  ASSERT_TRUE(m.ReReplicate(id).ok());
  EXPECT_EQ(m.stats().write_backs_paced, 1u);
  EXPECT_TRUE(info->base_replicas.empty());
  EXPECT_TRUE(w.tiers.PendingWriteBack(id));

  // Next window: the empty base group is written back from the tier to K
  // remote replicas, and only then is the entry unpinned.
  m.write_back_pacer().BeginWindow();
  Result<size_t> added = m.ReReplicate(id);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(*added, 2u);
  EXPECT_EQ(info->base_replicas.size(), 2u);
  for (const ReplicaLocation& replica : info->base_replicas)
    EXPECT_NE(replica.device, MiddlewareWorld::kDevice);
  EXPECT_FALSE(w.tiers.PendingWriteBack(id));
  EXPECT_EQ(w.tiers.stats().write_backs, 1u);
}

// ----------------------------------------------------------- policy knobs --

TEST(TierPolicyTest, ActionsResizeAndGateTheTiers) {
  TierWorld w(AllTiersOptions());
  context::PropertyRegistry props;
  PolicyEngine engine(w.world.bus, props);
  ASSERT_TRUE(RegisterTierActions(engine, w.tiers).ok());
  auto added = engine.LoadXml(R"(
    <policies>
      <policy name="shrink-ram" on="memory-pressure">
        <action name="set-tier-bytes">
          <param name="tier" value="ram"/>
          <param name="bytes" value="8192"/>
        </action>
      </policy>
      <policy name="shrink-flash" on="memory-pressure">
        <action name="set-tier-bytes">
          <param name="tier" value="flash"/>
          <param name="bytes" value="16384"/>
        </action>
      </policy>
      <policy name="kill-tiers" on="app-background">
        <action name="set-tier-mode">
          <param name="mode" value="off"/>
        </action>
      </policy>
    </policies>)");
  ASSERT_TRUE(added.ok()) << added.status().ToString();

  w.world.bus.Publish(context::Event("memory-pressure"));
  EXPECT_EQ(w.tiers.ram_bytes_budget(), 8192u);
  EXPECT_EQ(w.tiers.flash_slots_total(), 16384u / w.tiers.flash_slot_bytes());
  EXPECT_TRUE(w.tiers.enabled());

  w.world.bus.Publish(context::Event("app-background"));
  EXPECT_EQ(w.tiers.mode(), TierMode::kOff);
  EXPECT_FALSE(w.tiers.enabled());
  EXPECT_EQ(engine.stats().action_failures, 0u);
}

TEST(TierPolicyTest, BadActionParamsFailLoudly) {
  TierWorld w(AllTiersOptions());
  context::PropertyRegistry props;
  PolicyEngine engine(w.world.bus, props);
  ASSERT_TRUE(RegisterTierActions(engine, w.tiers).ok());
  auto added = engine.LoadXml(R"(
    <policies>
      <policy name="bad-tier" on="tick-a">
        <action name="set-tier-bytes">
          <param name="tier" value="tape"/>
          <param name="bytes" value="1"/>
        </action>
      </policy>
      <policy name="bad-mode" on="tick-b">
        <action name="set-tier-mode">
          <param name="mode" value="turbo"/>
        </action>
      </policy>
    </policies>)");
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  w.world.bus.Publish(context::Event("tick-a"));
  w.world.bus.Publish(context::Event("tick-b"));
  EXPECT_EQ(engine.stats().action_failures, 2u);
  EXPECT_EQ(w.tiers.mode(), TierMode::kAll) << "a bad mode name applied";
}

}  // namespace
}  // namespace obiswap
