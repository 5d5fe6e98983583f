// Tiered swap hierarchy: the fast local tiers in front of the remote stores.
//
// The paper's single-level device→store model pays full radio latency for
// every swap, yet BENCH_local_vs_remote shows device flash is 13–50× faster
// than the radio path, and compressed RAM is faster still (SWAM-style
// mobile swap stacks layer exactly these tiers). A TierManager owns the two
// device-local tiers of the stack
//
//     heap → compressed in-RAM pool → FlashStore slots → K remote replicas
//
// and the policies between them:
//
//  * placement — a swap-out payload lands in the fastest tier with
//    headroom (RAM if the compressed blob fits the byte budget, else flash
//    if enough wear-levelled slots are free, else the caller falls back to
//    normal remote placement);
//  * promotion — a demand fault probes tiers fastest-first; a flash hit is
//    copied up into the RAM pool so the next re-fault is served at memory
//    speed. The mirror image on eviction: a RAM-only read-cache entry
//    squeezed out of the pool is demoted into free flash slots rather than
//    dropped, so the working set slides down the hierarchy instead of
//    falling off it;
//  * write-back — a tier-resident payload is *pinned* (not evictable)
//    until the durability layer has topped its remote replica group up to
//    K; after MarkWrittenBack() the entry is a pure read cache and the
//    normal LRU eviction may reclaim it. Remote replicas remain the sole
//    durability tier: RAM contents are lost on crash, flash survives.
//
// The flash tier shares the device's FlashStore with the intent journal.
// Slots are fixed-size accounting units handed out least-write-count-first
// (the pintos bitmap-of-slots idiom, with a wear counter per slot), so the
// tier both bounds its share of the partition and spreads erase load.
//
// Payloads are held in store form (the frame-compressed document a remote
// store would hold), so the caller's existing decompress/verify machinery
// works on a tier hit unchanged. The RAM pool additionally wraps each
// payload in an Lz77 frame when that actually shrinks it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "persist/flash_store.h"

namespace obiswap::tier {

/// Which tiers admit new payloads. Probes and write-back always serve
/// entries that already exist, so flipping the mode at runtime never
/// strands a pinned (not yet written back) payload — it drains through the
/// normal durability sweep and simply stops being refreshed.
enum class TierMode : uint8_t {
  kOff,    ///< no tier admission (behavior-identical to no tiers)
  kRam,    ///< compressed-RAM pool only
  kFlash,  ///< flash slots only
  kAll,    ///< RAM first, flash as spill
};

const char* TierModeName(TierMode mode);
Result<TierMode> ParseTierMode(std::string_view name);

/// Which tier served a probe.
enum class TierHit : uint8_t { kNone, kRam, kFlash };

class TierManager {
 public:
  /// Codec used to squeeze RAM-pool blobs (a payload is kept raw when
  /// recompression does not shrink it).
  static constexpr const char* kRamCodec = "lz77";

  struct Options {
    /// Byte budget of the compressed-RAM pool (compressed sizes are
    /// charged). 0 disables the RAM tier.
    size_t ram_bytes = 0;
    /// Flash slot granularity: an entry occupies ceil(bytes/slot) slots.
    size_t flash_slot_bytes = 4096;
    /// Number of slots in the tier's flash partition. 0 disables the
    /// flash tier.
    size_t flash_slots = 0;
    TierMode mode = TierMode::kAll;
  };

  struct Stats {
    uint64_t ram_admits = 0;
    uint64_t ram_rejects = 0;  ///< budget full of pinned entries, or too big
    uint64_t ram_hits = 0;
    uint64_t ram_misses = 0;
    uint64_t ram_evictions = 0;
    uint64_t ram_bytes_saved = 0;  ///< raw minus compressed, admitted blobs
    uint64_t ram_entries_lost = 0;  ///< pool wipes at recovery
    uint64_t flash_admits = 0;
    uint64_t flash_rejects = 0;
    uint64_t flash_hits = 0;
    uint64_t flash_misses = 0;
    uint64_t flash_evictions = 0;
    uint64_t flash_discards = 0;  ///< self-healed or reconciled away
    uint64_t promotions = 0;      ///< flash hit copied up into RAM
    uint64_t demotions = 0;       ///< evicted RAM-only entry saved to flash
    uint64_t write_backs = 0;     ///< entries unpinned (remote group at K)
    uint64_t write_back_bytes = 0;
  };

  /// Counters and gauges in frozen key order (tier_* names), for embedding
  /// in a stats snapshot. A caller with no TierManager attached should emit
  /// StatKeys() with zero values so JSON key sets stay uniform.
  static const std::vector<std::string_view>& StatKeys();
  std::vector<std::pair<std::string_view, uint64_t>> StatsSnapshot() const;

  /// `flash` backs the flash tier (normally the device's local FlashStore,
  /// shared with the intent journal); may be null when only the RAM tier
  /// is wanted.
  TierManager(persist::FlashStore* flash, Options options);
  explicit TierManager(persist::FlashStore* flash)
      : TierManager(flash, Options()) {}

  TierMode mode() const { return options_.mode; }
  void set_mode(TierMode mode) { options_.mode = mode; }
  bool enabled() const { return options_.mode != TierMode::kOff; }
  bool ram_enabled() const {
    return enabled() && options_.mode != TierMode::kFlash &&
           options_.ram_bytes > 0;
  }
  bool flash_enabled() const {
    return enabled() && options_.mode != TierMode::kRam && flash_ != nullptr &&
           options_.flash_slots > 0;
  }
  DeviceId flash_device() const {
    return flash_ != nullptr ? flash_->device() : DeviceId();
  }

  /// Installs the mint for flash keys the tier uses when it demotes an
  /// evicted RAM-only entry down to flash (normally the manager's swap-key
  /// counter, wired up by AttachTierManager). Without a source, RAM
  /// eviction simply drops entries that have no flash copy.
  void set_key_source(std::function<SwapKey()> source) {
    key_source_ = std::move(source);
  }

  size_t ram_bytes_budget() const { return options_.ram_bytes; }
  size_t ram_bytes_used() const { return ram_bytes_used_; }
  size_t flash_slot_bytes() const { return options_.flash_slot_bytes; }
  size_t flash_slots_total() const { return options_.flash_slots; }
  size_t flash_slots_used() const { return slots_used_; }
  size_t entry_count() const { return entries_.size(); }
  uint64_t slot_wear(size_t slot) const { return slot_wear_[slot]; }

  /// Resize at runtime (policy actions). Shrinking evicts unpinned entries
  /// LRU-first until within budget; pinned entries may keep the tier over
  /// budget transiently (they drain via write-back) but block admission.
  void set_ram_bytes(size_t bytes);
  void set_flash_slots(size_t slots);

  // --- placement -----------------------------------------------------------

  /// Admits `payload` (store form) into the RAM pool, evicting unpinned
  /// entries LRU-first to make room. Replaces any older tier entry for
  /// `id` (dropping its flash copy too — the tier holds one payload epoch
  /// per cluster). The new entry is pinned until MarkWrittenBack(). False
  /// when the pool cannot make room or the tier is not admitting.
  bool AdmitRam(SwapClusterId id, uint64_t payload_epoch,
                uint32_t payload_checksum, const std::string& payload);

  /// Admits `payload` into flash under `key` (caller-minted, journaled as
  /// a replica intent by the caller before the write). Charges
  /// ceil(bytes/slot) slots chosen least-write-count-first; evicts
  /// unpinned flash entries LRU-first to free slots. kResourceExhausted
  /// when slots cannot be freed; forwards flash write errors.
  Status AdmitFlash(SwapClusterId id, uint64_t payload_epoch,
                    uint32_t payload_checksum, SwapKey key,
                    const std::string& payload);

  // --- demand path ---------------------------------------------------------

  /// Probes tiers fastest-first for the exact (epoch, checksum) payload.
  /// Returns the store-form payload and reports the serving tier. The
  /// flash probe is self-healing: a missing or unreadable flash entry is
  /// discarded (slots freed) and reported as a miss, so keys dropped
  /// behind the tier's back (e.g. recovery adopting a tier key into a
  /// replica list) can never serve stale bytes forever.
  Result<std::string> Probe(SwapClusterId id, uint64_t payload_epoch,
                            uint32_t payload_checksum, TierHit* hit);

  /// Copies a flash-served payload up into the RAM pool (best effort; the
  /// entry keeps its flash copy). No-op when the RAM tier is not admitting
  /// or the payload no longer matches the entry.
  void PromoteToRam(SwapClusterId id, const std::string& payload);

  // --- write-back ----------------------------------------------------------

  /// True when the tier holds a payload for `id` that has not yet been
  /// written back to a full remote replica group.
  bool PendingWriteBack(SwapClusterId id) const;
  /// Same, for exactly the (epoch, checksum) payload: which of a cluster's
  /// store groups the pinned entry backs.
  bool PendingWriteBack(SwapClusterId id, uint64_t payload_epoch,
                        uint32_t payload_checksum) const;

  /// The remote replica group reached K: unpin, entry becomes read cache.
  void MarkWrittenBack(SwapClusterId id);

  // --- lifecycle -----------------------------------------------------------

  /// Drops every tier copy for `id` (flash key dropped, slots freed).
  /// Called when the cluster's payload is superseded, rolled back, or the
  /// cluster dies.
  void Release(SwapClusterId id);

  /// Release scoped to one payload generation: drops the tier copy only if
  /// it holds exactly (epoch, checksum). Lets an image invalidation retire
  /// its own payload without touching a newer admission for the same
  /// cluster.
  void Release(SwapClusterId id, uint64_t payload_epoch,
               uint32_t payload_checksum);

  /// Recovery: the RAM pool does not survive a restart. Wipes all RAM
  /// copies (entries that also live on flash survive as flash-only) and
  /// returns the number of payloads whose *only* tier copy was RAM.
  size_t DropRamPoolForRecovery();

  struct ReconcileOutcome {
    size_t verified = 0;   ///< flash entries re-read and checksum-verified
    size_t discarded = 0;  ///< entries dropped (stale, missing, or corrupt)
  };

  /// Recovery: reconciles flash-tier state against the post-replay world.
  /// `still_wanted(id, epoch, checksum)` says whether the registry still
  /// has a swapped cluster (or retained image) at exactly that payload;
  /// entries that are not wanted, or whose flash bytes are missing or fail
  /// frame/checksum verification, are discarded and their slots freed.
  /// Survivors stay pinned so the durability sweep re-queues their
  /// write-back.
  ReconcileOutcome ReconcileAfterRestart(
      const std::function<bool(SwapClusterId, uint64_t, uint32_t)>&
          still_wanted);

  /// True when the tier holds a verified-on-flash copy of exactly this
  /// payload (used by recovery to decide whether a replica-less swapped
  /// cluster is actually lost).
  bool HasFlashCopy(SwapClusterId id, uint64_t payload_epoch,
                    uint32_t payload_checksum) const;

  /// The flash key the tier owns for `id` (invalid when none). Recovery
  /// uses it to strip replica-list aliases of tier-owned flash entries.
  SwapKey FlashKey(SwapClusterId id) const;

  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    uint64_t payload_epoch = 0;
    uint32_t payload_checksum = 0;
    size_t payload_bytes = 0;  ///< store-form size
    bool pinned = true;        ///< write-back to K remote still owed
    uint64_t last_use = 0;     ///< LRU tick
    // RAM copy (empty string = not RAM-resident).
    std::string ram_blob;
    bool ram_wrapped = false;  ///< blob is an extra Lz77 frame around payload
    // Flash copy (invalid key = not flash-resident).
    SwapKey flash_key;
    std::vector<size_t> slots;
  };

  void Touch(Entry& entry) { entry.last_use = ++use_seq_; }
  /// LRU unpinned entry currently resident in the given tier; invalid id
  /// if none. Cost-aware: entries also resident in the *other* tier are
  /// preferred (evicting them loses nothing), sole copies go last.
  SwapClusterId EvictionVictim(bool ram) const;
  /// Best-effort save of an evicted RAM-only entry into free flash slots
  /// (never cascades into evicting another entry's flash copy). Demoted
  /// entries are always unpinned — pinned entries are not evictable — so
  /// the skipped replica-intent journaling costs nothing: their payload
  /// already reached K remote replicas.
  bool DemoteToFlash(Entry& entry);
  void DropRamCopy(Entry& entry);
  void DropFlashCopy(Entry& entry);  ///< drops the key, frees the slots
  void EraseIfEmpty(SwapClusterId id);
  /// Least-worn `count` free slots; empty vector when not enough are free.
  std::vector<size_t> AllocateSlots(size_t count);
  void FreeSlots(const std::vector<size_t>& slots);
  bool EnsureRamRoom(size_t need);
  bool EnsureFlashRoom(size_t need_slots);

  persist::FlashStore* flash_;
  Options options_;
  std::unordered_map<SwapClusterId, Entry> entries_;
  size_t ram_bytes_used_ = 0;
  size_t slots_used_ = 0;
  std::vector<uint8_t> slot_used_;
  std::vector<uint64_t> slot_wear_;
  uint64_t use_seq_ = 0;
  std::function<SwapKey()> key_source_;
  Stats stats_;
};

}  // namespace obiswap::tier
