#include "tier/tier.h"

#include <algorithm>
#include <limits>

#include "common/checksum.h"
#include "compress/codec.h"

namespace obiswap::tier {

namespace {
/// Puts a store-form payload into its RAM-pool form, `blob`. A payload the
/// pool's own codec already packed is held as it is: a second pass over
/// that codec's output almost never shrinks it, so it is not tried. Any
/// other payload is squeezed once more, and kept raw when that does not
/// pay. Returns whether it was squeezed: the blob self-describes via this
/// wrapped flag, not the frame, because the payload is itself a frame.
bool SqueezeForRam(const std::string& payload, std::string& blob) {
  const compress::Codec& codec = *compress::FindCodec(TierManager::kRamCodec);
  Result<compress::FrameHeader> header = compress::ReadFrameHeader(payload);
  if (!header.ok() || header->codec != codec.name()) {
    Result<std::string> squeezed = compress::FrameCompress(codec, payload);
    if (squeezed.ok() && squeezed->size() < payload.size()) {
      blob = std::move(*squeezed);
      return true;
    }
  }
  blob = payload;
  return false;
}
}  // namespace

const char* TierModeName(TierMode mode) {
  switch (mode) {
    case TierMode::kOff:
      return "off";
    case TierMode::kRam:
      return "ram";
    case TierMode::kFlash:
      return "flash";
    case TierMode::kAll:
      return "all";
  }
  return "?";
}

Result<TierMode> ParseTierMode(std::string_view name) {
  if (name == "off") return TierMode::kOff;
  if (name == "ram") return TierMode::kRam;
  if (name == "flash") return TierMode::kFlash;
  if (name == "all") return TierMode::kAll;
  return InvalidArgumentError("unknown tier mode '" + std::string(name) +
                              "' (want off|ram|flash|all)");
}

const std::vector<std::string_view>& TierManager::StatKeys() {
  static const std::vector<std::string_view> kKeys = {
      "tier_ram_admits",       "tier_ram_rejects",
      "tier_ram_hits",         "tier_ram_misses",
      "tier_ram_evictions",    "tier_ram_bytes_saved",
      "tier_ram_entries_lost", "tier_ram_bytes",
      "tier_flash_admits",     "tier_flash_rejects",
      "tier_flash_hits",       "tier_flash_misses",
      "tier_flash_evictions",  "tier_flash_discards",
      "tier_flash_slots_used", "tier_promotions",
      "tier_demotions",        "tier_write_backs",
      "tier_write_back_bytes", "tier_pending_write_backs",
  };
  return kKeys;
}

std::vector<std::pair<std::string_view, uint64_t>> TierManager::StatsSnapshot()
    const {
  uint64_t pending = 0;
  for (const auto& [id, entry] : entries_) {
    (void)id;
    if (entry.pinned) ++pending;
  }
  const std::vector<std::string_view>& keys = StatKeys();
  const uint64_t values[] = {
      stats_.ram_admits,       stats_.ram_rejects,
      stats_.ram_hits,         stats_.ram_misses,
      stats_.ram_evictions,    stats_.ram_bytes_saved,
      stats_.ram_entries_lost, ram_bytes_used_,
      stats_.flash_admits,     stats_.flash_rejects,
      stats_.flash_hits,       stats_.flash_misses,
      stats_.flash_evictions,  stats_.flash_discards,
      slots_used_,             stats_.promotions,
      stats_.demotions,        stats_.write_backs,
      stats_.write_back_bytes, pending,
  };
  static_assert(sizeof(values) / sizeof(values[0]) == 20,
                "tier stat keys and values must stay in lockstep");
  std::vector<std::pair<std::string_view, uint64_t>> out;
  out.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) out.emplace_back(keys[i], values[i]);
  return out;
}

TierManager::TierManager(persist::FlashStore* flash, Options options)
    : flash_(flash), options_(std::move(options)) {
  if (flash_ == nullptr) options_.flash_slots = 0;
  if (options_.flash_slot_bytes == 0) options_.flash_slot_bytes = 4096;
  slot_used_.assign(options_.flash_slots, 0);
  slot_wear_.assign(options_.flash_slots, 0);
}

void TierManager::set_ram_bytes(size_t bytes) {
  options_.ram_bytes = bytes;
  while (ram_bytes_used_ > options_.ram_bytes) {
    SwapClusterId victim = EvictionVictim(/*ram=*/true);
    if (!victim.valid()) break;  // pinned overhang drains via write-back
    Entry& entry = entries_.at(victim);
    if (!entry.flash_key.valid()) DemoteToFlash(entry);
    DropRamCopy(entry);
    ++stats_.ram_evictions;
    EraseIfEmpty(victim);
  }
}

void TierManager::set_flash_slots(size_t slots) {
  // Growing keeps existing wear history; shrinking may strand used slots
  // past the new end — evict unpinned flash entries until within bounds.
  options_.flash_slots = slots;
  if (slot_used_.size() < slots) {
    slot_used_.resize(slots, 0);
    slot_wear_.resize(slots, 0);
  }
  auto over_bounds = [&] {
    for (size_t i = slots; i < slot_used_.size(); ++i)
      if (slot_used_[i]) return true;
    return false;
  };
  while (slots_used_ > slots || over_bounds()) {
    SwapClusterId victim = EvictionVictim(/*ram=*/false);
    if (!victim.valid()) break;
    Entry& entry = entries_.at(victim);
    DropFlashCopy(entry);
    ++stats_.flash_evictions;
    EraseIfEmpty(victim);
  }
  if (slot_used_.size() > slots && !over_bounds()) {
    slot_used_.resize(slots);
    slot_wear_.resize(slots);
  }
}

SwapClusterId TierManager::EvictionVictim(bool ram) const {
  // Cost-aware LRU: a victim that is also resident in the other tier
  // loses nothing when this tier's copy goes, so dual-resident entries
  // are evicted before any sole copy (LRU order within each class).
  SwapClusterId dual_victim, sole_victim;
  uint64_t dual_oldest = std::numeric_limits<uint64_t>::max();
  uint64_t sole_oldest = std::numeric_limits<uint64_t>::max();
  for (const auto& [id, entry] : entries_) {
    if (entry.pinned) continue;
    const bool resident = ram ? !entry.ram_blob.empty() : entry.flash_key.valid();
    if (!resident) continue;
    const bool dual = !entry.ram_blob.empty() && entry.flash_key.valid();
    SwapClusterId& victim = dual ? dual_victim : sole_victim;
    uint64_t& oldest = dual ? dual_oldest : sole_oldest;
    if (entry.last_use < oldest) {
      oldest = entry.last_use;
      victim = id;
    }
  }
  return dual_victim.valid() ? dual_victim : sole_victim;
}

bool TierManager::DemoteToFlash(Entry& entry) {
  if (!flash_enabled() || !key_source_ || entry.flash_key.valid()) return false;
  if (entry.ram_blob.empty()) return false;
  // Recover the store-form payload the flash tier holds (the pool may have
  // wrapped it in an extra frame).
  std::string payload;
  if (!entry.ram_wrapped) {
    payload = entry.ram_blob;
  } else {
    Result<std::string> unwrapped = compress::FrameDecompress(entry.ram_blob);
    if (!unwrapped.ok()) return false;
    payload = std::move(*unwrapped);
  }
  if (payload.empty()) return false;
  const size_t need =
      (payload.size() + options_.flash_slot_bytes - 1) / options_.flash_slot_bytes;
  // Opportunistic only: demotion takes free slots or nothing. Evicting
  // another entry's flash copy to make room would just move the loss.
  if (options_.flash_slots - slots_used_ < need) return false;
  std::vector<size_t> slots = AllocateSlots(need);
  if (slots.size() != need) return false;
  const SwapKey key = key_source_();
  if (!flash_->Store(key, payload).ok()) {
    FreeSlots(slots);
    return false;
  }
  entry.flash_key = key;
  entry.slots = std::move(slots);
  ++stats_.demotions;
  return true;
}

void TierManager::DropRamCopy(Entry& entry) {
  if (entry.ram_blob.empty()) return;
  ram_bytes_used_ -= entry.ram_blob.size();
  entry.ram_blob.clear();
  entry.ram_blob.shrink_to_fit();
  entry.ram_wrapped = false;
}

void TierManager::DropFlashCopy(Entry& entry) {
  if (!entry.flash_key.valid()) return;
  if (flash_ != nullptr) (void)flash_->Drop(entry.flash_key);
  FreeSlots(entry.slots);
  entry.slots.clear();
  entry.flash_key = SwapKey();
}

void TierManager::EraseIfEmpty(SwapClusterId id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  if (it->second.ram_blob.empty() && !it->second.flash_key.valid())
    entries_.erase(it);
}

std::vector<size_t> TierManager::AllocateSlots(size_t count) {
  std::vector<size_t> free;
  for (size_t i = 0; i < options_.flash_slots && i < slot_used_.size(); ++i)
    if (!slot_used_[i]) free.push_back(i);
  if (free.size() < count) return {};
  // Least-write-count-first: spread erase load across the partition
  // (ties broken by slot index, keeping placement deterministic). The
  // order is strict, so ordering only the `count` slots kept picks the
  // same slots as a full sort.
  std::partial_sort(free.begin(), free.begin() + count, free.end(),
                    [&](size_t a, size_t b) {
                      if (slot_wear_[a] != slot_wear_[b])
                        return slot_wear_[a] < slot_wear_[b];
                      return a < b;
                    });
  free.resize(count);
  for (size_t slot : free) {
    slot_used_[slot] = 1;
    ++slot_wear_[slot];
    ++slots_used_;
  }
  return free;
}

void TierManager::FreeSlots(const std::vector<size_t>& slots) {
  for (size_t slot : slots) {
    if (slot < slot_used_.size() && slot_used_[slot]) {
      slot_used_[slot] = 0;
      --slots_used_;
    }
  }
}

bool TierManager::EnsureRamRoom(size_t need) {
  if (need > options_.ram_bytes) return false;
  while (ram_bytes_used_ + need > options_.ram_bytes) {
    SwapClusterId victim = EvictionVictim(/*ram=*/true);
    if (!victim.valid()) return false;
    Entry& entry = entries_.at(victim);
    if (!entry.flash_key.valid()) DemoteToFlash(entry);
    DropRamCopy(entry);
    ++stats_.ram_evictions;
    EraseIfEmpty(victim);
  }
  return true;
}

bool TierManager::EnsureFlashRoom(size_t need_slots) {
  if (need_slots > options_.flash_slots) return false;
  auto free_count = [&] { return options_.flash_slots - slots_used_; };
  while (free_count() < need_slots) {
    SwapClusterId victim = EvictionVictim(/*ram=*/false);
    if (!victim.valid()) return false;
    Entry& entry = entries_.at(victim);
    DropFlashCopy(entry);
    ++stats_.flash_evictions;
    EraseIfEmpty(victim);
  }
  return true;
}

bool TierManager::AdmitRam(SwapClusterId id, uint64_t payload_epoch,
                           uint32_t payload_checksum,
                           const std::string& payload) {
  if (!ram_enabled()) return false;
  std::string blob;
  const bool wrapped = SqueezeForRam(payload, blob);
  // One payload epoch per cluster: a newer admission supersedes every
  // older tier copy, including a flash one under a now-stale key — release
  // first so the superseded copy's budget does not block its replacement.
  Release(id);
  if (!EnsureRamRoom(blob.size())) {
    ++stats_.ram_rejects;
    return false;
  }
  Entry& entry = entries_[id];
  entry.payload_epoch = payload_epoch;
  entry.payload_checksum = payload_checksum;
  entry.payload_bytes = payload.size();
  entry.pinned = true;
  ram_bytes_used_ += blob.size();
  if (wrapped) stats_.ram_bytes_saved += payload.size() - blob.size();
  entry.ram_blob = std::move(blob);
  entry.ram_wrapped = wrapped;
  Touch(entry);
  ++stats_.ram_admits;
  return true;
}

Status TierManager::AdmitFlash(SwapClusterId id, uint64_t payload_epoch,
                               uint32_t payload_checksum, SwapKey key,
                               const std::string& payload) {
  if (!flash_enabled()) {
    ++stats_.flash_rejects;
    return FailedPreconditionError("flash tier is not admitting");
  }
  const size_t need = std::max<size_t>(
      (payload.size() + options_.flash_slot_bytes - 1) /
          options_.flash_slot_bytes,
      1);
  Release(id);  // a newer payload supersedes every older tier copy
  if (!EnsureFlashRoom(need)) {
    ++stats_.flash_rejects;
    return ResourceExhaustedError("flash tier out of slots (" +
                                  std::to_string(slots_used_) + "/" +
                                  std::to_string(options_.flash_slots) +
                                  " used)");
  }
  Status stored = flash_->Store(key, payload);
  if (!stored.ok()) {
    ++stats_.flash_rejects;
    return stored;
  }
  Entry& entry = entries_[id];
  entry.payload_epoch = payload_epoch;
  entry.payload_checksum = payload_checksum;
  entry.payload_bytes = payload.size();
  entry.pinned = true;
  entry.flash_key = key;
  entry.slots = AllocateSlots(need);
  Touch(entry);
  ++stats_.flash_admits;
  return OkStatus();
}

Result<std::string> TierManager::Probe(SwapClusterId id, uint64_t payload_epoch,
                                       uint32_t payload_checksum,
                                       TierHit* hit) {
  *hit = TierHit::kNone;
  auto it = entries_.find(id);
  Entry* entry = it != entries_.end() ? &it->second : nullptr;
  const bool match = entry != nullptr &&
                     entry->payload_epoch == payload_epoch &&
                     entry->payload_checksum == payload_checksum;
  // RAM first: memory speed, no clock charge.
  if (match && !entry->ram_blob.empty()) {
    std::string payload;
    if (!entry->ram_wrapped) {
      payload = entry->ram_blob;
    } else {
      Result<std::string> unwrapped = compress::FrameDecompress(entry->ram_blob);
      if (unwrapped.ok()) payload = std::move(*unwrapped);
    }
    if (!payload.empty()) {
      Touch(*entry);
      ++stats_.ram_hits;
      *hit = TierHit::kRam;
      return payload;
    }
    // Unreadable RAM copy: self-heal by dropping it and falling through.
    DropRamCopy(*entry);
  }
  ++stats_.ram_misses;
  if (match && entry->flash_key.valid()) {
    Result<std::string> fetched = flash_->Fetch(entry->flash_key);
    if (fetched.ok()) {
      Touch(*entry);
      ++stats_.flash_hits;
      *hit = TierHit::kFlash;
      return fetched;
    }
    // Missing or unreadable behind our back (e.g. recovery adopted the key
    // into a replica list and a later drop consumed it): discard the
    // copy so it can never mask the authoritative replicas.
    DropFlashCopy(*entry);
    ++stats_.flash_discards;
    EraseIfEmpty(id);
  }
  ++stats_.flash_misses;
  return NotFoundError("no tier copy of swap-cluster " + id.ToString() +
                       " at epoch " + std::to_string(payload_epoch));
}

void TierManager::PromoteToRam(SwapClusterId id, const std::string& payload) {
  if (!ram_enabled()) return;
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  Entry& entry = it->second;
  if (!entry.ram_blob.empty()) return;  // already RAM-resident
  if (payload.size() != entry.payload_bytes) return;
  std::string blob;
  const bool wrapped = SqueezeForRam(payload, blob);
  if (!EnsureRamRoom(blob.size())) return;
  ram_bytes_used_ += blob.size();
  if (wrapped) stats_.ram_bytes_saved += payload.size() - blob.size();
  entry.ram_blob = std::move(blob);
  entry.ram_wrapped = wrapped;
  Touch(entry);
  ++stats_.promotions;
}

bool TierManager::PendingWriteBack(SwapClusterId id) const {
  auto it = entries_.find(id);
  return it != entries_.end() && it->second.pinned;
}

bool TierManager::PendingWriteBack(SwapClusterId id, uint64_t payload_epoch,
                                   uint32_t payload_checksum) const {
  auto it = entries_.find(id);
  return it != entries_.end() && it->second.pinned &&
         it->second.payload_epoch == payload_epoch &&
         it->second.payload_checksum == payload_checksum;
}

void TierManager::MarkWrittenBack(SwapClusterId id) {
  auto it = entries_.find(id);
  if (it == entries_.end() || !it->second.pinned) return;
  it->second.pinned = false;
  ++stats_.write_backs;
  stats_.write_back_bytes += it->second.payload_bytes;
}

void TierManager::Release(SwapClusterId id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  DropRamCopy(it->second);
  DropFlashCopy(it->second);
  entries_.erase(it);
}

void TierManager::Release(SwapClusterId id, uint64_t payload_epoch,
                          uint32_t payload_checksum) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  if (it->second.payload_epoch != payload_epoch ||
      it->second.payload_checksum != payload_checksum)
    return;
  Release(id);
}

size_t TierManager::DropRamPoolForRecovery() {
  size_t ram_only = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    Entry& entry = it->second;
    if (!entry.ram_blob.empty()) {
      DropRamCopy(entry);
      if (!entry.flash_key.valid()) {
        ++ram_only;
        ++stats_.ram_entries_lost;
        it = entries_.erase(it);
        continue;
      }
    }
    ++it;
  }
  return ram_only;
}

TierManager::ReconcileOutcome TierManager::ReconcileAfterRestart(
    const std::function<bool(SwapClusterId, uint64_t, uint32_t)>&
        still_wanted) {
  ReconcileOutcome outcome;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const SwapClusterId id = it->first;
    Entry& entry = it->second;
    bool keep = false;
    if (entry.flash_key.valid() &&
        still_wanted(id, entry.payload_epoch, entry.payload_checksum)) {
      Result<std::string> raw =
          flash_ != nullptr ? flash_->Fetch(entry.flash_key)
                            : Result<std::string>(
                                  UnavailableError("no flash partition"));
      if (raw.ok()) {
        Result<std::string> text = compress::FrameDecompress(*raw);
        keep = text.ok() && Adler32(*text) == entry.payload_checksum;
      }
    }
    if (keep) {
      ++outcome.verified;
      ++it;
    } else {
      DropFlashCopy(entry);
      ++stats_.flash_discards;
      ++outcome.discarded;
      it = entries_.erase(it);
    }
  }
  return outcome;
}

SwapKey TierManager::FlashKey(SwapClusterId id) const {
  auto it = entries_.find(id);
  return it != entries_.end() ? it->second.flash_key : SwapKey();
}

bool TierManager::HasFlashCopy(SwapClusterId id, uint64_t payload_epoch,
                               uint32_t payload_checksum) const {
  auto it = entries_.find(id);
  return it != entries_.end() && it->second.flash_key.valid() &&
         it->second.payload_epoch == payload_epoch &&
         it->second.payload_checksum == payload_checksum;
}

}  // namespace obiswap::tier
