// Write-ahead intent journal for the swap pipeline.
//
// Every multi-step swap operation (swap-out, clean swap-out, swap-in, GC
// drop, replica maintenance) mutates shared state in several places: store
// entries on remote devices, the replacement-object, every inbound proxy,
// the registry record. A process kill between any two of those steps leaves
// the heap torn and — worse — leaks store keys nobody remembers. The
// journal makes each operation recoverable by persisting its *intent*
// before the side effects happen:
//
//   begin(op, cluster, swap_epoch, checksum, member oids, proxy oids)
//   replica-intent(device, key)   — BEFORE the store RPC, one per replica
//   progress(marker)              — optional stage breadcrumbs
//   commit / abort                — the operation's durable outcome
//
// An uncommitted operation found at restart is rolled back or forward by
// SwappingManager::Recover() using exactly these records (see the recovery
// decision table in ARCHITECTURE.md). Because every replica intent is
// journaled before the matching Store RPC, an orphaned store entry is
// always reclaimable.
//
// Persistence rides persist::FlashStore's dumb store/fetch/drop contract
// under one reserved key — the journal pays flash wear and virtual-time
// write costs like any other flash client (that cost is the "journal
// overhead" bench/crash_recovery bounds at ≤5% of the swap hot path).
// The on-flash image is:
//
//   "OBJL" varint(version) varint(fence_epoch)   — header
//   { varint(body_len) body crc32_le(body) }*    — records
//
// Records are CRC-guarded and epoch-fenced: a torn tail (truncation,
// bit-flip) fails its CRC or length check and parsing stops there — the
// intact prefix is recovered, never a crash; a record whose epoch differs
// from the header's is skipped as stale. Each restart bumps the fence
// epoch. Committed/aborted operations are compacted away once the record
// count passes a bound, so the image stays proportional to in-flight work.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "persist/flash_store.h"
#include "swap/swap_cluster.h"

namespace obiswap::swap {

/// The journaled operation kinds.
enum class IntentOp : uint8_t {
  kSwapOut = 1,
  kCleanSwapOut = 2,
  kSwapIn = 3,
  kDrop = 4,
  kReplicaMaintenance = 5,  ///< re-replication / evacuation placements
  /// Swap-out shipping a binary delta against a retained base image. The
  /// replica intents are the DELTA placements only: the base replicas
  /// already exist (journaled by the swap that placed them) and survive in
  /// the cluster's registry record, which recovery runs against in-process.
  kDeltaSwapOut = 6,
};

const char* IntentOpName(IntentOp op);

enum class RecordType : uint8_t {
  kBegin = 1,
  kReplicaIntent = 2,
  kProgress = 3,
  kCommit = 4,
  kAbort = 5,
};

/// One decoded journal record. Every field is always encoded (they are
/// small varints); unused ones are zero.
struct JournalRecord {
  uint64_t epoch = 0;  ///< fence epoch the record was written under
  uint64_t seq = 0;    ///< operation sequence id (shared by an op's records)
  RecordType type = RecordType::kBegin;
  IntentOp op = IntentOp::kSwapOut;  ///< meaningful on kBegin
  uint32_t cluster = 0;
  uint64_t swap_epoch = 0;
  uint32_t payload_checksum = 0;
  uint64_t device = 0;    ///< kReplicaIntent
  uint64_t key = 0;       ///< kReplicaIntent
  uint64_t progress = 0;  ///< kProgress stage marker
  std::vector<uint64_t> member_oids;  ///< kBegin: serialized member identity
  std::vector<uint64_t> proxy_oids;   ///< kBegin: inbound proxies to restore
  /// kBegin, kDeltaSwapOut only: the payload epoch and Adler-32 of the full
  /// base document the shipped delta applies to. Absent (zero) in records
  /// written by format version 1.
  uint64_t base_epoch = 0;
  uint32_t base_checksum = 0;
};

class IntentJournal {
 public:
  /// Reserved flash key the image persists under. High bits set so it
  /// can never collide with SwappingManager::NextKey (device<<32 | n).
  static constexpr SwapKey kKey = SwapKey(0xFFFFFFFFFFFF0001ull);

  struct Options {
    /// Compaction threshold: once the in-memory image holds more than this
    /// many records, records of completed (committed/aborted) operations
    /// are dropped at the next completion. The default (0) compacts at
    /// every completion, keeping the image — and every flash write of it —
    /// proportional to in-flight work; that bound is what keeps the
    /// journal inside the hot path's overhead budget (a begin record
    /// carries every member oid, so retained history is expensive to
    /// rewrite). Raise it only to keep completed history inspectable.
    size_t compact_record_limit = 0;
  };

  struct Stats {
    uint64_t appends = 0;           ///< records appended
    uint64_t persists = 0;          ///< flash writes of the image
    uint64_t persisted_bytes = 0;   ///< bytes written to flash, cumulative
    uint64_t persist_failures = 0;  ///< flash rejected the image
    uint64_t compactions = 0;
    uint64_t append_us = 0;  ///< virtual flash time spent persisting
    uint64_t records_skipped = 0;   ///< bad/stale records seen by loads
    uint64_t bad_tail_bytes = 0;    ///< torn bytes discarded by loads
  };

  /// The folded view of one operation that never committed: everything
  /// Recover() needs to roll it back or forward.
  struct PendingOp {
    uint64_t seq = 0;
    IntentOp op = IntentOp::kSwapOut;
    SwapClusterId cluster;
    uint64_t swap_epoch = 0;
    uint32_t payload_checksum = 0;
    std::vector<ObjectId> member_oids;
    std::vector<ObjectId> proxy_oids;
    std::vector<ReplicaLocation> replica_intents;
    uint64_t progress = 0;  ///< last progress marker, 0 if none
    uint64_t base_epoch = 0;     ///< kDeltaSwapOut: base payload epoch
    uint32_t base_checksum = 0;  ///< kDeltaSwapOut: base payload Adler-32
  };

  explicit IntentJournal(persist::FlashStore* store);
  IntentJournal(persist::FlashStore* store, Options options);

  // --- write path ---------------------------------------------------------
  // Appends buffer in memory; Persist() writes the image through to flash.
  // The manager persists at WAL boundaries: after begin+intents (before
  // the first side effect) and on commit/abort.

  /// Opens a new operation; returns its seq. The base fields are only
  /// meaningful for kDeltaSwapOut (zero otherwise).
  uint64_t BeginOp(IntentOp op, SwapClusterId cluster, uint64_t swap_epoch,
                   uint32_t payload_checksum,
                   std::vector<uint64_t> member_oids,
                   std::vector<uint64_t> proxy_oids, uint64_t base_epoch = 0,
                   uint32_t base_checksum = 0);
  /// Records the intent to place a replica. MUST be persisted before the
  /// matching Store RPC or the key can leak.
  void NoteReplicaIntent(uint64_t seq, DeviceId device, SwapKey key);
  void NoteProgress(uint64_t seq, uint64_t marker);
  /// Seals the operation as done (Commit) or cleanly unwound (Abort) and
  /// persists; both make Recover() ignore it. Compaction may run here.
  Status Commit(uint64_t seq);
  Status Abort(uint64_t seq);
  /// Writes the buffered image to flash if dirty.
  Status Persist();

  // --- recovery path ------------------------------------------------------
  /// Loads the persisted image (tolerating a torn tail), folds uncommitted
  /// operations, resets the in-memory state to empty, and bumps the fence
  /// epoch past the stored one. Degrades gracefully: an unreadable or
  /// corrupt image yields an empty op list (counted in stats), never an
  /// error-crash. kNotFound (no image) is not an error.
  Result<std::vector<PendingOp>> LoadForRecovery();
  /// Empties the journal and removes the flash entry (post-recovery).
  Status Clear();

  // --- introspection / fuzz hooks -----------------------------------------
  static void EncodeRecord(const JournalRecord& record, std::string* out);
  struct ParseResult {
    uint64_t epoch = 0;  ///< header fence epoch (0 if header unreadable)
    std::vector<JournalRecord> records;
    uint64_t skipped = 0;         ///< CRC/decode/stale-epoch rejects
    uint64_t bad_tail_bytes = 0;  ///< bytes abandoned after the last good record
  };
  /// Pure parser over raw image bytes; never fails, returns what survived.
  static ParseResult Parse(std::string_view bytes);

  uint64_t epoch() const { return epoch_; }
  size_t record_count() const { return records_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  void Append(JournalRecord record);
  void CompactIfOversized();
  std::string EncodeImage() const;

  persist::FlashStore* store_;
  Options options_;
  uint64_t epoch_ = 1;
  uint64_t next_seq_ = 1;
  bool dirty_ = false;
  std::vector<JournalRecord> records_;
  Stats stats_;
};

}  // namespace obiswap::swap
