// Transactional Support (OBIWAN middleware component, paper Figure 1;
// design follows the loosely-coupled replicated-object transactions of
// Veiga et al., ICPADS 2004 [13]).
//
// Mobile devices work disconnected on replicas, so transactions are
// optimistic and local-first:
//
//   * a device transaction tracks reads (object version observed at
//     replication time) and writes (with undo entries);
//   * Abort rolls the replica updates back from the undo log;
//   * Commit ships the write-set to the master, which validates every
//     written object's version (first-committer-wins) and applies the
//     updates atomically, bumping versions;
//   * a conflicting commit fails with kFailedPrecondition and the local
//     transaction is rolled back, leaving the replicas consistent with
//     what was last replicated.
//
// Versions live on the master (TxMaster) and travel to devices with each
// replicated cluster; swapped-out replicas keep their versions because the
// version table is middleware state, not object state.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "replication/device.h"
#include "replication/server.h"
#include "runtime/runtime.h"
#include "swap/manager.h"

namespace obiswap::tx {

/// One field update inside a write-set.
struct FieldUpdate {
  ObjectId oid;
  std::string field;
  runtime::Value new_value;  ///< kRef updates are not supported across the
                             ///< wire; structural edits replicate instead
};

/// What the device sends at commit time.
struct WriteSet {
  uint64_t tx_id = 0;
  /// (oid, version the device's replica was based on).
  std::vector<std::pair<ObjectId, uint64_t>> validations;
  std::vector<FieldUpdate> updates;
};

/// Outcome of a master-side commit.
struct CommitResult {
  bool committed = false;
  /// Objects whose validation failed (empty when committed).
  std::vector<ObjectId> conflicts;
};

/// Master-side transaction authority: version table + atomic apply.
class TxMaster : public replication::ReplicationServer::ShipObserver {
 public:
  struct Stats {
    uint64_t commits = 0;
    uint64_t conflicts = 0;
    uint64_t updates_applied = 0;
  };

  /// Observes the replication server so every shipped object gets a
  /// version entry (version 1 on first ship). An existing ship observer is
  /// chained, so TxMaster can coexist with the DGC server: install TxMaster
  /// *after* DgcServer and it forwards to it.
  explicit TxMaster(replication::ReplicationServer& server);
  ~TxMaster() override;

  /// Current version of a master object (0 if never shipped/updated).
  uint64_t VersionOf(ObjectId oid) const;

  /// Validates and applies a write-set atomically. On any version mismatch
  /// nothing is applied and the conflicting oids are returned.
  Result<CommitResult> Commit(const WriteSet& write_set);

  // ShipObserver (chains to the previously installed observer).
  void OnShipped(DeviceId device,
                 const std::vector<runtime::Object*>& shipped) override;
  void OnReleased(DeviceId device,
                  const std::vector<ObjectId>& released) override;

  const Stats& stats() const { return stats_; }

 private:
  replication::ReplicationServer& server_;
  replication::ReplicationServer::ShipObserver* chained_;
  std::unordered_map<ObjectId, uint64_t> versions_;
  Stats stats_;
};

/// How a device commit reaches the master (direct or via the bridge).
using CommitFn = std::function<Result<CommitResult>(const WriteSet&)>;

/// In-process commit path.
CommitFn DirectCommit(TxMaster& master);

/// Device-side transaction manager. One open transaction at a time
/// (matching the single-threaded device runtime).
class TxManager {
 public:
  struct Stats {
    uint64_t begun = 0;
    uint64_t committed = 0;
    uint64_t aborted = 0;
    uint64_t conflicted = 0;
  };

  /// `swap` is optional; when present, (a) proxies resolve through the
  /// swapping layer (faulting swapped clusters in on write), and (b) the
  /// manager's victim filter pins clusters with uncommitted writes so
  /// swap-out cannot strand an undo log (the swapped XML would otherwise
  /// capture dirty state the abort could no longer reach).
  TxManager(runtime::Runtime& rt, replication::DeviceEndpoint& endpoint,
            swap::SwappingManager* swap, CommitFn commit);
  ~TxManager();

  /// Records the replica versions that arrive with replicated clusters.
  /// (Wired automatically when constructed with a DeviceEndpoint whose bus
  /// publishes cluster events; can also be fed manually in tests.)
  void NoteReplicaVersion(ObjectId oid, uint64_t version);
  uint64_t ReplicaVersionOf(ObjectId oid) const;

  /// Starts a transaction. kFailedPrecondition if one is already open.
  Status Begin();
  bool in_transaction() const { return open_; }

  /// Transactional field write on a replica (or a proxy to one): applies
  /// locally and logs an undo entry + validation intent. Only value fields
  /// (int/real/str/nil) may be written transactionally.
  Status Write(runtime::Object* obj, const std::string& field,
               runtime::Value value);

  /// Transactional read (records the version for validation).
  Result<runtime::Value> Read(runtime::Object* obj, const std::string& field);

  /// Ships the write-set to the master; on conflict rolls back locally and
  /// returns kFailedPrecondition listing the first conflicting oid.
  Status Commit();

  /// Rolls back every local write.
  Status Abort();

  const Stats& stats() const { return stats_; }

 private:
  struct UndoEntry {
    runtime::WeakRef target;
    size_t slot;
    runtime::Value old_value;
  };

  /// Resolves proxies to the real replica; faults swapped clusters in.
  Result<runtime::Object*> ResolveReplica(runtime::Object* obj);
  void RollBack();

  runtime::Runtime& rt_;
  replication::DeviceEndpoint& endpoint_;
  swap::SwappingManager* swap_;
  CommitFn commit_;
  bool open_ = false;
  uint64_t next_tx_id_ = 1;
  WriteSet pending_;
  std::vector<UndoEntry> undo_;
  std::unordered_map<ObjectId, uint64_t> replica_versions_;
  Stats stats_;
};

}  // namespace obiswap::tx
