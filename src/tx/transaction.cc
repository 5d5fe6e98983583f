#include "tx/transaction.h"

#include <algorithm>
#include <unordered_set>

#include "swap/proxy.h"

namespace obiswap::tx {

using runtime::Object;
using runtime::ObjectKind;
using runtime::Value;
using runtime::ValueKind;

// ---------------------------------------------------------------------------
// TxMaster
// ---------------------------------------------------------------------------

TxMaster::TxMaster(replication::ReplicationServer& server)
    : server_(server), chained_(server.ship_observer()) {
  server_.SetShipObserver(this);
  server_.SetVersionProvider([this](ObjectId oid) { return VersionOf(oid); });
}

TxMaster::~TxMaster() {
  server_.SetShipObserver(chained_);
  server_.SetVersionProvider(nullptr);
}

uint64_t TxMaster::VersionOf(ObjectId oid) const {
  auto it = versions_.find(oid);
  return it == versions_.end() ? 0 : it->second;
}

void TxMaster::OnShipped(DeviceId device,
                         const std::vector<Object*>& shipped) {
  for (Object* master : shipped) {
    versions_.emplace(master->oid(), 1);  // first ship seeds version 1
  }
  if (chained_ != nullptr) chained_->OnShipped(device, shipped);
}

void TxMaster::OnReleased(DeviceId device,
                          const std::vector<ObjectId>& released) {
  if (chained_ != nullptr) chained_->OnReleased(device, released);
}

Result<CommitResult> TxMaster::Commit(const WriteSet& write_set) {
  CommitResult result;
  // Phase 1: validate every read/written version.
  for (const auto& [oid, version] : write_set.validations) {
    if (VersionOf(oid) != version) result.conflicts.push_back(oid);
  }
  if (!result.conflicts.empty()) {
    ++stats_.conflicts;
    result.committed = false;
    return result;
  }
  // Phase 2: locate every target (all-or-nothing before mutating).
  std::vector<Object*> targets;
  targets.reserve(write_set.updates.size());
  for (const FieldUpdate& update : write_set.updates) {
    if (update.new_value.is_ref())
      return InvalidArgumentError(
          "transactional writes are value-only (structural changes "
          "replicate through the object graph)");
    Object* target = server_.FindByOid(update.oid);
    if (target == nullptr)
      return NotFoundError("no master object with oid " +
                           update.oid.ToString());
    targets.push_back(target);
  }
  // Phase 3: apply and bump versions.
  std::unordered_set<uint64_t> bumped;
  for (size_t i = 0; i < write_set.updates.size(); ++i) {
    const FieldUpdate& update = write_set.updates[i];
    OBISWAP_RETURN_IF_ERROR(server_.rt().SetField(
        targets[i], update.field, update.new_value));
    if (bumped.insert(update.oid.value()).second) ++versions_[update.oid];
    ++stats_.updates_applied;
  }
  ++stats_.commits;
  result.committed = true;
  return result;
}

CommitFn DirectCommit(TxMaster& master) {
  return [&master](const WriteSet& write_set) {
    return master.Commit(write_set);
  };
}

// ---------------------------------------------------------------------------
// TxManager
// ---------------------------------------------------------------------------

TxManager::TxManager(runtime::Runtime& rt,
                     replication::DeviceEndpoint& endpoint,
                     swap::SwappingManager* swap, CommitFn commit)
    : rt_(rt), endpoint_(endpoint), swap_(swap), commit_(std::move(commit)) {
  endpoint_.SetVersionSink([this](ObjectId oid, uint64_t version) {
    NoteReplicaVersion(oid, version);
  });
  if (swap_ != nullptr) {
    swap_->SetVictimFilter([this](SwapClusterId id) {
      if (!open_) return false;
      // Pin any cluster that holds a written replica.
      for (const UndoEntry& entry : undo_) {
        Object* target = entry.target->get();
        if (target != nullptr && target->swap_cluster() == id) return true;
      }
      return false;
    });
  }
}

TxManager::~TxManager() {
  endpoint_.SetVersionSink(nullptr);
  if (swap_ != nullptr) swap_->SetVictimFilter(nullptr);
}

void TxManager::NoteReplicaVersion(ObjectId oid, uint64_t version) {
  replica_versions_[oid] = version;
}

uint64_t TxManager::ReplicaVersionOf(ObjectId oid) const {
  auto it = replica_versions_.find(oid);
  return it == replica_versions_.end() ? 0 : it->second;
}

Status TxManager::Begin() {
  if (open_)
    return FailedPreconditionError("a transaction is already open");
  open_ = true;
  pending_ = WriteSet{};
  pending_.tx_id = next_tx_id_++;
  undo_.clear();
  ++stats_.begun;
  return OkStatus();
}

Result<Object*> TxManager::ResolveReplica(Object* obj) {
  if (obj == nullptr) return InvalidArgumentError("null object");
  switch (obj->kind()) {
    case ObjectKind::kRegular:
      return obj;
    case ObjectKind::kSwapClusterProxy: {
      Object* target = swap::ProxyTarget(obj);
      if (target != nullptr && swap::IsReplacement(target)) {
        if (swap_ == nullptr)
          return FailedPreconditionError(
              "target cluster is swapped out and no swapping manager is "
              "attached");
        OBISWAP_RETURN_IF_ERROR(
            swap_->SwapIn(swap::ReplacementCluster(target)));
        target = swap::ProxyTarget(obj);
      }
      if (target == nullptr || target->kind() != ObjectKind::kRegular)
        return InternalError("proxy did not resolve to a replica");
      return target;
    }
    case ObjectKind::kReplicationProxy:
      return endpoint_.Materialize(
          ObjectId(static_cast<uint64_t>(obj->RawSlot(0).as_int())));
    case ObjectKind::kReplacement:
      return InvalidArgumentError("cannot write through a replacement");
  }
  return InvalidArgumentError("unknown object kind");
}

Status TxManager::Write(Object* obj, const std::string& field, Value value) {
  if (!open_) return FailedPreconditionError("no open transaction");
  if (value.is_ref())
    return InvalidArgumentError(
        "transactional writes are value-only (int/real/str/nil)");
  OBISWAP_ASSIGN_OR_RETURN(Object * replica, ResolveReplica(obj));
  size_t slot = replica->cls().FieldIndex(field);
  if (slot == runtime::ClassInfo::kNpos)
    return NotFoundError("no field '" + field + "' on class " +
                         replica->cls().name());

  // Capture the pre-image, apply (this also type-checks the value), and
  // only then log — a rejected write must leave no transaction residue.
  Value old_value = replica->RawSlot(slot);
  OBISWAP_RETURN_IF_ERROR(rt_.SetField(replica, field, value));

  UndoEntry entry;
  entry.target = rt_.heap().NewWeakRef(replica);
  entry.slot = slot;
  entry.old_value = std::move(old_value);
  undo_.push_back(std::move(entry));

  uint64_t base = ReplicaVersionOf(replica->oid());
  auto already = std::find_if(
      pending_.validations.begin(), pending_.validations.end(),
      [&](const auto& pair) { return pair.first == replica->oid(); });
  if (already == pending_.validations.end()) {
    pending_.validations.emplace_back(replica->oid(), base);
  }
  pending_.updates.push_back(
      FieldUpdate{replica->oid(), field, std::move(value)});
  return OkStatus();
}

Result<Value> TxManager::Read(Object* obj, const std::string& field) {
  if (!open_) return FailedPreconditionError("no open transaction");
  OBISWAP_ASSIGN_OR_RETURN(Object * replica, ResolveReplica(obj));
  auto already = std::find_if(
      pending_.validations.begin(), pending_.validations.end(),
      [&](const auto& pair) { return pair.first == replica->oid(); });
  if (already == pending_.validations.end()) {
    pending_.validations.emplace_back(replica->oid(),
                                      ReplicaVersionOf(replica->oid()));
  }
  return rt_.GetField(replica, field);
}

void TxManager::RollBack() {
  // Reverse order: later writes undone first.
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    Object* target = it->target->get();
    if (target == nullptr) continue;  // replica died with its cluster pinned? defensive
    target->RawSlotMutable(it->slot) = it->old_value;
    rt_.heap().RefreshAccounting(target);
  }
  undo_.clear();
  pending_ = WriteSet{};
  open_ = false;
}

Status TxManager::Commit() {
  if (!open_) return FailedPreconditionError("no open transaction");
  if (pending_.updates.empty()) {
    // Read-only: nothing to validate remotely in this optimistic scheme.
    undo_.clear();
    pending_ = WriteSet{};
    open_ = false;
    ++stats_.committed;
    return OkStatus();
  }
  Result<CommitResult> outcome = commit_(pending_);
  if (!outcome.ok()) {
    // Transport failure: keep the transaction open so the caller can retry
    // commit when connectivity returns, or abort explicitly.
    return outcome.status();
  }
  if (!outcome->committed) {
    ++stats_.conflicted;
    std::string first = outcome->conflicts.empty()
                            ? "?"
                            : outcome->conflicts.front().ToString();
    RollBack();
    ++stats_.aborted;
    return FailedPreconditionError(
        "commit conflict: master object " + first +
        " changed since replication (transaction rolled back)");
  }
  // Success: the master bumped the versions of written objects; our
  // replicas carry the committed state, so advance their base versions.
  std::unordered_set<uint64_t> written;
  for (const FieldUpdate& update : pending_.updates) {
    if (written.insert(update.oid.value()).second) {
      ++replica_versions_[update.oid];
    }
  }
  undo_.clear();
  pending_ = WriteSet{};
  open_ = false;
  ++stats_.committed;
  return OkStatus();
}

Status TxManager::Abort() {
  if (!open_) return FailedPreconditionError("no open transaction");
  RollBack();
  ++stats_.aborted;
  return OkStatus();
}

}  // namespace obiswap::tx
