// Swap-cluster bookkeeping.
//
// "A swap-cluster is the basic unit of swapping. Each one contains all the
// objects comprised in a group of one or more object clusters, previously
// replicated" (§3). The registry tracks, per swap-cluster: membership (weak
// — the LGC stays in charge of lifetime), load state, the store location of
// a swapped-out cluster, and the recency/frequency signals gathered as the
// application crosses boundaries (used by victim selection).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "runtime/heap.h"
#include "runtime/object.h"

namespace obiswap::swap {

enum class SwapState : uint8_t {
  kLoaded,   ///< members resident in the device heap
  kSwapped,  ///< members serialized on a store device, replacement in place
  kDropped,  ///< became unreachable while swapped; store told to discard
};

const char* SwapStateName(SwapState state);

/// One placement of a swapped cluster's payload. A swapped cluster holds up
/// to Options::replication_factor of these, on distinct devices, each under
/// its own store key; the first is the primary (placed first, tried first).
struct ReplicaLocation {
  DeviceId device;
  SwapKey key;

  bool operator==(const ReplicaLocation& other) const {
    return device == other.device && key == other.key;
  }
};

/// True when `replicas` lists `replica`.
bool Contains(const std::vector<ReplicaLocation>& replicas,
              const ReplicaLocation& replica);
/// Appends the entries of `from` that `into` does not list yet.
void AppendNew(std::vector<ReplicaLocation>& into,
               const std::vector<ReplicaLocation>& from);

/// One store group: the replicas holding one payload, plus that payload's
/// identity. A cluster (or retained image) holds one group for the payload
/// it shipped and, when that payload is a delta, a second group for the
/// full base document the delta applies to. `Replicas` is the list type,
/// const-qualified for read-only views.
template <typename Replicas>
struct BasicStoreGroup {
  Replicas* replicas = nullptr;
  uint64_t epoch = 0;     ///< payload epoch the store keys belong to
  uint32_t checksum = 0;  ///< Adler-32 of the decompressed payload
  bool delta = false;     ///< holds an OSWD delta, not a full document
};
using StoreGroup = BasicStoreGroup<std::vector<ReplicaLocation>>;
using ConstStoreGroup = BasicStoreGroup<const std::vector<ReplicaLocation>>;

/// The (at most two) store groups a state holds; a fixed array, so asking
/// for them never allocates.
template <typename Group>
class StoreGroups {
 public:
  void push_back(const Group& group) { groups_[size_++] = group; }
  const Group* begin() const { return groups_.data(); }
  const Group* end() const { return groups_.data() + size_; }
  const Group& front() const { return groups_[0]; }
  /// The group holding the full document: the base group of a delta,
  /// else the only group.
  const Group& back() const { return groups_[size_ - 1]; }
  bool empty() const { return size_ == 0; }

 private:
  std::array<Group, 2> groups_{};
  size_t size_ = 0;
};

/// A payload held by the stores: its replica group, identity and the
/// members it serializes, plus the base group when the payload is a delta.
/// A swapped cluster holds one (SwapClusterInfo derives from it) and so does
/// a retained CleanImage; swap-in and the re-swap-outs move it whole.
struct StoredPayload {
  /// The payload's store entries, in placement order (first = primary).
  /// Departure and re-replication mutate the list in place.
  std::vector<ReplicaLocation> replicas;
  /// Epoch under which the payload was serialized — the epoch its store
  /// keys and payload-cache entry belong to. A zero-transfer re-swap-out
  /// bumps the cluster's swap_epoch but keeps serving this payload epoch.
  uint64_t payload_epoch = 0;
  /// Frame checksum (Adler-32 of the decompressed payload).
  uint32_t payload_checksum = 0;
  size_t payload_bytes = 0;  ///< compressed size on the store
  size_t object_count = 0;   ///< members the payload serializes
  /// Identity of the serialized members, document order. While swapped
  /// these objects are *held* by the device (on the store) even though not
  /// resident — DGC must not release them to the server.
  std::vector<ObjectId> oids;

  // --- delta facet (binary wire format + delta swap-out only) --------------
  /// When the payload is an OSWD delta, `replicas` above hold the delta
  /// (payload_checksum is the delta's) and these hold the full BASE
  /// document it applies to: a second store group. base_epoch != 0 is the
  /// one fact that marks a delta; the base list may be empty while a local
  /// tier holds the only base copy.
  std::vector<ReplicaLocation> base_replicas;
  uint64_t base_epoch = 0;     ///< payload epoch of the base document
  uint32_t base_checksum = 0;  ///< Adler-32 of the decompressed base
  /// Adler-32 of the full merged document the delta reconstructs (the
  /// payload-cache copy of the merged text); 0 when unknown (e.g. after a
  /// crash recovery, which cannot recompute it) — a zero never matches, so
  /// the swap-in cache probe falls through to the fetch path.
  uint32_t merged_checksum = 0;

  bool HasDelta() const { return base_epoch != 0; }

  /// The payload's group, then the base group of a delta.
  StoreGroups<StoreGroup> Groups();
  StoreGroups<ConstStoreGroup> Groups() const;
  /// True when either group lists `replica`.
  bool Lists(const ReplicaLocation& replica) const;

  /// Forgets the base group (the payload is no longer a delta). The caller
  /// accounts for the listed keys first.
  void ClearBaseGroup();
};

/// The retained store image of a cluster that swapped back in and has not
/// been written since (the loaded-clean facet). While it exists, the store
/// copies it lists are byte-identical to the resident objects, so the next
/// swap-out can reuse them instead of serializing, compressing and
/// shipping the cluster again. Invalidated (and the replicas released) by
/// the first member write, by merge/split, or when every member dies.
/// Under delta swap-out it survives member writes (dirty, but diffable):
/// the next swap-out diffs against its full document.
struct CleanImage : StoredPayload {
  /// The outbound swap-cluster-proxies of the serialized document, in
  /// external-ref index order (the payload resolves references by index).
  /// Weak: if any dies, the image can no longer back a replacement.
  std::vector<runtime::WeakRef> outbound;
};

struct SwapClusterInfo : StoredPayload {
  SwapClusterId id;
  SwapState state = SwapState::kLoaded;

  /// Replication clusters folded into this swap-cluster (empty for
  /// locally-built graphs).
  std::vector<ClusterId> replication_clusters;

  /// Weak membership: dead members drop out automatically.
  std::vector<runtime::WeakRef> members;

  // --- boundary-crossing signals (paper: "basic data w.r.t. recency and
  // --- frequency, as these boundaries are transversed") -------------------
  uint64_t crossing_count = 0;
  uint64_t last_crossing_seq = 0;  ///< logical time of last crossing

  // --- swapped state -------------------------------------------------------
  // The StoredPayload base says where the payload lives and what it holds
  // while swapped (no replicas or oids while loaded).
  /// Monotonic swap incarnation: bumped by every swap-out, recorded in the
  /// replacement-object, so a stale replacement finalizer (from a previous
  /// swap of the same cluster) never drops the current replicas.
  uint64_t swap_epoch = 0;
  runtime::WeakRef replacement;  ///< the stand-in, while swapped

  bool DeltaSwapped() const {
    return state == SwapState::kSwapped && HasDelta();
  }

  // --- clean-image facet ---------------------------------------------------
  /// Set by the first member write since the last swap round-trip (the
  /// runtime's write barrier reports every SetField/SetFieldAt); a dirty
  /// cluster must re-serialize on its next swap-out.
  bool dirty = true;
  /// Present between a swap-in and the first write (or churn/GC
  /// invalidation): the store copies that still mirror the resident state.
  /// Under delta swap-out the image survives member writes (dirty=true,
  /// image retained) so the next swap-out can diff against its base.
  std::optional<CleanImage> clean_image;

  /// The loaded-clean facet: resident, untouched, image still live.
  bool LoadedClean() const {
    return state == SwapState::kLoaded && !dirty && clean_image.has_value();
  }

  /// The store groups the current state holds: the swapped state's while
  /// kSwapped, the retained clean image's while loaded; none otherwise. The
  /// first group is the shipped payload, a second the base of a delta. The
  /// durability layer maintains every group the same way.
  StoreGroups<StoreGroup> Groups();
  StoreGroups<ConstStoreGroup> Groups() const;

  /// The shipped payload's replica list (the first group's); null when the
  /// state holds no groups.
  const std::vector<ReplicaLocation>* ActiveReplicas() const {
    StoreGroups<ConstStoreGroup> groups = Groups();
    return groups.empty() ? nullptr : groups.front().replicas;
  }

  bool HasReplicaOn(DeviceId device) const {
    for (const ConstStoreGroup& group : Groups()) {
      for (const ReplicaLocation& replica : *group.replicas)
        if (replica.device == device) return true;
    }
    return false;
  }

  /// True when the swapped-state groups or the retained image's list
  /// `replica`, whatever the state.
  bool Accounts(const ReplicaLocation& replica) const {
    return Lists(replica) ||
           (clean_image.has_value() && clean_image->Lists(replica));
  }
};

class SwapClusterRegistry {
 public:
  /// Creates a fresh (loaded, empty) swap-cluster. Ids start at 1 —
  /// swap-cluster-0 is the implicit roots cluster and is never registered.
  SwapClusterId Create();

  /// Info lookup; nullptr for unknown ids (including 0).
  SwapClusterInfo* Find(SwapClusterId id);
  const SwapClusterInfo* Find(SwapClusterId id) const;

  /// Registers `obj` as a member of `id` and labels the object. The
  /// cluster must exist and be loaded.
  Status AddMember(runtime::Heap& heap, runtime::Object* obj,
                   SwapClusterId id);

  /// Live objects still labelled `id` (pruning cleared weak refs, entries
  /// whose object a split moved to another cluster, and repeated
  /// registrations, as it goes).
  std::vector<runtime::Object*> LiveMembers(SwapClusterId id);

  /// Whether LiveMembers(info.id) would be non-empty; stops at the first
  /// live member and prunes nothing.
  static bool HasLiveMember(const SwapClusterInfo& info);

  /// Records a boundary crossing into `id` at logical time `seq`.
  void RecordCrossing(SwapClusterId id, uint64_t seq);

  /// Updates recency only (no crossing count) — e.g. membership changes.
  void Touch(SwapClusterId id, uint64_t seq);

  /// Loaded cluster with a live member and the oldest last crossing,
  /// excluding ids in `exclude`; invalid id if none qualifies.
  SwapClusterId PickLruVictim(const std::vector<SwapClusterId>& exclude);

  /// All registered ids (ascending).
  std::vector<SwapClusterId> Ids() const;

  /// Removes a cluster's record entirely (merge absorbs it).
  void Remove(SwapClusterId id) { clusters_.erase(id); }

  size_t size() const { return clusters_.size(); }

 private:
  std::unordered_map<SwapClusterId, SwapClusterInfo> clusters_;
  uint32_t next_id_ = 1;
};

}  // namespace obiswap::swap
