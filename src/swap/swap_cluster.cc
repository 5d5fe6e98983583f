#include "swap/swap_cluster.h"

#include <algorithm>
#include <type_traits>
#include <unordered_set>

namespace obiswap::swap {

const char* SwapStateName(SwapState state) {
  switch (state) {
    case SwapState::kLoaded:
      return "loaded";
    case SwapState::kSwapped:
      return "swapped";
    case SwapState::kDropped:
      return "dropped";
  }
  return "?";
}

namespace {
/// The groups of `payload` (a StoredPayload, const or not).
template <typename Payload>
auto GroupsOf(Payload& payload) {
  using Replicas = std::remove_reference_t<decltype((payload.replicas))>;
  StoreGroups<BasicStoreGroup<Replicas>> groups;
  groups.push_back({&payload.replicas, payload.payload_epoch,
                    payload.payload_checksum, payload.HasDelta()});
  if (payload.HasDelta()) {
    groups.push_back(
        {&payload.base_replicas, payload.base_epoch, payload.base_checksum});
  }
  return groups;
}

/// The groups `info`'s state holds: the swapped payload's or the image's.
template <typename Info>
auto StateGroupsOf(Info& info) -> decltype(GroupsOf(info)) {
  if (info.state == SwapState::kSwapped) return GroupsOf(info);
  if (info.state == SwapState::kLoaded && info.clean_image.has_value())
    return GroupsOf(*info.clean_image);
  return {};
}
}  // namespace

StoreGroups<StoreGroup> StoredPayload::Groups() { return GroupsOf(*this); }
StoreGroups<ConstStoreGroup> StoredPayload::Groups() const {
  return GroupsOf(*this);
}
StoreGroups<StoreGroup> SwapClusterInfo::Groups() {
  return StateGroupsOf(*this);
}
StoreGroups<ConstStoreGroup> SwapClusterInfo::Groups() const {
  return StateGroupsOf(*this);
}

bool StoredPayload::Lists(const ReplicaLocation& replica) const {
  return std::find(replicas.begin(), replicas.end(), replica) !=
             replicas.end() ||
         std::find(base_replicas.begin(), base_replicas.end(), replica) !=
             base_replicas.end();
}

void StoredPayload::ClearBaseGroup() {
  base_replicas.clear();
  base_epoch = 0;
  base_checksum = 0;
  base_payload_bytes = 0;
  merged_checksum = 0;
}

SwapClusterId SwapClusterRegistry::Create() {
  SwapClusterId id(next_id_++);
  SwapClusterInfo info;
  info.id = id;
  clusters_.emplace(id, std::move(info));
  return id;
}

SwapClusterInfo* SwapClusterRegistry::Find(SwapClusterId id) {
  auto it = clusters_.find(id);
  return it == clusters_.end() ? nullptr : &it->second;
}

const SwapClusterInfo* SwapClusterRegistry::Find(SwapClusterId id) const {
  auto it = clusters_.find(id);
  return it == clusters_.end() ? nullptr : &it->second;
}

Status SwapClusterRegistry::AddMember(runtime::Heap& heap,
                                      runtime::Object* obj,
                                      SwapClusterId id) {
  if (obj == nullptr) return InvalidArgumentError("null member");
  if (obj->kind() != runtime::ObjectKind::kRegular)
    return InvalidArgumentError(
        "only regular application objects join swap-clusters");
  SwapClusterInfo* info = Find(id);
  if (info == nullptr)
    return NotFoundError("no swap-cluster " + id.ToString());
  if (info->state != SwapState::kLoaded)
    return FailedPreconditionError("swap-cluster " + id.ToString() +
                                   " is not loaded");
  obj->set_swap_cluster(id);
  info->members.push_back(heap.NewWeakRef(obj));
  return OkStatus();
}

std::vector<runtime::Object*> SwapClusterRegistry::LiveMembers(
    SwapClusterId id) {
  std::vector<runtime::Object*> out;
  SwapClusterInfo* info = Find(id);
  if (info == nullptr) return out;
  std::unordered_set<const runtime::Object*> seen;
  size_t write = 0;
  for (size_t read = 0; read < info->members.size(); ++read) {
    runtime::Object* target = info->members[read]->get();
    if (target == nullptr) continue;             // collected: prune
    if (target->swap_cluster() != id) continue;  // moved (split): prune
    if (!seen.insert(target).second) continue;   // duplicate registration
    out.push_back(target);
    info->members[write++] = info->members[read];
  }
  info->members.resize(write);
  return out;
}

void SwapClusterRegistry::RecordCrossing(SwapClusterId id, uint64_t seq) {
  SwapClusterInfo* info = Find(id);
  if (info == nullptr) return;
  ++info->crossing_count;
  info->last_crossing_seq = seq;
}

void SwapClusterRegistry::Touch(SwapClusterId id, uint64_t seq) {
  SwapClusterInfo* info = Find(id);
  if (info != nullptr) info->last_crossing_seq = seq;
}

SwapClusterId SwapClusterRegistry::PickLruVictim(
    const std::vector<SwapClusterId>& exclude) {
  SwapClusterId best;
  uint64_t best_seq = 0;
  bool found = false;
  for (auto& [id, info] : clusters_) {
    if (info.state != SwapState::kLoaded) continue;
    if (std::find(exclude.begin(), exclude.end(), id) != exclude.end())
      continue;
    // Skip clusters with no live members: nothing to free.
    bool any_live = false;
    for (const auto& weak : info.members) {
      if (weak->get() != nullptr) {
        any_live = true;
        break;
      }
    }
    if (!any_live) continue;
    if (!found || info.last_crossing_seq < best_seq ||
        (info.last_crossing_seq == best_seq && id < best)) {
      best = id;
      best_seq = info.last_crossing_seq;
      found = true;
    }
  }
  return best;
}

std::vector<SwapClusterId> SwapClusterRegistry::Ids() const {
  std::vector<SwapClusterId> ids;
  ids.reserve(clusters_.size());
  for (const auto& [id, info] : clusters_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace obiswap::swap
