#include "fleet/placement.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace obiswap::fleet {
namespace {

// Hash of (store, key) mapped into (0, 1): the top 53 bits make an exact
// double in [0, 1); the +1/2^54 offset keeps it strictly positive so
// ln(U) below is finite.
double UnitHash(DeviceId store, uint64_t key) {
  uint64_t h = Mix64(Mix64(static_cast<uint64_t>(store.value()) ^
                           0xA24BAED4963EE407ull) ^
                     key);
  return (static_cast<double>(h >> 11) + 0.5) * (1.0 / 9007199254740992.0);
}

// Weighted rendezvous score: -w / ln(U). Monotone in U, so the argmax over
// stores is the weighted-HRW winner (Thaler & Ravishankar §4).
double Score(DeviceId store, double weight, uint64_t key) {
  return -weight / std::log(UnitHash(store, key));
}

}  // namespace

bool PlacementDirectory::AddStore(DeviceId store, double weight) {
  weight = std::max(weight, 1e-6);
  auto [it, inserted] = stores_.try_emplace(store, Entry{weight, true});
  if (inserted) {
    ++stats_.joins;
    ++view_epoch_;
    return true;
  }
  if (it->second.weight != weight) {
    it->second.weight = weight;
    ++view_epoch_;
    return true;
  }
  return false;
}

bool PlacementDirectory::RemoveStore(DeviceId store) {
  if (stores_.erase(store) == 0) return false;
  ++stats_.leaves;
  ++view_epoch_;
  return true;
}

bool PlacementDirectory::SetWeight(DeviceId store, double weight) {
  weight = std::max(weight, 1e-6);
  auto it = stores_.find(store);
  if (it == stores_.end() || it->second.weight == weight) return false;
  it->second.weight = weight;
  ++view_epoch_;
  return true;
}

bool PlacementDirectory::SetHealthy(DeviceId store, bool healthy) {
  auto it = stores_.find(store);
  if (it == stores_.end() || it->second.healthy == healthy) return false;
  it->second.healthy = healthy;
  ++view_epoch_;
  return true;
}

bool PlacementDirectory::IsHealthy(DeviceId store) const {
  auto it = stores_.find(store);
  return it != stores_.end() && it->second.healthy;
}

double PlacementDirectory::WeightOf(DeviceId store) const {
  auto it = stores_.find(store);
  return it == stores_.end() ? 0.0 : it->second.weight;
}

size_t PlacementDirectory::healthy_count() const {
  size_t n = 0;
  for (const auto& [store, entry] : stores_) {
    if (entry.healthy) ++n;
  }
  return n;
}

std::vector<DeviceId> PlacementDirectory::Stores() const {
  std::vector<DeviceId> out;
  out.reserve(stores_.size());
  for (const auto& [store, entry] : stores_) out.push_back(store);
  return out;
}

uint64_t PlacementDirectory::KeyFor(DeviceId self, SwapClusterId cluster) {
  return Mix64((static_cast<uint64_t>(self.value()) << 32) ^
               static_cast<uint64_t>(cluster.value()));
}

std::vector<DeviceId> PlacementDirectory::RankAll(uint64_t key) const {
  struct Ranked {
    DeviceId store;
    bool healthy;
    double score;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(stores_.size());
  for (const auto& [store, entry] : stores_) {
    ranked.push_back({store, entry.healthy, Score(store, entry.weight, key)});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.healthy != b.healthy) return a.healthy;
    if (a.score != b.score) return a.score > b.score;
    return a.store < b.store;
  });
  ++stats_.selections;
  std::vector<DeviceId> out;
  out.reserve(ranked.size());
  for (const Ranked& r : ranked) out.push_back(r.store);
  return out;
}

std::vector<DeviceId> PlacementDirectory::Targets(uint64_t key,
                                                  size_t k) const {
  std::vector<DeviceId> order = RankAll(key);
  if (order.size() > k) order.resize(k);
  return order;
}

uint64_t PlacementDirectory::LoadBound(uint64_t total_load,
                                       size_t live_stores) const {
  if (live_stores == 0) return kMinLoadBound;
  double mean = static_cast<double>(total_load) / live_stores;
  uint64_t bound =
      static_cast<uint64_t>(std::ceil(kLoadBoundFactor * mean));
  return std::max(bound, kMinLoadBound);
}

}  // namespace obiswap::fleet
