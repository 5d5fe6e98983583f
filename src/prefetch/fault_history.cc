#include "prefetch/fault_history.h"

#include <algorithm>
#include <cmath>

namespace obiswap::prefetch {

FaultHistoryRecorder::~FaultHistoryRecorder() {
  if (bus_ != nullptr) {
    bus_->Unsubscribe(in_token_);
    bus_->Unsubscribe(out_token_);
    bus_->Unsubscribe(drop_token_);
  }
}

void FaultHistoryRecorder::Attach(context::EventBus* bus) {
  bus_ = bus;
  in_token_ = bus_->Subscribe(
      context::kEventClusterSwappedIn, [this](const context::Event& event) {
        // Speculative swap-ins are the prefetcher's own doing, not an
        // application touch — learning from them would make the predictor
        // confirm its own guesses.
        if (event.GetIntOr("prefetch", 0) != 0) return;
        int64_t sc = event.GetIntOr("swap_cluster", -1);
        if (sc >= 0) OnEnter(SwapClusterId(static_cast<uint32_t>(sc)));
      });
  out_token_ = bus_->Subscribe(
      context::kEventClusterSwappedOut, [this](const context::Event& event) {
        // The LRU victim is the least-recently-crossed cluster; if that is
        // the last one entered, a long quiet gap has passed and the next
        // entry belongs to a new access phase.
        int64_t sc = event.GetIntOr("swap_cluster", -1);
        if (sc >= 0 &&
            SwapClusterId(static_cast<uint32_t>(sc)) == last_entered_) {
          BreakSequence();
        }
      });
  drop_token_ = bus_->Subscribe(
      context::kEventClusterDropped, [this](const context::Event& event) {
        int64_t sc = event.GetIntOr("swap_cluster", -1);
        if (sc >= 0) Forget(SwapClusterId(static_cast<uint32_t>(sc)));
      });
}

double FaultHistoryRecorder::Decayed(const Edge& edge) const {
  if (clock_ == nullptr) return edge.weight;
  uint64_t now = NowUs();
  if (now <= edge.stamp_us) return edge.weight;
  double half_lives = static_cast<double>(now - edge.stamp_us) /
                      static_cast<double>(kHalfLifeUs);
  return edge.weight * std::pow(0.5, half_lives);
}

void FaultHistoryRecorder::EvictLightest(EdgeMap& out) {
  auto lightest = out.end();
  double lightest_weight = 0.0;
  for (auto it = out.begin(); it != out.end(); ++it) {
    double weight = Decayed(it->second);
    if (lightest == out.end() || weight < lightest_weight) {
      lightest = it;
      lightest_weight = weight;
    }
  }
  if (lightest != out.end()) {
    out.erase(lightest);
    ++stats_.edges_evicted;
  }
}

void FaultHistoryRecorder::OnEnter(SwapClusterId id) {
  if (!id.valid() || id == kSwapCluster0) return;
  if (id == last_entered_) return;  // intra-cluster activity, not a move
  ++stats_.entries_recorded;
  if (last_entered_.valid()) {
    EdgeMap& out = edges_[last_entered_];
    auto it = out.find(id);
    if (it == out.end()) {
      if (out.size() >= kMaxSuccessors) EvictLightest(out);
      out.emplace(id, Edge{1.0, NowUs()});
    } else {
      it->second.weight = Decayed(it->second) + 1.0;
      it->second.stamp_us = NowUs();
    }
    ++stats_.edges_updated;
  }
  last_entered_ = id;
}

void FaultHistoryRecorder::BreakSequence() {
  if (!last_entered_.valid()) return;
  last_entered_ = SwapClusterId();
  ++stats_.sequence_breaks;
}

std::vector<FaultHistoryRecorder::Successor> FaultHistoryRecorder::Successors(
    SwapClusterId from) const {
  std::vector<Successor> ranked;
  auto it = edges_.find(from);
  if (it == edges_.end()) return ranked;
  double total = 0.0;
  for (const auto& [to, edge] : it->second) {
    double weight = Decayed(edge);
    if (weight <= 0.0) continue;
    ranked.push_back(Successor{to, weight, 0.0});
    total += weight;
  }
  if (total <= 0.0) return ranked;
  for (Successor& successor : ranked) {
    successor.confidence = successor.weight / total;
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Successor& a, const Successor& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.id.value() < b.id.value();  // deterministic ties
            });
  return ranked;
}

void FaultHistoryRecorder::Forget(SwapClusterId id) {
  edges_.erase(id);
  for (auto& [from, out] : edges_) {
    (void)from;
    out.erase(id);
  }
  if (last_entered_ == id) BreakSequence();
}

void FaultHistoryRecorder::Reset() {
  edges_.clear();
  last_entered_ = SwapClusterId();
}

size_t FaultHistoryRecorder::edge_count() const {
  size_t count = 0;
  for (const auto& [from, out] : edges_) {
    (void)from;
    count += out.size();
  }
  return count;
}

}  // namespace obiswap::prefetch
