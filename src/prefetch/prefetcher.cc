#include "prefetch/prefetcher.h"

#include "common/logging.h"

namespace obiswap::prefetch {

const char* PrefetchModeName(PrefetchMode mode) {
  switch (mode) {
    case PrefetchMode::kOff:
      return "off";
    case PrefetchMode::kCacheOnly:
      return "cache";
    case PrefetchMode::kFull:
      return "full";
  }
  return "off";
}

Result<PrefetchMode> ParsePrefetchMode(const std::string& name) {
  if (name == "off") return PrefetchMode::kOff;
  if (name == "cache") return PrefetchMode::kCacheOnly;
  if (name == "full") return PrefetchMode::kFull;
  return InvalidArgumentError("unknown prefetch mode '" + name +
                              "' (expected off | cache | full)");
}

Prefetcher::Prefetcher(runtime::Runtime& rt, swap::SwappingManager& manager,
                       context::EventBus& bus, Options options)
    : rt_(rt),
      manager_(manager),
      bus_(bus),
      options_(options),
      predictor_(recorder_, Predictor::Options{options.confidence_threshold,
                                               options.max_predictions}) {
  recorder_.Attach(&bus_);
  swapped_in_token_ = bus_.Subscribe(
      context::kEventClusterSwappedIn,
      [this](const context::Event& event) { OnSwappedIn(event); });
  hit_token_ = bus_.Subscribe(
      context::kEventPrefetchHit,
      [this](const context::Event& event) { OnPrefetchHit(event); });
  manager_.SetCrossingObserver(
      [this](SwapClusterId id) { OnClusterEntered(id); });
}

Prefetcher::~Prefetcher() {
  manager_.SetCrossingObserver(nullptr);
  bus_.Unsubscribe(swapped_in_token_);
  bus_.Unsubscribe(hit_token_);
}

void Prefetcher::AttachClock(const net::SimClock* clock) {
  recorder_.AttachClock(clock);
}

void Prefetcher::set_confidence_threshold(double threshold) {
  options_.confidence_threshold = threshold;
  predictor_.set_confidence_threshold(threshold);
}

void Prefetcher::OnClusterEntered(SwapClusterId id) {
  // Every boundary crossing feeds the transition graph, whether or not
  // prefetching is currently allowed to act — mode kOff still learns, so
  // enabling prefetch later starts from a warm history.
  recorder_.OnEnter(id);
}

void Prefetcher::OnSwappedIn(const context::Event& event) {
  if (event.GetIntOr("prefetch", 0) != 0) return;  // our own speculation
  int64_t sc = event.GetIntOr("swap_cluster", -1);
  if (sc < 0) return;
  ++stats_.demand_faults;
  if (options_.mode == PrefetchMode::kOff) return;
  PredictAndEnqueue(SwapClusterId(static_cast<uint32_t>(sc)));
  Drain();
}

void Prefetcher::OnPrefetchHit(const context::Event& event) {
  if (options_.mode == PrefetchMode::kOff) return;
  // A staged hit is consumed inside a demand SwapIn, whose own
  // cluster-swapped-in event continues the chain; only a hit on a
  // speculatively *loaded* cluster has no other trigger.
  Result<std::string> kind = event.GetString("kind");
  if (!kind.ok() || *kind != "loaded") return;
  int64_t sc = event.GetIntOr("swap_cluster", -1);
  if (sc < 0) return;
  PredictAndEnqueue(SwapClusterId(static_cast<uint32_t>(sc)));
  Drain();
}

void Prefetcher::PredictAndEnqueue(SwapClusterId from) {
  for (SwapClusterId next : predictor_.Predict(from)) {
    ++stats_.predictions;
    // Only swapped clusters are prefetchable; loaded or dropped ones have
    // nothing to fetch.
    if (manager_.StateOf(next) != swap::SwapState::kSwapped) continue;
    Enqueue(next);
  }
}

void Prefetcher::Enqueue(SwapClusterId id) {
  if (queued_.count(id) > 0) return;
  if (queue_.size() >= kQueueCapacity) {
    ++stats_.queue_overflows;
    return;
  }
  queue_.push_back(id);
  queued_.insert(id);
  ++stats_.enqueued;
}

void Prefetcher::Drain() {
  if (in_drain_) return;
  // Drain runs on every crossing; don't trace the (common) empty case.
  if (queue_.empty()) return;
  in_drain_ = true;
  telemetry::ScopedSpan span(&manager_.telemetry(), "prefetch_drain",
                             "prefetch");
  while (!queue_.empty()) {
    if (manager_.PrefetchOutstanding() >= options_.budget) {
      ++stats_.budget_deferred;
      break;
    }
    double headroom = rt_.heap().free_fraction();
    if (headroom < kStageHeadroom) {
      ++stats_.headroom_blocked;
      break;
    }
    SwapClusterId id = queue_.front();
    queue_.pop_front();
    queued_.erase(id);
    if (manager_.StateOf(id) != swap::SwapState::kSwapped) continue;

    bool full_swap_in = options_.mode == PrefetchMode::kFull &&
                        headroom >= kSwapInHeadroom;
    Status status = full_swap_in ? manager_.SwapIn(id, /*prefetch=*/true)
                                 : manager_.PrefetchStage(id);
    if (status.ok()) {
      if (full_swap_in) {
        ++stats_.speculative_swap_ins;
      } else {
        ++stats_.staged;
      }
    } else {
      ++stats_.errors;
      OBISWAP_LOG(kWarn) << "prefetch of swap-cluster " << id.ToString()
                         << " failed: " << status.ToString();
    }
  }
  in_drain_ = false;
}

}  // namespace obiswap::prefetch
