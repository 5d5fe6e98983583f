// Prefetcher: budgeted background swap-in driven by fault history.
//
// Wires the FaultHistoryRecorder and Predictor to the SwappingManager: on
// every demand fault (cluster-swapped-in with the prefetch flag unset) it
// predicts the likely successors and drains them from a bounded queue under
// two explicit resource gates:
//
//   * budget    — at most this many clusters' speculative work outstanding
//     (staged payloads + speculatively loaded clusters). Caps how much of
//     the device's memory and link time a wrong guess can burn.
//   * headroom  — free-heap fraction gates. Below kStageHeadroom nothing
//     speculative happens at all. Between the two gates the prefetcher only
//     *stages*: it fetches + decompresses the payload into the existing
//     PayloadCache (zero heap-object churn — the later demand fault skips
//     the radio and the codec but still pays deserialize). Above the
//     stricter kSwapInHeadroom, full mode performs a complete
//     speculative SwapIn, taking the fault off the critical path entirely.
//
// A consumed guess publishes "prefetch-hit"; a speculatively loaded cluster
// evicted before the application touched it publishes "prefetch-waste".
// Both ride the hit/waste accounting in SwappingManager::Stats.
//
// Default-off: with mode kOff (the default) the prefetcher only learns;
// constructed nowhere, the middleware is bit-identical to the paper's
// demand-driven behavior.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_set>

#include "common/ids.h"
#include "common/status.h"
#include "context/events.h"
#include "net/sim_clock.h"
#include "prefetch/fault_history.h"
#include "prefetch/predictor.h"
#include "runtime/runtime.h"
#include "swap/manager.h"

namespace obiswap::prefetch {

enum class PrefetchMode {
  kOff,       ///< learn only; never touch the store speculatively
  kCacheOnly, ///< stage payloads into the PayloadCache, never swap in
  kFull,      ///< full speculative SwapIn when headroom allows, else stage
};

const char* PrefetchModeName(PrefetchMode mode);
/// Parses "off" | "cache" | "full" (the policy action's vocabulary).
Result<PrefetchMode> ParsePrefetchMode(const std::string& name);

class Prefetcher {
 public:
  /// Bounded prediction queue; overflow drops the newest predictions.
  static constexpr size_t kQueueCapacity = 8;
  /// Free-heap fraction below which nothing speculative runs.
  static constexpr double kStageHeadroom = 0.10;
  /// Stricter gate for full speculative swap-in (kFull only); below it
  /// the prefetcher degrades to staging.
  static constexpr double kSwapInHeadroom = 0.25;

  struct Options {
    PrefetchMode mode = PrefetchMode::kOff;
    /// Max outstanding speculative clusters (staged + loaded).
    size_t budget = 2;
    /// Predictor dials (see Predictor::Options).
    double confidence_threshold = 0.4;
    size_t max_predictions = 2;
  };

  struct Stats {
    uint64_t demand_faults = 0;       ///< demand swap-ins observed
    uint64_t predictions = 0;         ///< successors the predictor offered
    uint64_t enqueued = 0;
    uint64_t queue_overflows = 0;     ///< predictions dropped, queue full
    uint64_t budget_deferred = 0;     ///< drain stops: budget exhausted
    uint64_t headroom_blocked = 0;    ///< drain stops: heap too full
    uint64_t staged = 0;              ///< payloads staged into the cache
    uint64_t speculative_swap_ins = 0;
    uint64_t errors = 0;              ///< speculative ops that failed
  };

  /// Subscribes to the bus and installs the manager's crossing observer.
  /// `manager` must have the same bus attached (its swap events feed the
  /// recorder); one prefetcher per manager.
  Prefetcher(runtime::Runtime& rt, swap::SwappingManager& manager,
             context::EventBus& bus)
      : Prefetcher(rt, manager, bus, Options()) {}
  Prefetcher(runtime::Runtime& rt, swap::SwappingManager& manager,
             context::EventBus& bus, Options options);
  ~Prefetcher();

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  /// Virtual time for edge decay (same clock the network advances).
  void AttachClock(const net::SimClock* clock);

  // --- runtime tuning (policy actions "set-prefetch-mode" / "-budget") ----
  void set_mode(PrefetchMode mode) { options_.mode = mode; }
  void set_budget(size_t budget) { options_.budget = budget; }
  void set_confidence_threshold(double threshold);

  const Options& options() const { return options_; }
  const Stats& stats() const { return stats_; }
  const FaultHistoryRecorder& recorder() const { return recorder_; }
  const Predictor& predictor() const { return predictor_; }
  size_t queue_depth() const { return queue_.size(); }

 private:
  void OnSwappedIn(const context::Event& event);
  void OnPrefetchHit(const context::Event& event);
  void OnClusterEntered(SwapClusterId id);
  void PredictAndEnqueue(SwapClusterId from);
  void Enqueue(SwapClusterId id);
  void Drain();

  runtime::Runtime& rt_;
  swap::SwappingManager& manager_;
  context::EventBus& bus_;
  Options options_;
  FaultHistoryRecorder recorder_;
  Predictor predictor_;

  uint64_t swapped_in_token_ = 0;
  uint64_t hit_token_ = 0;

  std::deque<SwapClusterId> queue_;
  std::unordered_set<SwapClusterId> queued_;
  bool in_drain_ = false;  ///< speculative work must not recurse into Drain
  Stats stats_;
};

}  // namespace obiswap::prefetch
