// Per-store health scoring and circuit breaking.
//
// The paper's store devices are arbitrary neighbours on a lossy 700 Kbps
// link; treating every one as equally healthy makes a single flaky or slow
// store tax every swap with full retry cost. The HealthTracker keeps an
// incremental per-store score — EWMA latency and error rate over every
// StoreClient attempt — and a virtual-time circuit breaker per store:
//
//   closed ──(consecutive failures / EWMA error trip)──▶ open
//   open ──(cooldown elapsed)──▶ half-open (one probe allowed)
//   half-open ──probe ok──▶ closed     half-open ──probe fails──▶ open
//
// An open breaker takes the store out of the placement and fetch rotation
// (callers order candidates by IsHealthy and the StoreClient fails calls
// fast without touching the radio); the half-open probe lets it earn its
// way back in. A global latency histogram over successful attempts yields
// the p95-derived hedge deadline for SwappingManager's hedged failover
// fetch. Everything runs on the simulation's virtual clock, so the same
// workload always trips the same breakers at the same instants.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/ids.h"
#include "net/sim_clock.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace obiswap::net {

enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };
const char* BreakerStateName(BreakerState state);

class HealthTracker {
 public:
  /// Weight of the newest sample in the latency / error-rate EWMAs.
  static constexpr double kEwmaAlpha = 0.3;
  /// Consecutive transport failures that trip the breaker outright
  /// (a dead store announces itself quickly).
  static constexpr uint32_t kFailureTripThreshold = 3;
  /// EWMA error rate that trips the breaker once the store has at least
  /// kMinAttemptsToTrip attempts (a lossy store trips slower than a dead
  /// one, but still trips).
  static constexpr double kErrorRateTrip = 0.65;
  static constexpr uint64_t kMinAttemptsToTrip = 5;
  /// Virtual time an open breaker waits before allowing one half-open
  /// probe: roughly one durability-monitor poll period.
  static constexpr uint64_t kOpenCooldownUs = 2'000'000;
  /// Percentile of the successful-attempt latency distribution that the
  /// hedge deadline derives from.
  static constexpr double kHedgePercentile = 95.0;
  /// Successful samples required before HedgeDeadlineUs() reports a
  /// deadline at all (hedging on a cold distribution would misfire).
  static constexpr uint64_t kMinHedgeSamples = 8;

  struct StoreHealth {
    BreakerState state = BreakerState::kClosed;
    double ewma_latency_us = 0.0;
    double ewma_error_rate = 0.0;
    uint64_t attempts = 0;
    uint64_t successes = 0;
    uint64_t failures = 0;
    uint32_t consecutive_failures = 0;
    uint64_t opened_at_us = 0;  ///< virtual instant of the last trip
    uint64_t opens = 0;         ///< lifetime transitions into open
    bool probe_in_flight = false;
  };

  struct Stats {
    uint64_t outcomes_recorded = 0;
    uint64_t trips = 0;    ///< transitions into open (incl. re-opens)
    uint64_t probes = 0;   ///< half-open probes granted
    uint64_t closes = 0;   ///< transitions back to closed
    uint64_t rejections = 0;  ///< AllowRequest refusals
    uint64_t pushbacks_recorded = 0;  ///< shed responses observed (neutral)
  };

  explicit HealthTracker(const SimClock* clock) : clock_(clock) {}

  /// One StoreClient wire attempt completed: `ok` is transport success
  /// (both envelope transfers landed — a parsed remote error still counts
  /// as a healthy store), `latency_us` the attempt's virtual duration.
  void RecordOutcome(DeviceId device, bool ok, uint64_t latency_us);

  /// An admission-control pushback arrived from `device`. Strictly neutral
  /// for breaker math: no failure streak, no EWMA sample, no latency — an
  /// overloaded store is healthy, it just asked us to come back later.
  /// Opening breakers on shed traffic would convert a load spike into a
  /// (false) availability incident. Counted for observability only.
  void RecordPushback(DeviceId device);

  /// Breaker gate, consulted before radio traffic. Closed (or unknown)
  /// stores are granted; an open store is refused until its cooldown
  /// elapses, at which point exactly one probe per round trip is granted
  /// (the transition to half-open happens here). Mutating — use IsHealthy
  /// for side-effect-free rotation ordering.
  bool AllowRequest(DeviceId device);

  /// Rotation predicate: true for unknown stores and closed breakers.
  /// Never mutates, so candidate ordering cannot consume the probe.
  bool IsHealthy(DeviceId device) const;
  /// True while the breaker is open (cooldown elapsed or not) — the
  /// StoreClient stops burning retries the instant a call trips it.
  bool IsOpen(DeviceId device) const;

  BreakerState StateOf(DeviceId device) const;
  const StoreHealth* Find(DeviceId device) const;
  size_t open_count() const;
  size_t tracked_count() const { return stores_.size(); }

  /// The p95-derived hedge deadline in virtual microseconds: the latency
  /// bucket bound below which kHedgePercentile of successful attempts
  /// complete. 0 while fewer than kMinHedgeSamples successes have been
  /// observed — hedging stays off on a cold start.
  uint64_t HedgeDeadlineUs() const;
  const telemetry::Histogram& success_latency() const { return latency_; }

  /// Observer for every breaker transition (from != to). The owner of the
  /// event bus (SwappingManager) publishes breaker-transition events and
  /// journals them through this.
  using TransitionObserver =
      std::function<void(DeviceId, BreakerState from, BreakerState to)>;
  void SetTransitionObserver(TransitionObserver observer) {
    observer_ = std::move(observer);
  }

  /// Optional shared bundle: transitions bump "breaker_opens" /
  /// "breaker_closes" counters and the "net.open_breakers" gauge.
  void AttachTelemetry(telemetry::Telemetry* t) { telemetry_ = t; }

  const Stats& stats() const { return stats_; }

 private:
  uint64_t now_us() const { return clock_ == nullptr ? 0 : clock_->now_us(); }
  void Transition(DeviceId device, StoreHealth& health, BreakerState to);

  const SimClock* clock_;
  std::unordered_map<DeviceId, StoreHealth> stores_;
  telemetry::Histogram latency_;  ///< successful attempts, all stores
  TransitionObserver observer_;
  telemetry::Telemetry* telemetry_ = nullptr;
  Stats stats_;
};

}  // namespace obiswap::net
