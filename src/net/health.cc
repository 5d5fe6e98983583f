#include "net/health.h"

#include <string>

namespace obiswap::net {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

void HealthTracker::Transition(DeviceId device, StoreHealth& health,
                               BreakerState to) {
  BreakerState from = health.state;
  if (from == to) return;
  health.state = to;
  if (to == BreakerState::kOpen) {
    health.opened_at_us = now_us();
    health.probe_in_flight = false;
    ++health.opens;
    ++stats_.trips;
    if (telemetry_ != nullptr)
      telemetry_->metrics().GetCounter("breaker_opens").Increment();
  } else if (to == BreakerState::kClosed) {
    health.consecutive_failures = 0;
    health.probe_in_flight = false;
    ++stats_.closes;
    if (telemetry_ != nullptr)
      telemetry_->metrics().GetCounter("breaker_closes").Increment();
  }
  if (telemetry_ != nullptr) {
    telemetry_->metrics()
        .GetGauge("net.open_breakers")
        .Set(static_cast<int64_t>(open_count()));
    telemetry_->journal().Record(
        "degraded", "breaker-transition",
        "device=" + std::to_string(device.value()) + " " +
            BreakerStateName(from) + "->" + BreakerStateName(to));
  }
  if (observer_) observer_(device, from, to);
}

void HealthTracker::RecordOutcome(DeviceId device, bool ok,
                                  uint64_t latency_us) {
  StoreHealth& health = stores_[device];
  ++stats_.outcomes_recorded;
  constexpr double alpha = kEwmaAlpha;
  double sample = ok ? 0.0 : 1.0;
  health.ewma_error_rate = health.attempts == 0
                               ? sample
                               : alpha * sample +
                                     (1.0 - alpha) * health.ewma_error_rate;
  ++health.attempts;
  if (ok) {
    ++health.successes;
    health.consecutive_failures = 0;
    health.ewma_latency_us =
        health.successes == 1
            ? static_cast<double>(latency_us)
            : alpha * static_cast<double>(latency_us) +
                  (1.0 - alpha) * health.ewma_latency_us;
    latency_.Record(latency_us);
    if (health.state == BreakerState::kHalfOpen)
      Transition(device, health, BreakerState::kClosed);
    else
      health.probe_in_flight = false;
    return;
  }
  ++health.failures;
  ++health.consecutive_failures;
  if (health.state == BreakerState::kHalfOpen) {
    // The recovery probe failed: back to open, cooldown restarts.
    Transition(device, health, BreakerState::kOpen);
    return;
  }
  if (health.state == BreakerState::kClosed &&
      (health.consecutive_failures >= kFailureTripThreshold ||
       (health.attempts >= kMinAttemptsToTrip &&
        health.ewma_error_rate >= kErrorRateTrip))) {
    Transition(device, health, BreakerState::kOpen);
  }
}

void HealthTracker::RecordPushback(DeviceId device) {
  ++stats_.pushbacks_recorded;
  auto it = stores_.find(device);
  if (it == stores_.end()) return;
  StoreHealth& health = it->second;
  // No failure streak, no EWMA sample, no latency: shed traffic must never
  // push a breaker toward open. But a pushback IS a transport success — the
  // store answered — so a half-open probe that got shed proves the store is
  // back and closes the breaker rather than leaving the probe dangling.
  if (health.state == BreakerState::kHalfOpen)
    Transition(device, health, BreakerState::kClosed);
  else
    health.probe_in_flight = false;
}

bool HealthTracker::AllowRequest(DeviceId device) {
  auto it = stores_.find(device);
  if (it == stores_.end()) return true;
  StoreHealth& health = it->second;
  switch (health.state) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (now_us() - health.opened_at_us >= kOpenCooldownUs) {
        Transition(device, health, BreakerState::kHalfOpen);
        health.probe_in_flight = true;
        ++stats_.probes;
        return true;
      }
      ++stats_.rejections;
      return false;
    case BreakerState::kHalfOpen:
      if (!health.probe_in_flight) {
        health.probe_in_flight = true;
        ++stats_.probes;
        return true;
      }
      ++stats_.rejections;
      return false;
  }
  return true;
}

bool HealthTracker::IsHealthy(DeviceId device) const {
  auto it = stores_.find(device);
  if (it == stores_.end()) return true;
  return it->second.state == BreakerState::kClosed;
}

bool HealthTracker::IsOpen(DeviceId device) const {
  auto it = stores_.find(device);
  if (it == stores_.end()) return false;
  return it->second.state == BreakerState::kOpen;
}

BreakerState HealthTracker::StateOf(DeviceId device) const {
  auto it = stores_.find(device);
  return it == stores_.end() ? BreakerState::kClosed : it->second.state;
}

const HealthTracker::StoreHealth* HealthTracker::Find(DeviceId device) const {
  auto it = stores_.find(device);
  return it == stores_.end() ? nullptr : &it->second;
}

size_t HealthTracker::open_count() const {
  size_t open = 0;
  for (const auto& [device, health] : stores_)
    if (health.state != BreakerState::kClosed) ++open;
  return open;
}

uint64_t HealthTracker::HedgeDeadlineUs() const {
  if (latency_.count() < kMinHedgeSamples) return 0;
  return latency_.ValueAtPercentile(kHedgePercentile);
}

}  // namespace obiswap::net
