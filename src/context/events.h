// Event bus.
//
// OBIWAN modules communicate through events: the Object Replication module
// raises "cluster-replicated", Context Management raises memory and
// connectivity events, and the Policy Engine "receives events generated by
// OBIWAN modules and applications, evaluates policy rules and triggers
// events, handled by actions" (§2). The SwappingManager "is registered as a
// listener of all events regarding replication of clusters" (§4).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace obiswap::context {

/// Well-known event types (free-form strings so applications can add more).
inline constexpr const char* kEventClusterReplicated = "cluster-replicated";
inline constexpr const char* kEventMemoryPressure = "memory-pressure";
inline constexpr const char* kEventMemoryRelief = "memory-relief";
inline constexpr const char* kEventConnectivityChanged = "connectivity-changed";
inline constexpr const char* kEventClusterSwappedOut = "cluster-swapped-out";
inline constexpr const char* kEventClusterSwappedIn = "cluster-swapped-in";
inline constexpr const char* kEventClusterDropped = "cluster-dropped";
// Durability layer: replica placement on churning stores (swap/durability.h).
inline constexpr const char* kEventReplicaLost = "replica-lost";
inline constexpr const char* kEventReReplicated = "re-replicated";
inline constexpr const char* kEventStoreDeparted = "store-departed";
// Prefetch subsystem: a speculative guess was consumed by the application
// ("prefetch-hit") or discarded untouched ("prefetch-waste"). Properties:
// "swap_cluster", and "kind" = "staged" (payload in the cache) | "loaded"
// (full speculative swap-in).
inline constexpr const char* kEventPrefetchHit = "prefetch-hit";
inline constexpr const char* kEventPrefetchWaste = "prefetch-waste";
// Crash recovery (swap/intent_journal.h): one "recovery-op" per torn
// journal entry resolved ("swap_cluster", "op", "action" = "rolled_back" |
// "rolled_forward" | "lost"), then a "recovery-completed" summary.
inline constexpr const char* kEventRecoveryOp = "recovery-op";
inline constexpr const char* kEventRecoveryCompleted = "recovery-completed";
// Degraded-mode layer (net/health.h + swap/manager.h): a store's circuit
// breaker changed state ("device", "from", "to"), or the manager entered /
// left brownout ("reason", "effective_k").
inline constexpr const char* kEventBreakerTransition = "breaker-transition";
inline constexpr const char* kEventBrownoutEntered = "brownout-entered";
inline constexpr const char* kEventBrownoutExited = "brownout-exited";

/// An event instance: a type plus string/int properties.
class Event {
 public:
  explicit Event(std::string type) : type_(std::move(type)) {}

  const std::string& type() const { return type_; }

  Event& Set(std::string key, std::string value) {
    strings_[std::move(key)] = std::move(value);
    return *this;
  }
  Event& Set(std::string key, int64_t value) {
    ints_[std::move(key)] = value;
    return *this;
  }

  /// Property lookup; errors if absent.
  Result<std::string> GetString(const std::string& key) const;
  Result<int64_t> GetInt(const std::string& key) const;
  int64_t GetIntOr(const std::string& key, int64_t fallback) const;

  const std::unordered_map<std::string, std::string>& strings() const {
    return strings_;
  }
  const std::unordered_map<std::string, int64_t>& ints() const {
    return ints_;
  }

 private:
  std::string type_;
  std::unordered_map<std::string, std::string> strings_;
  std::unordered_map<std::string, int64_t> ints_;
};

using EventHandler = std::function<void(const Event&)>;

/// Synchronous pub-sub bus. Handlers run in subscription order; a handler
/// may publish further events (delivered re-entrantly).
class EventBus {
 public:
  /// Subscribes to one event type; returns a token for Unsubscribe.
  uint64_t Subscribe(const std::string& type, EventHandler handler);
  /// Subscribes to every event type.
  uint64_t SubscribeAll(EventHandler handler);
  void Unsubscribe(uint64_t token);

  void Publish(const Event& event);

  uint64_t published_count() const { return published_; }

 private:
  struct Subscription {
    uint64_t token;
    EventHandler handler;
  };
  std::unordered_map<std::string, std::vector<Subscription>> by_type_;
  std::vector<Subscription> all_;
  uint64_t next_token_ = 1;
  uint64_t published_ = 0;
};

}  // namespace obiswap::context
