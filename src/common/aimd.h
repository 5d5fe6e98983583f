// AIMD pacer for background store-traffic producers.
//
// The durability repair sweep and the tier write-back path are open-loop
// producers: left alone they submit as much work per poll as they can find,
// which is exactly wrong while the store pool is shedding load. An
// AimdPacer bounds how many operations one batch (sweep, poll) may launch;
// the cap opens additively on success and halves on pushback, the classic
// TCP-style response that converges on the store's actual service rate
// without any explicit signalling beyond the pushback status itself.
//
// Deterministic by construction: integer cap, no time source, no
// randomness. Disabled (the default) it admits everything, so attaching a
// pacer is byte-parity-safe until an option switches it on.
#pragma once

#include <cstdint>

namespace obiswap {

class AimdPacer {
 public:
  static constexpr uint32_t kMinCap = 1;      ///< floor after pushbacks
  static constexpr uint32_t kMaxCap = 64;     ///< additive increase stops here
  static constexpr uint32_t kInitialCap = 4;  ///< cap before any feedback

  struct Stats {
    uint64_t windows = 0;    ///< batches started
    uint64_t admitted = 0;   ///< operations allowed through
    uint64_t deferred = 0;   ///< operations refused (cap reached)
    uint64_t raises = 0;     ///< additive increases applied
    uint64_t backoffs = 0;   ///< multiplicative decreases applied
  };

  explicit AimdPacer(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  uint32_t cap() const { return cap_; }
  const Stats& stats() const { return stats_; }

  /// Starts a new batch; the in-window admission count resets but the cap
  /// carries over (the feedback loop spans batches).
  void BeginWindow() {
    in_window_ = 0;
    ++stats_.windows;
  }

  /// True if the current batch may launch one more operation. Disabled
  /// pacers admit everything.
  bool Admit() {
    if (!enabled_) {
      ++stats_.admitted;
      return true;
    }
    if (in_window_ >= cap_) {
      ++stats_.deferred;
      return false;
    }
    ++in_window_;
    ++stats_.admitted;
    return true;
  }

  /// Additive increase: the store served us, the cap can open one notch.
  void OnSuccess() {
    if (!enabled_) return;
    if (cap_ < kMaxCap) {
      ++cap_;
      ++stats_.raises;
    }
  }

  /// Multiplicative decrease: the store shed us, halve the cap.
  void OnPushback() {
    if (!enabled_) return;
    cap_ = cap_ / 2 < kMinCap ? kMinCap : cap_ / 2;
    ++stats_.backoffs;
  }

 private:
  bool enabled_;
  uint32_t cap_ = kInitialCap;
  uint32_t in_window_ = 0;
  Stats stats_;
};

}  // namespace obiswap
