// Deterministic fault injection for the swap pipeline.
//
// The paper's detach/fault protocol assumes the middleware never dies
// mid-operation; real mobile processes are killed at arbitrary instruction
// boundaries. The FaultInjector names each boundary worth killing at — one
// fault point per pipeline stage (serialize, ship-replica, patch-proxy,
// journal-commit, decompress, ...) — and lets tests script exactly which
// hit of which point misbehaves:
//
//   * kCrash — the middleware "dies": the running operation is abandoned
//     with whatever shared-state mutations it already made left torn, and
//     the manager refuses further work until SwappingManager::Recover().
//     The device heap and every store survive (a process kill loses RAM
//     bookkeeping consistency, not flash or remote store contents).
//   * kError — the stage fails through its normal error path (exercises
//     rollback/unwind code without a restart).
//   * kDelay — the stage stalls for `delay_us` of virtual time (advances
//     the attached SimClock) and then proceeds.
//
// Every Hit() is counted per point whether or not a script is armed, so a
// chaos harness can run an operation once cleanly, read hit_counts(), and
// then enumerate every (point, nth-hit) pair exhaustively — the
// "crash-everywhere" sweep. Scripts fire once (one-shot) on their Nth hit.
//
// Scriptable at runtime through the "inject-fault" policy action.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "net/sim_clock.h"

namespace obiswap::swap {

enum class FaultKind : uint8_t {
  kCrash,  ///< abandon the op mid-mutation; Recover() required
  kError,  ///< fail the stage through its normal error path
  kDelay,  ///< advance the virtual clock, then proceed
};

Result<FaultKind> ParseFaultKind(std::string_view name);

class FaultInjector {
 public:
  /// What the pipeline must do at a fault point.
  enum class Action : uint8_t { kNone, kCrash, kError, kDelay };

  struct Outcome {
    Action action = Action::kNone;
    uint64_t hit = 0;  ///< 1-based hit ordinal of this point
  };

  struct Stats {
    uint64_t hits = 0;     ///< fault points traversed
    uint64_t crashes = 0;  ///< scripted crashes fired
    uint64_t errors = 0;   ///< scripted errors fired
    uint64_t delays = 0;   ///< scripted delays fired
  };

  /// Arms one scripted fault: the `at_hit`-th traversal of `point`
  /// (1-based, counted from the last Reset) fires `kind` once. Multiple
  /// scripts may target the same point.
  void Arm(std::string point, FaultKind kind, uint64_t at_hit = 1,
           uint64_t delay_us = 0);

  /// Clears every script and every hit counter.
  void Reset();

  /// Called by the pipeline at each named boundary. Counts the hit, fires
  /// a matching un-fired script if any (applying a kDelay to the attached
  /// clock itself), and tells the caller how to proceed.
  Outcome Hit(std::string_view point);

  /// Clock advanced by kDelay scripts. Optional; without it delays are
  /// recorded but time does not move.
  void AttachClock(net::SimClock* clock) { clock_ = clock; }

  /// Hit count of one point since the last Reset (0 if never traversed).
  uint64_t hits(std::string_view point) const;

  /// Every point ever traversed since the last Reset, with counts, in
  /// deterministic (sorted) order — the chaos harness's point universe.
  const std::map<std::string, uint64_t, std::less<>>& hit_counts() const {
    return hits_;
  }

  /// Scripts armed but not yet fired.
  size_t pending_scripts() const;

  const Stats& stats() const { return stats_; }

 private:
  struct Script {
    FaultKind kind;
    uint64_t at_hit;
    uint64_t delay_us;
    bool fired = false;
  };

  std::map<std::string, std::vector<Script>, std::less<>> scripts_;
  std::map<std::string, uint64_t, std::less<>> hits_;
  net::SimClock* clock_ = nullptr;
  Stats stats_;
};

}  // namespace obiswap::swap
