#include "swap/fault_injector.h"

namespace obiswap::swap {

Result<FaultKind> ParseFaultKind(std::string_view name) {
  if (name == "crash") return FaultKind::kCrash;
  if (name == "error") return FaultKind::kError;
  if (name == "delay") return FaultKind::kDelay;
  return InvalidArgumentError("unknown fault kind '" + std::string(name) +
                              "' (want crash|error|delay)");
}

void FaultInjector::Arm(std::string point, FaultKind kind, uint64_t at_hit,
                        uint64_t delay_us) {
  if (at_hit == 0) at_hit = 1;
  scripts_[std::move(point)].push_back(Script{kind, at_hit, delay_us});
}

void FaultInjector::Reset() {
  scripts_.clear();
  hits_.clear();
}

FaultInjector::Outcome FaultInjector::Hit(std::string_view point) {
  ++stats_.hits;
  auto hit_it = hits_.find(point);
  if (hit_it == hits_.end())
    hit_it = hits_.emplace(std::string(point), uint64_t{0}).first;
  const uint64_t ordinal = ++hit_it->second;

  Outcome outcome;
  outcome.hit = ordinal;
  auto script_it = scripts_.find(point);
  if (script_it == scripts_.end()) return outcome;
  for (Script& script : script_it->second) {
    if (script.fired || script.at_hit != ordinal) continue;
    script.fired = true;
    switch (script.kind) {
      case FaultKind::kCrash:
        ++stats_.crashes;
        outcome.action = Action::kCrash;
        return outcome;
      case FaultKind::kError:
        ++stats_.errors;
        outcome.action = Action::kError;
        return outcome;
      case FaultKind::kDelay:
        ++stats_.delays;
        if (clock_ != nullptr) clock_->Advance(script.delay_us);
        outcome.action = Action::kDelay;
        return outcome;
    }
  }
  return outcome;
}

uint64_t FaultInjector::hits(std::string_view point) const {
  auto it = hits_.find(point);
  return it == hits_.end() ? 0 : it->second;
}

size_t FaultInjector::pending_scripts() const {
  size_t pending = 0;
  for (const auto& [point, scripts] : scripts_) {
    for (const Script& script : scripts)
      if (!script.fired) ++pending;
  }
  return pending;
}

}  // namespace obiswap::swap
