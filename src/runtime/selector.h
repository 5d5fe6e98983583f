// Selector: an interned method name.
//
// The paper's `obicomp` stubs called a method through a compiled slot, so
// a crossing cost about a virtual call. The metadata-driven runtime gets
// the same effect by interning every method name once, process-wide, into
// a small dense id: a class resolves a selector by indexing a table built
// when its methods are declared, and no call compares strings. A call site
// interns its selector once (a function-local static) and reuses it.
#pragma once

#include <cstdint>
#include <string_view>

namespace obiswap::runtime {

class Selector {
 public:
  /// Names no method: every lookup of it fails.
  Selector() = default;
  /// Interns `name` (idempotent: equal names give equal selectors).
  explicit Selector(std::string_view name);

  uint32_t id() const { return id_; }
  bool valid() const { return id_ != kNone; }
  /// The interned name ("" for the default selector).
  std::string_view name() const;

  bool operator==(const Selector& other) const = default;

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  /// The process-wide id of `name`, assigned on first sight.
  static uint32_t Intern(std::string_view name);

  uint32_t id_ = kNone;
};

}  // namespace obiswap::runtime
