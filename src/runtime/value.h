// Value: the tagged slot type of the managed runtime.
//
// Every field of a managed object is a Value — nil, an object reference, an
// integer, a real, or a string (strings are binary-safe and double as byte
// blobs). The GC traces kRef slots; the serializer round-trips all kinds.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"
#include "common/string_util.h"

namespace obiswap::runtime {

class Object;

enum class ValueKind : uint8_t {
  kNil = 0,
  kRef,   ///< reference to a managed Object (possibly a proxy)
  kInt,   ///< 64-bit signed integer
  kReal,  ///< double
  kStr,   ///< binary-safe string / byte blob
};

/// Stable kind names used by the XML serializer ("nil", "ref", ...).
inline const char* ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kNil:
      return "nil";
    case ValueKind::kRef:
      return "ref";
    case ValueKind::kInt:
      return "int";
    case ValueKind::kReal:
      return "real";
    case ValueKind::kStr:
      return "str";
  }
  return "?";
}

/// Inverse of ValueKindName over every kind; nullopt for any other name.
inline std::optional<ValueKind> ParseValueKind(std::string_view name) {
  for (uint8_t i = 0;; ++i) {
    const auto kind = static_cast<ValueKind>(i);
    const std::string_view known = ValueKindName(kind);
    if (known == "?") return std::nullopt;
    if (name == known) return kind;
  }
}

/// A tagged value. Copyable; copying a kRef copies the pointer (object
/// identity), copying a kStr copies the bytes.
class Value {
 public:
  Value() = default;
  Value(const Value&) = default;
  Value& operator=(const Value&) = default;
  Value(Value&&) = default;
  /// Move-assignment swaps the string payload instead of std::string's
  /// move-assign, which keeps the destination's (possibly huge) buffer when
  /// the source is short — that would leak capacity into slot accounting.
  Value& operator=(Value&& other) noexcept {
    kind_ = other.kind_;
    ref_ = other.ref_;
    int_ = other.int_;
    str_.swap(other.str_);
    return *this;
  }

  static Value Nil() { return Value(); }
  static Value Ref(Object* target) {
    Value v;
    v.kind_ = ValueKind::kRef;
    v.ref_ = target;
    return v;
  }
  static Value Int(int64_t value) {
    Value v;
    v.kind_ = ValueKind::kInt;
    v.int_ = value;
    return v;
  }
  static Value Real(double value) {
    Value v;
    v.kind_ = ValueKind::kReal;
    v.real_ = value;
    return v;
  }
  static Value Str(std::string value) {
    Value v;
    v.kind_ = ValueKind::kStr;
    v.str_ = std::move(value);
    return v;
  }

  ValueKind kind() const { return kind_; }
  bool is_nil() const { return kind_ == ValueKind::kNil; }
  bool is_ref() const { return kind_ == ValueKind::kRef; }
  bool is_int() const { return kind_ == ValueKind::kInt; }
  bool is_real() const { return kind_ == ValueKind::kReal; }
  bool is_str() const { return kind_ == ValueKind::kStr; }

  /// Accessors assume the matching kind (checked in debug via the caller).
  Object* ref() const { return ref_; }
  int64_t as_int() const { return int_; }
  double as_real() const { return real_; }
  const std::string& as_str() const { return str_; }

  /// For middleware use: retarget a kRef value in place.
  void set_ref(Object* target) { ref_ = target; }

  /// Approximate heap bytes attributable to this slot beyond its inline
  /// footprint (string payload only).
  size_t DynamicBytes() const {
    return kind_ == ValueKind::kStr ? str_.capacity() : 0;
  }

  /// Structural equality: same kind and same payload (kRef compares the
  /// pointer — swap-cluster-proxy identity is handled by SwapIdentity).
  bool operator==(const Value& other) const;

 private:
  ValueKind kind_ = ValueKind::kNil;
  Object* ref_ = nullptr;
  union {
    int64_t int_ = 0;
    double real_;
  };
  std::string str_;
};

// --- scalar text form ---------------------------------------------------
// How the XML envelopes and cluster documents carry a non-ref value: a `t`
// attribute naming its kind (ValueKindName) and text holding its payload.
// Ints are decimal, reals printed with 17 significant digits (so they
// round-trip), strings verbatim; nil has no text.

/// The text form of a nil, int, real or str value ("" for nil and ref).
inline std::string ScalarText(const Value& value) {
  switch (value.kind()) {
    case ValueKind::kInt:
      return std::to_string(value.as_int());
    case ValueKind::kReal:
      return StrFormat("%.17g", value.as_real());
    case ValueKind::kStr:
      return value.as_str();
    case ValueKind::kNil:
    case ValueKind::kRef:
      break;
  }
  return std::string();
}

/// The nil, int, real or str value whose text form is `text` (nil ignores
/// it). A malformed number fails with ParseInt64's or ParseDouble's error;
/// kRef has no text form and is kInvalidArgument.
inline Result<Value> ParseScalar(ValueKind kind, std::string_view text) {
  switch (kind) {
    case ValueKind::kNil:
      return Value::Nil();
    case ValueKind::kInt: {
      OBISWAP_ASSIGN_OR_RETURN(int64_t parsed, ParseInt64(text));
      return Value::Int(parsed);
    }
    case ValueKind::kReal: {
      OBISWAP_ASSIGN_OR_RETURN(double parsed, ParseDouble(text));
      return Value::Real(parsed);
    }
    case ValueKind::kStr:
      return Value::Str(std::string(text));
    case ValueKind::kRef:
      break;
  }
  return InvalidArgumentError("a ref has no scalar text form");
}

}  // namespace obiswap::runtime
