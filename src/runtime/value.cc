#include "runtime/value.h"

namespace obiswap::runtime {

bool Value::operator==(const Value& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case ValueKind::kNil:
      return true;
    case ValueKind::kRef:
      return ref_ == other.ref_;
    case ValueKind::kInt:
      return int_ == other.int_;
    case ValueKind::kReal:
      return real_ == other.real_;
    case ValueKind::kStr:
      return str_ == other.str_;
  }
  return false;
}

}  // namespace obiswap::runtime
