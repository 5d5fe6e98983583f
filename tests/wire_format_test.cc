// Tests for the binary wire format (OSWB), cluster deltas (OSWD), and the
// delta swap-out/swap-in pipeline.
//
// Three layers:
//   1. XML <-> binary parity: both serializers must reconstruct the same
//      heap state from the same members, across hostile values (NaN, ±inf,
//      -0.0, INT64_MIN/MAX, empty strings, all 256 byte values).
//   2. Delta algebra: Apply(base, Diff(base, fresh)) == fresh byte-for-byte
//      (the encoder is canonical), under a deterministic random-mutation
//      fuzz; tampered deltas and wrong bases are rejected.
//   3. End-to-end: a dirty re-swap-out under wire_format="binary" +
//      delta_swap_out ships an OSWD delta, the next swap-in merges it (from
//      the cached base or by fetching the base replicas), and crashes at
//      the delta-specific fault points recover with full invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "serialization/graph_binary.h"
#include "test_support.h"

namespace obiswap {
namespace {

using runtime::ClassBuilder;
using runtime::ClassInfo;
using runtime::LocalScope;
using runtime::Object;
using runtime::ObjectKind;
using runtime::Runtime;
using runtime::Value;
using runtime::ValueKind;
using serialization::ApplyClusterDelta;
using serialization::DeserializeCluster;
using serialization::DeserializeClusterAny;
using serialization::DeserializeClusterBinary;
using serialization::DeserializeOptions;
using serialization::DiffClusterPayloads;
using serialization::ExternalRef;
using serialization::IsBinaryClusterPayload;
using serialization::IsClusterDeltaPayload;
using serialization::SerializeCluster;
using serialization::SerializeClusterBinary;
using ::obiswap::testing::BuildClusteredList;
using ::obiswap::testing::CheckMediationInvariant;
using ::obiswap::testing::MiddlewareWorld;
using ::obiswap::testing::RegisterNodeClass;
using ::obiswap::testing::SumList;

// ----------------------------------------------------------- test graphs --

void RegisterItem(Runtime& rt) {
  *rt.types().Register(ClassBuilder("Item")
                           .Field("next", ValueKind::kRef)
                           .Field("count", ValueKind::kInt)
                           .Field("weight", ValueKind::kReal)
                           .Field("label", ValueKind::kStr)
                           .Field("extra"));
}

class WireFormatFixture : public ::testing::Test {
 protected:
  WireFormatFixture() {
    RegisterItem(rt_);
    cls_ = rt_.types().Find("Item");
    ext_cls_ = *rt_.types().Register(
        ClassBuilder("Ext").Kind(ObjectKind::kReplicationProxy));
  }

  Object* NewItem(LocalScope& scope, int64_t count) {
    Object* obj = rt_.New(cls_);
    scope.Add(obj);
    OBISWAP_CHECK(rt_.SetField(obj, "count", Value::Int(count)).ok());
    return obj;
  }

  static Result<ExternalRef> NoExternals(Object*) {
    return InternalError("unexpected external ref");
  }
  static Result<Object*> ResolveNone(const ExternalRef&) {
    return InternalError("unexpected external ref");
  }
  /// Describes any non-member target by identity (byte-level delta tests
  /// never resolve, so every object is describable).
  static Result<ExternalRef> DescribeAny(Object* target) {
    ExternalRef ref;
    ref.oid = target->oid();
    ref.class_name = target->cls().name();
    return ref;
  }

  Runtime rt_;
  const ClassInfo* cls_ = nullptr;
  const ClassInfo* ext_cls_ = nullptr;
};

/// A string exercising every byte value, including NUL and the C0 control
/// range the XML escaper must round-trip.
std::string AllBytes() {
  std::string s;
  for (int i = 0; i < 256; ++i) s.push_back(static_cast<char>(i));
  return s;
}

/// Value equality for parity checks: reals compare by semantic value with
/// NaN == NaN (XML canonicalizes NaN payloads; binary keeps bit patterns —
/// both are faithful round-trips of "a NaN").
void ExpectSameValue(const Value& a, const Value& b, const std::string& at) {
  if (a.is_nil() || b.is_nil()) {
    EXPECT_TRUE(a.is_nil() && b.is_nil()) << at;
    return;
  }
  ASSERT_EQ(a.kind(), b.kind()) << at;
  switch (a.kind()) {
    case ValueKind::kInt:
      EXPECT_EQ(a.as_int(), b.as_int()) << at;
      break;
    case ValueKind::kReal:
      if (std::isnan(a.as_real())) {
        EXPECT_TRUE(std::isnan(b.as_real())) << at;
      } else {
        // Covers ±inf and distinguishes -0.0 from 0.0.
        EXPECT_EQ(std::signbit(a.as_real()), std::signbit(b.as_real())) << at;
        EXPECT_EQ(a.as_real(), b.as_real()) << at;
      }
      break;
    case ValueKind::kStr:
      EXPECT_EQ(a.as_str(), b.as_str()) << at;
      break;
    default:
      FAIL() << at << ": unexpected kind";
  }
}

/// Asserts two deserialized member lists describe the same heap state:
/// same identities and classes, scalar slots equal, local refs pointing at
/// the same member index, external refs at objects of the same class.
void ExpectSameHeapState(const std::vector<Object*>& a,
                         const std::vector<Object*>& b) {
  ASSERT_EQ(a.size(), b.size());
  std::unordered_map<const Object*, size_t> index_a, index_b;
  for (size_t i = 0; i < a.size(); ++i) {
    index_a[a[i]] = i;
    index_b[b[i]] = i;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string at = "member " + std::to_string(i);
    EXPECT_EQ(a[i]->oid(), b[i]->oid()) << at;
    EXPECT_EQ(a[i]->cls().name(), b[i]->cls().name()) << at;
    ASSERT_EQ(a[i]->slot_count(), b[i]->slot_count()) << at;
    for (size_t s = 0; s < a[i]->slot_count(); ++s) {
      const std::string here = at + " slot " + std::to_string(s);
      const Value& va = a[i]->RawSlot(s);
      const Value& vb = b[i]->RawSlot(s);
      if (va.is_ref() || vb.is_ref()) {
        ASSERT_TRUE(va.is_ref() && vb.is_ref()) << here;
        if (va.ref() == nullptr || vb.ref() == nullptr) {
          EXPECT_TRUE(va.ref() == nullptr && vb.ref() == nullptr) << here;
          continue;
        }
        auto ia = index_a.find(va.ref());
        auto ib = index_b.find(vb.ref());
        if (ia != index_a.end() || ib != index_b.end()) {
          ASSERT_TRUE(ia != index_a.end() && ib != index_b.end()) << here;
          EXPECT_EQ(ia->second, ib->second) << here;
        } else {
          EXPECT_EQ(va.ref()->cls().name(), vb.ref()->cls().name()) << here;
        }
        continue;
      }
      ExpectSameValue(va, vb, here);
    }
  }
}

// ------------------------------------------------------- binary round trip --

TEST_F(WireFormatFixture, BinaryRoundTripsHostileValues) {
  LocalScope scope(rt_.heap());
  Object* a = NewItem(scope, std::numeric_limits<int64_t>::min());
  Object* b = NewItem(scope, std::numeric_limits<int64_t>::max());
  Object* c = NewItem(scope, -1);
  ASSERT_TRUE(
      rt_.SetField(a, "weight",
                   Value::Real(std::numeric_limits<double>::quiet_NaN()))
          .ok());
  ASSERT_TRUE(
      rt_.SetField(b, "weight",
                   Value::Real(-std::numeric_limits<double>::infinity()))
          .ok());
  ASSERT_TRUE(rt_.SetField(c, "weight", Value::Real(-0.0)).ok());
  ASSERT_TRUE(rt_.SetField(a, "label", Value::Str("")).ok());
  ASSERT_TRUE(rt_.SetField(b, "label", Value::Str(AllBytes())).ok());
  ASSERT_TRUE(rt_.SetField(a, "next", Value::Ref(b)).ok());
  ASSERT_TRUE(rt_.SetField(c, "next", Value::Ref(c)).ok());  // self-cycle

  auto serialized = SerializeClusterBinary(rt_, 11, {a, b, c}, NoExternals);
  ASSERT_TRUE(serialized.ok()) << serialized.status().ToString();
  EXPECT_TRUE(IsBinaryClusterPayload(serialized->payload));
  EXPECT_FALSE(IsClusterDeltaPayload(serialized->payload));

  Runtime rt2;
  RegisterItem(rt2);
  DeserializeOptions options;
  options.expected_id = 11;
  auto members =
      DeserializeClusterBinary(rt2, serialized->payload, options, ResolveNone);
  ASSERT_TRUE(members.ok()) << members.status().ToString();
  ASSERT_EQ(members->size(), 3u);
  Object* a2 = (*members)[0];
  Object* b2 = (*members)[1];
  Object* c2 = (*members)[2];
  EXPECT_EQ(a2->RawSlot(1).as_int(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(b2->RawSlot(1).as_int(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(c2->RawSlot(1).as_int(), -1);
  // Binary reals are bit-exact.
  uint64_t nan_bits_in, nan_bits_out;
  double nan_in = std::numeric_limits<double>::quiet_NaN();
  double nan_out = a2->RawSlot(2).as_real();
  std::memcpy(&nan_bits_in, &nan_in, sizeof(nan_bits_in));
  std::memcpy(&nan_bits_out, &nan_out, sizeof(nan_bits_out));
  EXPECT_EQ(nan_bits_in, nan_bits_out);
  EXPECT_EQ(b2->RawSlot(2).as_real(),
            -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::signbit(c2->RawSlot(2).as_real()));
  EXPECT_EQ(a2->RawSlot(3).as_str(), "");
  EXPECT_EQ(b2->RawSlot(3).as_str(), AllBytes());
  EXPECT_EQ(a2->RawSlot(0).ref(), b2);
  EXPECT_EQ(c2->RawSlot(0).ref(), c2);
  EXPECT_TRUE(a2->RawSlot(4).is_nil());
}

TEST_F(WireFormatFixture, XmlAndBinaryReconstructTheSameHeapState) {
  LocalScope scope(rt_.heap());
  Object* a = NewItem(scope, 7);
  Object* b = NewItem(scope, -42);
  Object* external = rt_.New(ext_cls_);
  scope.Add(external);
  ASSERT_TRUE(rt_.SetField(a, "weight", Value::Real(0.1)).ok());
  ASSERT_TRUE(rt_.SetField(b, "weight",
                           Value::Real(std::numeric_limits<double>::infinity()))
                  .ok());
  ASSERT_TRUE(rt_.SetField(a, "label", Value::Str(AllBytes())).ok());
  ASSERT_TRUE(rt_.SetField(b, "label", Value::Str("plain")).ok());
  ASSERT_TRUE(rt_.SetField(a, "next", Value::Ref(b)).ok());
  b->RawSlotMutable(0) = Value::Ref(external);

  auto xml = SerializeCluster(rt_, 5, {a, b}, DescribeAny);
  auto bin = SerializeClusterBinary(rt_, 5, {a, b}, DescribeAny);
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();
  ASSERT_TRUE(bin.ok()) << bin.status().ToString();
  ASSERT_EQ(xml->outbound.size(), bin->outbound.size());
  // The tag-free encoding is what pays for the delta machinery: the same
  // document must cost fewer bytes in binary.
  EXPECT_LT(bin->payload.size(), xml->payload.size());

  Runtime rt_xml, rt_bin;
  RegisterItem(rt_xml);
  RegisterItem(rt_bin);
  auto make_resolver = [](Runtime& rt) {
    const ClassInfo* ext = *rt.types().Register(
        ClassBuilder("Ext").Kind(ObjectKind::kReplicationProxy));
    return [&rt, ext](const ExternalRef& ref) -> Result<Object*> {
      EXPECT_EQ(ref.class_name, "Ext");
      return rt.New(ext);
    };
  };
  DeserializeOptions options;
  options.expected_id = 5;
  auto from_xml =
      DeserializeClusterAny(rt_xml, xml->payload, options,
                            make_resolver(rt_xml));
  auto from_bin =
      DeserializeClusterAny(rt_bin, bin->payload, options,
                            make_resolver(rt_bin));
  ASSERT_TRUE(from_xml.ok()) << from_xml.status().ToString();
  ASSERT_TRUE(from_bin.ok()) << from_bin.status().ToString();
  ExpectSameHeapState(*from_xml, *from_bin);
}

TEST_F(WireFormatFixture, BinaryEncodingIsCanonical) {
  LocalScope scope(rt_.heap());
  Object* a = NewItem(scope, 1);
  Object* b = NewItem(scope, 2);
  ASSERT_TRUE(rt_.SetField(a, "next", Value::Ref(b)).ok());
  auto first = SerializeClusterBinary(rt_, 3, {a, b}, NoExternals);
  auto second = SerializeClusterBinary(rt_, 3, {a, b}, NoExternals);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->payload, second->payload);
}

TEST_F(WireFormatFixture, BinaryRejectsTamperingIdMismatchAndGarbage) {
  LocalScope scope(rt_.heap());
  Object* a = NewItem(scope, 1234);
  ASSERT_TRUE(rt_.SetField(a, "label", Value::Str("payload")).ok());
  auto serialized = SerializeClusterBinary(rt_, 6, {a}, NoExternals);
  ASSERT_TRUE(serialized.ok());

  DeserializeOptions options;
  options.expected_id = 6;
  // Every single-byte corruption past the magic must be rejected (digest,
  // bounds checks, or strict structure) — never silently mis-decoded.
  for (size_t i = 4; i < serialized->payload.size(); ++i) {
    std::string tampered = serialized->payload;
    tampered[i] = static_cast<char>(tampered[i] ^ 0x20);
    auto members = DeserializeClusterBinary(rt_, tampered, options,
                                            ResolveNone);
    if (!members.ok()) continue;
    // A flip may survive decoding only by reproducing equivalent content
    // (e.g. a varint redundant encoding is impossible here, but keep the
    // check honest): the decoded state must match the original.
    ASSERT_EQ((*members).size(), 1u) << "flip at " << i;
    EXPECT_EQ((*members)[0]->RawSlot(1).as_int(), 1234) << "flip at " << i;
    EXPECT_EQ((*members)[0]->RawSlot(3).as_str(), "payload")
        << "flip at " << i;
  }

  DeserializeOptions wrong_id;
  wrong_id.expected_id = 7;
  EXPECT_FALSE(
      DeserializeClusterBinary(rt_, serialized->payload, wrong_id, ResolveNone)
          .ok());
  EXPECT_FALSE(DeserializeClusterAny(rt_, "", options, ResolveNone).ok());
  EXPECT_FALSE(DeserializeClusterAny(rt_, "OSWX????", options, ResolveNone)
                   .ok());
}

TEST_F(WireFormatFixture, BinaryRejectsSchemaSkew) {
  LocalScope scope(rt_.heap());
  Object* a = NewItem(scope, 9);
  auto serialized = SerializeClusterBinary(rt_, 2, {a}, NoExternals);
  ASSERT_TRUE(serialized.ok());

  // Same class name, different field count: the field-order encoding must
  // detect the skew instead of shifting every value by one slot.
  Runtime skewed;
  *skewed.types().Register(ClassBuilder("Item")
                               .Field("next", ValueKind::kRef)
                               .Field("count", ValueKind::kInt));
  DeserializeOptions options;
  options.expected_id = 2;
  auto members =
      DeserializeClusterBinary(skewed, serialized->payload, options,
                               ResolveNone);
  EXPECT_FALSE(members.ok());

  Runtime empty;  // class not registered at all
  EXPECT_FALSE(
      DeserializeClusterBinary(empty, serialized->payload, options,
                               ResolveNone)
          .ok());
}

// ----------------------------------------------------------- delta algebra --

TEST_F(WireFormatFixture, DeltaReproducesFreshByteForByte) {
  LocalScope scope(rt_.heap());
  std::vector<Object*> members;
  for (int i = 0; i < 8; ++i) {
    Object* obj = NewItem(scope, i);
    if (!members.empty())
      OBISWAP_CHECK(
          rt_.SetField(members.back(), "next", Value::Ref(obj)).ok());
    members.push_back(obj);
  }
  auto base = SerializeClusterBinary(rt_, 1, members, NoExternals);
  ASSERT_TRUE(base.ok());

  // One int field out of 8 members changes.
  ASSERT_TRUE(rt_.SetField(members[3], "count", Value::Int(999)).ok());
  auto fresh = SerializeClusterBinary(rt_, 1, members, NoExternals);
  ASSERT_TRUE(fresh.ok());

  auto delta = DiffClusterPayloads(base->payload, fresh->payload);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_TRUE(IsClusterDeltaPayload(*delta));
  // A one-field change must cost far less than the full document.
  EXPECT_LT(delta->size(), fresh->payload.size() / 2);

  auto merged = ApplyClusterDelta(base->payload, *delta);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(*merged, fresh->payload);
}

TEST_F(WireFormatFixture, DeltaHandlesMembershipChanges) {
  LocalScope scope(rt_.heap());
  std::vector<Object*> members;
  for (int i = 0; i < 6; ++i) members.push_back(NewItem(scope, i));
  for (int i = 0; i + 1 < 6; ++i)
    ASSERT_TRUE(
        rt_.SetField(members[i], "next", Value::Ref(members[i + 1])).ok());
  auto base = SerializeClusterBinary(rt_, 4, members, NoExternals);
  ASSERT_TRUE(base.ok());

  // Remove the middle member (re-linking around it) and append a new one:
  // member indices shift, so carried refs must be remapped by oid.
  Object* removed = members[3];
  ASSERT_TRUE(
      rt_.SetField(members[2], "next", Value::Ref(members[4])).ok());
  members.erase(members.begin() + 3);
  (void)removed;
  Object* added = NewItem(scope, 100);
  ASSERT_TRUE(rt_.SetField(members.back(), "next", Value::Ref(added)).ok());
  members.push_back(added);

  auto fresh = SerializeClusterBinary(rt_, 4, members, NoExternals);
  ASSERT_TRUE(fresh.ok());
  auto delta = DiffClusterPayloads(base->payload, fresh->payload);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  auto merged = ApplyClusterDelta(base->payload, *delta);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(*merged, fresh->payload);
}

TEST_F(WireFormatFixture, DeltaRejectsWrongBaseAndTampering) {
  LocalScope scope(rt_.heap());
  Object* a = NewItem(scope, 1);
  auto base = SerializeClusterBinary(rt_, 1, {a}, NoExternals);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(rt_.SetField(a, "count", Value::Int(2)).ok());
  auto mid = SerializeClusterBinary(rt_, 1, {a}, NoExternals);
  ASSERT_TRUE(mid.ok());
  ASSERT_TRUE(rt_.SetField(a, "count", Value::Int(3)).ok());
  auto fresh = SerializeClusterBinary(rt_, 1, {a}, NoExternals);
  ASSERT_TRUE(fresh.ok());

  auto delta = DiffClusterPayloads(mid->payload, fresh->payload);
  ASSERT_TRUE(delta.ok());

  // Applied against the wrong base: base-digest mismatch, kDataLoss.
  auto wrong = ApplyClusterDelta(base->payload, *delta);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kDataLoss);

  // Any corrupted delta byte must fail apply, never merge wrong bytes.
  for (size_t i = 4; i < delta->size(); ++i) {
    std::string tampered = *delta;
    tampered[i] = static_cast<char>(tampered[i] ^ 0x01);
    auto merged = ApplyClusterDelta(mid->payload, tampered);
    if (merged.ok()) {
      EXPECT_EQ(*merged, fresh->payload) << "flip at " << i;
    }
  }

  // Mismatched cluster ids are rejected at diff time.
  auto other = SerializeClusterBinary(rt_, 2, {a}, NoExternals);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(DiffClusterPayloads(base->payload, other->payload).ok());
  // Non-binary inputs are rejected.
  EXPECT_FALSE(DiffClusterPayloads("<cluster/>", fresh->payload).ok());
  EXPECT_FALSE(ApplyClusterDelta("<cluster/>", *delta).ok());
}

// Deterministic LCG (no libc rand dependence so failures replay exactly).
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 17;
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

TEST_F(WireFormatFixture, DeltaFuzzRandomMutations) {
  Lcg rng(0xB1DA5u);
  const double reals[] = {0.0,
                          -0.0,
                          1.5,
                          -3.25e8,
                          1e-300,
                          std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
  const char* strings[] = {"", "a", "hello <&> world", "\x01\x02\x7f",
                           "longer string with some bulk to diff against"};

  LocalScope scope(rt_.heap());
  // A stable pool of external targets (described by identity, never
  // resolved — the fuzz compares bytes, not heaps).
  std::vector<Object*> externals;
  for (int i = 0; i < 3; ++i) {
    externals.push_back(rt_.New(ext_cls_));
    scope.Add(externals.back());
  }

  std::vector<Object*> members;
  for (int i = 0; i < 10; ++i) members.push_back(NewItem(scope, i));

  auto mutate_value = [&](Object* obj) {
    switch (rng.Below(4)) {
      case 0:
        OBISWAP_CHECK(
            rt_.SetField(obj, "count",
                         Value::Int(static_cast<int64_t>(rng.Next()) -
                                    static_cast<int64_t>(rng.Below(2) << 62)))
                .ok());
        break;
      case 1:
        OBISWAP_CHECK(
            rt_.SetField(obj, "weight", Value::Real(reals[rng.Below(8)]))
                .ok());
        break;
      case 2:
        OBISWAP_CHECK(
            rt_.SetField(obj, "label", Value::Str(strings[rng.Below(5)]))
                .ok());
        break;
      case 3: {
        // Retarget the ref slot: nil, a member, or an external.
        uint64_t pick = rng.Below(members.size() + externals.size() + 1);
        Value target = Value::Nil();
        if (pick < members.size()) {
          target = Value::Ref(members[pick]);
        } else if (pick < members.size() + externals.size()) {
          target = Value::Ref(externals[pick - members.size()]);
        }
        obj->RawSlotMutable(0) = target;
        break;
      }
    }
  };

  for (int round = 0; round < 30; ++round) {
    auto base = SerializeClusterBinary(rt_, 1, members, DescribeAny);
    ASSERT_TRUE(base.ok()) << "round " << round << ": "
                           << base.status().ToString();

    // 1-6 random mutations, occasionally including membership churn.
    const uint64_t mutations = 1 + rng.Below(6);
    for (uint64_t m = 0; m < mutations; ++m) {
      switch (rng.Below(8)) {
        case 6:  // add a member
          members.push_back(
              NewItem(scope, static_cast<int64_t>(rng.Next())));
          break;
        case 7:  // remove a member (it stays alive; refs to it go external)
          if (members.size() > 2)
            members.erase(members.begin() +
                          static_cast<ptrdiff_t>(rng.Below(members.size())));
          break;
        default:
          mutate_value(members[rng.Below(members.size())]);
          break;
      }
    }

    auto fresh = SerializeClusterBinary(rt_, 1, members, DescribeAny);
    ASSERT_TRUE(fresh.ok()) << "round " << round << ": "
                            << fresh.status().ToString();
    auto delta = DiffClusterPayloads(base->payload, fresh->payload);
    ASSERT_TRUE(delta.ok()) << "round " << round << ": "
                            << delta.status().ToString();
    auto merged = ApplyClusterDelta(base->payload, *delta);
    ASSERT_TRUE(merged.ok()) << "round " << round << ": "
                             << merged.status().ToString();
    ASSERT_EQ(*merged, fresh->payload) << "round " << round;
    // Unchanged document → the delta degenerates to pure identity and
    // still applies.
    auto self_delta = DiffClusterPayloads(fresh->payload, fresh->payload);
    ASSERT_TRUE(self_delta.ok()) << "round " << round;
    auto self_merged = ApplyClusterDelta(fresh->payload, *self_delta);
    ASSERT_TRUE(self_merged.ok()) << "round " << round;
    EXPECT_EQ(*self_merged, fresh->payload) << "round " << round;
  }
}

// ----------------------------------------------------- delta swap pipeline --

constexpr int kNodes = 20;
constexpr int kPerCluster = 10;
constexpr int64_t kBaseSum = kNodes * (kNodes - 1) / 2;

swap::SwappingManager::Options DeltaOptions() {
  swap::SwappingManager::Options options;
  options.wire_format = "binary";
  options.delta_swap_out = true;
  options.swap_in_cache_bytes = 64 * 1024;
  return options;
}

class DeltaSwapFixture : public ::testing::Test {
 protected:
  explicit DeltaSwapFixture(
      swap::SwappingManager::Options options = DeltaOptions())
      : world_(options), node_cls_(RegisterNodeClass(world_.rt)) {
    world_.AddStore(2, 1 << 20);
    world_.AddStore(3, 1 << 20);
    clusters_ = BuildClusteredList(world_.rt, world_.manager, node_cls_,
                                   kNodes, kPerCluster, "head");
  }

  /// Writes `value` into the head node through the mediated path (the
  /// runtime write barrier is what marks the cluster dirty).
  void SetHeadValue(int64_t value) {
    Object* head = world_.rt.GetGlobal("head")->ref();
    auto result =
        world_.rt.Invoke(head, "set_value", {Value::Int(value)});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  int64_t Sum() {
    auto sum = SumList(world_.rt, "head");
    OBISWAP_CHECK(sum.ok());
    return *sum;
  }

  /// Purges the payload cache (0 empties and disables) and re-enables it.
  void PurgeCache() {
    world_.manager.set_swap_in_cache_bytes(0);
    world_.manager.set_swap_in_cache_bytes(64 * 1024);
  }

  MiddlewareWorld world_;
  const runtime::ClassInfo* node_cls_;
  std::vector<SwapClusterId> clusters_;
};

TEST_F(DeltaSwapFixture, DirtyReSwapOutShipsDelta) {
  swap::SwappingManager& m = world_.manager;
  ASSERT_TRUE(m.SwapOut(clusters_[0]).ok());
  const uint64_t full_bytes = m.stats().bytes_swapped_out;
  ASSERT_GT(full_bytes, 0u);
  ASSERT_TRUE(m.SwapIn(clusters_[0]).ok());

  SetHeadValue(100);
  EXPECT_GE(m.stats().fields_marked_dirty, 1u);

  ASSERT_TRUE(m.SwapOut(clusters_[0]).ok());
  EXPECT_EQ(m.stats().delta_swap_outs, 1u);
  EXPECT_EQ(m.stats().delta_fallbacks, 0u);
  EXPECT_GT(m.stats().delta_bytes_saved, 0u);
  const uint64_t delta_bytes = m.stats().bytes_swapped_out - full_bytes;
  // The acceptance bar: a one-field change ships well under half the full
  // payload.
  EXPECT_LE(delta_bytes * 2, full_bytes);

  ASSERT_TRUE(m.SwapIn(clusters_[0]).ok());
  EXPECT_GE(m.stats().delta_base_cache_hits, 1u);
  EXPECT_EQ(Sum(), kBaseSum - 0 + 100);
  EXPECT_EQ(CheckMediationInvariant(world_.rt), "");
}

TEST_F(DeltaSwapFixture, DeltaSwapInFetchesBaseWhenCacheCold) {
  swap::SwappingManager& m = world_.manager;
  ASSERT_TRUE(m.SwapOut(clusters_[0]).ok());
  ASSERT_TRUE(m.SwapIn(clusters_[0]).ok());
  SetHeadValue(100);
  ASSERT_TRUE(m.SwapOut(clusters_[0]).ok());
  ASSERT_EQ(m.stats().delta_swap_outs, 1u);

  // Drop the cached base: the swap-in must fetch the base replicas and the
  // delta, and merge.
  PurgeCache();
  const uint64_t base_hits = m.stats().delta_base_cache_hits;
  ASSERT_TRUE(m.SwapIn(clusters_[0]).ok());
  EXPECT_EQ(m.stats().delta_base_cache_hits, base_hits);
  EXPECT_EQ(Sum(), kBaseSum + 100);
  EXPECT_EQ(CheckMediationInvariant(world_.rt), "");
}

TEST_F(DeltaSwapFixture, SecondDirtyRoundDiffsAgainstTheSameBase) {
  swap::SwappingManager& m = world_.manager;
  ASSERT_TRUE(m.SwapOut(clusters_[0]).ok());
  ASSERT_TRUE(m.SwapIn(clusters_[0]).ok());
  SetHeadValue(100);
  ASSERT_TRUE(m.SwapOut(clusters_[0]).ok());
  ASSERT_TRUE(m.SwapIn(clusters_[0]).ok());
  SetHeadValue(200);
  // The second delta supersedes the first (diffed against the same base,
  // not chained) — its replicas are released, not leaked.
  ASSERT_TRUE(m.SwapOut(clusters_[0]).ok());
  EXPECT_EQ(m.stats().delta_swap_outs, 2u);
  ASSERT_TRUE(m.SwapIn(clusters_[0]).ok());
  EXPECT_EQ(Sum(), kBaseSum + 200);
  m.FlushPendingDrops();
  // Store-key accounting: every stored entry is a current replica record
  // (delta group + base group + any retained image groups).
  size_t recorded = 0;
  for (SwapClusterId id : m.registry().Ids()) {
    const swap::SwapClusterInfo* info = m.registry().Find(id);
    if (info == nullptr) continue;
    if (info->state == swap::SwapState::kSwapped) {
      recorded += info->replicas.size() + info->base_replicas.size();
    } else if (info->state == swap::SwapState::kLoaded &&
               info->clean_image.has_value()) {
      recorded += info->clean_image->replicas.size() +
                  info->clean_image->base_replicas.size();
    }
  }
  size_t stored = 0;
  for (const auto& store : world_.stores) stored += store->entry_count();
  EXPECT_EQ(stored, recorded);
}

TEST_F(DeltaSwapFixture, FallsBackToFullPayloadWhenBaseEvicted) {
  swap::SwappingManager& m = world_.manager;
  ASSERT_TRUE(m.SwapOut(clusters_[0]).ok());
  ASSERT_TRUE(m.SwapIn(clusters_[0]).ok());
  SetHeadValue(100);
  // Evict the cached base before the dirty re-swap-out: no base to diff
  // against, so the full payload ships (correctness over savings).
  PurgeCache();
  ASSERT_TRUE(m.SwapOut(clusters_[0]).ok());
  EXPECT_EQ(m.stats().delta_swap_outs, 0u);
  EXPECT_EQ(m.stats().delta_fallbacks, 1u);
  ASSERT_TRUE(m.SwapIn(clusters_[0]).ok());
  EXPECT_EQ(Sum(), kBaseSum + 100);
}

class XmlModeFixture : public DeltaSwapFixture {
 protected:
  static swap::SwappingManager::Options XmlOptions() {
    swap::SwappingManager::Options options = DeltaOptions();
    options.wire_format = "xml";  // delta flag set but format is text
    return options;
  }
  XmlModeFixture() : DeltaSwapFixture(XmlOptions()) {}
};

TEST_F(XmlModeFixture, XmlModeNeverShipsDeltas) {
  swap::SwappingManager& m = world_.manager;
  ASSERT_TRUE(m.SwapOut(clusters_[0]).ok());
  ASSERT_TRUE(m.SwapIn(clusters_[0]).ok());
  SetHeadValue(100);
  ASSERT_TRUE(m.SwapOut(clusters_[0]).ok());
  EXPECT_EQ(m.stats().delta_swap_outs, 0u);
  EXPECT_EQ(m.stats().delta_fallbacks, 0u);
  ASSERT_TRUE(m.SwapIn(clusters_[0]).ok());
  EXPECT_EQ(Sum(), kBaseSum + 100);
  EXPECT_EQ(CheckMediationInvariant(world_.rt), "");
}

TEST_F(DeltaSwapFixture, WireFormatSwitchMidFlightIsSniffed) {
  swap::SwappingManager& m = world_.manager;
  // Swap out in binary, flip the flag to xml while swapped: the swap-in
  // sniffs the payload bytes, not the current flag.
  ASSERT_TRUE(m.SwapOut(clusters_[0]).ok());
  ASSERT_TRUE(m.set_wire_format("xml").ok());
  PurgeCache();  // force the fetch + deserialize path
  ASSERT_TRUE(m.SwapIn(clusters_[0]).ok());
  EXPECT_EQ(Sum(), kBaseSum);
  // And the reverse: out in xml, back to binary before the swap-in.
  ASSERT_TRUE(m.SwapOut(clusters_[1]).ok());
  ASSERT_TRUE(m.set_wire_format("binary").ok());
  PurgeCache();
  ASSERT_TRUE(m.SwapIn(clusters_[1]).ok());
  EXPECT_EQ(Sum(), kBaseSum);
  EXPECT_FALSE(m.set_wire_format("msgpack").ok());
}

// ------------------------------------------------- delta crash consistency --

swap::SwappingManager::Options DeltaCrashOptions() {
  swap::SwappingManager::Options options = DeltaOptions();
  options.replication_factor = 2;
  options.codec = "rle";
  return options;
}

tier::TierManager::Options FlashTierOptions() {
  tier::TierManager::Options options;
  options.mode = tier::TierMode::kFlash;
  options.flash_slot_bytes = 512;
  options.flash_slots = 64;
  return options;
}

/// A MiddlewareWorld wired for delta crash testing: local flash, intent
/// journal, fault injector; binary wire format with delta swap-out on.
/// With `flash_tier`, full payloads land in a flash tier sharing the local
/// flash, so every delta ships against a base only the tier holds.
struct DeltaCrashWorld {
  explicit DeltaCrashWorld(bool flash_tier)
      : world(DeltaCrashOptions()),
        flash(MiddlewareWorld::kDevice, 1 << 20, world.network.clock()),
        journal(&flash),
        tiers(&flash, FlashTierOptions()) {
    world.manager.AttachClock(&world.network.clock());
    world.manager.AttachLocalStore(&flash);
    world.manager.AttachIntentJournal(&journal);
    if (flash_tier) world.manager.AttachTierManager(&tiers);
    faults.AttachClock(&world.network.clock());
    world.manager.AttachFaultInjector(&faults);
    node_cls = RegisterNodeClass(world.rt);
    world.AddStore(2, 1 << 20);
    world.AddStore(3, 1 << 20);
    clusters = BuildClusteredList(world.rt, world.manager, node_cls, kNodes,
                                  kPerCluster, "head");
  }

  /// Mediated head write; returns false if it could not run (crashed).
  bool SetHead(int64_t value) {
    if (world.manager.crashed()) return false;
    Value head = *world.rt.GetGlobal("head");
    return world.rt.Invoke(head.ref(), "set_value", {Value::Int(value)})
        .ok();
  }

  MiddlewareWorld world;
  persist::FlashStore flash;
  swap::IntentJournal journal;
  tier::TierManager tiers;
  swap::FaultInjector faults;
  const runtime::ClassInfo* node_cls = nullptr;
  std::vector<SwapClusterId> clusters;
};

/// The scripted delta pipeline the crash sweep replays: full round trip,
/// two delta swap-outs against the same base (cache-hit merge, then a
/// cold-cache merge that must read the base from its replicas or the
/// tier). Tracks the sum the surviving heap must still produce.
void RunDeltaScenario(DeltaCrashWorld& w, int64_t* expected_sum) {
  swap::SwappingManager& m = w.world.manager;
  SwapClusterId c0 = w.clusters[0];
  const auto alive = [&] { return !m.crashed(); };
  *expected_sum = kBaseSum;
  if (alive()) (void)m.SwapOut(c0);
  if (alive()) (void)m.SwapIn(c0);
  if (w.SetHead(100)) *expected_sum = kBaseSum + 100;
  if (alive()) (void)m.SwapOut(c0);   // delta #1 (swap_out.diff)
  if (alive()) (void)m.SwapIn(c0);    // merge from cached base
  if (w.SetHead(200)) *expected_sum = kBaseSum + 200;
  if (alive()) (void)m.SwapOut(c0);   // delta #2, supersedes #1
  if (alive()) {
    m.set_swap_in_cache_bytes(0);     // purge the cached base
    m.set_swap_in_cache_bytes(64 * 1024);
  }
  if (alive()) (void)m.SwapIn(c0);    // merge over a cold-cache base
}

/// Store keys the registry accounts for: every replica of every group,
/// plus each flash key the tier owns.
size_t DeltaKeyLedger(DeltaCrashWorld& w) {
  swap::SwappingManager& m = w.world.manager;
  size_t total = 0;
  for (SwapClusterId id : m.registry().Ids()) {
    const swap::SwapClusterInfo* info = m.registry().Find(id);
    if (info == nullptr) continue;
    if (info->state == swap::SwapState::kSwapped) {
      total += info->replicas.size() + info->base_replicas.size();
    } else if (info->state == swap::SwapState::kLoaded &&
               info->clean_image.has_value()) {
      total += info->clean_image->replicas.size() +
               info->clean_image->base_replicas.size();
    }
    if (w.tiers.FlashKey(id).valid()) ++total;
  }
  return total;
}

size_t DeltaStoredEntries(DeltaCrashWorld& w) {
  size_t total = 0;
  for (const auto& store : w.world.stores) total += store->entry_count();
  total += w.flash.entry_count();
  if (w.flash.Contains(w.journal.flash_key())) --total;  // the journal
  return total;
}

void ExpectDeltaWorldIntact(DeltaCrashWorld& w, int64_t expected_sum,
                            const std::string& label) {
  EXPECT_EQ(CheckMediationInvariant(w.world.rt), "") << label;
  Result<int64_t> sum = SumList(w.world.rt, "head");
  ASSERT_TRUE(sum.ok()) << label << ": " << sum.status().ToString();
  EXPECT_EQ(*sum, expected_sum) << label;
  w.world.manager.FlushPendingDrops();
  EXPECT_EQ(w.world.manager.pending_drop_count(), 0u) << label;
  EXPECT_EQ(DeltaStoredEntries(w), DeltaKeyLedger(w))
      << label << ": leaked or lost store keys";
}

/// Parameter: whether a flash tier is attached.
class DeltaCrashSweepTest : public ::testing::TestWithParam<bool> {};

TEST_P(DeltaCrashSweepTest, EveryFaultPointCrashRecoversWithFullInvariants) {
  // Clean run: enumerate the traversed (point, hits) universe — it must
  // include the delta-specific points or the scenario rotted.
  std::vector<std::pair<std::string, uint64_t>> universe;
  {
    DeltaCrashWorld clean(GetParam());
    int64_t expected = 0;
    RunDeltaScenario(clean, &expected);
    ASSERT_FALSE(clean.world.manager.crashed());
    ASSERT_EQ(clean.world.manager.stats().delta_swap_outs, 2u);
    for (const auto& [point, hits] : clean.faults.hit_counts())
      universe.emplace_back(point, hits);
    ASSERT_GE(clean.faults.hits("swap_out.diff"), 2u);
    ASSERT_EQ(clean.world.manager.stats().tier_swap_outs, GetParam() ? 1u : 0u);
    // The cold-cache merge reads the base from the tier when one holds it.
    ASSERT_GE(clean.faults.hits(GetParam() ? "swap_in.tier_fetch"
                                           : "swap_in.fetch_base"),
              1u);
    ExpectDeltaWorldIntact(clean, expected, "clean run");
  }

  for (const auto& [point, hits] : universe) {
    for (uint64_t nth = 1; nth <= hits; ++nth) {
      const std::string label =
          "crash at " + point + " hit " + std::to_string(nth);
      DeltaCrashWorld w(GetParam());
      w.faults.Arm(point, swap::FaultKind::kCrash, nth);
      int64_t expected = 0;
      RunDeltaScenario(w, &expected);
      ASSERT_EQ(w.faults.stats().crashes, 1u) << label;
      ASSERT_TRUE(w.world.manager.crashed()) << label;
      auto report = w.world.manager.Recover();
      ASSERT_TRUE(report.ok()) << label << ": "
                               << report.status().ToString();
      // Immediate recovery never loses data: the heap copy survives any
      // torn delta op.
      EXPECT_EQ(report->clusters_lost, 0u) << label;
      ExpectDeltaWorldIntact(w, expected, label);
      // The recovered world must still be able to delta-swap: one more
      // full round trip through the same cluster.
      swap::SwappingManager& m = w.world.manager;
      if (m.StateOf(w.clusters[0]) == swap::SwapState::kSwapped) {
        ASSERT_TRUE(m.SwapIn(w.clusters[0]).ok()) << label;
      }
      ASSERT_TRUE(w.SetHead(300)) << label;
      ASSERT_TRUE(m.SwapOut(w.clusters[0]).ok()) << label;
      ASSERT_TRUE(m.SwapIn(w.clusters[0]).ok()) << label;
      Result<int64_t> sum = SumList(w.world.rt, "head");
      ASSERT_TRUE(sum.ok()) << label;
      EXPECT_EQ(*sum, kBaseSum + 300) << label;
    }
  }
}

TEST_P(DeltaCrashSweepTest, EveryFaultPointErrorUnwindsCleanly) {
  std::vector<std::pair<std::string, uint64_t>> universe;
  {
    DeltaCrashWorld clean(GetParam());
    int64_t expected = 0;
    RunDeltaScenario(clean, &expected);
    for (const auto& [point, hits] : clean.faults.hit_counts())
      universe.emplace_back(point, hits);
  }

  for (const auto& [point, hits] : universe) {
    for (uint64_t nth = 1; nth <= hits; ++nth) {
      const std::string label =
          "error at " + point + " hit " + std::to_string(nth);
      DeltaCrashWorld w(GetParam());
      w.faults.Arm(point, swap::FaultKind::kError, nth);
      int64_t expected = 0;
      RunDeltaScenario(w, &expected);
      ASSERT_EQ(w.faults.stats().errors, 1u) << label;
      ASSERT_FALSE(w.world.manager.crashed()) << label;
      auto report = w.world.manager.Recover();
      ASSERT_TRUE(report.ok()) << label;
      // Every op the pipeline opened was committed or aborted before the
      // error surfaced (the modeled exception: a failed commit write).
      if (point.find("journal_commit") == std::string::npos) {
        EXPECT_EQ(report->pending_ops, 0u) << label;
      }
      ExpectDeltaWorldIntact(w, expected, label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, DeltaCrashSweepTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "FlashTier" : "NoTier";
                         });

}  // namespace
}  // namespace obiswap
