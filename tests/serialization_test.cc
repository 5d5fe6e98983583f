// Tests for object-graph <-> XML serialization.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/checksum.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "serialization/graph_xml.h"
#include "xml/parser.h"
#include "xml_mutations.h"

namespace obiswap::serialization {
namespace {

using runtime::ClassBuilder;
using runtime::ClassInfo;
using runtime::LocalScope;
using runtime::Object;
using runtime::Runtime;
using runtime::Value;
using runtime::ValueKind;

class SerializationFixture : public ::testing::Test {
 protected:
  SerializationFixture() {
    cls_ = *rt_.types().Register(ClassBuilder("Item")
                                     .Field("next", ValueKind::kRef)
                                     .Field("count", ValueKind::kInt)
                                     .Field("weight", ValueKind::kReal)
                                     .Field("label", ValueKind::kStr)
                                     .Field("extra"));
    ext_cls_ = *rt_.types().Register(
        ClassBuilder("Ext").Kind(runtime::ObjectKind::kReplicationProxy));
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

  Runtime rt_;
  const ClassInfo* cls_ = nullptr;
  const ClassInfo* ext_cls_ = nullptr;
};

TEST_F(SerializationFixture, RoundTripsAllValueKinds) {
  LocalScope scope(rt_.heap());
  Object* a = NewItem(scope, 42);
  ASSERT_TRUE(rt_.SetField(a, "weight", Value::Real(2.5)).ok());
  ASSERT_TRUE(rt_.SetField(a, "label", Value::Str("hello <&> world")).ok());
  // "extra" stays nil.
  auto serialized = SerializeCluster(rt_, 3, {a}, NoExternals);
  ASSERT_TRUE(serialized.ok()) << serialized.status().ToString();

  Runtime rt2;
  *rt2.types().Register(ClassBuilder("Item")
                            .Field("next", ValueKind::kRef)
                            .Field("count", ValueKind::kInt)
                            .Field("weight", ValueKind::kReal)
                            .Field("label", ValueKind::kStr)
                            .Field("extra"));
  DeserializeOptions options;
  options.expected_id = 3;
  auto members = DeserializeCluster(rt2, serialized->payload, options,
                                    ResolveNone);
  ASSERT_TRUE(members.ok()) << members.status().ToString();
  ASSERT_EQ(members->size(), 1u);
  Object* b = (*members)[0];
  EXPECT_EQ(b->oid(), a->oid());
  EXPECT_EQ(b->RawSlot(1).as_int(), 42);
  EXPECT_DOUBLE_EQ(b->RawSlot(2).as_real(), 2.5);
  EXPECT_EQ(b->RawSlot(3).as_str(), "hello <&> world");
  EXPECT_TRUE(b->RawSlot(4).is_nil());
}

TEST_F(SerializationFixture, IntraClusterRefsResolveLocally) {
  LocalScope scope(rt_.heap());
  Object* a = NewItem(scope, 1);
  Object* b = NewItem(scope, 2);
  Object* c = NewItem(scope, 3);
  ASSERT_TRUE(rt_.SetField(a, "next", Value::Ref(b)).ok());
  ASSERT_TRUE(rt_.SetField(b, "next", Value::Ref(c)).ok());
  ASSERT_TRUE(rt_.SetField(c, "next", Value::Ref(a)).ok());  // cycle

  auto serialized = SerializeCluster(rt_, 1, {a, b, c}, NoExternals);
  ASSERT_TRUE(serialized.ok());
  DeserializeOptions options;
  options.expected_id = 1;
  auto members =
      DeserializeCluster(rt_, serialized->payload, options, ResolveNone);
  ASSERT_TRUE(members.ok()) << members.status().ToString();
  ASSERT_EQ(members->size(), 3u);
  EXPECT_EQ((*members)[0]->RawSlot(0).ref(), (*members)[1]);
  EXPECT_EQ((*members)[1]->RawSlot(0).ref(), (*members)[2]);
  EXPECT_EQ((*members)[2]->RawSlot(0).ref(), (*members)[0]);
}

TEST_F(SerializationFixture, ExternalRefsGoThroughCallbacks) {
  LocalScope scope(rt_.heap());
  Object* a = NewItem(scope, 1);
  Object* b = NewItem(scope, 2);
  Object* external = rt_.New(ext_cls_);
  scope.Add(external);
  a->RawSlotMutable(0) = Value::Ref(external);
  b->RawSlotMutable(4) = Value::Ref(external);  // same target twice

  int describes = 0;
  auto describe = [&](Object* target) -> Result<ExternalRef> {
    ++describes;
    ExternalRef ref;
    ref.oid = target->oid();
    ref.class_name = target->cls().name();
    return ref;
  };
  auto serialized = SerializeCluster(rt_, 9, {a, b}, describe);
  ASSERT_TRUE(serialized.ok());
  // Same external target appears once in the outbound list.
  EXPECT_EQ(serialized->outbound.size(), 1u);
  EXPECT_EQ(serialized->outbound[0], external);

  Object* replacement_target = rt_.New(ext_cls_);
  scope.Add(replacement_target);
  int resolves = 0;
  auto resolve = [&](const ExternalRef& ref) -> Result<Object*> {
    ++resolves;
    EXPECT_EQ(ref.index, 0u);
    EXPECT_EQ(ref.class_name, "Ext");
    return replacement_target;
  };
  DeserializeOptions options;
  options.expected_id = 9;
  auto members = DeserializeCluster(rt_, serialized->payload, options, resolve);
  ASSERT_TRUE(members.ok()) << members.status().ToString();
  EXPECT_EQ(resolves, 2);
  EXPECT_EQ((*members)[0]->RawSlot(0).ref(), replacement_target);
  EXPECT_EQ((*members)[1]->RawSlot(4).ref(), replacement_target);
}

TEST_F(SerializationFixture, DescribeErrorAbortsSerialization) {
  LocalScope scope(rt_.heap());
  Object* a = NewItem(scope, 1);
  Object* stranger = NewItem(scope, 2);
  a->RawSlotMutable(0) = Value::Ref(stranger);  // not a member
  auto serialized = SerializeCluster(rt_, 1, {a}, NoExternals);
  EXPECT_FALSE(serialized.ok());
  EXPECT_EQ(serialized.status().code(), StatusCode::kInternal);
}

TEST_F(SerializationFixture, DuplicateMemberRejected) {
  LocalScope scope(rt_.heap());
  Object* a = NewItem(scope, 1);
  auto serialized = SerializeCluster(rt_, 1, {a, a}, NoExternals);
  EXPECT_FALSE(serialized.ok());
}

TEST_F(SerializationFixture, SwapClusterLabelAssigned) {
  LocalScope scope(rt_.heap());
  Object* a = NewItem(scope, 5);
  auto serialized = SerializeCluster(rt_, 4, {a}, NoExternals);
  ASSERT_TRUE(serialized.ok());
  DeserializeOptions options;
  options.expected_id = 4;
  options.assign_swap_cluster = SwapClusterId(4);
  auto members =
      DeserializeCluster(rt_, serialized->payload, options, ResolveNone);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ((*members)[0]->swap_cluster(), SwapClusterId(4));
}

TEST_F(SerializationFixture, IdMismatchRejected) {
  LocalScope scope(rt_.heap());
  Object* a = NewItem(scope, 1);
  auto serialized = SerializeCluster(rt_, 7, {a}, NoExternals);
  ASSERT_TRUE(serialized.ok());
  DeserializeOptions options;
  options.expected_id = 8;
  auto members =
      DeserializeCluster(rt_, serialized->payload, options, ResolveNone);
  ASSERT_FALSE(members.ok());
  EXPECT_EQ(members.status().code(), StatusCode::kDataLoss);
}

TEST_F(SerializationFixture, ChecksumDetectsTampering) {
  LocalScope scope(rt_.heap());
  Object* a = NewItem(scope, 1234);
  ASSERT_TRUE(rt_.SetField(a, "label", Value::Str("payload")).ok());
  auto serialized = SerializeCluster(rt_, 1, {a}, NoExternals);
  ASSERT_TRUE(serialized.ok());
  // Tamper with the int payload in the text.
  std::string tampered = serialized->payload;
  size_t pos = tampered.find("1234");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 4, "4321");
  DeserializeOptions options;
  options.expected_id = 1;
  auto members = DeserializeCluster(rt_, tampered, options, ResolveNone);
  ASSERT_FALSE(members.ok());
  EXPECT_EQ(members.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(members.status().message().find("checksum"), std::string::npos);
}

TEST_F(SerializationFixture, ChecksumCanBeSkipped) {
  LocalScope scope(rt_.heap());
  Object* a = NewItem(scope, 1234);
  auto serialized = SerializeCluster(rt_, 1, {a}, NoExternals);
  std::string tampered = serialized->payload;
  size_t pos = tampered.find("1234");
  tampered.replace(pos, 4, "4321");
  DeserializeOptions options;
  options.expected_id = 1;
  options.verify_checksum = false;
  auto members = DeserializeCluster(rt_, tampered, options, ResolveNone);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ((*members)[0]->RawSlot(1).as_int(), 4321);
}

TEST_F(SerializationFixture, UnknownClassRejected) {
  LocalScope scope(rt_.heap());
  Object* a = NewItem(scope, 1);
  auto serialized = SerializeCluster(rt_, 1, {a}, NoExternals);
  Runtime empty_rt;  // Item not registered here
  DeserializeOptions options;
  options.expected_id = 1;
  auto members =
      DeserializeCluster(empty_rt, serialized->payload, options, ResolveNone);
  ASSERT_FALSE(members.ok());
  EXPECT_NE(members.status().message().find("unknown class"),
            std::string::npos);
}

TEST_F(SerializationFixture, GarbageInputRejected) {
  DeserializeOptions options;
  EXPECT_FALSE(DeserializeCluster(rt_, "", options, ResolveNone).ok());
  EXPECT_FALSE(DeserializeCluster(rt_, "<wrong/>", options,
                                  ResolveNone).ok());
  EXPECT_FALSE(DeserializeCluster(rt_, "<swap-cluster id=\"1\"/>", options,
                                  ResolveNone).ok());
}

TEST_F(SerializationFixture, PreservesReplicationClusterLabels) {
  LocalScope scope(rt_.heap());
  Object* a = NewItem(scope, 1);
  a->set_cluster(ClusterId(12));
  auto serialized = SerializeCluster(rt_, 1, {a}, NoExternals);
  ASSERT_TRUE(serialized.ok());
  DeserializeOptions options;
  options.expected_id = 1;
  auto members =
      DeserializeCluster(rt_, serialized->payload, options, ResolveNone);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ((*members)[0]->cluster(), ClusterId(12));
}

// Property: random graphs round-trip exactly (structure + payloads).
class SerializationPropertyTest : public SerializationFixture,
                                  public ::testing::WithParamInterface<int> {
};

TEST_P(SerializationPropertyTest, RandomGraphRoundTrips) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  LocalScope scope(rt_.heap());
  int n = 2 + static_cast<int>(rng.NextBelow(30));
  std::vector<Object*> members;
  for (int i = 0; i < n; ++i) {
    Object* obj = NewItem(scope, rng.NextInt(-1000, 1000));
    ASSERT_TRUE(
        rt_.SetField(obj, "weight", Value::Real(rng.NextDouble())).ok());
    if (rng.NextBool(0.5)) {
      ASSERT_TRUE(rt_.SetField(obj, "label",
                               Value::Str(std::string(rng.NextBelow(64),
                                                      'x')))
                      .ok());
    }
    members.push_back(obj);
  }
  for (int i = 0; i < n; ++i) {
    if (rng.NextBool(0.7)) {
      members[i]->RawSlotMutable(0) =
          Value::Ref(members[rng.NextBelow(static_cast<uint64_t>(n))]);
    }
  }
  auto serialized = SerializeCluster(rt_, 2, members, NoExternals);
  ASSERT_TRUE(serialized.ok());
  DeserializeOptions options;
  options.expected_id = 2;
  auto restored =
      DeserializeCluster(rt_, serialized->payload, options, ResolveNone);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->size(), members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    Object* original = members[i];
    Object* copy = (*restored)[i];
    EXPECT_EQ(copy->oid(), original->oid());
    EXPECT_EQ(copy->RawSlot(1).as_int(), original->RawSlot(1).as_int());
    EXPECT_DOUBLE_EQ(copy->RawSlot(2).as_real(),
                     original->RawSlot(2).as_real());
    EXPECT_EQ(copy->RawSlot(3).as_str(), original->RawSlot(3).as_str());
    // Ref structure: same member index.
    const Value& orig_ref = original->RawSlot(0);
    const Value& copy_ref = copy->RawSlot(0);
    ASSERT_EQ(orig_ref.is_ref(), copy_ref.is_ref());
    if (orig_ref.is_ref()) {
      size_t orig_index =
          std::find(members.begin(), members.end(), orig_ref.ref()) -
          members.begin();
      EXPECT_EQ(copy_ref.ref(), (*restored)[orig_index]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationPropertyTest,
                         ::testing::Range(1, 16));

// ------------------------------------------------------- decode verdicts --
//
// How DeserializeCluster answers a damaged cluster document: accept or
// reject, and with which code and message. The corpus is one document
// with every value kind, local and external refs and replication labels,
// damaged every way tests/xml_mutations.h knows: each element dropped,
// duplicated or given foreign content, each attribute removed or set to a
// bad value (missing and duplicate <f>, unknown class and kind, bad local
// and out, wrong count and checksum), truncated at every tag boundary, and
// bit-flipped. The reference hash was recorded before the decoder moved
// off the Node tree; any changed verdict, message or decoded value
// changes it.

/// The source document: three members of "Item" and two external targets.
std::string VerdictCorpusDocument() {
  Runtime rt;
  const ClassInfo* item = *rt.types().Register(
      ClassBuilder("Item")
          .Field("next", ValueKind::kRef)
          .Field("count", ValueKind::kInt)
          .Field("weight", ValueKind::kReal)
          .Field("label", ValueKind::kStr)
          .Field("extra"));
  const ClassInfo* ext = *rt.types().Register(
      ClassBuilder("Ext").Kind(runtime::ObjectKind::kReplicationProxy));
  LocalScope scope(rt.heap());
  Object* a = rt.New(item);
  Object* b = rt.New(item);
  Object* c = rt.New(item);
  Object* x = rt.New(ext);
  Object* y = rt.New(ext);
  for (Object* obj : {a, b, c, x, y}) scope.Add(obj);
  a->set_cluster(ClusterId(5));
  y->set_cluster(ClusterId(9));
  a->RawSlotMutable(0) = Value::Ref(b);
  a->RawSlotMutable(1) = Value::Int(42);
  a->RawSlotMutable(2) = Value::Real(2.5);
  a->RawSlotMutable(3) = Value::Str("hello <&> \"q\" 'a'\x01 world");
  a->RawSlotMutable(4) = Value::Ref(x);
  b->RawSlotMutable(0) = Value::Ref(c);
  b->RawSlotMutable(1) = Value::Int(-7);
  b->RawSlotMutable(3) = Value::Str("");
  c->RawSlotMutable(0) = Value::Ref(a);
  c->RawSlotMutable(2) = Value::Real(1e300);
  c->RawSlotMutable(4) = Value::Ref(y);
  auto describe = [](Object* target) -> Result<ExternalRef> {
    ExternalRef ref;
    ref.oid = target->oid();
    ref.class_name = target->cls().name();
    ref.cluster = target->cluster();
    return ref;
  };
  auto serialized = SerializeCluster(rt, 3, {a, b, c}, describe);
  OBISWAP_CHECK(serialized.ok());
  return serialized->payload;
}

/// Decodes `document` into a fresh runtime and describes the outcome: the
/// status, or each member's identity and slots plus every resolve call.
std::string DecodeVerdict(const std::string& document, bool verify_checksum) {
  Runtime rt;
  *rt.types().Register(ClassBuilder("Item")
                           .Field("next", ValueKind::kRef)
                           .Field("count", ValueKind::kInt)
                           .Field("weight", ValueKind::kReal)
                           .Field("label", ValueKind::kStr)
                           .Field("extra"));
  const ClassInfo* ext = *rt.types().Register(
      ClassBuilder("Ext").Kind(runtime::ObjectKind::kReplicationProxy));
  LocalScope scope(rt.heap());
  Object* sink = rt.New(ext);
  scope.Add(sink);
  std::string out;
  auto resolve = [&](const ExternalRef& ref) -> Result<Object*> {
    out += StrFormat("resolve(%zu,%llu,%s,%s) ", ref.index,
                     (unsigned long long)ref.oid.value(),
                     ref.class_name.c_str(), ref.cluster.ToString().c_str());
    if (ref.class_name != "Ext")
      return NotFoundError("no external class '" + ref.class_name + "'");
    return sink;
  };
  DeserializeOptions options;
  options.expected_id = 3;
  options.assign_swap_cluster = SwapClusterId(4);
  options.verify_checksum = verify_checksum;
  auto members = DeserializeCluster(rt, document, options, resolve);
  if (!members.ok()) return out + members.status().ToString();
  for (Object* obj : *members) {
    out += StrFormat("[%llu %s %s %s", (unsigned long long)obj->oid().value(),
                     obj->cls().name().c_str(),
                     obj->cluster().ToString().c_str(),
                     obj->swap_cluster().ToString().c_str());
    for (size_t i = 0; i < obj->cls().fields().size(); ++i) {
      const Value& slot = obj->RawSlot(i);
      out += ' ';
      out += runtime::ValueKindName(slot.kind());
      out += '=';
      if (!slot.is_ref()) {
        out += ScalarText(slot);
      } else if (slot.ref() == sink) {
        out += "sink";
      } else {
        auto it = std::find(members->begin(), members->end(), slot.ref());
        out += std::to_string(it - members->begin());
      }
    }
    out += ']';
  }
  return out;
}

std::vector<std::string> VerdictCorpus() {
  const std::string valid = VerdictCorpusDocument();
  std::vector<std::string> corpus = {valid};
  for (auto&& part :
       {testing::EditedDocuments(valid, {"", "x", "-1", "99", "str",
                                         "count"}),
        testing::Truncations(valid), testing::BitFlips(valid, 22, 200)}) {
    corpus.insert(corpus.end(), part.begin(), part.end());
  }
  return corpus;
}

TEST(DecodeVerdictTest, NamedDamageGetsItsMessage) {
  const std::string valid = VerdictCorpusDocument();
  auto verdict = [&](const std::string& from, const std::string& to) {
    std::string damaged = valid;
    const size_t at = damaged.find(from);
    OBISWAP_CHECK(at != std::string::npos);
    damaged.replace(at, from.size(), to);
    return DecodeVerdict(damaged, /*verify_checksum=*/true);
  };
  const std::string first_ext = "resolve(0,281474976710660,Ext,4294967295) ";
  EXPECT_EQ(verdict("<f n=\"count\" t=\"int\">42</f>", ""),
            first_ext + "DATA_LOSS: missing field 'count' for class Item");
  EXPECT_EQ(verdict("<f n=\"count\" t=\"int\">42</f>",
                    "<f n=\"count\" t=\"int\">42</f>"
                    "<f n=\"count\" t=\"int\">42</f>"),
            "DATA_LOSS: duplicate field 'count' for class Item");
  EXPECT_EQ(verdict("class=\"Item\"", "class=\"Nope\""),
            "DATA_LOSS: unknown class 'Nope' in document");
  EXPECT_EQ(verdict("t=\"int\"", "t=\"integer\""),
            "DATA_LOSS: unknown field kind 'integer'");
  EXPECT_EQ(verdict("local=\"1\"", "local=\"3\""),
            "DATA_LOSS: local ref index out of range");
  EXPECT_EQ(verdict("local=\"1\"", "local=\"x\""),
            "INVALID_ARGUMENT: trailing characters in integer: x");
  EXPECT_EQ(verdict("local=\"1\"", "local=\"-1\""),
            "NOT_FOUND: missing attribute 'out' on <f>");
  EXPECT_EQ(verdict("out=\"0\"", "out=\"\""),
            "INVALID_ARGUMENT: empty integer");
  EXPECT_EQ(verdict("count=\"3\"", "count=\"4\""),
            "DATA_LOSS: object count mismatch");
  EXPECT_EQ(verdict("<swap-cluster id=\"3\"", "<swap-cluster id=\"2\""),
            "DATA_LOSS: cluster id mismatch: got 2 want 3");
  EXPECT_EQ(verdict(">42<", ">junk42<"),
            "INVALID_ARGUMENT: trailing characters in integer: junk42");
  EXPECT_EQ(verdict(">42<", "><zz/>4<!--c-->2<"),
            DecodeVerdict(valid, /*verify_checksum=*/true));
  EXPECT_EQ(verdict(">42<", ">43<"),
            first_ext + "resolve(1,281474976710661,Ext,9) DATA_LOSS: cluster "
            "checksum mismatch: store-side corruption?");
  EXPECT_EQ(DecodeVerdict(valid.substr(0, valid.size() - 1), true),
            "DATA_LOSS: xml parse error at line 1: expected '>' in close tag");
}

TEST(DecodeVerdictTest, CorpusVerdictsMatchReference) {
  std::string all;
  size_t accepted = 0;
  for (const std::string& document : VerdictCorpus()) {
    for (bool verify : {true, false}) {
      const std::string verdict = DecodeVerdict(document, verify);
      if (verdict.find("[") != std::string::npos) ++accepted;
      all += verdict;
      all += '\0';
    }
  }
  EXPECT_EQ(accepted, 133u);
  EXPECT_EQ(Fnv1a64(all), 0xc289559cc081d5f4ull) << std::hex << Fnv1a64(all);
}

}  // namespace
}  // namespace obiswap::serialization
