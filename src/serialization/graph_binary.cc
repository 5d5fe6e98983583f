#include "serialization/graph_binary.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "common/checksum.h"
#include "common/varint.h"

namespace obiswap::serialization {

using runtime::ClassInfo;
using runtime::Object;
using runtime::Runtime;
using runtime::Value;
using runtime::ValueKind;

namespace {

constexpr char kDocMagic[4] = {'O', 'S', 'W', 'B'};
constexpr char kDeltaMagic[4] = {'O', 'S', 'W', 'D'};
constexpr uint64_t kDocVersion = 1;
constexpr uint64_t kDeltaVersion = 1;

// Field value tags on the wire.
constexpr uint8_t kTagNil = 0;
constexpr uint8_t kTagInt = 1;
constexpr uint8_t kTagReal = 2;
constexpr uint8_t kTagStr = 3;
constexpr uint8_t kTagLocal = 4;
constexpr uint8_t kTagExt = 5;

constexpr char kTruncatedString[] = "binary doc: truncated string";

/// Identity of an external target as carried on the wire (index excluded —
/// indices shift between documents, identity does not).
struct ExtId {
  uint64_t oid = 0;
  std::string class_name;
  uint64_t cluster_plus1 = 0;  // 0 = no replication-cluster label

  bool operator==(const ExtId& other) const {
    return oid == other.oid && class_name == other.class_name &&
           cluster_plus1 == other.cluster_plus1;
  }
};

struct FieldRec {
  uint8_t tag = kTagNil;
  int64_t int_value = 0;
  uint64_t real_bits = 0;
  std::string str_value;
  uint64_t index = 0;  // member index (local) or outbound index (ext)
  ExtId ext;

  bool operator==(const FieldRec& other) const {
    if (tag != other.tag) return false;
    switch (tag) {
      case kTagNil:
        return true;
      case kTagInt:
        return int_value == other.int_value;
      case kTagReal:
        return real_bits == other.real_bits;
      case kTagStr:
        return str_value == other.str_value;
      case kTagLocal:
        return index == other.index;
      case kTagExt:
        return index == other.index && ext == other.ext;
      default:
        return false;
    }
  }
};

struct MemberRec {
  uint64_t oid = 0;
  std::string class_name;
  uint64_t cluster_plus1 = 0;
  std::vector<FieldRec> fields;
};

/// Fully parsed document — the model Diff and Apply operate on.
struct Doc {
  uint64_t cluster_id = 0;
  std::vector<MemberRec> members;
  uint64_t outbound_count = 0;
  uint32_t embedded_digest = 0;
};

void EncodeField(std::string* out, const FieldRec& field) {
  out->push_back(static_cast<char>(field.tag));
  switch (field.tag) {
    case kTagNil:
      break;
    case kTagInt:
      PutVarint64(out, ZigZagEncode(field.int_value));
      break;
    case kTagReal:
      PutFixed(out, field.real_bits, 8);
      break;
    case kTagStr:
      PutLengthPrefixed(out, field.str_value);
      break;
    case kTagLocal:
      PutVarint64(out, field.index);
      break;
    case kTagExt:
      PutVarint64(out, field.index);
      PutVarint64(out, field.ext.oid);
      PutLengthPrefixed(out, field.ext.class_name);
      PutVarint64(out, field.ext.cluster_plus1);
      break;
  }
}

Result<FieldRec> DecodeField(std::string_view* in) {
  if (in->empty()) return DataLossError("binary doc: truncated field");
  FieldRec field;
  field.tag = static_cast<uint8_t>((*in)[0]);
  in->remove_prefix(1);
  switch (field.tag) {
    case kTagNil:
      break;
    case kTagInt: {
      OBISWAP_ASSIGN_OR_RETURN(uint64_t raw, GetVarint64(in));
      field.int_value = ZigZagDecode(raw);
      break;
    }
    case kTagReal: {
      std::optional<uint64_t> bits = GetFixed(in, 8);
      if (!bits.has_value()) return DataLossError("binary doc: truncated real");
      field.real_bits = *bits;
      break;
    }
    case kTagStr: {
      OBISWAP_ASSIGN_OR_RETURN(field.str_value,
                               GetLengthPrefixed(in, kTruncatedString));
      break;
    }
    case kTagLocal: {
      OBISWAP_ASSIGN_OR_RETURN(field.index, GetVarint64(in));
      break;
    }
    case kTagExt: {
      OBISWAP_ASSIGN_OR_RETURN(field.index, GetVarint64(in));
      OBISWAP_ASSIGN_OR_RETURN(field.ext.oid, GetVarint64(in));
      OBISWAP_ASSIGN_OR_RETURN(field.ext.class_name,
                               GetLengthPrefixed(in, kTruncatedString));
      OBISWAP_ASSIGN_OR_RETURN(field.ext.cluster_plus1, GetVarint64(in));
      break;
    }
    default:
      return DataLossError("binary doc: unknown field tag " +
                           std::to_string(field.tag));
  }
  return field;
}

/// The binary document's digest (common/checksum.h): reals are mixed by
/// *bit pattern* (so NaN payloads and signed zeros are covered exactly),
/// and field names are not mixed (they are not on the wire — the class
/// schema supplies them). Computable from a parsed document alone, which
/// is what lets delta apply verify the merged result without a runtime.
void MixField(Digest& digest, const FieldRec& field) {
  digest.Mix(static_cast<uint64_t>(field.tag));
  switch (field.tag) {
    case kTagNil:
      break;
    case kTagInt:
      digest.Mix(ZigZagEncode(field.int_value));
      break;
    case kTagReal:
      digest.Mix(field.real_bits);
      break;
    case kTagStr:
      digest.Mix(field.str_value);
      break;
    case kTagLocal:
      digest.Mix(field.index);
      break;
    case kTagExt:
      digest.Mix(field.index);
      digest.Mix(field.ext.oid);
      break;
  }
}

uint32_t ComputeDocDigest(const Doc& doc) {
  Digest digest;
  digest.Mix(doc.cluster_id);
  digest.Mix(static_cast<uint64_t>(doc.members.size()));
  for (const MemberRec& member : doc.members) {
    digest.Mix(member.oid);
    digest.Mix(member.class_name);
    digest.Mix(member.cluster_plus1);
    digest.Mix(static_cast<uint64_t>(member.fields.size()));
    for (const FieldRec& field : member.fields) MixField(digest, field);
  }
  digest.Mix(doc.outbound_count);
  return digest.Finish();
}

/// Canonical encoding: same doc → same bytes, which is what makes
/// Apply(base, Diff(base, fresh)) byte-identical to fresh.
std::string EncodeDoc(const Doc& doc) {
  std::string out(kDocMagic, sizeof(kDocMagic));
  PutVarint64(&out, kDocVersion);
  PutVarint64(&out, doc.cluster_id);
  PutVarint64(&out, doc.members.size());
  for (const MemberRec& member : doc.members) {
    PutVarint64(&out, member.oid);
    PutLengthPrefixed(&out, member.class_name);
    PutVarint64(&out, member.cluster_plus1);
    PutVarint64(&out, member.fields.size());
    for (const FieldRec& field : member.fields) EncodeField(&out, field);
  }
  PutVarint64(&out, doc.outbound_count);
  PutVarint64(&out, ComputeDocDigest(doc));
  return out;
}

/// Parses and structurally validates an OSWB document: local indices in
/// range, external indices in range with one consistent identity per index
/// and no index unused (the encoder allocates them densely).
Result<Doc> ParseDoc(std::string_view payload) {
  if (payload.size() < 4 ||
      std::memcmp(payload.data(), kDocMagic, 4) != 0)
    return DataLossError("binary doc: bad magic");
  std::string_view rest = payload.substr(4);
  OBISWAP_ASSIGN_OR_RETURN(uint64_t version, GetVarint64(&rest));
  if (version != kDocVersion)
    return DataLossError("binary doc: unsupported version " +
                         std::to_string(version));
  Doc doc;
  OBISWAP_ASSIGN_OR_RETURN(doc.cluster_id, GetVarint64(&rest));
  OBISWAP_ASSIGN_OR_RETURN(uint64_t member_count, GetVarint64(&rest));
  doc.members.reserve(
      static_cast<size_t>(std::min<uint64_t>(member_count, 4096)));
  for (uint64_t m = 0; m < member_count; ++m) {
    MemberRec member;
    OBISWAP_ASSIGN_OR_RETURN(member.oid, GetVarint64(&rest));
    OBISWAP_ASSIGN_OR_RETURN(member.class_name,
                             GetLengthPrefixed(&rest, kTruncatedString));
    OBISWAP_ASSIGN_OR_RETURN(member.cluster_plus1, GetVarint64(&rest));
    OBISWAP_ASSIGN_OR_RETURN(uint64_t field_count, GetVarint64(&rest));
    member.fields.reserve(
        static_cast<size_t>(std::min<uint64_t>(field_count, 4096)));
    for (uint64_t f = 0; f < field_count; ++f) {
      OBISWAP_ASSIGN_OR_RETURN(FieldRec field, DecodeField(&rest));
      member.fields.push_back(std::move(field));
    }
    doc.members.push_back(std::move(member));
  }
  OBISWAP_ASSIGN_OR_RETURN(doc.outbound_count, GetVarint64(&rest));
  OBISWAP_ASSIGN_OR_RETURN(uint64_t embedded, GetVarint64(&rest));
  if (embedded > UINT32_MAX) return DataLossError("binary doc: bad digest");
  doc.embedded_digest = static_cast<uint32_t>(embedded);
  if (!rest.empty()) return DataLossError("binary doc: trailing bytes");

  std::unordered_map<uint64_t, ExtId> ext_by_index;
  for (const MemberRec& member : doc.members) {
    for (const FieldRec& field : member.fields) {
      if (field.tag == kTagLocal) {
        if (field.index >= doc.members.size())
          return DataLossError("binary doc: local ref index out of range");
      } else if (field.tag == kTagExt) {
        if (field.index >= doc.outbound_count)
          return DataLossError("binary doc: external index out of range");
        auto [it, inserted] = ext_by_index.emplace(field.index, field.ext);
        if (!inserted && !(it->second == field.ext))
          return DataLossError(
              "binary doc: conflicting identities for external index " +
              std::to_string(field.index));
      }
    }
  }
  if (ext_by_index.size() != doc.outbound_count)
    return DataLossError("binary doc: unused external index");
  return doc;
}

Result<Doc> ParseAndVerifyDoc(std::string_view payload) {
  OBISWAP_ASSIGN_OR_RETURN(Doc doc, ParseDoc(payload));
  if (ComputeDocDigest(doc) != doc.embedded_digest)
    return DataLossError("binary doc: digest mismatch");
  return doc;
}

uint64_t ClusterPlus1(ClusterId cluster) {
  return cluster.valid() ? static_cast<uint64_t>(cluster.value()) + 1 : 0;
}

}  // namespace

bool IsBinaryClusterPayload(std::string_view payload) {
  return payload.size() >= 4 &&
         std::memcmp(payload.data(), kDocMagic, 4) == 0;
}

bool IsClusterDeltaPayload(std::string_view payload) {
  return payload.size() >= 4 &&
         std::memcmp(payload.data(), kDeltaMagic, 4) == 0;
}

Result<SerializedCluster> SerializeClusterBinary(
    Runtime& rt, uint32_t cluster_attr_id,
    const std::vector<Object*>& members,
    const DescribeExternalFn& describe_external) {
  (void)rt;
  std::unordered_map<const Object*, size_t> member_index;
  member_index.reserve(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    auto [it, inserted] = member_index.emplace(members[i], i);
    if (!inserted)
      return InvalidArgumentError("duplicate member in cluster serialization");
  }

  SerializedCluster out;
  std::unordered_map<const Object*, size_t> outbound_index;
  Doc doc;
  doc.cluster_id = cluster_attr_id;
  doc.members.reserve(members.size());

  for (Object* member : members) {
    MemberRec record;
    record.oid = member->oid().value();
    record.class_name = member->cls().name();
    record.cluster_plus1 = ClusterPlus1(member->cluster());
    const auto& fields = member->cls().fields();
    record.fields.reserve(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      const Value& slot = member->RawSlot(i);
      FieldRec field;
      switch (slot.kind()) {
        case ValueKind::kNil:
          field.tag = kTagNil;
          break;
        case ValueKind::kInt:
          field.tag = kTagInt;
          field.int_value = slot.as_int();
          break;
        case ValueKind::kReal: {
          field.tag = kTagReal;
          double real = slot.as_real();
          std::memcpy(&field.real_bits, &real, sizeof(real));
          break;
        }
        case ValueKind::kStr:
          field.tag = kTagStr;
          field.str_value = slot.as_str();
          break;
        case ValueKind::kRef: {
          Object* target = slot.ref();
          auto member_it = member_index.find(target);
          if (member_it != member_index.end()) {
            field.tag = kTagLocal;
            field.index = member_it->second;
            break;
          }
          // Same protocol as the XML serializer: describe every external
          // occurrence (so mediation-invariant violations surface), dedupe
          // the outbound slot by target.
          size_t index;
          auto outbound_it = outbound_index.find(target);
          ExternalRef ref;
          if (outbound_it != outbound_index.end()) {
            index = outbound_it->second;
            OBISWAP_ASSIGN_OR_RETURN(ref, describe_external(target));
          } else {
            OBISWAP_ASSIGN_OR_RETURN(ref, describe_external(target));
            index = out.outbound.size();
            outbound_index.emplace(target, index);
            out.outbound.push_back(target);
          }
          field.tag = kTagExt;
          field.index = index;
          field.ext.oid = ref.oid.value();
          field.ext.class_name = ref.class_name;
          field.ext.cluster_plus1 = ClusterPlus1(ref.cluster);
          break;
        }
      }
      record.fields.push_back(std::move(field));
    }
    doc.members.push_back(std::move(record));
  }
  doc.outbound_count = out.outbound.size();
  out.payload = EncodeDoc(doc);
  out.object_count = members.size();
  return out;
}

namespace {

Result<std::vector<Object*>> MaterializeDoc(
    Runtime& rt, const Doc& doc, const DeserializeOptions& options,
    const ResolveExternalFn& resolve_external) {
  if (options.expected_id >= 0 &&
      doc.cluster_id != static_cast<uint64_t>(options.expected_id))
    return DataLossError("cluster id mismatch: got " +
                         std::to_string(doc.cluster_id) + " want " +
                         std::to_string(options.expected_id));

  // Pass 1: create all member objects (so local refs resolve in pass 2).
  runtime::LocalScope scope(rt.heap());
  std::vector<Object*> members;
  members.reserve(doc.members.size());
  for (const MemberRec& record : doc.members) {
    const ClassInfo* cls = rt.types().Find(record.class_name);
    if (cls == nullptr)
      return DataLossError("unknown class '" + record.class_name +
                           "' in document");
    if (cls->fields().size() != record.fields.size())
      return DataLossError(
          "field count mismatch for class " + record.class_name + ": doc has " +
          std::to_string(record.fields.size()) + ", class has " +
          std::to_string(cls->fields().size()));
    OBISWAP_ASSIGN_OR_RETURN(Object * obj,
                             rt.TryNewWithId(cls, ObjectId(record.oid)));
    scope.Add(obj);
    if (record.cluster_plus1 != 0)
      obj->set_cluster(
          ClusterId(static_cast<uint32_t>(record.cluster_plus1 - 1)));
    if (options.assign_swap_cluster.valid())
      obj->set_swap_cluster(options.assign_swap_cluster);
    members.push_back(obj);
  }

  // Pass 2: fill slots (middleware-level writes, no re-mediation).
  for (size_t m = 0; m < doc.members.size(); ++m) {
    Object* obj = members[m];
    const MemberRec& record = doc.members[m];
    for (size_t f = 0; f < record.fields.size(); ++f) {
      const FieldRec& field = record.fields[f];
      Value value;
      switch (field.tag) {
        case kTagNil:
          value = Value::Nil();
          break;
        case kTagInt:
          value = Value::Int(field.int_value);
          break;
        case kTagReal: {
          double real;
          std::memcpy(&real, &field.real_bits, sizeof(real));
          value = Value::Real(real);
          break;
        }
        case kTagStr:
          value = Value::Str(field.str_value);
          break;
        case kTagLocal:
          value = Value::Ref(members[static_cast<size_t>(field.index)]);
          break;
        case kTagExt: {
          ExternalRef ref;
          ref.index = static_cast<size_t>(field.index);
          ref.oid = ObjectId(field.ext.oid);
          ref.class_name = field.ext.class_name;
          if (field.ext.cluster_plus1 != 0)
            ref.cluster =
                ClusterId(static_cast<uint32_t>(field.ext.cluster_plus1 - 1));
          OBISWAP_ASSIGN_OR_RETURN(Object * target, resolve_external(ref));
          value = Value::Ref(target);
          break;
        }
      }
      obj->RawSlotMutable(f) = std::move(value);
    }
    rt.heap().RefreshAccounting(obj);
  }
  return members;
}

}  // namespace

Result<std::vector<Object*>> DeserializeClusterBinary(
    Runtime& rt, const std::string& payload,
    const DeserializeOptions& options,
    const ResolveExternalFn& resolve_external) {
  OBISWAP_ASSIGN_OR_RETURN(Doc doc, ParseDoc(payload));
  if (options.verify_checksum && ComputeDocDigest(doc) != doc.embedded_digest)
    return DataLossError("cluster digest mismatch: store-side corruption?");
  return MaterializeDoc(rt, doc, options, resolve_external);
}

Result<std::vector<Object*>> DeserializeClusterAny(
    Runtime& rt, const std::string& payload,
    const DeserializeOptions& options,
    const ResolveExternalFn& resolve_external) {
  if (IsBinaryClusterPayload(payload))
    return DeserializeClusterBinary(rt, payload, options, resolve_external);
  if (!payload.empty() && payload[0] == '<')
    return DeserializeCluster(rt, payload, options, resolve_external);
  return DataLossError("unrecognized cluster payload format");
}

// ---------------------------------------------------------------------------
// Delta
// ---------------------------------------------------------------------------
//
// "OSWD" layout:
//   magic, varint version, varint cluster_id,
//   varint base_digest, varint target_digest,
//   varint member_count, varint op_count, per op:
//     u8 kind (0 carry-run / 1 added),
//     carry-run: varint base_start, varint run_len — copy that many
//       consecutive base members (an unchanged membership in base order is
//       one op, so the identity section does not scale with cluster size)
//     added: varint oid, class name, varint cluster+1, varint field_count
//   varint outbound_count, per outbound index: varint target oid
//   varint patch_count, per patch:
//     varint member_index (new order), varint field_index, encoded field
//
// A carried member copies the base member's oid, class, cluster label and
// every unpatched field; its local/external references are remapped by
// target oid (see header comment). An added member must have every field
// patched.

Result<std::string> DiffClusterPayloads(std::string_view base,
                                        std::string_view fresh) {
  if (!IsBinaryClusterPayload(base) || !IsBinaryClusterPayload(fresh))
    return InvalidArgumentError("delta diff requires two binary documents");
  OBISWAP_ASSIGN_OR_RETURN(Doc base_doc, ParseAndVerifyDoc(base));
  OBISWAP_ASSIGN_OR_RETURN(Doc fresh_doc, ParseAndVerifyDoc(fresh));
  if (base_doc.cluster_id != fresh_doc.cluster_id)
    return InvalidArgumentError("delta diff across different clusters");

  std::unordered_map<uint64_t, size_t> base_by_oid;
  base_by_oid.reserve(base_doc.members.size());
  for (size_t i = 0; i < base_doc.members.size(); ++i)
    base_by_oid.emplace(base_doc.members[i].oid, i);

  std::string out(kDeltaMagic, sizeof(kDeltaMagic));
  PutVarint64(&out, kDeltaVersion);
  PutVarint64(&out, fresh_doc.cluster_id);
  PutVarint64(&out, base_doc.embedded_digest);
  PutVarint64(&out, fresh_doc.embedded_digest);

  // Member identity section: runs of consecutive carried base members
  // interleaved with added-member records, in fresh-document order. The
  // common delta — same membership, same order — is a single carry-run op.
  std::vector<bool> carried(fresh_doc.members.size(), false);
  std::vector<size_t> base_index_of(fresh_doc.members.size(), 0);
  for (size_t i = 0; i < fresh_doc.members.size(); ++i) {
    const MemberRec& member = fresh_doc.members[i];
    auto it = base_by_oid.find(member.oid);
    if (it != base_by_oid.end() &&
        base_doc.members[it->second].class_name == member.class_name &&
        base_doc.members[it->second].cluster_plus1 ==
            member.cluster_plus1) {
      carried[i] = true;
      base_index_of[i] = it->second;
    }
  }
  PutVarint64(&out, fresh_doc.members.size());
  std::string member_ops;
  uint64_t op_count = 0;
  for (size_t i = 0; i < fresh_doc.members.size(); ++op_count) {
    if (carried[i]) {
      size_t run = 1;
      while (i + run < fresh_doc.members.size() && carried[i + run] &&
             base_index_of[i + run] == base_index_of[i] + run) {
        ++run;
      }
      member_ops.push_back(0);
      PutVarint64(&member_ops, base_index_of[i]);
      PutVarint64(&member_ops, run);
      i += run;
    } else {
      const MemberRec& member = fresh_doc.members[i];
      member_ops.push_back(1);
      PutVarint64(&member_ops, member.oid);
      PutLengthPrefixed(&member_ops, member.class_name);
      PutVarint64(&member_ops, member.cluster_plus1);
      PutVarint64(&member_ops, member.fields.size());
      ++i;
    }
  }
  PutVarint64(&out, op_count);
  out += member_ops;

  // New outbound table: target oid per index (identity beyond the oid rides
  // on the patched fields; carried fields keep their base identity).
  std::vector<uint64_t> outbound_oids(
      static_cast<size_t>(fresh_doc.outbound_count), 0);
  for (const MemberRec& member : fresh_doc.members) {
    for (const FieldRec& field : member.fields) {
      if (field.tag == kTagExt)
        outbound_oids[static_cast<size_t>(field.index)] = field.ext.oid;
    }
  }
  PutVarint64(&out, fresh_doc.outbound_count);
  for (uint64_t oid : outbound_oids) PutVarint64(&out, oid);

  // Patches: any field whose value cannot be predicted from the base.
  std::string patches;
  uint64_t patch_count = 0;
  for (size_t i = 0; i < fresh_doc.members.size(); ++i) {
    const MemberRec& member = fresh_doc.members[i];
    const MemberRec* base_member =
        carried[i] ? &base_doc.members[base_by_oid.at(member.oid)] : nullptr;
    for (size_t f = 0; f < member.fields.size(); ++f) {
      const FieldRec& field = member.fields[f];
      bool predicted = false;
      if (base_member != nullptr && f < base_member->fields.size()) {
        const FieldRec& base_field = base_member->fields[f];
        if (field.tag == base_field.tag) {
          switch (field.tag) {
            case kTagLocal: {
              // Same target object (by oid) — apply remaps the index.
              uint64_t base_target =
                  base_doc.members[static_cast<size_t>(base_field.index)].oid;
              uint64_t fresh_target =
                  fresh_doc.members[static_cast<size_t>(field.index)].oid;
              predicted = base_target == fresh_target;
              break;
            }
            case kTagExt:
              // Same target identity — apply remaps the index via the
              // outbound table.
              predicted = base_field.ext == field.ext;
              break;
            default:
              predicted = base_field == field;
          }
        }
      }
      if (predicted) continue;
      PutVarint64(&patches, i);
      PutVarint64(&patches, f);
      EncodeField(&patches, field);
      ++patch_count;
    }
  }
  PutVarint64(&out, patch_count);
  out += patches;
  return out;
}

Result<std::string> ApplyClusterDelta(std::string_view base,
                                      std::string_view delta) {
  if (!IsClusterDeltaPayload(delta))
    return DataLossError("delta apply: not a delta payload");
  OBISWAP_ASSIGN_OR_RETURN(Doc base_doc, ParseAndVerifyDoc(base));

  std::string_view rest = delta.substr(4);
  OBISWAP_ASSIGN_OR_RETURN(uint64_t version, GetVarint64(&rest));
  if (version != kDeltaVersion)
    return DataLossError("delta apply: unsupported version " +
                         std::to_string(version));
  OBISWAP_ASSIGN_OR_RETURN(uint64_t cluster_id, GetVarint64(&rest));
  OBISWAP_ASSIGN_OR_RETURN(uint64_t base_digest, GetVarint64(&rest));
  OBISWAP_ASSIGN_OR_RETURN(uint64_t target_digest, GetVarint64(&rest));
  if (cluster_id != base_doc.cluster_id)
    return DataLossError("delta apply: cluster id mismatch");
  if (base_digest != base_doc.embedded_digest)
    return DataLossError(
        "delta apply: delta was made against a different base payload");

  // Member section → new member skeletons (carry-runs copy the base).
  Doc merged;
  merged.cluster_id = cluster_id;
  OBISWAP_ASSIGN_OR_RETURN(uint64_t member_count, GetVarint64(&rest));
  merged.members.reserve(
      static_cast<size_t>(std::min<uint64_t>(member_count, 4096)));
  std::vector<bool> member_carried;
  member_carried.reserve(merged.members.capacity());
  std::unordered_map<uint64_t, size_t> new_by_oid;
  new_by_oid.reserve(
      static_cast<size_t>(std::min<uint64_t>(member_count, 4096)));
  OBISWAP_ASSIGN_OR_RETURN(uint64_t op_count, GetVarint64(&rest));
  for (uint64_t op = 0; op < op_count; ++op) {
    if (rest.empty())
      return DataLossError("delta apply: truncated member op");
    uint8_t kind = static_cast<uint8_t>(rest[0]);
    rest.remove_prefix(1);
    if (kind == 0) {
      OBISWAP_ASSIGN_OR_RETURN(uint64_t start, GetVarint64(&rest));
      OBISWAP_ASSIGN_OR_RETURN(uint64_t len, GetVarint64(&rest));
      if (len == 0 || start > base_doc.members.size() ||
          len > base_doc.members.size() - start)
        return DataLossError("delta apply: carry run out of range");
      for (uint64_t k = 0; k < len; ++k) {
        const MemberRec& from =
            base_doc.members[static_cast<size_t>(start + k)];
        if (!new_by_oid.emplace(from.oid, merged.members.size()).second)
          return DataLossError("delta apply: duplicate member oid");
        merged.members.push_back(from);
        member_carried.push_back(true);
      }
    } else if (kind == 1) {
      MemberRec member;
      OBISWAP_ASSIGN_OR_RETURN(member.oid, GetVarint64(&rest));
      OBISWAP_ASSIGN_OR_RETURN(member.class_name,
                               GetLengthPrefixed(&rest, kTruncatedString));
      OBISWAP_ASSIGN_OR_RETURN(member.cluster_plus1, GetVarint64(&rest));
      OBISWAP_ASSIGN_OR_RETURN(uint64_t field_count, GetVarint64(&rest));
      member.fields.resize(
          static_cast<size_t>(std::min<uint64_t>(field_count, 4096)));
      if (member.fields.size() != field_count)
        return DataLossError("delta apply: absurd field count");
      if (!new_by_oid.emplace(member.oid, merged.members.size()).second)
        return DataLossError("delta apply: duplicate member oid");
      merged.members.push_back(std::move(member));
      member_carried.push_back(false);
    } else {
      return DataLossError("delta apply: bad member op");
    }
    if (merged.members.size() > member_count)
      return DataLossError("delta apply: member ops exceed member count");
  }
  if (merged.members.size() != member_count)
    return DataLossError("delta apply: member ops disagree with count");

  // Outbound table → oid-to-new-index map for external remapping.
  OBISWAP_ASSIGN_OR_RETURN(merged.outbound_count, GetVarint64(&rest));
  std::unordered_map<uint64_t, uint64_t> ext_index_by_oid;
  ext_index_by_oid.reserve(static_cast<size_t>(
      std::min<uint64_t>(merged.outbound_count, 4096)));
  for (uint64_t i = 0; i < merged.outbound_count; ++i) {
    OBISWAP_ASSIGN_OR_RETURN(uint64_t oid, GetVarint64(&rest));
    if (!ext_index_by_oid.emplace(oid, i).second)
      return DataLossError("delta apply: duplicate outbound oid");
  }

  // Patches overwrite predicted values.
  std::vector<std::vector<bool>> patched(merged.members.size());
  for (size_t i = 0; i < merged.members.size(); ++i)
    patched[i].assign(merged.members[i].fields.size(), false);
  OBISWAP_ASSIGN_OR_RETURN(uint64_t patch_count, GetVarint64(&rest));
  for (uint64_t p = 0; p < patch_count; ++p) {
    OBISWAP_ASSIGN_OR_RETURN(uint64_t member_index, GetVarint64(&rest));
    OBISWAP_ASSIGN_OR_RETURN(uint64_t field_index, GetVarint64(&rest));
    if (member_index >= merged.members.size() ||
        field_index >= merged.members[member_index].fields.size())
      return DataLossError("delta apply: patch index out of range");
    OBISWAP_ASSIGN_OR_RETURN(FieldRec field, DecodeField(&rest));
    merged.members[static_cast<size_t>(member_index)]
        .fields[static_cast<size_t>(field_index)] = std::move(field);
    patched[static_cast<size_t>(member_index)]
           [static_cast<size_t>(field_index)] = true;
  }
  if (!rest.empty()) return DataLossError("delta apply: trailing bytes");

  // Remap the unpatched fields of carried members, and require that every
  // field of an added member was patched.
  for (size_t i = 0; i < merged.members.size(); ++i) {
    MemberRec& member = merged.members[i];
    for (size_t f = 0; f < member.fields.size(); ++f) {
      if (patched[i][f]) continue;
      if (!member_carried[i])
        return DataLossError("delta apply: added member missing field patch");
      FieldRec& field = member.fields[f];
      if (field.tag == kTagLocal) {
        uint64_t target_oid =
            base_doc.members[static_cast<size_t>(field.index)].oid;
        auto it = new_by_oid.find(target_oid);
        if (it == new_by_oid.end())
          return DataLossError(
              "delta apply: unpatched local ref to removed member");
        field.index = it->second;
      } else if (field.tag == kTagExt) {
        auto it = ext_index_by_oid.find(field.ext.oid);
        if (it == ext_index_by_oid.end())
          return DataLossError(
              "delta apply: unpatched external ref to removed target");
        field.index = it->second;
      }
    }
  }

  std::string encoded = EncodeDoc(merged);
  // EncodeDoc embeds ComputeDocDigest(merged); the target digest pins the
  // merged result to exactly what the fresh serialize produced.
  if (ComputeDocDigest(merged) != target_digest)
    return DataLossError("delta apply: merged document digest mismatch");
  return encoded;
}

}  // namespace obiswap::serialization
