#include "serialization/graph_binary.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <unordered_map>

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

/// One field as read from or written to the wire. `word` is an int's
/// zigzag form, a real's bit pattern, or a local/external index; `text` is
/// a string's bytes or an external target's class name, viewed in the
/// document it was read from.
struct FieldView {
  uint8_t tag = kTagNil;
  uint64_t word = 0;
  std::string_view text;
  uint64_t ext_oid = 0;
  uint64_t ext_cluster_plus1 = 0;  // 0 = no replication-cluster label

  /// Same external target; the index is excluded, since indices shift
  /// between documents and identity does not.
  bool SameTarget(const FieldView& other) const {
    return ext_oid == other.ext_oid && text == other.text &&
           ext_cluster_plus1 == other.ext_cluster_plus1;
  }
};

struct MemberView {
  uint64_t oid = 0;
  std::string_view class_name;
  uint64_t cluster_plus1 = 0;
  size_t first_field = 0;  // position of its first field in the field list
  size_t field_count = 0;
};

void PutField(std::string* out, const FieldView& field) {
  out->push_back(static_cast<char>(field.tag));
  switch (field.tag) {
    case kTagInt:
    case kTagLocal:
      PutVarint64(out, field.word);
      break;
    case kTagReal:
      PutFixed(out, field.word, 8);
      break;
    case kTagStr:
      PutLengthPrefixed(out, field.text);
      break;
    case kTagExt:
      PutVarint64(out, field.word);
      PutVarint64(out, field.ext_oid);
      PutLengthPrefixed(out, field.text);
      PutVarint64(out, field.ext_cluster_plus1);
      break;
  }
}

Status ReadField(std::string_view* in, FieldView* field) {
  if (in->empty()) return DataLossError("binary doc: truncated field");
  field->tag = static_cast<uint8_t>((*in)[0]);
  in->remove_prefix(1);
  switch (field->tag) {
    case kTagNil:
      break;
    case kTagInt:
    case kTagLocal: {
      OBISWAP_ASSIGN_OR_RETURN(field->word, GetVarint64(in));
      break;
    }
    case kTagReal: {
      std::optional<uint64_t> bits = GetFixed(in, 8);
      if (!bits.has_value()) return DataLossError("binary doc: truncated real");
      field->word = *bits;
      break;
    }
    case kTagStr: {
      OBISWAP_ASSIGN_OR_RETURN(field->text,
                               GetLengthPrefixed(in, kTruncatedString));
      break;
    }
    case kTagExt: {
      OBISWAP_ASSIGN_OR_RETURN(field->word, GetVarint64(in));
      OBISWAP_ASSIGN_OR_RETURN(field->ext_oid, GetVarint64(in));
      OBISWAP_ASSIGN_OR_RETURN(field->text,
                               GetLengthPrefixed(in, kTruncatedString));
      OBISWAP_ASSIGN_OR_RETURN(field->ext_cluster_plus1, GetVarint64(in));
      break;
    }
    default:
      return DataLossError("binary doc: unknown field tag " +
                           std::to_string(field->tag));
  }
  return OkStatus();
}

// The binary document's digest (common/checksum.h) mixes its primitives in
// wire order: the cluster id and member count; per member its oid, class
// name, label and field count, then each field; last the outbound count.
// Reals are mixed by *bit pattern* (so NaN payloads and signed zeros are
// covered exactly); field names are not on the wire and not mixed, and an
// external target is mixed by index and oid. Computable from the document
// alone, which is what lets delta apply verify the merged result without a
// runtime.
void MixMember(Digest& digest, const MemberView& member) {
  digest.Mix(member.oid);
  digest.Mix(member.class_name);
  digest.Mix(member.cluster_plus1);
  digest.Mix(static_cast<uint64_t>(member.field_count));
}

void MixField(Digest& digest, const FieldView& field) {
  digest.Mix(static_cast<uint64_t>(field.tag));
  switch (field.tag) {
    case kTagInt:
    case kTagReal:
    case kTagLocal:
      digest.Mix(field.word);
      break;
    case kTagStr:
      digest.Mix(field.text);
      break;
    case kTagExt:
      digest.Mix(field.word);
      digest.Mix(field.ext_oid);
      break;
  }
}

/// Writes an OSWB document front to back, mixing its digest as it goes.
/// Canonical: the same content always gives the same bytes, which is what
/// makes Apply(base, Diff(base, fresh)) byte-identical to fresh.
class DocWriter {
 public:
  DocWriter(std::string* out, uint64_t cluster_id, uint64_t member_count)
      : out_(out) {
    out_->assign(kDocMagic, sizeof(kDocMagic));
    PutVarint64(out_, kDocVersion);
    PutVarint64(out_, cluster_id);
    PutVarint64(out_, member_count);
    digest_.Mix(cluster_id);
    digest_.Mix(member_count);
  }

  void Member(const MemberView& member) {
    PutVarint64(out_, member.oid);
    PutLengthPrefixed(out_, member.class_name);
    PutVarint64(out_, member.cluster_plus1);
    PutVarint64(out_, member.field_count);
    MixMember(digest_, member);
  }

  void Field(const FieldView& field) {
    PutField(out_, field);
    MixField(digest_, field);
  }

  /// Closes the document and returns the digest it embeds.
  uint32_t Finish(uint64_t outbound_count) {
    PutVarint64(out_, outbound_count);
    digest_.Mix(outbound_count);
    const uint32_t digest = digest_.Finish();
    PutVarint64(out_, digest);
    return digest;
  }

 private:
  std::string* out_;
  Digest digest_;
};

/// An OSWB document read in one validating pass: every view points into
/// the payload, which must outlive the scan.
struct DocScan {
  uint64_t cluster_id = 0;
  std::vector<MemberView> members;
  std::vector<FieldView> fields;  // every member's, in document order
  /// The first reference to each outbound index: the target's identity.
  std::vector<const FieldView*> outbound;
  uint32_t embedded_digest = 0;
  uint32_t digest = 0;  // recomputed over the content as it was read

  /// Reads `payload` and checks its structure: syntax first, then local
  /// indices in range, external indices in range with one identity per
  /// index and none unused (the encoder allocates them densely), each
  /// check reporting the first offending field in document order.
  Status Read(std::string_view payload);

  /// Read, then the embedded digest.
  Status ReadVerified(std::string_view payload) {
    OBISWAP_RETURN_IF_ERROR(Read(payload));
    if (digest != embedded_digest)
      return DataLossError("binary doc: digest mismatch");
    return OkStatus();
  }
};

Status DocScan::Read(std::string_view payload) {
  if (!IsBinaryClusterPayload(payload))
    return DataLossError("binary doc: bad magic");
  std::string_view rest = payload.substr(4);
  OBISWAP_ASSIGN_OR_RETURN(uint64_t version, GetVarint64(&rest));
  if (version != kDocVersion)
    return DataLossError("binary doc: unsupported version " +
                         std::to_string(version));
  OBISWAP_ASSIGN_OR_RETURN(cluster_id, GetVarint64(&rest));
  OBISWAP_ASSIGN_OR_RETURN(uint64_t member_count, GetVarint64(&rest));
  Digest mix;
  mix.Mix(cluster_id);
  mix.Mix(member_count);
  // Every member takes at least four bytes and every field one, which
  // bounds what a damaged count can make us reserve.
  members.reserve(static_cast<size_t>(
      std::min<uint64_t>(member_count, rest.size() / 4)));
  size_t ext_fields = 0;
  for (uint64_t m = 0; m < member_count; ++m) {
    MemberView& member = members.emplace_back();
    OBISWAP_ASSIGN_OR_RETURN(member.oid, GetVarint64(&rest));
    OBISWAP_ASSIGN_OR_RETURN(member.class_name,
                             GetLengthPrefixed(&rest, kTruncatedString));
    OBISWAP_ASSIGN_OR_RETURN(member.cluster_plus1, GetVarint64(&rest));
    OBISWAP_ASSIGN_OR_RETURN(uint64_t field_count, GetVarint64(&rest));
    member.first_field = fields.size();
    member.field_count = static_cast<size_t>(field_count);
    MixMember(mix, member);
    if (m == 0)  // as if every member had the first one's fields
      fields.reserve(static_cast<size_t>(std::min<uint64_t>(
          members.capacity() * std::min<uint64_t>(field_count, 4096),
          rest.size())));
    for (uint64_t f = 0; f < field_count; ++f) {
      FieldView& field = fields.emplace_back();
      OBISWAP_RETURN_IF_ERROR(ReadField(&rest, &field));
      MixField(mix, field);
      if (field.tag == kTagExt) ++ext_fields;
    }
  }
  OBISWAP_ASSIGN_OR_RETURN(uint64_t outbound_count, GetVarint64(&rest));
  OBISWAP_ASSIGN_OR_RETURN(uint64_t embedded, GetVarint64(&rest));
  if (embedded > UINT32_MAX) return DataLossError("binary doc: bad digest");
  embedded_digest = static_cast<uint32_t>(embedded);
  if (!rest.empty()) return DataLossError("binary doc: trailing bytes");
  mix.Mix(outbound_count);
  digest = mix.Finish();

  // References. A well-formed document uses every outbound index, so
  // there are at most as many as external fields; an index past that is
  // only possible in a document that fails below, and goes to a map that
  // stays empty (unallocated) otherwise.
  outbound.assign(
      static_cast<size_t>(std::min<uint64_t>(outbound_count, ext_fields)),
      nullptr);
  std::unordered_map<uint64_t, const FieldView*> past_table;
  uint64_t used = 0;
  for (const FieldView& field : fields) {
    if (field.tag == kTagLocal) {
      if (field.word >= members.size())
        return DataLossError("binary doc: local ref index out of range");
    } else if (field.tag == kTagExt) {
      if (field.word >= outbound_count)
        return DataLossError("binary doc: external index out of range");
      const FieldView* first = nullptr;
      if (field.word < outbound.size()) {
        first = outbound[field.word];
        if (first == nullptr) outbound[field.word] = &field;
      } else {
        auto [it, fresh] = past_table.try_emplace(field.word, &field);
        if (!fresh) first = it->second;
      }
      if (first == nullptr) {
        ++used;
      } else if (!first->SameTarget(field)) {
        return DataLossError(
            "binary doc: conflicting identities for external index " +
            std::to_string(field.word));
      }
    }
  }
  if (used != outbound_count)
    return DataLossError("binary doc: unused external index");
  return OkStatus();
}

uint64_t ClusterPlus1(ClusterId cluster) {
  return cluster.valid() ? static_cast<uint64_t>(cluster.value()) + 1 : 0;
}

ClusterId ClusterFromPlus1(uint64_t plus1) {
  return plus1 ? ClusterId(static_cast<uint32_t>(plus1 - 1)) : ClusterId();
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
  SerializedCluster out;
  ClusterRefs refs(describe_external, &out.outbound);
  OBISWAP_RETURN_IF_ERROR(refs.Index(members));
  DocWriter doc(&out.payload, cluster_attr_id, members.size());
  ExternalRef ref;  // the current external field's target; `text` views it
  for (Object* member : members) {
    const size_t field_count = member->cls().fields().size();
    doc.Member({member->oid().value(), member->cls().name(),
                ClusterPlus1(member->cluster()), 0, field_count});
    for (size_t i = 0; i < field_count; ++i) {
      const Value& slot = member->RawSlot(i);
      FieldView field;
      switch (slot.kind()) {
        case ValueKind::kNil:
          break;
        case ValueKind::kInt:
          field.tag = kTagInt;
          field.word = ZigZagEncode(slot.as_int());
          break;
        case ValueKind::kReal: {
          field.tag = kTagReal;
          const double real = slot.as_real();
          std::memcpy(&field.word, &real, sizeof(real));
          break;
        }
        case ValueKind::kStr:
          field.tag = kTagStr;
          field.text = slot.as_str();
          break;
        case ValueKind::kRef: {
          const size_t local = refs.MemberIndex(slot.ref());
          if (local != ClusterRefs::kNotMember) {
            field.tag = kTagLocal;
            field.word = local;
            break;
          }
          OBISWAP_ASSIGN_OR_RETURN(ref, refs.External(slot.ref()));
          field.tag = kTagExt;
          field.word = ref.index;
          field.ext_oid = ref.oid.value();
          field.text = ref.class_name;
          field.ext_cluster_plus1 = ClusterPlus1(ref.cluster);
          break;
        }
      }
      doc.Field(field);
    }
  }
  doc.Finish(out.outbound.size());
  out.object_count = members.size();
  return out;
}

Result<std::vector<Object*>> DeserializeClusterBinary(
    Runtime& rt, const std::string& payload,
    const DeserializeOptions& options,
    const ResolveExternalFn& resolve_external) {
  DocScan doc;
  OBISWAP_RETURN_IF_ERROR(doc.Read(payload));
  if (options.verify_checksum && doc.digest != doc.embedded_digest)
    return DataLossError("cluster digest mismatch: store-side corruption?");
  if (options.expected_id >= 0 &&
      doc.cluster_id != static_cast<uint64_t>(options.expected_id))
    return DataLossError("cluster id mismatch: got " +
                         std::to_string(doc.cluster_id) + " want " +
                         std::to_string(options.expected_id));

  // Pass 1: create all member objects (so local refs resolve in pass 2).
  runtime::LocalScope scope(rt.heap());
  std::vector<Object*> members;
  members.reserve(doc.members.size());
  const ClassInfo* cls = nullptr;
  for (const MemberView& record : doc.members) {
    // Members of one class usually come in runs: one lookup per run.
    if (cls == nullptr || cls->name() != record.class_name)
      cls = rt.types().Find(record.class_name);
    if (cls == nullptr)
      return DataLossError("unknown class '" + std::string(record.class_name) +
                           "' in document");
    if (cls->fields().size() != record.field_count)
      return DataLossError("field count mismatch for class " +
                           std::string(record.class_name) + ": doc has " +
                           std::to_string(record.field_count) +
                           ", class has " +
                           std::to_string(cls->fields().size()));
    OBISWAP_ASSIGN_OR_RETURN(Object * obj,
                             rt.TryNewWithId(cls, ObjectId(record.oid)));
    scope.Add(obj);
    obj->set_cluster(ClusterFromPlus1(record.cluster_plus1));
    if (options.assign_swap_cluster.valid())
      obj->set_swap_cluster(options.assign_swap_cluster);
    members.push_back(obj);
  }

  // Pass 2: fill slots (middleware-level writes, no re-mediation).
  ExternalRef ref;
  for (size_t m = 0; m < members.size(); ++m) {
    Object* obj = members[m];
    const MemberView& record = doc.members[m];
    const FieldView* fields = doc.fields.data() + record.first_field;
    for (size_t f = 0; f < record.field_count; ++f) {
      const FieldView& field = fields[f];
      Value value;
      switch (field.tag) {
        case kTagInt:
          value = Value::Int(ZigZagDecode(field.word));
          break;
        case kTagReal: {
          double real;
          std::memcpy(&real, &field.word, sizeof(real));
          value = Value::Real(real);
          break;
        }
        case kTagStr:
          value = Value::Str(std::string(field.text));
          break;
        case kTagLocal:
          value = Value::Ref(members[static_cast<size_t>(field.word)]);
          break;
        case kTagExt: {
          ref.index = static_cast<size_t>(field.word);
          ref.oid = ObjectId(field.ext_oid);
          ref.class_name.assign(field.text);
          ref.cluster = ClusterFromPlus1(field.ext_cluster_plus1);
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
  DocScan base_doc, fresh_doc;
  OBISWAP_RETURN_IF_ERROR(base_doc.ReadVerified(base));
  OBISWAP_RETURN_IF_ERROR(fresh_doc.ReadVerified(fresh));
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
  // base_of[i] is fresh member i's base member, or null when it is added.
  const size_t count = fresh_doc.members.size();
  std::vector<const MemberView*> base_of(count, nullptr);
  for (size_t i = 0; i < count; ++i) {
    const MemberView& member = fresh_doc.members[i];
    auto it = base_by_oid.find(member.oid);
    if (it == base_by_oid.end()) continue;
    const MemberView& candidate = base_doc.members[it->second];
    if (candidate.class_name == member.class_name &&
        candidate.cluster_plus1 == member.cluster_plus1)
      base_of[i] = &candidate;
  }
  PutVarint64(&out, count);
  std::string member_ops;
  uint64_t op_count = 0;
  for (size_t i = 0; i < count; ++op_count) {
    if (base_of[i] != nullptr) {
      size_t run = 1;
      while (i + run < count && base_of[i + run] == base_of[i] + run) ++run;
      member_ops.push_back(0);
      PutVarint64(&member_ops, base_of[i] - base_doc.members.data());
      PutVarint64(&member_ops, run);
      i += run;
    } else {
      const MemberView& member = fresh_doc.members[i];
      member_ops.push_back(1);
      PutVarint64(&member_ops, member.oid);
      PutLengthPrefixed(&member_ops, member.class_name);
      PutVarint64(&member_ops, member.cluster_plus1);
      PutVarint64(&member_ops, member.field_count);
      ++i;
    }
  }
  PutVarint64(&out, op_count);
  out += member_ops;

  // New outbound table: target oid per index (identity beyond the oid rides
  // on the patched fields; carried fields keep their base identity).
  PutVarint64(&out, fresh_doc.outbound.size());
  for (const FieldView* target : fresh_doc.outbound)
    PutVarint64(&out, target->ext_oid);

  // Patches: any field whose value cannot be predicted from the base.
  std::string patches;
  uint64_t patch_count = 0;
  for (size_t i = 0; i < count; ++i) {
    const MemberView& member = fresh_doc.members[i];
    const FieldView* fields = fresh_doc.fields.data() + member.first_field;
    for (size_t f = 0; f < member.field_count; ++f) {
      const FieldView& field = fields[f];
      if (base_of[i] != nullptr && f < base_of[i]->field_count) {
        // A local ref predicts by target oid and an external by target
        // identity: apply remaps their indices.
        const FieldView& was = base_doc.fields[base_of[i]->first_field + f];
        if (was.tag == field.tag &&
            (field.tag == kTagLocal ? base_doc.members[was.word].oid ==
                                          fresh_doc.members[field.word].oid
             : field.tag == kTagExt ? was.SameTarget(field)
                                    : was.word == field.word &&
                                          was.text == field.text))
          continue;
      }
      PutVarint64(&patches, i);
      PutVarint64(&patches, f);
      PutField(&patches, field);
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
  DocScan base_doc;
  OBISWAP_RETURN_IF_ERROR(base_doc.ReadVerified(base));

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

  // Member section → the merged members (carry-runs copy the base's, fields
  // included); an added member's fields start nil and must all be patched.
  enum FieldState : uint8_t { kCarried, kPatched, kMustPatch };
  OBISWAP_ASSIGN_OR_RETURN(uint64_t member_count, GetVarint64(&rest));
  const size_t reserve =
      static_cast<size_t>(std::min<uint64_t>(member_count, 4096));
  std::vector<MemberView> members;
  std::vector<FieldView> fields;
  std::vector<uint8_t> state;  // FieldState, per field
  members.reserve(reserve);
  std::unordered_map<uint64_t, size_t> new_by_oid;
  new_by_oid.reserve(reserve);
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
        MemberView from = base_doc.members[static_cast<size_t>(start + k)];
        if (!new_by_oid.emplace(from.oid, members.size()).second)
          return DataLossError("delta apply: duplicate member oid");
        const FieldView* carried = base_doc.fields.data() + from.first_field;
        from.first_field = fields.size();
        fields.insert(fields.end(), carried, carried + from.field_count);
        state.resize(fields.size(), kCarried);
        members.push_back(from);
      }
    } else if (kind == 1) {
      MemberView member;
      OBISWAP_ASSIGN_OR_RETURN(member.oid, GetVarint64(&rest));
      OBISWAP_ASSIGN_OR_RETURN(member.class_name,
                               GetLengthPrefixed(&rest, kTruncatedString));
      OBISWAP_ASSIGN_OR_RETURN(member.cluster_plus1, GetVarint64(&rest));
      OBISWAP_ASSIGN_OR_RETURN(uint64_t field_count, GetVarint64(&rest));
      if (field_count > 4096)
        return DataLossError("delta apply: absurd field count");
      if (!new_by_oid.emplace(member.oid, members.size()).second)
        return DataLossError("delta apply: duplicate member oid");
      member.first_field = fields.size();
      member.field_count = static_cast<size_t>(field_count);
      fields.resize(fields.size() + member.field_count);
      state.resize(fields.size(), kMustPatch);
      members.push_back(member);
    } else {
      return DataLossError("delta apply: bad member op");
    }
    if (members.size() > member_count)
      return DataLossError("delta apply: member ops exceed member count");
  }
  if (members.size() != member_count)
    return DataLossError("delta apply: member ops disagree with count");

  // Outbound table → oid-to-new-index map for external remapping.
  OBISWAP_ASSIGN_OR_RETURN(uint64_t outbound_count, GetVarint64(&rest));
  std::unordered_map<uint64_t, uint64_t> ext_index_by_oid;
  ext_index_by_oid.reserve(
      static_cast<size_t>(std::min<uint64_t>(outbound_count, 4096)));
  for (uint64_t i = 0; i < outbound_count; ++i) {
    OBISWAP_ASSIGN_OR_RETURN(uint64_t oid, GetVarint64(&rest));
    if (!ext_index_by_oid.emplace(oid, i).second)
      return DataLossError("delta apply: duplicate outbound oid");
  }

  // Patches overwrite predicted values.
  OBISWAP_ASSIGN_OR_RETURN(uint64_t patch_count, GetVarint64(&rest));
  for (uint64_t p = 0; p < patch_count; ++p) {
    OBISWAP_ASSIGN_OR_RETURN(uint64_t member_index, GetVarint64(&rest));
    OBISWAP_ASSIGN_OR_RETURN(uint64_t field_index, GetVarint64(&rest));
    if (member_index >= members.size() ||
        field_index >= members[member_index].field_count)
      return DataLossError("delta apply: patch index out of range");
    const size_t at = members[member_index].first_field +
                      static_cast<size_t>(field_index);
    fields[at] = FieldView();
    OBISWAP_RETURN_IF_ERROR(ReadField(&rest, &fields[at]));
    state[at] = kPatched;
  }
  if (!rest.empty()) return DataLossError("delta apply: trailing bytes");

  // Remap the unpatched fields of carried members, and require that every
  // field of an added member was patched.
  for (size_t at = 0; at < fields.size(); ++at) {
    if (state[at] == kPatched) continue;
    if (state[at] == kMustPatch)
      return DataLossError("delta apply: added member missing field patch");
    FieldView& field = fields[at];
    if (field.tag == kTagLocal) {
      auto it = new_by_oid.find(base_doc.members[field.word].oid);
      if (it == new_by_oid.end())
        return DataLossError(
            "delta apply: unpatched local ref to removed member");
      field.word = it->second;
    } else if (field.tag == kTagExt) {
      auto it = ext_index_by_oid.find(field.ext_oid);
      if (it == ext_index_by_oid.end())
        return DataLossError(
            "delta apply: unpatched external ref to removed target");
      field.word = it->second;
    }
  }

  // The target digest pins the merged result to exactly what the fresh
  // serialize produced.
  std::string merged;
  DocWriter doc(&merged, cluster_id, members.size());
  for (const MemberView& member : members) {
    doc.Member(member);
    for (size_t f = 0; f < member.field_count; ++f)
      doc.Field(fields[member.first_field + f]);
  }
  if (doc.Finish(outbound_count) != target_digest)
    return DataLossError("delta apply: merged document digest mismatch");
  return merged;
}

}  // namespace obiswap::serialization
