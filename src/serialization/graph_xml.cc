#include "serialization/graph_xml.h"

#include <algorithm>

#include "common/checksum.h"
#include "common/string_util.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace obiswap::serialization {

using runtime::ClassInfo;
using runtime::Object;
using runtime::Runtime;
using runtime::Value;
using runtime::ValueKind;

using xml::AppendAttr;
using xml::AppendIntAttr;

Status ClusterRefs::Index(const std::vector<Object*>& members) {
  members_.reserve(members.size());
  for (size_t i = 0; i < members.size(); ++i)
    members_.emplace_back(members[i], i);
  std::sort(members_.begin(), members_.end());
  for (size_t i = 1; i < members_.size(); ++i) {
    if (members_[i].first == members_[i - 1].first)
      return InvalidArgumentError("duplicate member in cluster serialization");
  }
  return OkStatus();
}

size_t ClusterRefs::MemberIndex(const Object* target) const {
  auto it = std::lower_bound(
      members_.begin(), members_.end(), target,
      [](const auto& entry, const Object* key) { return entry.first < key; });
  return it != members_.end() && it->first == target ? it->second
                                                     : kNotMember;
}

Result<ExternalRef> ClusterRefs::External(Object* target) {
  OBISWAP_ASSIGN_OR_RETURN(ExternalRef ref, describe_(target));
  auto [it, inserted] = outbound_index_.emplace(target, outbound_->size());
  if (inserted) outbound_->push_back(target);
  ref.index = it->second;
  return ref;
}

Result<SerializedCluster> SerializeCluster(
    Runtime& rt, uint32_t cluster_attr_id,
    const std::vector<Object*>& members,
    const DescribeExternalFn& describe_external) {
  (void)rt;
  SerializedCluster out;
  ClusterRefs refs(describe_external, &out.outbound);
  OBISWAP_RETURN_IF_ERROR(refs.Index(members));
  Digest digest;
  digest.Mix(static_cast<uint64_t>(cluster_attr_id));
  digest.Mix(static_cast<uint64_t>(members.size()));

  // The members' elements are written first; the root's start tag, which
  // carries the digest of all of them, goes in front at the end.
  std::string& doc = out.payload;
  for (Object* member : members) {
    doc += "<object";
    AppendIntAttr(&doc, "oid", static_cast<int64_t>(member->oid().value()));
    AppendAttr(&doc, "class", member->cls().name());
    if (member->cluster().valid())
      AppendIntAttr(&doc, "cluster", member->cluster().value());
    digest.Mix(member->oid().value());
    digest.Mix(member->cls().name());

    const auto& fields = member->cls().fields();
    if (fields.empty()) {
      doc += "/>";
      continue;
    }
    doc += '>';
    for (size_t i = 0; i < fields.size(); ++i) {
      const Value& slot = member->RawSlot(i);
      doc += "<f";
      AppendAttr(&doc, "n", fields[i].name);
      AppendAttr(&doc, "t", ValueKindName(slot.kind()));
      digest.Mix(fields[i].name);
      digest.Mix(static_cast<uint64_t>(slot.kind()));
      switch (slot.kind()) {
        case ValueKind::kNil:
          doc += "/>";
          break;
        case ValueKind::kStr:
          digest.Mix(slot.as_str());
          doc += '>';
          xml::AppendEscapedText(&doc, slot.as_str());
          doc += "</f>";
          break;
        case ValueKind::kInt:
        case ValueKind::kReal: {
          // The digest mixes an int by value, a real by text.
          const std::string text = ScalarText(slot);
          if (slot.is_int())
            digest.Mix(static_cast<uint64_t>(slot.as_int()));
          else
            digest.Mix(text);
          doc += '>';
          doc += text;
          doc += "</f>";
          break;
        }
        case ValueKind::kRef: {
          const size_t local = refs.MemberIndex(slot.ref());
          if (local != ClusterRefs::kNotMember) {
            AppendIntAttr(&doc, "local", static_cast<int64_t>(local));
            doc += "/>";
            digest.Mix(local);
            break;
          }
          // External: describe it (or fail — e.g. a raw cross-swap-cluster
          // reference violates the mediation invariant).
          OBISWAP_ASSIGN_OR_RETURN(ExternalRef ref, refs.External(slot.ref()));
          AppendIntAttr(&doc, "out", static_cast<int64_t>(ref.index));
          AppendIntAttr(&doc, "oid", static_cast<int64_t>(ref.oid.value()));
          AppendAttr(&doc, "class", ref.class_name);
          if (ref.cluster.valid())
            AppendIntAttr(&doc, "cluster", ref.cluster.value());
          doc += "/>";
          digest.Mix(ref.index);
          digest.Mix(ref.oid.value());
          break;
        }
      }
    }
    doc += "</object>";
  }

  std::string root = "<swap-cluster";
  AppendIntAttr(&root, "id", cluster_attr_id);
  AppendIntAttr(&root, "count", static_cast<int64_t>(members.size()));
  AppendIntAttr(&root, "checksum", digest.Finish());
  if (members.empty()) {
    root += "/>";
  } else {
    root += '>';
    doc += "</swap-cluster>";
  }
  doc.insert(0, root);
  out.object_count = members.size();
  return out;
}

Result<std::vector<Object*>> DeserializeCluster(
    Runtime& rt, const std::string& xml_text,
    const DeserializeOptions& options,
    const ResolveExternalFn& resolve_external) {
  xml::Tape tape;
  OBISWAP_RETURN_IF_ERROR(tape.Parse(xml_text));
  constexpr uint32_t kRoot = 0;
  const uint32_t root_end = tape[kRoot].end;
  if (!tape.IsElement(kRoot, "swap-cluster"))
    return DataLossError("expected <swap-cluster> root, got <" +
                         std::string(tape[kRoot].text) + ">");
  OBISWAP_ASSIGN_OR_RETURN(int64_t id_attr, tape.GetIntAttr(kRoot, "id"));
  if (options.expected_id >= 0 && id_attr != options.expected_id)
    return DataLossError(StrFormat("cluster id mismatch: got %lld want %lld",
                                   (long long)id_attr,
                                   (long long)options.expected_id));
  OBISWAP_ASSIGN_OR_RETURN(int64_t count_attr,
                           tape.GetIntAttr(kRoot, "count"));

  // The <object> children of the root, in order; anything else there is
  // ignored.
  auto next_object = [&](uint32_t from) {
    while (from < root_end && !tape.IsElement(from, "object"))
      from = tape.Next(from);
    return from;
  };
  size_t object_count = 0;
  for (uint32_t e = next_object(kRoot + 1); e < root_end;
       e = next_object(tape.Next(e))) {
    ++object_count;
  }
  if (static_cast<int64_t>(object_count) != count_attr)
    return DataLossError("object count mismatch");

  Digest digest;
  digest.Mix(static_cast<uint64_t>(id_attr));
  digest.Mix(static_cast<uint64_t>(object_count));

  // Pass 1: create all member objects (so local refs resolve in pass 2).
  runtime::LocalScope scope(rt.heap());
  std::vector<Object*> members;
  members.reserve(object_count);
  for (uint32_t object_el = next_object(kRoot + 1); object_el < root_end;
       object_el = next_object(tape.Next(object_el))) {
    OBISWAP_ASSIGN_OR_RETURN(int64_t oid_attr,
                             tape.GetIntAttr(object_el, "oid"));
    OBISWAP_ASSIGN_OR_RETURN(std::string_view class_name,
                             tape.GetAttr(object_el, "class"));
    const ClassInfo* cls = rt.types().Find(class_name);
    if (cls == nullptr)
      return DataLossError("unknown class '" + std::string(class_name) +
                           "' in document");
    OBISWAP_ASSIGN_OR_RETURN(
        Object * obj,
        rt.TryNewWithId(cls, ObjectId(static_cast<uint64_t>(oid_attr))));
    scope.Add(obj);
    OBISWAP_ASSIGN_OR_RETURN(int64_t cluster_attr,
                             tape.GetIntAttrOr(object_el, "cluster", -1));
    if (cluster_attr >= 0)
      obj->set_cluster(ClusterId(static_cast<uint32_t>(cluster_attr)));
    if (options.assign_swap_cluster.valid())
      obj->set_swap_cluster(options.assign_swap_cluster);
    members.push_back(obj);
  }

  // Pass 2: fill slots.
  std::vector<uint8_t> slot_seen;
  std::string text_scratch;
  ExternalRef ref;
  uint32_t object_el = kRoot + 1;
  for (Object* obj : members) {
    object_el = next_object(object_el);
    const uint32_t object_end = tape[object_el].end;
    const ClassInfo& cls = obj->cls();
    digest.Mix(obj->oid().value());
    digest.Mix(cls.name());
    // Every class field must appear exactly once. Without this, a document
    // missing a <f> element silently left that slot nil and a duplicated
    // element was last-write-wins — both only ever surfaced when
    // verify_checksum happened to be on. Structural damage is rejected
    // unconditionally instead.
    slot_seen.assign(cls.fields().size(), 0);
    for (uint32_t field_el = object_el + 1; field_el < object_end;
         field_el = tape.Next(field_el)) {
      if (!tape.IsElement(field_el, "f")) continue;
      OBISWAP_ASSIGN_OR_RETURN(std::string_view field_name,
                               tape.GetAttr(field_el, "n"));
      const size_t slot = cls.FieldIndex(field_name);
      if (slot == ClassInfo::kNpos)
        return DataLossError("class " + cls.name() + " has no field '" +
                             std::string(field_name) + "'");
      if (slot_seen[slot])
        return DataLossError("duplicate field '" + std::string(field_name) +
                             "' for class " + cls.name());
      slot_seen[slot] = 1;
      OBISWAP_ASSIGN_OR_RETURN(std::string_view kind_name,
                               tape.GetAttr(field_el, "t"));
      digest.Mix(field_name);
      std::optional<ValueKind> kind = runtime::ParseValueKind(kind_name);
      if (!kind.has_value())
        return DataLossError("unknown field kind '" + std::string(kind_name) +
                             "'");
      digest.Mix(static_cast<uint64_t>(*kind));
      Value value;
      if (*kind != ValueKind::kRef) {
        OBISWAP_ASSIGN_OR_RETURN(
            value, ParseScalar(*kind, tape.InnerText(field_el, &text_scratch)));
        if (value.is_int())
          digest.Mix(static_cast<uint64_t>(value.as_int()));
        else if (value.is_real())
          digest.Mix(ScalarText(value));  // re-printed, as it was written
        else if (value.is_str())
          digest.Mix(value.as_str());
      } else {
        OBISWAP_ASSIGN_OR_RETURN(int64_t local_attr,
                                 tape.GetIntAttrOr(field_el, "local", -1));
        if (local_attr >= 0) {
          if (static_cast<size_t>(local_attr) >= members.size())
            return DataLossError("local ref index out of range");
          value = Value::Ref(members[static_cast<size_t>(local_attr)]);
          digest.Mix(static_cast<uint64_t>(local_attr));
        } else {
          OBISWAP_ASSIGN_OR_RETURN(int64_t out_attr,
                                   tape.GetIntAttr(field_el, "out"));
          OBISWAP_ASSIGN_OR_RETURN(int64_t oid_attr,
                                   tape.GetIntAttr(field_el, "oid"));
          ref.index = static_cast<size_t>(out_attr);
          ref.oid = ObjectId(static_cast<uint64_t>(oid_attr));
          OBISWAP_ASSIGN_OR_RETURN(std::string_view class_name,
                                   tape.GetAttr(field_el, "class"));
          ref.class_name.assign(class_name);
          OBISWAP_ASSIGN_OR_RETURN(int64_t cluster_attr,
                                   tape.GetIntAttrOr(field_el, "cluster", -1));
          ref.cluster = cluster_attr >= 0
                            ? ClusterId(static_cast<uint32_t>(cluster_attr))
                            : ClusterId();
          OBISWAP_ASSIGN_OR_RETURN(Object * target, resolve_external(ref));
          value = Value::Ref(target);
          digest.Mix(ref.index);
          digest.Mix(ref.oid.value());
        }
      }
      // Middleware-level write: swap-in must restore exactly what was
      // captured, without re-mediation.
      obj->RawSlotMutable(slot) = std::move(value);
    }
    for (size_t i = 0; i < slot_seen.size(); ++i) {
      if (!slot_seen[i])
        return DataLossError("missing field '" + cls.fields()[i].name +
                             "' for class " + cls.name());
    }
    rt.heap().RefreshAccounting(obj);
    object_el = tape.Next(object_el);
  }

  if (options.verify_checksum) {
    OBISWAP_ASSIGN_OR_RETURN(int64_t expected,
                             tape.GetIntAttr(kRoot, "checksum"));
    if (static_cast<uint32_t>(expected) != digest.Finish())
      return DataLossError(
          "cluster checksum mismatch: store-side corruption?");
  }
  return members;
}

}  // namespace obiswap::serialization
