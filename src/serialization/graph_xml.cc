#include "serialization/graph_xml.h"

#include <unordered_map>

#include "common/checksum.h"
#include "common/string_util.h"
#include "xml/node.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace obiswap::serialization {

using runtime::ClassInfo;
using runtime::Object;
using runtime::Runtime;
using runtime::Value;
using runtime::ValueKind;

Result<SerializedCluster> SerializeCluster(
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
  Digest digest;
  digest.Mix(static_cast<uint64_t>(cluster_attr_id));
  digest.Mix(static_cast<uint64_t>(members.size()));

  auto root = xml::Node::Element("swap-cluster");
  root->SetIntAttr("id", cluster_attr_id);
  root->SetIntAttr("count", static_cast<int64_t>(members.size()));

  for (Object* member : members) {
    xml::Node* object_el = root->AddElement("object");
    object_el->SetIntAttr("oid", static_cast<int64_t>(member->oid().value()));
    object_el->SetAttr("class", member->cls().name());
    if (member->cluster().valid())
      object_el->SetIntAttr("cluster", member->cluster().value());
    digest.Mix(member->oid().value());
    digest.Mix(member->cls().name());

    const auto& fields = member->cls().fields();
    for (size_t i = 0; i < fields.size(); ++i) {
      const Value& slot = member->RawSlot(i);
      xml::Node* field_el = object_el->AddElement("f");
      field_el->SetAttr("n", fields[i].name);
      field_el->SetAttr("t", ValueKindName(slot.kind()));
      digest.Mix(fields[i].name);
      digest.Mix(static_cast<uint64_t>(slot.kind()));
      switch (slot.kind()) {
        case ValueKind::kNil:
          break;
        case ValueKind::kInt:
        case ValueKind::kReal:
        case ValueKind::kStr: {
          // The digest mixes an int by value, a real or a string by text.
          std::string text = ScalarText(slot);
          if (slot.is_int())
            digest.Mix(static_cast<uint64_t>(slot.as_int()));
          else
            digest.Mix(text);
          field_el->AddText(std::move(text));
          break;
        }
        case ValueKind::kRef: {
          Object* target = slot.ref();
          auto member_it = member_index.find(target);
          if (member_it != member_index.end()) {
            field_el->SetIntAttr("local",
                                 static_cast<int64_t>(member_it->second));
            digest.Mix(member_it->second);
            break;
          }
          // External: describe it (or fail — e.g. a raw cross-swap-cluster
          // reference violates the mediation invariant).
          size_t index;
          auto outbound_it = outbound_index.find(target);
          ExternalRef ref;
          if (outbound_it != outbound_index.end()) {
            index = outbound_it->second;
            OBISWAP_ASSIGN_OR_RETURN(ref, describe_external(target));
            ref.index = index;
          } else {
            OBISWAP_ASSIGN_OR_RETURN(ref, describe_external(target));
            index = out.outbound.size();
            ref.index = index;
            outbound_index.emplace(target, index);
            out.outbound.push_back(target);
          }
          field_el->SetIntAttr("out", static_cast<int64_t>(index));
          field_el->SetIntAttr("oid", static_cast<int64_t>(ref.oid.value()));
          field_el->SetAttr("class", ref.class_name);
          if (ref.cluster.valid())
            field_el->SetIntAttr("cluster", ref.cluster.value());
          digest.Mix(index);
          digest.Mix(ref.oid.value());
          break;
        }
      }
    }
  }

  root->SetIntAttr("checksum", digest.Finish());
  out.payload = xml::Write(*root);
  out.object_count = members.size();
  return out;
}

Result<std::vector<Object*>> DeserializeCluster(
    Runtime& rt, const std::string& xml_text,
    const DeserializeOptions& options,
    const ResolveExternalFn& resolve_external) {
  OBISWAP_ASSIGN_OR_RETURN(auto doc, xml::Parse(xml_text));
  const xml::Node& root = *doc;
  if (root.name() != "swap-cluster")
    return DataLossError("expected <swap-cluster> root, got <" + root.name() +
                         ">");
  OBISWAP_ASSIGN_OR_RETURN(int64_t id_attr, root.GetIntAttr("id"));
  if (options.expected_id >= 0 && id_attr != options.expected_id)
    return DataLossError(StrFormat("cluster id mismatch: got %lld want %lld",
                                   (long long)id_attr,
                                   (long long)options.expected_id));
  OBISWAP_ASSIGN_OR_RETURN(int64_t count_attr, root.GetIntAttr("count"));

  std::vector<const xml::Node*> object_els = root.FindChildren("object");
  if (static_cast<int64_t>(object_els.size()) != count_attr)
    return DataLossError("object count mismatch");

  Digest digest;
  digest.Mix(static_cast<uint64_t>(id_attr));
  digest.Mix(static_cast<uint64_t>(object_els.size()));

  // Pass 1: create all member objects (so local refs resolve in pass 2).
  runtime::LocalScope scope(rt.heap());
  std::vector<Object*> members;
  members.reserve(object_els.size());
  for (const xml::Node* object_el : object_els) {
    OBISWAP_ASSIGN_OR_RETURN(int64_t oid_attr, object_el->GetIntAttr("oid"));
    OBISWAP_ASSIGN_OR_RETURN(std::string class_name,
                             object_el->GetAttr("class"));
    const ClassInfo* cls = rt.types().Find(class_name);
    if (cls == nullptr)
      return DataLossError("unknown class '" + class_name + "' in document");
    OBISWAP_ASSIGN_OR_RETURN(
        Object * obj,
        rt.TryNewWithId(cls, ObjectId(static_cast<uint64_t>(oid_attr))));
    scope.Add(obj);
    OBISWAP_ASSIGN_OR_RETURN(int64_t cluster_attr,
                             object_el->GetIntAttrOr("cluster", -1));
    if (cluster_attr >= 0)
      obj->set_cluster(ClusterId(static_cast<uint32_t>(cluster_attr)));
    if (options.assign_swap_cluster.valid())
      obj->set_swap_cluster(options.assign_swap_cluster);
    members.push_back(obj);
  }

  // Pass 2: fill slots.
  for (size_t m = 0; m < members.size(); ++m) {
    Object* obj = members[m];
    const xml::Node* object_el = object_els[m];
    digest.Mix(obj->oid().value());
    digest.Mix(obj->cls().name());
    // Every class field must appear exactly once. Without this, a document
    // missing a <f> element silently left that slot nil and a duplicated
    // element was last-write-wins — both only ever surfaced when
    // verify_checksum happened to be on. Structural damage is rejected
    // unconditionally instead.
    std::vector<bool> slot_seen(obj->cls().fields().size(), false);
    for (const xml::Node* field_el : object_el->FindChildren("f")) {
      OBISWAP_ASSIGN_OR_RETURN(std::string field_name,
                               field_el->GetAttr("n"));
      size_t slot = obj->cls().FieldIndex(field_name);
      if (slot == ClassInfo::kNpos)
        return DataLossError("class " + obj->cls().name() +
                             " has no field '" + field_name + "'");
      if (slot_seen[slot])
        return DataLossError("duplicate field '" + field_name +
                             "' for class " + obj->cls().name());
      slot_seen[slot] = true;
      OBISWAP_ASSIGN_OR_RETURN(std::string kind_name, field_el->GetAttr("t"));
      digest.Mix(field_name);
      std::optional<ValueKind> kind = runtime::ParseValueKind(kind_name);
      if (!kind.has_value())
        return DataLossError("unknown field kind '" + kind_name + "'");
      digest.Mix(static_cast<uint64_t>(*kind));
      Value value;
      if (*kind != ValueKind::kRef) {
        OBISWAP_ASSIGN_OR_RETURN(value,
                                 ParseScalar(*kind, field_el->InnerText()));
        if (value.is_int())
          digest.Mix(static_cast<uint64_t>(value.as_int()));
        else if (value.is_real())
          digest.Mix(ScalarText(value));  // re-printed, as it was written
        else if (value.is_str())
          digest.Mix(value.as_str());
      } else {
        auto local_attr = field_el->GetIntAttrOr("local", -1);
        if (!local_attr.ok()) return local_attr.status();
        if (*local_attr >= 0) {
          if (static_cast<size_t>(*local_attr) >= members.size())
            return DataLossError("local ref index out of range");
          value = Value::Ref(members[static_cast<size_t>(*local_attr)]);
          digest.Mix(static_cast<uint64_t>(*local_attr));
        } else {
          ExternalRef ref;
          OBISWAP_ASSIGN_OR_RETURN(int64_t out_attr,
                                   field_el->GetIntAttr("out"));
          OBISWAP_ASSIGN_OR_RETURN(int64_t oid_attr,
                                   field_el->GetIntAttr("oid"));
          ref.index = static_cast<size_t>(out_attr);
          ref.oid = ObjectId(static_cast<uint64_t>(oid_attr));
          OBISWAP_ASSIGN_OR_RETURN(ref.class_name,
                                   field_el->GetAttr("class"));
          OBISWAP_ASSIGN_OR_RETURN(int64_t cluster_attr,
                                   field_el->GetIntAttrOr("cluster", -1));
          if (cluster_attr >= 0)
            ref.cluster = ClusterId(static_cast<uint32_t>(cluster_attr));
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
        return DataLossError("missing field '" + obj->cls().fields()[i].name +
                             "' for class " + obj->cls().name());
    }
    rt.heap().RefreshAccounting(obj);
  }

  if (options.verify_checksum) {
    OBISWAP_ASSIGN_OR_RETURN(int64_t expected, root.GetIntAttr("checksum"));
    if (static_cast<uint32_t>(expected) != digest.Finish())
      return DataLossError(
          "cluster checksum mismatch: store-side corruption?");
  }
  return members;
}

}  // namespace obiswap::serialization
