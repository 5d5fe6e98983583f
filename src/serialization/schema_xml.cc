#include "serialization/schema_xml.h"

#include "xml/node.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace obiswap::serialization {

using runtime::ClassBuilder;
using runtime::ClassInfo;
using runtime::ValueKind;

Result<size_t> LoadClassesXml(runtime::Runtime& rt,
                              const std::string& xml_text,
                              const NativeMethods* methods) {
  OBISWAP_ASSIGN_OR_RETURN(auto doc, xml::Parse(xml_text));
  if (doc->name() != "classes")
    return InvalidArgumentError("expected <classes> root");
  size_t registered = 0;
  for (const xml::Node* class_el : doc->FindChildren("class")) {
    OBISWAP_ASSIGN_OR_RETURN(std::string name, class_el->GetAttr("name"));
    OBISWAP_ASSIGN_OR_RETURN(int64_t payload,
                             class_el->GetIntAttrOr("payload", 0));
    if (payload < 0) return InvalidArgumentError("negative payload");
    ClassBuilder builder(name);
    builder.PayloadBytes(static_cast<size_t>(payload));
    for (const xml::Node* field_el : class_el->FindChildren("field")) {
      OBISWAP_ASSIGN_OR_RETURN(std::string field_name,
                               field_el->GetAttr("name"));
      // An absent, empty or "any" type declares an untyped (nil) field.
      const std::string* type = field_el->FindAttr("type");
      std::optional<ValueKind> kind = ValueKind::kNil;
      if (type != nullptr && !type->empty() && *type != "any")
        kind = runtime::ParseValueKind(*type);
      if (!kind.has_value())
        return InvalidArgumentError("unknown field type '" + *type + "'");
      builder.Field(std::move(field_name), *kind);
    }
    for (const xml::Node* method_el : class_el->FindChildren("method")) {
      OBISWAP_ASSIGN_OR_RETURN(std::string method_name,
                               method_el->GetAttr("name"));
      std::string key = name + "." + method_name;
      if (methods == nullptr || methods->count(key) == 0)
        return NotFoundError("no native implementation for method '" + key +
                             "'");
      builder.Method(std::move(method_name), methods->at(key));
    }
    OBISWAP_ASSIGN_OR_RETURN(const ClassInfo* info,
                             rt.types().Register(builder));
    (void)info;
    ++registered;
  }
  return registered;
}

std::string DumpClassesXml(const runtime::TypeRegistry& types) {
  auto root = xml::Node::Element("classes");
  for (uint32_t id = 0; id < types.size(); ++id) {
    const ClassInfo* info = types.Find(ClassId(id));
    if (info == nullptr || info->kind() != runtime::ObjectKind::kRegular)
      continue;
    xml::Node* class_el = root->AddElement("class");
    class_el->SetAttr("name", info->name());
    if (info->payload_bytes() > 0)
      class_el->SetIntAttr("payload",
                           static_cast<int64_t>(info->payload_bytes()));
    for (const runtime::FieldInfo& field : info->fields()) {
      xml::Node* field_el = class_el->AddElement("field");
      field_el->SetAttr("name", field.name);
      field_el->SetAttr("type", field.kind == ValueKind::kNil
                                    ? "any"
                                    : ValueKindName(field.kind));
    }
    for (const runtime::MethodInfo& method : info->methods()) {
      class_el->AddElement("method")->SetAttr("name", method.name);
    }
  }
  xml::WriteOptions options;
  options.pretty = true;
  return xml::Write(*root, options);
}

}  // namespace obiswap::serialization
