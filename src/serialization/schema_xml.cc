#include "serialization/schema_xml.h"

#include "xml/parser.h"
#include "xml/writer.h"

namespace obiswap::serialization {

using runtime::ClassBuilder;
using runtime::ClassInfo;
using runtime::ValueKind;

Result<size_t> LoadClassesXml(runtime::Runtime& rt,
                              const std::string& xml_text,
                              const NativeMethods* methods) {
  xml::Tape doc;
  OBISWAP_RETURN_IF_ERROR(doc.Parse(xml_text));
  constexpr uint32_t kRoot = 0;
  if (!doc.IsElement(kRoot, "classes"))
    return InvalidArgumentError("expected <classes> root");
  size_t registered = 0;
  for (uint32_t class_el = doc.FindChild(kRoot, "class"); class_el != 0;
       class_el = doc.FindSibling(class_el, "class")) {
    OBISWAP_ASSIGN_OR_RETURN(std::string_view name,
                             doc.GetAttr(class_el, "name"));
    OBISWAP_ASSIGN_OR_RETURN(int64_t payload,
                             doc.GetIntAttrOr(class_el, "payload", 0));
    if (payload < 0) return InvalidArgumentError("negative payload");
    ClassBuilder builder{std::string(name)};
    builder.PayloadBytes(static_cast<size_t>(payload));
    for (uint32_t field_el = doc.FindChild(class_el, "field"); field_el != 0;
         field_el = doc.FindSibling(field_el, "field")) {
      OBISWAP_ASSIGN_OR_RETURN(std::string_view field_name,
                               doc.GetAttr(field_el, "name"));
      // An absent, empty or "any" type declares an untyped (nil) field.
      const std::string_view* type = doc.FindAttr(field_el, "type");
      std::optional<ValueKind> kind = ValueKind::kNil;
      if (type != nullptr && !type->empty() && *type != "any")
        kind = runtime::ParseValueKind(*type);
      if (!kind.has_value())
        return InvalidArgumentError("unknown field type '" +
                                    std::string(*type) + "'");
      builder.Field(std::string(field_name), *kind);
    }
    for (uint32_t method_el = doc.FindChild(class_el, "method");
         method_el != 0; method_el = doc.FindSibling(method_el, "method")) {
      OBISWAP_ASSIGN_OR_RETURN(std::string_view method_name,
                               doc.GetAttr(method_el, "name"));
      std::string key = std::string(name) + "." + std::string(method_name);
      if (methods == nullptr || methods->count(key) == 0)
        return NotFoundError("no native implementation for method '" + key +
                             "'");
      builder.Method(std::string(method_name), methods->at(key));
    }
    OBISWAP_ASSIGN_OR_RETURN(const ClassInfo* info,
                             rt.types().Register(builder));
    (void)info;
    ++registered;
  }
  return registered;
}

// Indented two spaces per level, one element per line, as the schema
// example in schema_xml.h shows.
std::string DumpClassesXml(const runtime::TypeRegistry& types) {
  std::string out = "<classes";
  bool any = false;
  for (uint32_t id = 0; id < types.size(); ++id) {
    const ClassInfo* info = types.Find(ClassId(id));
    if (info == nullptr || info->kind() != runtime::ObjectKind::kRegular)
      continue;
    out += any ? "  <class" : ">\n  <class";
    any = true;
    xml::AppendAttr(&out, "name", info->name());
    if (info->payload_bytes() > 0)
      xml::AppendIntAttr(&out, "payload",
                         static_cast<int64_t>(info->payload_bytes()));
    if (info->fields().empty() && info->methods().empty()) {
      out += "/>\n";
      continue;
    }
    out += ">\n";
    for (const runtime::FieldInfo& field : info->fields()) {
      out += "    <field";
      xml::AppendAttr(&out, "name", field.name);
      xml::AppendAttr(&out, "type", field.kind == ValueKind::kNil
                                        ? "any"
                                        : ValueKindName(field.kind));
      out += "/>\n";
    }
    for (const runtime::MethodInfo& method : info->methods()) {
      out += "    <method";
      xml::AppendAttr(&out, "name", method.name);
      out += "/>\n";
    }
    out += "  </class>\n";
  }
  out += any ? "</classes>\n" : "/>\n";
  return out;
}

}  // namespace obiswap::serialization
