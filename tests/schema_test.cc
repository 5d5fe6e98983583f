// Tests for XML class schemas (the paper's class-file shipping role).
#include <gtest/gtest.h>

#include "serialization/schema_xml.h"
#include "swap/manager.h"
#include "xml/parser.h"

namespace obiswap::serialization {
namespace {

using runtime::Object;
using runtime::Runtime;
using runtime::Value;
using runtime::ValueKind;

const char* kSchema = R"(
  <classes>
    <class name="Node" payload="64">
      <field name="next" type="ref"/>
      <field name="value" type="int"/>
      <field name="tag"/>
      <method name="get_value"/>
    </class>
    <class name="Blob">
      <field name="bytes" type="str"/>
      <field name="weight" type="real"/>
    </class>
  </classes>)";

NativeMethods Methods() {
  NativeMethods methods;
  methods["Node.get_value"] = [](Runtime& rt, Object* self,
                                 runtime::Args) {
    return Result<Value>(rt.GetFieldAt(self, 1));
  };
  return methods;
}

TEST(SchemaXmlTest, LoadsClassesWithFieldsAndMethods) {
  Runtime rt;
  NativeMethods methods = Methods();
  auto count = LoadClassesXml(rt, kSchema, &methods);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 2u);

  const runtime::ClassInfo* node = rt.types().Find("Node");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->payload_bytes(), 64u);
  EXPECT_EQ(node->fields().size(), 3u);
  EXPECT_EQ(node->fields()[0].kind, ValueKind::kRef);
  EXPECT_EQ(node->fields()[1].kind, ValueKind::kInt);
  EXPECT_EQ(node->fields()[2].kind, ValueKind::kNil);  // "any"

  runtime::LocalScope scope(rt.heap());
  Object* obj = rt.New(node);
  scope.Add(obj);
  ASSERT_TRUE(rt.SetField(obj, "value", Value::Int(7)).ok());
  EXPECT_EQ(rt.Invoke(obj, "get_value")->as_int(), 7);
}

TEST(SchemaXmlTest, MissingNativeMethodRejected) {
  Runtime rt;
  auto count = LoadClassesXml(rt, kSchema, nullptr);
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kNotFound);
}

TEST(SchemaXmlTest, DuplicateClassRejected) {
  Runtime rt;
  NativeMethods methods = Methods();
  ASSERT_TRUE(LoadClassesXml(rt, kSchema, &methods).ok());
  EXPECT_EQ(LoadClassesXml(rt, kSchema, &methods).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(SchemaXmlTest, MalformedSchemasRejected) {
  Runtime rt;
  EXPECT_FALSE(LoadClassesXml(rt, "<wrong/>").ok());
  EXPECT_FALSE(LoadClassesXml(rt, "<classes><class/></classes>").ok());
  EXPECT_FALSE(
      LoadClassesXml(rt,
                     "<classes><class name=\"X\"><field name=\"f\" "
                     "type=\"zap\"/></class></classes>")
          .ok());
  EXPECT_FALSE(
      LoadClassesXml(rt,
                     "<classes><class name=\"X\" "
                     "payload=\"-5\"/></classes>")
          .ok());
}

TEST(SchemaXmlTest, DumpLoadRoundTrip) {
  Runtime source;
  NativeMethods methods = Methods();
  ASSERT_TRUE(LoadClassesXml(source, kSchema, &methods).ok());
  std::string dumped = DumpClassesXml(source.types());

  Runtime target;
  auto count = LoadClassesXml(target, dumped, &methods);
  ASSERT_TRUE(count.ok()) << count.status().ToString() << "\n" << dumped;
  EXPECT_EQ(*count, 2u);
  const runtime::ClassInfo* node = target.types().Find("Node");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->payload_bytes(), 64u);
  EXPECT_EQ(node->FieldIndex("value"), 1u);
}

// The exact bytes of a dump, indentation included: a class with a
// payload, typed, untyped and method members, one with neither payload nor
// methods, an empty one, and a name that needs escaping.
TEST(SchemaXmlTest, DumpBytesArePinned) {
  Runtime rt;
  EXPECT_EQ(DumpClassesXml(rt.types()), "<classes/>\n");
  NativeMethods methods = Methods();
  ASSERT_TRUE(LoadClassesXml(rt, kSchema, &methods).ok());
  ASSERT_TRUE(rt.types().Register(runtime::ClassBuilder("Empty")).ok());
  ASSERT_TRUE(rt.types()
                  .Register(runtime::ClassBuilder("A&B<\"C\">")
                                .Field("x'y", ValueKind::kInt))
                  .ok());
  EXPECT_EQ(DumpClassesXml(rt.types()),
            "<classes>\n"
            "  <class name=\"Node\" payload=\"64\">\n"
            "    <field name=\"next\" type=\"ref\"/>\n"
            "    <field name=\"value\" type=\"int\"/>\n"
            "    <field name=\"tag\" type=\"any\"/>\n"
            "    <method name=\"get_value\"/>\n"
            "  </class>\n"
            "  <class name=\"Blob\">\n"
            "    <field name=\"bytes\" type=\"str\"/>\n"
            "    <field name=\"weight\" type=\"real\"/>\n"
            "  </class>\n"
            "  <class name=\"Empty\"/>\n"
            "  <class name=\"A&amp;B&lt;&quot;C&quot;&gt;\">\n"
            "    <field name=\"x&apos;y\" type=\"int\"/>\n"
            "  </class>\n"
            "</classes>\n");
}

TEST(SchemaXmlTest, DumpSkipsMiddlewareClasses) {
  Runtime rt;
  swap::SwappingManager manager(rt);  // registers proxy + replacement classes
  std::string dumped = DumpClassesXml(rt.types());
  EXPECT_EQ(dumped.find("SwapClusterProxy"), std::string::npos);
  EXPECT_EQ(dumped.find("Replacement"), std::string::npos);
}

}  // namespace
}  // namespace obiswap::serialization
