// Parser rejection cases whose test IDs are the same on every build.
//
// gtest appends the printed parameter to a value-parameterized test's
// listed name. XmlParserErrorTest in xml_test.cc takes a struct of raw
// `const char*` with no printer, so its IDs carry the strings' addresses,
// which change from run to run under ASLR. The cases below print their
// label instead. They repeat six cases of that table; the table itself is
// left as it is, because removing entries moves the strings of the others
// and so renames their tests too.
#include <gtest/gtest.h>

#include <ostream>

#include "xml/parser.h"

namespace obiswap::xml {
namespace {

struct RejectCase {
  const char* label;
  const char* text;
};

void PrintTo(const RejectCase& c, std::ostream* os) { *os << c.label; }

class XmlParserRejectTest : public ::testing::TestWithParam<RejectCase> {};

TEST_P(XmlParserRejectTest, RejectsMalformedInput) {
  auto result = Parse(GetParam().text);
  EXPECT_FALSE(result.ok()) << GetParam().label;
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, XmlParserRejectTest,
    ::testing::Values(
        RejectCase{"empty", ""},
        RejectCase{"text_only", "just text"},
        RejectCase{"bad_entity", "<a>&nope;</a>"},
        RejectCase{"lt_in_attr", "<a x=\"<\"/>"},
        RejectCase{"unquoted_attr", "<a x=1/>"},
        RejectCase{"bad_char_ref", "<a>&#xZZ;</a>"}),
    [](const ::testing::TestParamInfo<RejectCase>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace obiswap::xml
