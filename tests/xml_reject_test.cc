// Parser rejection cases, each with its exact error message.
//
// gtest appends the printed parameter to a value-parameterized test's
// listed name, so the parameter prints its label: a struct of raw
// `const char*` with no printer would list the strings' addresses, which
// change from run to run under ASLR. These six cases repeat entries of
// XmlParserErrorTest in xml_test.cc, which prints its labels the same way.
#include <gtest/gtest.h>

#include <ostream>

#include "xml/parser.h"

namespace obiswap::xml {
namespace {

struct RejectCase {
  const char* label;
  const char* text;
  const char* message;
};

void PrintTo(const RejectCase& c, std::ostream* os) { *os << c.label; }

class XmlParserRejectTest : public ::testing::TestWithParam<RejectCase> {};

TEST_P(XmlParserRejectTest, RejectsMalformedInput) {
  auto result = Parse(GetParam().text);
  ASSERT_FALSE(result.ok()) << GetParam().label;
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(result.status().message(), GetParam().message);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, XmlParserRejectTest,
    ::testing::Values(
        RejectCase{"empty", "",
                   "xml parse error at line 1: document has no root element"},
        RejectCase{"text_only", "just text",
                   "xml parse error at line 1: expected '<'"},
        RejectCase{"bad_entity", "<a>&nope;</a>",
                   "xml parse error at line 1: unknown entity '&nope;'"},
        RejectCase{"lt_in_attr", "<a x=\"<\"/>",
                   "xml parse error at line 1: '<' in attribute value"},
        RejectCase{"unquoted_attr", "<a x=1/>",
                   "xml parse error at line 1: expected quoted attribute "
                   "value"},
        RejectCase{"bad_char_ref", "<a>&#xZZ;</a>",
                   "xml parse error at line 1: bad character reference"}),
    [](const ::testing::TestParamInfo<RejectCase>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace obiswap::xml
