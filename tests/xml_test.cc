// Tests for the XML document model, writer and parser.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <ostream>
#include <string_view>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "xml/node.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace obiswap::xml {
namespace {

// ------------------------------------------------------------------ node --

TEST(XmlNodeTest, ElementBasics) {
  auto node = Node::Element("swap-cluster");
  EXPECT_FALSE(node->is_text());
  EXPECT_EQ(node->name(), "swap-cluster");
  EXPECT_TRUE(node->children().empty());
}

TEST(XmlNodeTest, SetAndFindAttr) {
  auto node = Node::Element("object");
  node->SetAttr("class", "Node");
  node->SetIntAttr("oid", 42);
  ASSERT_NE(node->FindAttr("class"), nullptr);
  EXPECT_EQ(*node->FindAttr("class"), "Node");
  EXPECT_EQ(*node->GetIntAttr("oid"), 42);
  EXPECT_EQ(node->FindAttr("missing"), nullptr);
}

TEST(XmlNodeTest, SetAttrReplacesExisting) {
  auto node = Node::Element("x");
  node->SetAttr("k", "1");
  node->SetAttr("k", "2");
  EXPECT_EQ(node->attrs().size(), 1u);
  EXPECT_EQ(*node->FindAttr("k"), "2");
}

TEST(XmlNodeTest, GetAttrErrors) {
  auto node = Node::Element("x");
  EXPECT_FALSE(node->GetAttr("absent").ok());
  node->SetAttr("n", "abc");
  EXPECT_FALSE(node->GetIntAttr("n").ok());
  EXPECT_EQ(*node->GetIntAttrOr("absent", 9), 9);
}

TEST(XmlNodeTest, ChildrenAndInnerText) {
  auto root = Node::Element("root");
  root->AddElement("a");
  root->AddText("hello ");
  root->AddElement("b")->SetAttr("x", "1");
  root->AddText("world");
  EXPECT_EQ(root->InnerText(), "hello world");
  EXPECT_NE(root->FindChild("a"), nullptr);
  EXPECT_NE(root->FindChild("b"), nullptr);
  EXPECT_EQ(root->FindChild("c"), nullptr);
  EXPECT_EQ(root->FindChildren("a").size(), 1u);
  EXPECT_EQ(root->SubtreeSize(), 5u);
}

// ---------------------------------------------------------------- writer --

TEST(XmlWriterTest, EmptyElement) {
  auto node = Node::Element("empty");
  EXPECT_EQ(Write(*node), "<empty/>");
}

TEST(XmlWriterTest, AttributesAndText) {
  auto node = Node::Element("f");
  node->SetAttr("n", "next");
  node->AddText("12");
  EXPECT_EQ(Write(*node), "<f n=\"next\">12</f>");
}

TEST(XmlWriterTest, EscapesTextAndAttrs) {
  auto node = Node::Element("e");
  node->SetAttr("a", "x<y&\"z'");
  node->AddText("1<2 & 3>2");
  std::string out = Write(*node);
  EXPECT_EQ(out,
            "<e a=\"x&lt;y&amp;&quot;z&apos;\">1&lt;2 &amp; 3&gt;2</e>");
}

TEST(XmlWriterTest, Declaration) {
  auto node = Node::Element("r");
  WriteOptions options;
  options.declaration = true;
  std::string out = Write(*node, options);
  EXPECT_TRUE(out.find("<?xml") == 0);
}

TEST(XmlWriterTest, PrettyNests) {
  auto root = Node::Element("a");
  root->AddElement("b")->AddElement("c");
  WriteOptions options;
  options.pretty = true;
  std::string out = Write(*root, options);
  EXPECT_NE(out.find("  <b>"), std::string::npos);
  EXPECT_NE(out.find("    <c/>"), std::string::npos);
}

// ---------------------------------------------------------------- parser --

TEST(XmlParserTest, MinimalDocument) {
  auto result = Parse("<root/>");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)->name(), "root");
}

TEST(XmlParserTest, AttributesBothQuoteStyles) {
  auto result = Parse("<o class=\"Node\" oid='7'/>");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*(*result)->FindAttr("class"), "Node");
  EXPECT_EQ(*(*result)->GetIntAttr("oid"), 7);
}

TEST(XmlParserTest, NestedElementsAndText) {
  auto result = Parse("<a><b>hi</b><c x=\"1\"/>tail</a>");
  ASSERT_TRUE(result.ok());
  const Node& root = **result;
  ASSERT_NE(root.FindChild("b"), nullptr);
  EXPECT_EQ(root.FindChild("b")->InnerText(), "hi");
  EXPECT_EQ(root.InnerText(), "tail");
}

TEST(XmlParserTest, EntityDecoding) {
  auto result = Parse("<t a=\"&lt;&amp;&gt;\">&quot;&apos;&#65;&#x42;</t>");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*(*result)->FindAttr("a"), "<&>");
  EXPECT_EQ((*result)->InnerText(), "\"'AB");
}

TEST(XmlParserTest, NumericEntityUtf8) {
  auto result = Parse("<t>&#233;&#x20AC;</t>");  // é €
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->InnerText(), "\xC3\xA9\xE2\x82\xAC");
}

TEST(XmlParserTest, CommentsSkipped) {
  auto result = Parse("<!-- head --><a><!-- in -->x<!-- out --></a>");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->InnerText(), "x");
}

TEST(XmlParserTest, CdataPreserved) {
  auto result = Parse("<a><![CDATA[1<2&3]]></a>");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->InnerText(), "1<2&3");
}

TEST(XmlParserTest, DeclarationAndDoctypeSkipped) {
  auto result = Parse(
      "<?xml version=\"1.0\"?><!DOCTYPE policies><policies/>");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->name(), "policies");
}

TEST(XmlParserTest, WhitespaceInTags) {
  auto result = Parse("<a  x = \"1\"   y='2' ></a>");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*(*result)->FindAttr("x"), "1");
  EXPECT_EQ(*(*result)->FindAttr("y"), "2");
}

// Every rejection is kDataLoss with an exact message. The line number in
// each message is part of the contract: the parser counts lines only when
// it builds an error, and these pin that count.
struct BadInput {
  const char* label;
  const char* text;
  const char* message;
};

void PrintTo(const BadInput& input, std::ostream* os) { *os << input.label; }

class XmlParserErrorTest : public ::testing::TestWithParam<BadInput> {};

TEST_P(XmlParserErrorTest, RejectsMalformedInput) {
  auto result = Parse(GetParam().text);
  ASSERT_FALSE(result.ok()) << GetParam().label;
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(result.status().message(), GetParam().message);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, XmlParserErrorTest,
    ::testing::Values(
        BadInput{"empty", "",
                 "xml parse error at line 1: document has no root element"},
        BadInput{"text_only", "just text",
                 "xml parse error at line 1: expected '<'"},
        BadInput{"unterminated_tag", "<a",
                 "xml parse error at line 1: unterminated start tag <a>"},
        BadInput{"unterminated_element", "<a><b></b>",
                 "xml parse error at line 1: unterminated element <a>"},
        BadInput{"mismatched_close", "<a></b>",
                 "xml parse error at line 1: mismatched close tag </b> for "
                 "<a>"},
        BadInput{"trailing_garbage", "<a/><b/>",
                 "xml parse error at line 1: trailing content after root "
                 "element"},
        BadInput{"bad_entity", "<a>&nope;</a>",
                 "xml parse error at line 1: unknown entity '&nope;'"},
        BadInput{"unterminated_entity", "<a>&amp</a>",
                 "xml parse error at line 1: unterminated entity"},
        BadInput{"lt_in_attr", "<a x=\"<\"/>",
                 "xml parse error at line 1: '<' in attribute value"},
        BadInput{"unquoted_attr", "<a x=1/>",
                 "xml parse error at line 1: expected quoted attribute "
                 "value"},
        BadInput{"duplicate_attr", "<a x=\"1\" x=\"2\"/>",
                 "xml parse error at line 1: duplicate attribute 'x'"},
        BadInput{"unterminated_comment", "<a><!-- x</a>",
                 "xml parse error at line 1: unterminated comment"},
        BadInput{"unterminated_cdata", "<a><![CDATA[x</a>",
                 "xml parse error at line 1: unterminated CDATA"},
        BadInput{"bad_char_ref", "<a>&#xZZ;</a>",
                 "xml parse error at line 1: bad character reference"},
        BadInput{"char_ref_out_of_range", "<a>&#x110000;</a>",
                 "xml parse error at line 1: character reference out of "
                 "range"}),
    [](const ::testing::TestParamInfo<BadInput>& info) {
      return info.param.label;
    });

TEST(XmlParserTest, ErrorsReportLineNumbers) {
  auto result = Parse("<a>\n<b>\n</c>\n</a>");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(),
            "xml parse error at line 3: mismatched close tag </c> for <b>");
}

// ------------------------------------------------------------ round trip --

// Property: Write(Parse(Write(tree))) == Write(tree) for random trees.
std::unique_ptr<Node> RandomTree(Rng& rng, int depth) {
  auto node = Node::Element("n" + std::to_string(rng.NextBelow(5)));
  int attrs = static_cast<int>(rng.NextBelow(3));
  for (int i = 0; i < attrs; ++i) {
    node->SetAttr("a" + std::to_string(i),
                  "v<&\"'" + std::to_string(rng.Next() % 1000));
  }
  if (depth < 3) {
    int children = static_cast<int>(rng.NextBelow(4));
    for (int i = 0; i < children; ++i) {
      if (rng.NextBool(0.3)) {
        node->AddText("text & <stuff> " + std::to_string(rng.NextBelow(100)));
      } else {
        node->AddChild(RandomTree(rng, depth + 1));
      }
    }
  }
  return node;
}

class XmlRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XmlRoundTripTest, WriteParseWriteIsStable) {
  Rng rng(GetParam());
  auto tree = RandomTree(rng, 0);
  std::string first = Write(*tree);
  auto parsed = Parse(first);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << first;
  EXPECT_EQ(Write(**parsed), first);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripTest,
                         ::testing::Range<uint64_t>(1, 21));

// Property: mutated documents never crash the parser — they either parse
// (the mutation hit text content) or fail cleanly with kDataLoss.
class XmlFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XmlFuzzTest, MutatedDocumentsFailCleanly) {
  Rng rng(GetParam() * 7919);
  auto tree = RandomTree(rng, 0);
  std::string valid = Write(*tree);
  for (int round = 0; round < 200; ++round) {
    std::string mutated = valid;
    int edits = 1 + static_cast<int>(rng.NextBelow(4));
    for (int e = 0; e < edits && !mutated.empty(); ++e) {
      size_t pos = rng.NextBelow(mutated.size());
      switch (rng.NextBelow(3)) {
        case 0:  // flip to a random byte (including NUL and specials)
          mutated[pos] = static_cast<char>(rng.NextBelow(256));
          break;
        case 1:  // delete a byte
          mutated.erase(pos, 1);
          break;
        case 2:  // duplicate a byte
          mutated.insert(pos, 1, mutated[pos]);
          break;
      }
    }
    auto result = Parse(mutated);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
    } else {
      // A surviving parse must itself round-trip.
      std::string rewritten = Write(**result);
      auto reparsed = Parse(rewritten);
      ASSERT_TRUE(reparsed.ok()) << rewritten;
    }
  }
}

TEST_P(XmlFuzzTest, TruncationsFailCleanly) {
  Rng rng(GetParam() * 104729);
  auto tree = RandomTree(rng, 0);
  std::string valid = Write(*tree);
  for (size_t cut = 0; cut < valid.size(); cut += 1 + rng.NextBelow(3)) {
    auto result = Parse(valid.substr(0, cut));
    if (result.ok()) {
      // Only possible when the prefix happens to be a complete document.
      EXPECT_EQ(Write(**result), valid.substr(0, cut));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzzTest,
                         ::testing::Range<uint64_t>(1, 9));

// ------------------------------------------------------- byte-level fuzz --
//
// Strings over all 256 byte values, as text and as attribute values, in
// random trees and in hand-built documents that add CDATA, comments,
// processing instructions, character references, nesting and whitespace.

/// A non-empty random byte string. Runs of letters, of any byte value and
/// of markup characters alternate, so both the bulk-copy and the per-byte
/// escape and decode paths run.
std::string RandomBytes(Rng& rng, size_t max_len) {
  static constexpr std::string_view kMarkup = "<>&\"';# \t\r\n]-?";
  const size_t len = 1 + rng.NextBelow(max_len);
  std::string out;
  while (out.size() < len) {
    const uint64_t kind = rng.NextBelow(3);
    for (uint64_t run = 1 + rng.NextBelow(8); run > 0 && out.size() < len;
         --run) {
      if (kind == 0) {
        out += static_cast<char>('a' + rng.NextBelow(26));
      } else if (kind == 1) {
        out += static_cast<char>(rng.NextBelow(256));
      } else {
        out += kMarkup[rng.NextBelow(kMarkup.size())];
      }
    }
  }
  return out;
}

constexpr const char* kNames[] = {"a", "n0", "swap-cluster", "x.y", "_p",
                                  "ns:q"};

const char* RandomName(Rng& rng) {
  return kNames[rng.NextBelow(std::size(kNames))];
}

std::unique_ptr<Node> RandomByteTree(Rng& rng, int depth) {
  auto node = Node::Element(RandomName(rng));
  for (uint64_t i = 0, n = rng.NextBelow(4); i < n; ++i)
    node->SetAttr(std::string{'a', static_cast<char>('0' + i)},
                  RandomBytes(rng, 24));
  if (depth < 4) {
    for (uint64_t i = 0, n = rng.NextBelow(5); i < n; ++i) {
      if (rng.NextBool(0.4)) {
        node->AddText(RandomBytes(rng, 48));
      } else {
        node->AddChild(RandomByteTree(rng, depth + 1));
      }
    }
  }
  return node;
}

void AppendSpace(Rng& rng, std::string* out) {
  static constexpr char kSpace[] = {' ', '\t', '\n', '\r'};
  for (uint64_t n = rng.NextBelow(3); n > 0; --n)
    *out += kSpace[rng.NextBelow(4)];
}

/// Random bytes without '>', so they cannot end a comment, CDATA section
/// or processing instruction early.
std::string Opaque(Rng& rng) {
  std::string out = RandomBytes(rng, 24);
  for (char& c : out) {
    if (c == '>') c = '.';
  }
  return out;
}

void AppendCharRef(Rng& rng, std::string* out) {
  static constexpr const char* kNamed[] = {"&lt;", "&gt;", "&amp;", "&quot;",
                                           "&apos;"};
  const uint64_t code = rng.NextBool(0.5) ? rng.NextBelow(0x100)
                                          : rng.NextBelow(0x110000);
  switch (rng.NextBelow(3)) {
    case 0:
      *out += kNamed[rng.NextBelow(std::size(kNamed))];
      break;
    case 1:
      *out += "&#" + std::to_string(code) + ";";
      break;
    default: {
      const char* format = rng.NextBool(0.5) ? "&#x%llX;" : "&#x%llx;";
      char hex[16];
      std::snprintf(hex, sizeof hex, format,
                    static_cast<unsigned long long>(code));
      *out += hex;
    }
  }
}

void AppendRandomElement(Rng& rng, int depth, std::string* out) {
  const std::string name = RandomName(rng);
  *out += '<';
  *out += name;
  for (uint64_t i = 0, n = rng.NextBelow(4); i < n; ++i) {
    *out += ' ';
    AppendSpace(rng, out);
    *out += 'a';
    *out += static_cast<char>('0' + i);
    AppendSpace(rng, out);
    *out += '=';
    AppendSpace(rng, out);
    const char quote = rng.NextBool(0.5) ? '"' : '\'';
    *out += quote;
    *out += EscapeAttr(RandomBytes(rng, 24));
    if (rng.NextBool(0.3)) AppendCharRef(rng, out);
    *out += quote;
  }
  AppendSpace(rng, out);
  if (depth >= 4 || rng.NextBool(0.2)) {
    *out += "/>";
    return;
  }
  *out += '>';
  for (uint64_t i = 0, n = rng.NextBelow(7); i < n; ++i) {
    switch (rng.NextBelow(6)) {
      case 0:
        *out += EscapeText(RandomBytes(rng, 32));
        break;
      case 1:
        *out += "<![CDATA[" + Opaque(rng) + "]]>";
        break;
      case 2:
        *out += "<!--" + Opaque(rng) + "-->";
        break;
      case 3:
        *out += "<?pi " + Opaque(rng) + "?>";
        break;
      case 4:
        AppendCharRef(rng, out);
        break;
      default:
        AppendRandomElement(rng, depth + 1, out);
    }
  }
  *out += "</" + name;
  AppendSpace(rng, out);
  *out += '>';
}

/// A well-formed document with an optional prolog and trailing misc.
std::string RandomDocument(Rng& rng) {
  std::string out;
  if (rng.NextBool(0.5)) out += "<?xml version=\"1.0\"?>";
  AppendSpace(rng, &out);
  if (rng.NextBool(0.3)) out += "<!--" + Opaque(rng) + "-->";
  if (rng.NextBool(0.3)) out += "<!DOCTYPE swap-cluster>";
  AppendSpace(rng, &out);
  AppendRandomElement(rng, 0, &out);
  AppendSpace(rng, &out);
  if (rng.NextBool(0.3)) out += "<!--" + Opaque(rng) + "-->";
  if (rng.NextBool(0.3)) out += "<?pi " + Opaque(rng) + "?>";
  AppendSpace(rng, &out);
  return out;
}

/// Truncates or bit-flips a document.
std::string Damage(Rng& rng, const std::string& valid) {
  std::string out = valid;
  if (rng.NextBool(0.5)) {
    out.resize(rng.NextBelow(out.size() + 1));
    return out;
  }
  for (uint64_t n = 1 + rng.NextBelow(3); n > 0 && !out.empty(); --n)
    out[rng.NextBelow(out.size())] ^= static_cast<char>(1 << rng.NextBelow(8));
  return out;
}

/// What the parser and writer make of one seed's corpus: the written
/// random tree, the rewritten hand-built document, and for each damaged
/// copy either its rewrite or its exact error message. Each property test
/// below checks one part; the golden test hashes the lot.
struct CorpusRun {
  std::string tree_xml;
  std::string document;
  std::string document_xml;
  std::vector<std::string> damaged_outcomes;
};

constexpr int kDamagedPerDocument = 100;

CorpusRun RunCorpus(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull);
  CorpusRun run;
  run.tree_xml = Write(*RandomByteTree(rng, 0));
  run.document = RandomDocument(rng);
  auto parsed = Parse(run.document);
  if (parsed.ok()) run.document_xml = Write(**parsed);
  for (const std::string* valid : {&run.tree_xml, &run.document}) {
    for (int i = 0; i < kDamagedPerDocument; ++i) {
      auto result = Parse(Damage(rng, *valid));
      run.damaged_outcomes.push_back(result.ok()
                                         ? Write(**result)
                                         : result.status().ToString());
    }
  }
  return run;
}

class XmlByteFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XmlByteFuzzTest, RandomTreesRewriteIdentically) {
  const CorpusRun run = RunCorpus(GetParam());
  auto parsed = Parse(run.tree_xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(Write(**parsed), run.tree_xml);
}

TEST_P(XmlByteFuzzTest, HandBuiltDocumentsRewriteIdentically) {
  const CorpusRun run = RunCorpus(GetParam());
  auto parsed = Parse(run.document);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto reparsed = Parse(run.document_xml);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(Write(**reparsed), run.document_xml);
}

TEST_P(XmlByteFuzzTest, DamagedDocumentsParseOrFailWithDataLoss) {
  const CorpusRun run = RunCorpus(GetParam());
  for (const std::string& outcome : run.damaged_outcomes) {
    if (outcome.rfind("DATA_LOSS: xml parse error at line ", 0) == 0)
      continue;
    auto reparsed = Parse(outcome);
    ASSERT_TRUE(reparsed.ok()) << outcome;
    EXPECT_EQ(Write(**reparsed), outcome);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlByteFuzzTest,
                         ::testing::Range<uint64_t>(1, 9));

// The writer's bytes and the parser's accept/reject decisions and error
// messages over the whole corpus. The reference hash was recorded before
// the parser and writer moved to run-based scanning; a change to any byte
// written or any message returned changes it.
TEST(XmlGoldenTest, CorpusOutputMatchesReference) {
  std::string all;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const CorpusRun run = RunCorpus(seed);
    for (const std::string* part : {&run.tree_xml, &run.document_xml}) {
      all += *part;
      all += '\0';
    }
    for (const std::string& outcome : run.damaged_outcomes) {
      all += outcome;
      all += '\0';
    }
  }
  EXPECT_EQ(Fnv1a64(all), 0x9242646b98d9b653ull)
      << std::hex << Fnv1a64(all);
}

}  // namespace
}  // namespace obiswap::xml
