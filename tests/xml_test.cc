// Tests for the XML writer and parser.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xml_mutations.h"

namespace obiswap::xml {
namespace {

using ::obiswap::testing::WriteTape;

// The tape keeps views into its input, so Parse refuses a temporary string
// (its views would dangle) and still takes a literal or a named string.
template <typename Input>
concept Parses = requires(Tape& tape, Input&& input) {
  tape.Parse(std::forward<Input>(input));
};
static_assert(!Parses<std::string>);
static_assert(Parses<const char (&)[5]>);
static_assert(Parses<std::string&>);

// ---------------------------------------------------------------- writer --

TEST(XmlWriterTest, EmptyElement) {
  // An empty value still writes its quotes; empty text writes nothing.
  std::string out = "<empty";
  AppendAttr(&out, "a", "");
  AppendEscapedText(&out, "");
  out += "/>";
  EXPECT_EQ(out, "<empty a=\"\"/>");
}

TEST(XmlWriterTest, AttributesAndText) {
  std::string out = "<f";
  AppendAttr(&out, "n", "next");
  AppendIntAttr(&out, "i", -12);
  out += '>';
  AppendEscapedText(&out, "12");
  out += "</f>";
  EXPECT_EQ(out, "<f n=\"next\" i=\"-12\">12</f>");
}

TEST(XmlWriterTest, EscapesTextAndAttrs) {
  std::string out = "<e";
  AppendAttr(&out, "a", "x<y&\"z'");
  out += '>';
  AppendEscapedText(&out, "1<2 & 3>2");
  out += "</e>";
  EXPECT_EQ(out,
            "<e a=\"x&lt;y&amp;&quot;z&apos;\">1&lt;2 &amp; 3&gt;2</e>");
}

// ---------------------------------------------------------------- parser --

constexpr uint32_t kRoot = 0;

TEST(XmlParserTest, MinimalDocument) {
  Tape tape;
  Status status = tape.Parse("<root/>");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(tape.IsElement(kRoot, "root"));
}

TEST(XmlParserTest, AttributesBothQuoteStyles) {
  Tape tape;
  ASSERT_TRUE(tape.Parse("<o class=\"Node\" oid='7'/>").ok());
  EXPECT_EQ(*tape.FindAttr(kRoot, "class"), "Node");
  EXPECT_EQ(*tape.GetIntAttr(kRoot, "oid"), 7);
}

TEST(XmlParserTest, AttributeLookupErrors) {
  Tape tape;
  ASSERT_TRUE(tape.Parse("<x n=\"abc\" i=\"-9\"/>").ok());
  EXPECT_EQ(tape.FindAttr(kRoot, "absent"), nullptr);
  EXPECT_EQ(tape.GetAttr(kRoot, "absent").status().ToString(),
            "NOT_FOUND: missing attribute 'absent' on <x>");
  EXPECT_EQ(tape.GetIntAttr(kRoot, "absent").status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(tape.GetIntAttr(kRoot, "n").ok());
  EXPECT_FALSE(tape.GetIntAttrOr(kRoot, "n", 9).ok());
  EXPECT_EQ(*tape.GetIntAttr(kRoot, "i"), -9);
  EXPECT_EQ(*tape.GetIntAttrOr(kRoot, "absent", 9), 9);
}

TEST(XmlParserTest, NestedElementsAndText) {
  Tape tape;
  std::string scratch;
  ASSERT_TRUE(tape.Parse("<a><b>hi</b><c x=\"1\"/>tail</a>").ok());
  const uint32_t b = tape.FindChild(kRoot, "b");
  ASSERT_NE(b, 0u);
  EXPECT_EQ(tape.InnerText(b, &scratch), "hi");
  EXPECT_EQ(tape.InnerText(kRoot, &scratch), "tail");
}

TEST(XmlParserTest, FindSiblingWalksTheChildrenOfOneName) {
  Tape tape;
  ASSERT_TRUE(
      tape.Parse("<r><p n=\"1\"><p n=\"x\"/></p>t<q/><p n=\"2\"/><p/></r>")
          .ok());
  std::vector<std::string> names;
  for (uint32_t p = tape.FindChild(kRoot, "p"); p != 0;
       p = tape.FindSibling(p, "p")) {
    const std::string_view* n = tape.FindAttr(p, "n");
    names.push_back(n != nullptr ? std::string(*n) : "-");
  }
  EXPECT_EQ(names, (std::vector<std::string>{"1", "2", "-"}));
  EXPECT_EQ(tape.FindChild(kRoot, "zz"), 0u);
  EXPECT_EQ(tape.FindSibling(tape.FindChild(kRoot, "q"), "q"), 0u);
}

TEST(XmlParserTest, EntityDecoding) {
  Tape tape;
  std::string scratch;
  ASSERT_TRUE(
      tape.Parse("<t a=\"&lt;&amp;&gt;\">&quot;&apos;&#65;&#x42;</t>").ok());
  EXPECT_EQ(*tape.FindAttr(kRoot, "a"), "<&>");
  EXPECT_EQ(tape.InnerText(kRoot, &scratch), "\"'AB");
}

TEST(XmlParserTest, NumericEntityUtf8) {
  Tape tape;
  std::string scratch;
  ASSERT_TRUE(tape.Parse("<t>&#233;&#x20AC;</t>").ok());  // é €
  EXPECT_EQ(tape.InnerText(kRoot, &scratch), "\xC3\xA9\xE2\x82\xAC");
}

TEST(XmlParserTest, CommentsSkipped) {
  Tape tape;
  std::string scratch;
  ASSERT_TRUE(tape.Parse("<!-- head --><a><!-- in -->x<!-- out --></a>").ok());
  EXPECT_EQ(tape.InnerText(kRoot, &scratch), "x");
}

TEST(XmlParserTest, CdataPreserved) {
  Tape tape;
  std::string scratch;
  ASSERT_TRUE(tape.Parse("<a><![CDATA[1<2&3]]></a>").ok());
  EXPECT_EQ(tape.InnerText(kRoot, &scratch), "1<2&3");
}

TEST(XmlParserTest, DeclarationAndDoctypeSkipped) {
  Tape tape;
  ASSERT_TRUE(
      tape.Parse("<?xml version=\"1.0\"?><!DOCTYPE policies><policies/>").ok());
  EXPECT_TRUE(tape.IsElement(kRoot, "policies"));
}

TEST(XmlParserTest, WhitespaceInTags) {
  Tape tape;
  ASSERT_TRUE(tape.Parse("<a  x = \"1\"   y='2' ></a>").ok());
  EXPECT_EQ(*tape.FindAttr(kRoot, "x"), "1");
  EXPECT_EQ(*tape.FindAttr(kRoot, "y"), "2");
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
  Tape tape;
  Status status = tape.Parse(GetParam().text);
  ASSERT_FALSE(status.ok()) << GetParam().label;
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(status.message(), GetParam().message);
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
  Tape tape;
  Status status = tape.Parse("<a>\n<b>\n</c>\n</a>");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(),
            "xml parse error at line 3: mismatched close tag </c> for <b>");
}

// ------------------------------------------------------------ round trip --

// A random document as the append writer writes one: elements with no
// children as `<name .../>`, text and attribute values escaped.
void AppendRandomTree(Rng& rng, int depth, std::string* out) {
  const std::string name = "n" + std::to_string(rng.NextBelow(5));
  *out += '<' + name;
  for (uint64_t i = 0, n = rng.NextBelow(3); i < n; ++i) {
    AppendAttr(out, "a" + std::to_string(i),
               "v<&\"'" + std::to_string(rng.Next() % 1000));
  }
  const uint64_t children = depth < 3 ? rng.NextBelow(4) : 0;
  if (children == 0) {
    *out += "/>";
    return;
  }
  *out += '>';
  for (uint64_t i = 0; i < children; ++i) {
    if (rng.NextBool(0.3)) {
      AppendEscapedText(out,
                        "text & <stuff> " + std::to_string(rng.NextBelow(100)));
    } else {
      AppendRandomTree(rng, depth + 1, out);
    }
  }
  *out += "</" + name + '>';
}

std::string RandomTree(Rng& rng) {
  std::string out;
  AppendRandomTree(rng, 0, &out);
  return out;
}

// Property: WriteTape(Parse(doc)) == doc for random written documents.
class XmlRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XmlRoundTripTest, WriteParseWriteIsStable) {
  Rng rng(GetParam());
  const std::string first = RandomTree(rng);
  Tape tape;
  Status status = tape.Parse(first);
  ASSERT_TRUE(status.ok()) << status.ToString() << "\n" << first;
  EXPECT_EQ(WriteTape(tape), first);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripTest,
                         ::testing::Range<uint64_t>(1, 21));

// Property: mutated documents never crash the parser — they either parse
// (the mutation hit text content) or fail cleanly with kDataLoss.
class XmlFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XmlFuzzTest, MutatedDocumentsFailCleanly) {
  Rng rng(GetParam() * 7919);
  const std::string valid = RandomTree(rng);
  Tape tape;
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
    Status status = tape.Parse(mutated);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kDataLoss);
    } else {
      // A surviving parse must itself round-trip.
      const std::string rewritten = WriteTape(tape);
      ASSERT_TRUE(tape.Parse(rewritten).ok()) << rewritten;
    }
  }
}

TEST_P(XmlFuzzTest, TruncationsFailCleanly) {
  Rng rng(GetParam() * 104729);
  const std::string valid = RandomTree(rng);
  Tape tape;
  for (size_t cut = 0; cut < valid.size(); cut += 1 + rng.NextBelow(3)) {
    const std::string prefix = valid.substr(0, cut);
    if (tape.Parse(prefix).ok()) {
      // Only possible when the prefix happens to be a complete document.
      EXPECT_EQ(WriteTape(tape), prefix);
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

void AppendRandomByteTree(Rng& rng, int depth, std::string* out) {
  const std::string name = RandomName(rng);
  *out += '<' + name;
  for (uint64_t i = 0, n = rng.NextBelow(4); i < n; ++i)
    AppendAttr(out, std::string{'a', static_cast<char>('0' + i)},
               RandomBytes(rng, 24));
  const uint64_t children = depth < 4 ? rng.NextBelow(5) : 0;
  if (children == 0) {
    *out += "/>";
    return;
  }
  *out += '>';
  for (uint64_t i = 0; i < children; ++i) {
    if (rng.NextBool(0.4)) {
      AppendEscapedText(out, RandomBytes(rng, 48));
    } else {
      AppendRandomByteTree(rng, depth + 1, out);
    }
  }
  *out += "</" + name + '>';
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
  AppendRandomByteTree(rng, 0, &run.tree_xml);
  run.document = RandomDocument(rng);
  Tape tape;
  if (tape.Parse(run.document).ok()) run.document_xml = WriteTape(tape);
  for (const std::string* valid : {&run.tree_xml, &run.document}) {
    for (int i = 0; i < kDamagedPerDocument; ++i) {
      const std::string damaged = Damage(rng, *valid);
      Status status = tape.Parse(damaged);
      run.damaged_outcomes.push_back(status.ok() ? WriteTape(tape)
                                                 : status.ToString());
    }
  }
  return run;
}

class XmlByteFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XmlByteFuzzTest, RandomTreesRewriteIdentically) {
  const CorpusRun run = RunCorpus(GetParam());
  Tape tape;
  Status status = tape.Parse(run.tree_xml);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(WriteTape(tape), run.tree_xml);
}

TEST_P(XmlByteFuzzTest, HandBuiltDocumentsRewriteIdentically) {
  const CorpusRun run = RunCorpus(GetParam());
  Tape tape;
  Status status = tape.Parse(run.document);
  ASSERT_TRUE(status.ok()) << status.ToString();
  status = tape.Parse(run.document_xml);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(WriteTape(tape), run.document_xml);
}

TEST_P(XmlByteFuzzTest, DamagedDocumentsParseOrFailWithDataLoss) {
  const CorpusRun run = RunCorpus(GetParam());
  Tape tape;
  for (const std::string& outcome : run.damaged_outcomes) {
    if (outcome.rfind("DATA_LOSS: xml parse error at line ", 0) == 0)
      continue;
    ASSERT_TRUE(tape.Parse(outcome).ok()) << outcome;
    EXPECT_EQ(WriteTape(tape), outcome);
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
