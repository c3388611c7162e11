// Unit + property tests: the XML command-language codec.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "util/rng.h"
#include "xml/element.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace mercury::xml {
namespace {

Element parse_ok(std::string_view text) {
  auto result = parse(text);
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().message());
  return result.ok() ? std::move(result).value() : Element{};
}

void expect_parse_error(std::string_view text) {
  auto result = parse(text);
  EXPECT_FALSE(result.ok()) << "expected parse failure for: " << text;
}

// --- Element model -------------------------------------------------------------

TEST(Element, AttributesTypedAccess) {
  Element e("cmd");
  e.set_attr("freq", 437.1);
  e.set_attr("count", static_cast<long long>(12));
  e.set_attr("name", "tune");
  EXPECT_TRUE(e.has_attr("freq"));
  EXPECT_DOUBLE_EQ(*e.attr_double("freq"), 437.1);
  EXPECT_EQ(*e.attr_int("count"), 12);
  EXPECT_EQ(*e.attr("name"), "tune");
  EXPECT_EQ(e.attr_or("missing", "x"), "x");
  EXPECT_FALSE(e.attr("missing").has_value());
  EXPECT_FALSE(e.attr_double("name").has_value());
  EXPECT_FALSE(e.attr_int("name").has_value());
}

TEST(Element, DeepCopyIsIndependent) {
  Element original("root");
  original.add_child(Element("child")).set_attr("k", "v");
  Element copy = original;
  copy.child("child")->set_attr("k", "changed");
  EXPECT_EQ(*original.child("child")->attr("k"), "v");
  EXPECT_EQ(*copy.child("child")->attr("k"), "changed");
}

TEST(Element, ChildQueries) {
  Element root("r");
  root.add_child(Element("a"));
  root.add_child(Element("b"));
  root.add_child(Element("a"));
  EXPECT_EQ(root.child_count(), 3u);
  EXPECT_NE(root.child("a"), nullptr);
  EXPECT_EQ(root.child("missing"), nullptr);
  EXPECT_EQ(root.children_named("a").size(), 2u);
}

TEST(Element, EqualityIsDeepAndOrderSensitive) {
  Element a("r");
  a.add_child(Element("x"));
  a.add_child(Element("y"));
  Element b("r");
  b.add_child(Element("y"));
  b.add_child(Element("x"));
  EXPECT_FALSE(a == b);
  Element c = a;
  EXPECT_TRUE(a == c);
}

// --- Parser ----------------------------------------------------------------------

TEST(Parser, MinimalElement) {
  const Element e = parse_ok("<msg/>");
  EXPECT_EQ(e.name(), "msg");
  EXPECT_TRUE(e.children().empty());
}

TEST(Parser, AttributesBothQuoteStyles) {
  const Element e = parse_ok(R"(<m a="1" b='two'/>)");
  EXPECT_EQ(*e.attr("a"), "1");
  EXPECT_EQ(*e.attr("b"), "two");
}

TEST(Parser, NestedChildrenAndText) {
  const Element e = parse_ok("<a><b>hello</b><c/></a>");
  ASSERT_NE(e.child("b"), nullptr);
  EXPECT_EQ(e.child("b")->text(), "hello");
  ASSERT_NE(e.child("c"), nullptr);
}

TEST(Parser, DeclarationAndComments) {
  const Element e = parse_ok(
      "<?xml version=\"1.0\"?><!-- top --><root><!-- inner --><x/></root>");
  EXPECT_EQ(e.name(), "root");
  EXPECT_EQ(e.child_count(), 1u);
}

TEST(Parser, PredefinedEntities) {
  const Element e = parse_ok("<t a=\"&lt;&amp;&gt;&quot;&apos;\">x &lt; y</t>");
  EXPECT_EQ(*e.attr("a"), "<&>\"'");
  EXPECT_EQ(e.text(), "x < y");
}

TEST(Parser, NumericCharacterReferences) {
  const Element e = parse_ok("<t>&#65;&#x42;</t>");
  EXPECT_EQ(e.text(), "AB");
}

TEST(Parser, NumericReferenceMultibyteUtf8) {
  const Element e = parse_ok("<t>&#x3B1;</t>");  // Greek alpha
  EXPECT_EQ(e.text(), "\xCE\xB1");
}

TEST(Parser, CdataPassesThroughMarkup) {
  const Element e = parse_ok("<t><![CDATA[a <raw> & b]]></t>");
  EXPECT_EQ(e.text(), "a <raw> & b");
}

TEST(Parser, TextIsTrimmed) {
  const Element e = parse_ok("<t>  padded  </t>");
  EXPECT_EQ(e.text(), "padded");
}

TEST(Parser, RejectsMalformedDocuments) {
  expect_parse_error("");
  expect_parse_error("just text");
  expect_parse_error("<unclosed>");
  expect_parse_error("<a></b>");
  expect_parse_error("<a attr></a>");
  expect_parse_error("<a x=\"1\" x=\"2\"/>");  // duplicate attribute
  expect_parse_error("<a>&bogus;</a>");
  expect_parse_error("<a>&#xZZ;</a>");
  expect_parse_error("<a><b></a></b>");
  expect_parse_error("<a/><b/>");  // two roots
  expect_parse_error("<a x=\"<\"/>");
  expect_parse_error("<1abc/>");
  expect_parse_error("<a x=\"unterminated/>");
}

TEST(Parser, ErrorsCarryPosition) {
  auto result = parse("<a>\n  <b></c>\n</a>");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message().find("2:"), std::string::npos)
      << result.error().message();
}

// --- Writer ---------------------------------------------------------------------

TEST(Writer, EscapesSpecials) {
  Element e("t");
  e.set_attr("a", "x<y\"&");
  e.set_text("a<b&c");
  const std::string out = write(e);
  EXPECT_EQ(out, "<t a=\"x&lt;y&quot;&amp;\">a&lt;b&amp;c</t>");
}

TEST(Writer, SelfClosesEmpty) {
  EXPECT_EQ(write(Element("empty")), "<empty/>");
}

TEST(Writer, DeterministicAttributeOrder) {
  Element e("t");
  e.set_attr("zebra", "1");
  e.set_attr("alpha", "2");
  EXPECT_EQ(write(e), "<t alpha=\"2\" zebra=\"1\"/>");
}

TEST(Writer, PrettyPrintIndents) {
  Element root("a");
  root.add_child(Element("b"));
  WriteOptions options;
  options.pretty = true;
  EXPECT_EQ(write(root, options), "<a>\n  <b/>\n</a>");
}

TEST(Writer, DeclarationOption) {
  WriteOptions options;
  options.declaration = true;
  const std::string out = write(Element("d"), options);
  EXPECT_EQ(out, "<?xml version=\"1.0\" encoding=\"UTF-8\"?><d/>");
}

// --- Round-trip property tests ------------------------------------------------

/// Generates a random document and checks parse(write(doc)) == doc.
class XmlRoundTrip : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Element random_element(util::Rng& rng, int depth) {
    static const char* names[] = {"msg", "body", "cmd", "telemetry", "x1", "a_b"};
    Element e(names[rng.uniform_int(0, 5)]);
    const int attrs = static_cast<int>(rng.uniform_int(0, 3));
    for (int i = 0; i < attrs; ++i) {
      e.set_attr("k" + std::to_string(i), random_text(rng));
    }
    if (depth < 3 && rng.chance(0.6)) {
      const int kids = static_cast<int>(rng.uniform_int(1, 3));
      for (int i = 0; i < kids; ++i) e.add_child(random_element(rng, depth + 1));
      // Note: mixed content order is not modeled, so only leaf elements get
      // text (the command language never mixes).
    } else if (rng.chance(0.5)) {
      e.set_text(random_text(rng));
    }
    return e;
  }

  std::string random_text(util::Rng& rng) {
    static const char* snippets[] = {"hello", "a<b", "x&y", "\"quoted\"",
                                     "it's", "42.5", "multi word text", "<>&"};
    std::string text = snippets[rng.uniform_int(0, 7)];
    if (rng.chance(0.3)) text += snippets[rng.uniform_int(0, 7)];
    return text;
  }
};

TEST_P(XmlRoundTrip, ParseWriteIdentity) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 20; ++i) {
    const Element original = random_element(rng, 0);
    for (bool pretty : {false, true}) {
      WriteOptions options;
      options.pretty = pretty;
      const std::string wire = write(original, options);
      auto reparsed = parse(wire);
      ASSERT_TRUE(reparsed.ok())
          << reparsed.error().message() << "\nwire: " << wire;
      EXPECT_TRUE(original == reparsed.value()) << "wire: " << wire;
    }
  }
}

TEST_P(XmlRoundTrip, FastAndFallbackParsersAgree) {
  // One parser, two input shapes: a prolog plus a comment before the root
  // must yield the same tree as the bare document, across random documents
  // (entity-rich values included).
  util::Rng rng(GetParam() + 1000);
  for (int i = 0; i < 20; ++i) {
    const Element original = random_element(rng, 0);
    const std::string wire = write(original);
    auto bare = parse(wire);
    auto decorated =
        parse("<?xml version=\"1.0\"?><!-- before the root -->" + wire);
    ASSERT_TRUE(bare.ok()) << "wire: " << wire;
    ASSERT_TRUE(decorated.ok()) << "wire: " << wire;
    EXPECT_TRUE(bare.value() == decorated.value()) << "wire: " << wire;
    EXPECT_TRUE(bare.value() == original) << "wire: " << wire;
  }
}

TEST_P(XmlRoundTrip, BothParserPathsRejectEveryTruncation) {
  // No proper prefix of a single-root document is well-formed: the root
  // element is still open at the cut. The parser must reject every
  // truncation of the bare document and of the prolog-decorated one — and
  // never crash or read out of bounds.
  util::Rng rng(GetParam() + 2000);
  const Element original = random_element(rng, 0);
  const std::string wire = write(original);
  const std::string decorated = "<?xml version=\"1.0\"?>" + wire;
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(parse(std::string_view(wire).substr(0, cut)).ok())
        << "prefix length " << cut << " of: " << wire;
  }
  for (std::size_t cut = 0; cut < decorated.size(); ++cut) {
    EXPECT_FALSE(parse(std::string_view(decorated).substr(0, cut)).ok())
        << "decorated prefix length " << cut << " of: " << decorated;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace mercury::xml
