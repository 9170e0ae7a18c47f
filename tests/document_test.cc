#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <span>
#include <vector>

#include "src/xml/document.h"
#include "src/xml/generator.h"
#include "tests/test_util.h"

namespace xpe::xml {
namespace {

using test::MustParse;

class PaperDocumentTest : public testing::Test {
 protected:
  PaperDocumentTest() : doc_(MakePaperDocument()) {}

  NodeId X(const std::string& id) const {
    auto node = doc_.GetElementById(id);
    EXPECT_TRUE(node.has_value()) << "no element with id " << id;
    return node.value_or(kInvalidNodeId);
  }

  Document doc_;
};

TEST_F(PaperDocumentTest, HasAllPaperNodes) {
  // The nine elements x10..x24 of Figure 2.
  for (const char* id :
       {"10", "11", "12", "13", "14", "21", "22", "23", "24"}) {
    EXPECT_TRUE(doc_.GetElementById(id).has_value()) << id;
  }
}

TEST_F(PaperDocumentTest, StructureMatchesFigure2) {
  EXPECT_EQ(doc_.name(X("10")), "a");
  EXPECT_EQ(doc_.name(X("11")), "b");
  EXPECT_EQ(doc_.name(X("12")), "c");
  EXPECT_EQ(doc_.name(X("14")), "d");
  EXPECT_EQ(doc_.name(X("24")), "d");
  EXPECT_EQ(doc_.parent(X("11")), X("10"));
  EXPECT_EQ(doc_.parent(X("12")), X("11"));
  EXPECT_EQ(doc_.parent(X("23")), X("21"));
}

TEST_F(PaperDocumentTest, DocumentOrderMatchesIdOrder) {
  // x10 <doc x11 <doc ... <doc x24 — NodeIds are document order.
  const char* ids[] = {"10", "11", "12", "13", "14", "21", "22", "23", "24"};
  for (int i = 0; i + 1 < 9; ++i) {
    EXPECT_LT(X(ids[i]), X(ids[i + 1]));
  }
}

TEST_F(PaperDocumentTest, StringValues) {
  EXPECT_EQ(doc_.StringValue(X("12")), "21 22");
  EXPECT_EQ(doc_.StringValue(X("14")), "100");
  EXPECT_EQ(doc_.StringValue(X("24")), "100");
  EXPECT_EQ(doc_.StringValue(X("11")), "21 2223 24100");
  EXPECT_EQ(doc_.StringValue(X("10")), "21 2223 2410011 1213 14100");
}

TEST_F(PaperDocumentTest, NumberValues) {
  EXPECT_EQ(doc_.NumberValue(X("14")), 100.0);
  EXPECT_EQ(doc_.NumberValue(X("24")), 100.0);
  EXPECT_TRUE(std::isnan(doc_.NumberValue(X("12"))));  // "21 22"
  EXPECT_TRUE(std::isnan(doc_.NumberValue(X("11"))));
  // Cached second read agrees.
  EXPECT_EQ(doc_.NumberValue(X("14")), 100.0);
}

TEST_F(PaperDocumentTest, IsAncestor) {
  EXPECT_TRUE(doc_.IsAncestor(X("10"), X("14")));
  EXPECT_TRUE(doc_.IsAncestor(X("11"), X("12")));
  EXPECT_FALSE(doc_.IsAncestor(X("12"), X("11")));
  EXPECT_FALSE(doc_.IsAncestor(X("11"), X("11")));
  EXPECT_FALSE(doc_.IsAncestor(X("11"), X("22")));
  EXPECT_TRUE(doc_.IsAncestor(doc_.root(), X("24")));
}

TEST_F(PaperDocumentTest, AttributeNodesHaveElementAncestors) {
  NodeId attr = doc_.AttrBegin(X("12"));
  ASSERT_LT(attr, doc_.AttrEnd(X("12")));
  EXPECT_TRUE(doc_.IsAttribute(attr));
  EXPECT_EQ(doc_.StringValue(attr), "12");
  EXPECT_TRUE(doc_.IsAncestor(X("12"), attr));
  EXPECT_TRUE(doc_.IsAncestor(X("10"), attr));
}

TEST_F(PaperDocumentTest, IdAxisFigure2) {
  // strval(x12) = "21 22" references x21 and x22 — the id-"axis" of §4.
  const std::span<const NodeId> targets = doc_.IdAxisForward(X("12"));
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0], X("21"));
  EXPECT_EQ(targets[1], X("22"));
  // Inverse direction: who references x21?
  const std::span<const NodeId> sources = doc_.IdAxisInverse(X("21"));
  EXPECT_FALSE(sources.empty());
  bool found = false;
  for (NodeId s : sources) found = found || s == X("12");
  EXPECT_TRUE(found);
}

// --- DocumentBuilder --------------------------------------------------------

TEST(DocumentBuilderTest, BuildsTreeWithLinks) {
  DocumentBuilder b;
  b.StartElement("r");
  b.StartElement("x");
  b.EndElement();
  b.AddText("t");
  b.StartElement("y");
  b.EndElement();
  b.EndElement();
  StatusOr<Document> doc = std::move(b).Finish();
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->size(), 5u);
  EXPECT_EQ(doc->first_child(1), 2u);
  EXPECT_EQ(doc->last_child(1), 4u);
  EXPECT_EQ(doc->next_sibling(2), 3u);
  EXPECT_EQ(doc->next_sibling(3), 4u);
  EXPECT_EQ(doc->prev_sibling(4), 3u);
}

TEST(DocumentBuilderTest, CoalescesAdjacentText) {
  DocumentBuilder b;
  b.StartElement("r");
  b.AddText("a");
  b.AddText("b");
  b.EndElement();
  StatusOr<Document> doc = std::move(b).Finish();
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->size(), 3u);
  EXPECT_EQ(doc->content(2), "ab");
}

TEST(DocumentBuilderTest, RejectsUnbalancedFinish) {
  DocumentBuilder b;
  b.StartElement("r");
  StatusOr<Document> doc = std::move(b).Finish();
  EXPECT_FALSE(doc.ok());
}

TEST(DocumentBuilderTest, RejectsLateAttributes) {
  DocumentBuilder b;
  b.StartElement("r");
  b.AddText("x");
  b.AddAttribute("late", "1");
  b.EndElement();
  StatusOr<Document> doc = std::move(b).Finish();
  EXPECT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kInternal);
}

TEST(DocumentBuilderTest, FirstIdWins) {
  DocumentBuilder b;
  b.StartElement("r");
  b.StartElement("a");
  b.AddAttribute("id", "k");
  b.EndElement();
  b.StartElement("b");
  b.AddAttribute("id", "k");
  b.EndElement();
  b.EndElement();
  StatusOr<Document> doc = std::move(b).Finish();
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->name(*doc->GetElementById("k")), "a");
}

// --- Generators -------------------------------------------------------------

TEST(GeneratorTest, ExponentialDocumentShape) {
  Document doc = MakeExponentialDocument();
  ASSERT_EQ(doc.size(), 4u);  // root, a, b, b
  EXPECT_EQ(doc.name(1), "a");
  EXPECT_EQ(doc.name(2), "b");
  EXPECT_EQ(doc.name(3), "b");
}

TEST(GeneratorTest, GrownPaperDocumentScales) {
  Document one = MakeGrownPaperDocument(1);
  Document four = MakeGrownPaperDocument(4);
  EXPECT_GT(four.size(), one.size() * 3);
  // Each copy keeps its own id space.
  EXPECT_TRUE(four.GetElementById("14_0").has_value());
  EXPECT_TRUE(four.GetElementById("14_3").has_value());
  EXPECT_FALSE(four.GetElementById("14_4").has_value());
}

TEST(GeneratorTest, ChainDocumentDepth) {
  Document doc = MakeChainDocument(10);
  // root + r + 10 c's + text.
  EXPECT_EQ(doc.size(), 13u);
  NodeId deepest = 11;
  EXPECT_EQ(doc.name(deepest), "c");
  EXPECT_EQ(doc.StringValue(deepest), "100");
}

TEST(GeneratorTest, CompleteTreeCounts) {
  Document doc = MakeCompleteTreeDocument(2, 3);
  // 2^3 = 8 leaves, 7 inner 'n' nodes, 8 text nodes, root: 24.
  EXPECT_EQ(doc.size(), 24u);
}

// ---------------------------------------------------------------------------
// The id axis against its definition: deref_ids(strval(x)) for every node.

std::vector<NodeId> ToVector(std::span<const NodeId> ids) {
  return std::vector<NodeId>(ids.begin(), ids.end());
}

/// Checks IdAxisForward against DerefIds(StringValue(x)) on every node
/// and IdAxisInverse against the inversion of that reference.
void ExpectIdAxisMatchesDefinition(const Document& doc) {
  std::vector<std::vector<NodeId>> inverse(doc.size());
  int mismatches = 0;
  for (NodeId x = 0; x < doc.size() && mismatches < 5; ++x) {
    const std::vector<NodeId> expected = doc.DerefIds(doc.StringValue(x));
    if (ToVector(doc.IdAxisForward(x)) != expected) {
      ++mismatches;
      ADD_FAILURE() << "forward set of node " << x << " (strval \""
                    << doc.StringValue(x) << "\")";
    }
    for (NodeId y : expected) inverse[y].push_back(x);
  }
  for (NodeId y = 0; y < doc.size() && mismatches < 5; ++y) {
    if (ToVector(doc.IdAxisInverse(y)) != inverse[y]) {
      ++mismatches;
      ADD_FAILURE() << "inverse set of node " << y;
    }
  }
}

NodeId ById(const Document& doc, std::string_view id) {
  return doc.GetElementById(id).value_or(kInvalidNodeId);
}

/// The first node of `kind` at or after `from`.
NodeId NextOfKind(const Document& doc, NodeKind kind, NodeId from) {
  while (from < doc.size() && doc.kind(from) != kind) ++from;
  return from;
}

/// A random document whose text, comments, PIs and attributes are drawn
/// from a few pieces that are ids alone and ids when joined ("p" + "1"),
/// so tokens keep crossing text-node boundaries.
Document MakeTokenSoupDocument(uint64_t seed) {
  static const char* const kPieces[] = {"p",  "1", "p1", "2",  "p12", " ",
                                        "\t", "\n", "\r", "q ", " p", "1 p",
                                        "x",  "12"};
  static const char* const kIds[] = {"p", "1", "p1", "2", "p12", "q", "1p",
                                     "x", "12p"};
  std::mt19937_64 rng(seed);
  auto piece = [&] { return kPieces[rng() % std::size(kPieces)]; };
  DocumentBuilder b;
  b.StartElement("r");
  int depth = 1;
  for (int op = 0; op < 60; ++op) {
    const uint64_t roll = rng() % 100;
    if (roll < 25) {
      b.StartElement("e");
      ++depth;
      if (rng() % 3 == 0) b.AddAttribute("id", kIds[rng() % std::size(kIds)]);
      if (rng() % 4 == 0) b.AddAttribute("ref", std::string(piece()) + piece());
    } else if (roll < 40 && depth > 1) {
      b.EndElement();
      --depth;
    } else if (roll < 85) {
      b.AddText(piece());
    } else if (roll < 92) {
      b.AddComment(piece());
    } else {
      b.AddProcessingInstruction("t", piece());
    }
  }
  while (depth-- > 0) b.EndElement();
  return std::move(b).Finish().value();
}

TEST(IdAxisTest, MatchesDefinitionOnAuctionDocuments) {
  for (uint64_t seed : {1, 2}) {
    const Document doc = MakeAuctionDocument(300, seed);
    ExpectIdAxisMatchesDefinition(doc);
    EXPECT_GT(doc.IdAxisBytes(), 0u);
  }
}

TEST(IdAxisTest, MatchesDefinitionOnRandomDocuments) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const Document doc = MakeRandomDocument(150, {"a", "b", "c"}, seed);
    ASSERT_GT(doc.IdAxisBytes(), 0u) << "seed " << seed << " made no ids";
    ExpectIdAxisMatchesDefinition(doc);
  }
  for (uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("token soup seed " + std::to_string(seed));
    ExpectIdAxisMatchesDefinition(MakeTokenSoupDocument(seed));
  }
}

TEST(IdAxisTest, TokensSplitAcrossElementsCommentsAndPis) {
  // strval joins text nodes with no separator: <x>p<b/>1</x> is "p1".
  const Document doc = MustParse(
      "<r><e id='p1'/><e id='p12'/><e id='p'/><e id='1'/><e id='2'/>"
      "<x>p<b/>1</x><z>p1<!--c-->2</z><v>p<?t 1?>1</v></r>");
  const NodeId x = NextOfKind(doc, NodeKind::kElement, ById(doc, "2") + 1);
  ASSERT_EQ(doc.name(x), "x");
  EXPECT_EQ(ToVector(doc.IdAxisForward(x)),
            std::vector<NodeId>{ById(doc, "p1")});
  const NodeId p_text = NextOfKind(doc, NodeKind::kText, x);
  EXPECT_EQ(ToVector(doc.IdAxisForward(p_text)),
            std::vector<NodeId>{ById(doc, "p")});
  const NodeId z = doc.next_sibling(x);
  ASSERT_EQ(doc.name(z), "z");
  EXPECT_EQ(ToVector(doc.IdAxisForward(z)),
            std::vector<NodeId>{ById(doc, "p12")});
  const NodeId v = doc.next_sibling(z);
  ASSERT_EQ(doc.name(v), "v");
  EXPECT_EQ(ToVector(doc.IdAxisForward(v)),
            std::vector<NodeId>{ById(doc, "p1")});
  const NodeId pi = NextOfKind(doc, NodeKind::kProcessingInstruction, v);
  EXPECT_EQ(ToVector(doc.IdAxisForward(pi)),
            std::vector<NodeId>{ById(doc, "1")});
  ExpectIdAxisMatchesDefinition(doc);
}

TEST(IdAxisTest, SliceBoundariesCutTokens) {
  // Each <t> holds "ab", which is only part of a token of its parent's
  // strval: cut on the left, on the right, and on both sides.
  const Document doc = MustParse(
      "<r><e id='ab'/><s>x<t>ab</t></s><s><t>ab</t>y</s><s>x<t>ab</t>y</s>"
      "</r>");
  const NodeId ab = ById(doc, "ab");
  for (NodeId s = doc.next_sibling(ab); s != kInvalidNodeId;
       s = doc.next_sibling(s)) {
    const NodeId t = NextOfKind(doc, NodeKind::kElement, s + 1);
    EXPECT_TRUE(doc.IdAxisForward(s).empty()) << doc.StringValue(s);
    EXPECT_EQ(ToVector(doc.IdAxisForward(t)), std::vector<NodeId>{ab})
        << doc.StringValue(s);
  }
  ExpectIdAxisMatchesDefinition(doc);
}

TEST(IdAxisTest, AllFourXmlWhitespaceCharactersSeparate) {
  DocumentBuilder b;
  b.StartElement("r");
  for (const char* id : {"a", "b", "c", "d", "f"}) {
    b.StartElement("e");
    b.AddAttribute("id", id);
    b.EndElement();
  }
  b.StartElement("t");
  b.AddAttribute("ref", "a b\tc\nd\rf");
  b.AddText(" a b\tc\nd\rf\vf");  // \v is not XML whitespace
  b.EndElement();
  b.EndElement();
  const Document doc = std::move(b).Finish().value();
  const NodeId t = ById(doc, "f") + 2;
  ASSERT_EQ(doc.name(t), "t");
  const std::vector<NodeId> all = {ById(doc, "a"), ById(doc, "b"),
                                   ById(doc, "c"), ById(doc, "d"),
                                   ById(doc, "f")};
  EXPECT_EQ(ToVector(doc.IdAxisForward(doc.AttrBegin(t))), all);
  EXPECT_EQ(ToVector(doc.IdAxisForward(t)),
            std::vector<NodeId>(all.begin(), all.end() - 1));
  ExpectIdAxisMatchesDefinition(doc);
}

TEST(IdAxisTest, DuplicateIdsResolveToTheFirst) {
  const Document doc =
      MustParse("<r><a id='k'/><b id='k'/><c>k</c></r>");
  const NodeId a = 2, b = 4, c = 6;
  ASSERT_EQ(doc.name(b), "b");
  ASSERT_EQ(doc.name(c), "c");
  EXPECT_EQ(ToVector(doc.IdAxisForward(c)), std::vector<NodeId>{a});
  EXPECT_EQ(ToVector(doc.IdAxisForward(doc.AttrBegin(b))),
            std::vector<NodeId>{a});
  EXPECT_TRUE(doc.IdAxisInverse(b).empty());
  ExpectIdAxisMatchesDefinition(doc);
}

TEST(IdAxisTest, AttributesCommentsAndPisReference) {
  const Document doc = MustParse(
      "<r><a id='k'/><a id='j'/><b ref='j k'/><!-- k --><?pi j?></r>");
  const NodeId k = ById(doc, "k"), j = ById(doc, "j");
  const NodeId ref = doc.AttrBegin(NextOfKind(doc, NodeKind::kElement, j + 2));
  const NodeId comment = NextOfKind(doc, NodeKind::kComment, ref);
  const NodeId pi = NextOfKind(doc, NodeKind::kProcessingInstruction, ref);
  EXPECT_EQ(ToVector(doc.IdAxisForward(ref)), (std::vector<NodeId>{k, j}));
  EXPECT_EQ(ToVector(doc.IdAxisForward(comment)), std::vector<NodeId>{k});
  EXPECT_EQ(ToVector(doc.IdAxisForward(pi)), std::vector<NodeId>{j});
  // Each id attribute also references its own element.
  EXPECT_EQ(ToVector(doc.IdAxisInverse(k)),
            (std::vector<NodeId>{doc.AttrBegin(k), ref, comment}));
  EXPECT_EQ(ToVector(doc.IdAxisInverse(j)),
            (std::vector<NodeId>{doc.AttrBegin(j), ref, pi}));
  ExpectIdAxisMatchesDefinition(doc);
}

TEST(IdAxisTest, LongAndEmptyIdValues) {
  // Keys of 63 characters and more share one length class in the build's
  // pre-hash filter; an empty id value matches no token, not even at an
  // empty element that sits inside a token (<b/> in "p<b/>q").
  const std::string long_id(70, 'k');
  const std::string near_miss(64, 'k');
  const Document doc = MustParse(
      "<r><e id=''/><e id='" + long_id + "'/><x>" + long_id + " " +
      near_miss + "</x><y ref='" + near_miss + " " + long_id +
      "'>p<b/>q</y></r>");
  const NodeId target = ById(doc, long_id);
  const NodeId x = NextOfKind(doc, NodeKind::kElement, target + 2);
  ASSERT_EQ(doc.name(x), "x");
  EXPECT_EQ(ToVector(doc.IdAxisForward(x)), std::vector<NodeId>{target});
  const NodeId y = doc.next_sibling(x);
  EXPECT_EQ(ToVector(doc.IdAxisForward(doc.AttrBegin(y))),
            std::vector<NodeId>{target});
  const NodeId b = NextOfKind(doc, NodeKind::kElement, y + 1);
  ASSERT_EQ(doc.name(b), "b");
  EXPECT_TRUE(doc.IdAxisForward(b).empty());
  ExpectIdAxisMatchesDefinition(doc);
}

TEST(IdAxisTest, DocumentsWithoutIdsBuildNothing) {
  const Document empty = DocumentBuilder().Finish().value();
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_TRUE(empty.IdAxisForward(0).empty());
  EXPECT_TRUE(empty.IdAxisInverse(0).empty());
  EXPECT_EQ(empty.IdAxisBytes(), 0u);

  const Document plain = MustParse("<r><a ref='x'>x y</a><x/></r>");
  plain.WarmCaches();
  for (NodeId n = 0; n < plain.size(); ++n) {
    EXPECT_TRUE(plain.IdAxisForward(n).empty()) << n;
    EXPECT_TRUE(plain.IdAxisInverse(n).empty()) << n;
  }
  EXPECT_EQ(plain.IdAxisBytes(), 0u);
  ExpectIdAxisMatchesDefinition(plain);
}

TEST(GeneratorTest, NumericDocumentHundreds) {
  Document doc = MakeNumericDocument(14, 7);
  int hundreds = 0;
  for (NodeId n = 0; n < doc.size(); ++n) {
    if (doc.IsElement(n) && doc.name(n) == "v" &&
        doc.StringValue(n) == "100") {
      ++hundreds;
    }
  }
  EXPECT_EQ(hundreds, 2);  // leaves 7 and 14
}

TEST(GeneratorTest, BibliographyShape) {
  Document doc = MakeBibliographyDocument(8);
  EXPECT_TRUE(doc.GetElementById("bk0").has_value());
  EXPECT_TRUE(doc.GetElementById("bk7").has_value());
  EXPECT_EQ(doc.name(1), "bib");
}

TEST(GeneratorTest, RandomDocumentIsDeterministic) {
  const std::vector<std::string> labels = {"a", "b", "c"};
  Document d1 = MakeRandomDocument(50, labels, 7);
  Document d2 = MakeRandomDocument(50, labels, 7);
  Document d3 = MakeRandomDocument(50, labels, 8);
  EXPECT_EQ(d1.size(), d2.size());
  EXPECT_EQ(d1.DebugDump(), d2.DebugDump());
  EXPECT_NE(d1.DebugDump(), d3.DebugDump());
}

TEST(GeneratorTest, RandomDocumentElementCount) {
  const std::vector<std::string> labels = {"a", "b"};
  Document doc = MakeRandomDocument(80, labels, 3);
  int elements = 0;
  for (NodeId n = 0; n < doc.size(); ++n) {
    if (doc.IsElement(n)) ++elements;
  }
  EXPECT_EQ(elements, 80);
}

}  // namespace
}  // namespace xpe::xml
