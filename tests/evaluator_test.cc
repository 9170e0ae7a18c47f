// Evaluator sessions: pooled-memory reuse must be invisible in results
// (wrapper equivalence), safe across back-to-back heterogeneous
// evaluations, allocation-stable in steady state, and race-free when one
// session per thread shares a Document.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>

#include "src/xml/generator.h"
#include "tests/test_util.h"

namespace xpe {
namespace {

using test::MustCompile;
using test::MustParse;
using xml::NodeId;

TEST(EvalArenaTest, AllocateExtendReset) {
  EvalArena arena;
  auto* a = static_cast<uint32_t*>(arena.Allocate(4 * sizeof(uint32_t), 4));
  ASSERT_NE(a, nullptr);
  a[0] = 7;
  // The most recent allocation extends in place while its block has room.
  EXPECT_TRUE(arena.TryExtend(a, 4 * sizeof(uint32_t), 8 * sizeof(uint32_t)));
  EXPECT_EQ(a[0], 7u);
  // A newer allocation ends the extendability of the older one.
  void* b = arena.Allocate(16, 8);
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(
      arena.TryExtend(a, 8 * sizeof(uint32_t), 16 * sizeof(uint32_t)));

  const size_t reserved = arena.bytes_reserved();
  const uint64_t blocks = arena.block_allocations();
  EXPECT_GT(reserved, 0u);
  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  // Reset retains the blocks: the same workload re-runs without a single
  // new block allocation.
  (void)arena.Allocate(64, 8);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  EXPECT_EQ(arena.block_allocations(), blocks);
}

TEST(EvalArenaTest, ArenaVectorGrowsAcrossBlocks) {
  EvalArena arena;
  ArenaVector<NodeId> v(&arena);
  for (NodeId i = 0; i < 10'000; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 10'000u);
  for (NodeId i = 0; i < 10'000; ++i) {
    ASSERT_EQ(v[i], i) << "element " << i << " lost during growth";
  }
}

TEST(NodeTableTest, RowsInAnyKeyOrder) {
  EvalArena arena;
  NodeTable table;
  table.Reset(&arena, 5);
  EXPECT_TRUE(table.initialized());
  EXPECT_FALSE(table.has_row(3));

  const NodeId row3[] = {1, 4};
  table.SetRow(3, row3);
  table.BeginRow(0);
  table.PushOrdered(2);
  table.PushOrdered(2);  // adjacent duplicate dropped
  table.PushOrdered(9);
  table.CommitRow();
  table.SetRow(1, std::span<const NodeId>{});  // committed empty row

  EXPECT_TRUE(table.has_row(0));
  EXPECT_TRUE(table.has_row(1));
  EXPECT_TRUE(table.has_row(3));
  EXPECT_FALSE(table.has_row(2));
  EXPECT_EQ(table.RowAsNodeSet(0).ToString(), "{2, 9}");
  EXPECT_EQ(table.RowAsNodeSet(3).ToString(), "{1, 4}");
  EXPECT_TRUE(table.Row(1).empty());
  EXPECT_TRUE(table.Row(2).empty());
  EXPECT_EQ(table.cells(), 4u);

  // Re-setting a row replaces it and keeps the cell count truthful.
  const NodeId row3b[] = {0};
  table.SetRow(3, row3b);
  EXPECT_EQ(table.RowAsNodeSet(3).ToString(), "{0}");
  EXPECT_EQ(table.cells(), 3u);
}

TEST(NodeTableTest, PageBoundaryKeys) {
  constexpr uint32_t kKeys = 1000;  // |D|: four pages, the last partial
  EvalArena arena;
  NodeTable table;
  table.Reset(&arena, kKeys);
  for (uint32_t key : {0u, 255u, 256u, kKeys - 1}) {
    EXPECT_FALSE(table.has_row(key)) << key;
    EXPECT_TRUE(table.Row(key).empty()) << key;
  }
  for (uint32_t key : {0u, 255u, 256u, kKeys - 1}) {
    const NodeId row[] = {key, key + 1};
    table.SetRow(key, row);
  }
  for (uint32_t key : {0u, 255u, 256u, kKeys - 1}) {
    ASSERT_TRUE(table.has_row(key)) << key;
    ASSERT_EQ(table.Row(key).size(), 2u) << key;
    EXPECT_EQ(table.Row(key)[0], key);
    EXPECT_EQ(table.Row(key)[1], key + 1);
  }
  // Neighbours on the touched pages stay absent.
  for (uint32_t key : {1u, 254u, 257u, kKeys - 2}) {
    EXPECT_FALSE(table.has_row(key)) << key;
  }
  EXPECT_EQ(table.cells(), 8u);
}

TEST(NodeTableTest, CommitsInDescendingAndRandomOrder) {
  constexpr uint32_t kKeys = 3000;
  std::vector<uint32_t> descending;
  for (uint32_t k = kKeys; k-- > 0;) {
    if (k % 7 == 0) descending.push_back(k);
  }
  std::vector<uint32_t> shuffled = descending;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(2003));
  for (const std::vector<uint32_t>* order : {&descending, &shuffled}) {
    EvalArena arena;
    NodeTable table;
    table.Reset(&arena, kKeys);
    for (uint32_t key : *order) {
      table.BeginRow(key);
      table.PushOrdered(key);
      table.PushOrdered(key + kKeys);
      table.CommitRow();
    }
    for (uint32_t k = 0; k < kKeys; ++k) {
      ASSERT_EQ(table.has_row(k), k % 7 == 0) << k;
      if (k % 7 != 0) continue;
      ASSERT_EQ(table.Row(k).size(), 2u) << k;
      EXPECT_EQ(table.Row(k)[0], k);
      EXPECT_EQ(table.Row(k)[1], k + kKeys);
    }
    EXPECT_EQ(table.cells(), 2 * descending.size());
  }
}

TEST(NodeTableTest, EmptyRowIsNotAbsentAndRowsReset) {
  EvalArena arena;
  NodeTable table;
  table.Reset(&arena, 600);
  table.SetRow(300, std::span<const NodeId>{});
  EXPECT_TRUE(table.has_row(300));   // committed, empty
  EXPECT_FALSE(table.has_row(301));  // same page, never committed
  EXPECT_FALSE(table.has_row(10));   // untouched page
  EXPECT_TRUE(table.Row(300).empty());
  EXPECT_EQ(table.cells(), 0u);

  const NodeId first[] = {3, 5, 8};
  table.SetRow(300, first);
  EXPECT_EQ(table.RowAsNodeSet(300).ToString(), "{3, 5, 8}");
  EXPECT_EQ(table.cells(), 3u);
  const NodeId second[] = {4};
  table.SetRow(300, second);
  EXPECT_EQ(table.RowAsNodeSet(300).ToString(), "{4}");
  EXPECT_EQ(table.cells(), 1u);
  table.SetRow(300, std::span<const NodeId>{});
  EXPECT_TRUE(table.has_row(300));
  EXPECT_EQ(table.cells(), 0u);
}

TEST(NodeTableTest, CopyRowsBetweenSparseTables) {
  constexpr uint32_t kKeys = 5000;
  EvalArena arena;
  NodeTable from;
  from.Reset(&arena, kKeys);
  const NodeId a[] = {1, 2};
  const NodeId b[] = {7};
  from.SetRow(4999, a);
  from.SetRow(12, b);
  from.SetRow(2048, std::span<const NodeId>{});

  NodeTable to;
  to.Reset(&arena, kKeys);
  const NodeId c[] = {9};
  to.SetRow(600, c);  // survives: CopyRows only adds/overwrites
  const NodeId d[] = {3};
  to.SetRow(12, d);  // overwritten by from's row
  to.CopyRows(from);
  EXPECT_EQ(to.RowAsNodeSet(4999).ToString(), "{1, 2}");
  EXPECT_EQ(to.RowAsNodeSet(12).ToString(), "{7}");
  EXPECT_EQ(to.RowAsNodeSet(600).ToString(), "{9}");
  EXPECT_TRUE(to.has_row(2048));
  EXPECT_TRUE(to.Row(2048).empty());
  EXPECT_FALSE(to.has_row(13));
  EXPECT_FALSE(to.has_row(0));
  EXPECT_EQ(to.cells(), 4u);
}

TEST(NodeTableTest, MoveAssignKeepsAllocatedPages) {
  EvalArena arena;
  NodeTable source;
  source.Reset(&arena, 1024);
  const NodeId row[] = {2, 6};
  source.SetRow(700, row);
  source.SetRow(3, row);

  NodeTable target;
  target.Reset(&arena, 10);
  target = std::move(source);
  EXPECT_FALSE(source.initialized());
  EXPECT_EQ(source.cells(), 0u);
  ASSERT_TRUE(target.initialized());
  EXPECT_EQ(target.num_keys(), 1024u);
  EXPECT_EQ(target.RowAsNodeSet(700).ToString(), "{2, 6}");
  EXPECT_EQ(target.RowAsNodeSet(3).ToString(), "{2, 6}");
  EXPECT_FALSE(target.has_row(701));
  EXPECT_EQ(target.cells(), 4u);
  // The moved-to table keeps committing into its (new) pages.
  const NodeId more[] = {1};
  target.SetRow(1023, more);
  EXPECT_EQ(target.RowAsNodeSet(1023).ToString(), "{1}");
  EXPECT_EQ(target.RowAsNodeSet(700).ToString(), "{2, 6}");
}

/// Reset allocates the page directory only; a row allocates one page.
TEST(NodeTableTest, CostFollowsRowsNotKeys) {
  constexpr uint32_t kKeys = 1u << 20;
  EvalArena arena;
  NodeTable table;
  table.Reset(&arena, kKeys);
  const size_t directory = arena.bytes_used();
  EXPECT_LE(directory, (kKeys / 256) * sizeof(void*));
  const NodeId row[] = {42};
  table.SetRow(kKeys / 2, row);
  EXPECT_LE(arena.bytes_used(), directory + 8 * 1024);
}

/// Back-to-back evaluations of different queries, documents, engines and
/// contexts on ONE session must match the one-shot wrapper bit-for-bit.
TEST(EvaluatorTest, ReuseAcrossQueriesAndDocumentsMatchesOneShot) {
  const xml::Document doc_a =
      xml::MakeRandomDocument(40, {"a", "b", "c"}, 1234);
  const xml::Document doc_b = MustParse(
      "<r><a id='n1'>100</a><b><c/><c/></b><a>100</a><b ref='n1'/></r>");
  const char* queries[] = {
      "//a",
      "//b[last()]",
      "//a[. = 100]",
      "count(//c) + sum(//a)",
      "//b/preceding-sibling::*",
      "//*[@id]",
      "//a[position() != last()]",
      "(//b)[2]",
  };
  Evaluator session;
  for (EngineKind engine :
       {EngineKind::kBottomUp, EngineKind::kTopDown, EngineKind::kMinContext,
        EngineKind::kOptMinContext}) {
    for (const xml::Document* doc : {&doc_a, &doc_b}) {
      for (const char* query : queries) {
        xpath::CompiledQuery compiled = MustCompile(query);
        EvalOptions options;
        options.engine = engine;
        StatusOr<Value> oneshot = Evaluate(compiled, *doc, {}, options);
        StatusOr<Value> reused = session.Evaluate(compiled, *doc, {}, options);
        ASSERT_TRUE(oneshot.ok()) << query << ": "
                                  << oneshot.status().ToString();
        ASSERT_TRUE(reused.ok()) << query << ": "
                                 << reused.status().ToString();
        EXPECT_TRUE(reused->StructurallyEquals(*oneshot))
            << "query:   " << query
            << "\nengine:  " << EngineKindToString(engine)
            << "\noneshot: " << oneshot->Repr()
            << "\nreused:  " << reused->Repr();
      }
    }
  }
}

/// Non-node-set results and non-root contexts through a session.
TEST(EvaluatorTest, SessionHandlesScalarResultsAndContexts) {
  const xml::Document doc = MustParse("<r><a/><a/><b/></r>");
  Evaluator session;
  StatusOr<NodeSet> b_nodes = session.EvaluateNodeSet(MustCompile("//b"), doc);
  ASSERT_TRUE(b_nodes.ok()) << b_nodes.status().ToString();
  ASSERT_EQ(b_nodes->size(), 1u);
  xpath::CompiledQuery count = MustCompile("count(../a)");
  EvalContext ctx;
  ctx.node = b_nodes->First();
  StatusOr<Value> v = session.Evaluate(count, doc, ctx);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->number(), 2.0);

  StatusOr<NodeSet> bad =
      session.EvaluateNodeSet(MustCompile("1 + 1"), doc, {});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  // Error paths must not poison the session.
  StatusOr<NodeSet> good = session.EvaluateNodeSet(MustCompile("//a"), doc);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->size(), 2u);
}

/// A warmed-up session stops allocating arena blocks: repeating the same
/// evaluation must not grow the arena.
TEST(EvaluatorTest, SteadyStateAllocatesNoNewArenaBlocks) {
  const xml::Document doc = xml::MakeGrownPaperDocument(8);
  // The predicate is an inner path, so MINCONTEXT builds real arena
  // tables (outermost paths alone stay set-valued per §3.1); top-down
  // builds its per-step pair relation on the arena for any path.
  xpath::CompiledQuery query = MustCompile("//a[b]/descendant::c");
  for (EngineKind engine :
       {EngineKind::kMinContext, EngineKind::kTopDown}) {
    Evaluator session;
    EvalOptions options;
    options.engine = engine;
    for (int warmup = 0; warmup < 2; ++warmup) {
      ASSERT_TRUE(session.Evaluate(query, doc, {}, options).ok());
    }
    const uint64_t blocks = session.arena_block_allocations();
    const size_t reserved = session.arena_bytes_reserved();
    EXPECT_GT(blocks, 0u) << EngineKindToString(engine);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(session.Evaluate(query, doc, {}, options).ok());
    }
    EXPECT_EQ(session.arena_block_allocations(), blocks)
        << EngineKindToString(engine);
    EXPECT_EQ(session.arena_bytes_reserved(), reserved)
        << EngineKindToString(engine);
  }
}

/// Point queries touch a handful of origins, so a session's arena must
/// follow the rows they commit, not |D|: the per-origin tables of
/// MINCONTEXT and top-down stay within 64 KiB on a 10x larger document.
TEST(EvaluatorTest, PointQueryArenaDoesNotTrackDocumentSize) {
  constexpr uint64_t kArenaBound = 64 * 1024;
  const char* queries[] = {
      "id('person17')/name",
      "count(id('auction17')/bidder)",
      "id('auction17')/bidder[last()]/increase",
  };
  const xml::Document small = xml::MakeAuctionDocument(2'000);
  const xml::Document large = xml::MakeAuctionDocument(20'000);
  for (EngineKind engine : {EngineKind::kOptMinContext,
                            EngineKind::kMinContext, EngineKind::kTopDown}) {
    Evaluator session;
    for (const xml::Document* doc : {&small, &large}) {
      for (const char* query : queries) {
        const xpath::CompiledQuery compiled = MustCompile(query);
        EvalOptions naive;
        naive.engine = EngineKind::kNaive;
        StatusOr<Value> expected = Evaluate(compiled, *doc, {}, naive);
        ASSERT_TRUE(expected.ok()) << expected.status().ToString();
        EvalStats stats;
        EvalOptions options;
        options.engine = engine;
        options.stats = &stats;
        StatusOr<Value> got = session.Evaluate(compiled, *doc, {}, options);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_TRUE(got->StructurallyEquals(*expected))
            << query << " under " << EngineKindToString(engine)
            << "\nexpected: " << expected->Repr()
            << "\ngot:      " << got->Repr();
        EXPECT_LE(stats.arena_bytes_peak, kArenaBound)
            << query << " under " << EngineKindToString(engine) << " on "
            << doc->size() << " nodes";
      }
    }
  }
}

/// One session per thread over one shared Document: results identical to
/// single-threaded, no crashes/races (the Document's lazy caches are the
/// only shared mutable state).
TEST(EvaluatorTest, OneSessionPerThreadOverSharedDocument) {
  const xml::Document doc =
      xml::MakeRandomDocument(60, {"a", "b", "c"}, 4321);
  const char* queries[] = {
      "//a//b",
      "//b[last()]",
      "//c/following-sibling::*",
      "count(//a[b])",
      "//*[@id]",
  };
  // Expected values single-threaded, before any thread touches the
  // document's caches (forces the lazy builds to race in the threads).
  std::vector<Value> expected;
  std::vector<xpath::CompiledQuery> compiled;
  for (const char* query : queries) {
    compiled.push_back(MustCompile(query));
  }
  {
    const xml::Document expectation_doc =
        xml::MakeRandomDocument(60, {"a", "b", "c"}, 4321);
    for (const xpath::CompiledQuery& q : compiled) {
      StatusOr<Value> v = Evaluate(q, expectation_doc, {}, {});
      ASSERT_TRUE(v.ok()) << v.status().ToString();
      expected.push_back(std::move(v).value());
    }
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Evaluator session;
      for (int round = 0; round < kRounds; ++round) {
        for (size_t qi = 0; qi < compiled.size(); ++qi) {
          EvalOptions options;
          options.engine = (t % 2 == 0) ? EngineKind::kOptMinContext
                                        : EngineKind::kTopDown;
          StatusOr<Value> v =
              session.Evaluate(compiled[qi], doc, {}, options);
          if (!v.ok() || !v->StructurallyEquals(expected[qi])) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace xpe
