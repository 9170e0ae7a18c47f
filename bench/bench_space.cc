// Experiment E5 (DESIGN.md): the space claims. Wall-clock cannot observe
// memory bounds, so this harness reads the engines' instrumented
// context-value-table cell counts (EvalStats::cells_peak) and prints one
// table per query class:
//   E↑  ~ |D|³ rows per scalar expression   ([11] §2.3)
//   E↓  ~ |D|² pair cells without relevance restriction
//   MINCONTEXT ~ |D|² (Theorem 7)
//   OPTMINCONTEXT on Wadler queries ~ |D|   (Theorem 10)
// The printed `growth` column is the log₂ cell ratio between successive
// |D| doublings: ≈1 linear, ≈2 quadratic, ≈3 cubic.

// The index-tier section extends the space story to the *indexes*: the
// flat DocumentIndex (hot) vs the succinct tier (dense), in absolute
// MemoryUsageBytes per tier on documents up to >10 MB serialized. Under
// --smoke the largest document gates dense ≤ 40% of hot.
//
// The id-axis section does the same for Document::IdAxisBytes() on
// auction documents, whose text references ids. Under --smoke the
// largest document gates the axis at ≤ 16 bytes per node.
//
// The point-query section reads EvalStats::arena_bytes_peak of one-origin
// queries (id('personK')/name, count(id('auctionK')/bidder)) on the same
// auction documents: per-origin tables are paged, so the session arena
// follows the rows a query commits, not |D|. Under --smoke the largest
// document gates each query at ≤ 64 KiB.
//
// --json PATH writes the per-document bytes and the gate outcome.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/index/document_index.h"
#include "src/succinct/succinct_index.h"

namespace xpe::bench {
namespace {

struct Series {
  const char* label;
  EngineKind engine;
  const char* query;
  std::vector<int> widths;  // generator parameter sweep
  /// Document family; defaults to the grown Figure 2 corpus (wide &
  /// shallow). Chains (deep & narrow) expose the quadratic pair
  /// relations that wide documents hide.
  xml::Document (*make_doc)(int) = &xml::MakeGrownPaperDocument;
};

void PrintSeries(const Series& series) {
  printf("\n%s\n  engine=%s\n  query=%s\n", series.label,
         EngineKindToString(series.engine), series.query);
  // cells_peak is the paper's metric: peak *logical* table cells, charged
  // when rows are committed. arena_KiB is the real footprint of the
  // session arena those flat tables live in — monotonic within one
  // evaluation, so it upper-bounds (and tracks) the cell curve without
  // ever replacing it in the growth analysis.
  printf("  %8s %14s %8s %10s\n", "|D|", "cells_peak", "growth",
         "arena_KiB");
  xpath::CompiledQuery query = MustCompile(series.query);
  double prev_cells = 0;
  for (int width : series.widths) {
    xml::Document doc = series.make_doc(width);
    EvalStats stats;
    MustEvaluate(query, doc, series.engine, &stats);
    const double cells = static_cast<double>(stats.cells_peak);
    const double arena_kib =
        static_cast<double>(stats.arena_bytes_peak) / 1024.0;
    if (prev_cells > 0) {
      printf("  %8u %14.0f %8.2f %10.1f\n", doc.size(), cells,
             std::log2(cells / prev_cells), arena_kib);
    } else {
      printf("  %8u %14.0f %8s %10.1f\n", doc.size(), cells, "-", arena_kib);
    }
    prev_cells = cells;
  }
}

struct TierRow {
  int elements;
  size_t nodes, hot_bytes, dense_bytes;
};

struct IdAxisRow {
  int people;
  size_t nodes;
  uint64_t bytes;
  double bytes_per_node;
};

/// Per-tier index footprint vs document size. Returns false when the
/// gate (dense ≤ 40% of hot, checked on the ≥10 MB document) fails.
bool PrintTierSeries(bool smoke, std::vector<TierRow>* rows) {
  printf("\nIndex tiers: per-tier MemoryUsageBytes vs |D|\n");
  printf("  %9s %8s %12s %12s %8s\n", "elements", "ser_MB", "hot_bytes",
         "dense_bytes", "pct");
  bool ok = true;
  bool gated = false;
  for (int n : {10'000, 100'000, 1'000'000}) {
    const xml::Document doc = xml::MakeRandomDocument(
        n, {"x", "record", "entry", "section", "item"}, /*seed=*/2003);
    const double ser_mb = xml::Serialize(doc).size() / 1e6;
    const size_t hot = doc.index().MemoryUsageBytes();
    const size_t dense = doc.succinct_index().MemoryUsageBytes();
    const double pct =
        100.0 * static_cast<double>(dense) / static_cast<double>(hot);
    printf("  %9d %8.1f %12zu %12zu %7.1f%%\n", n, ser_mb, hot, dense, pct);
    rows->push_back({n, doc.size(), hot, dense});
    if (smoke && ser_mb >= 10.0) {
      gated = true;
      if (pct > 40.0) {
        fprintf(stderr,
                "FAIL: dense tier is %.1f%% of hot bytes at %.1f MB "
                "(gate: 40%%)\n", pct, ser_mb);
        ok = false;
      }
    }
  }
  if (smoke && !gated) {
    fprintf(stderr, "FAIL: no document reached the 10 MB gate floor\n");
    ok = false;
  }
  return ok;
}

constexpr double kIdAxisGateBytesPerNode = 16.0;

/// Id-axis footprint vs document size. Returns false when the gate
/// (≤ 16 bytes per node on the largest document) fails.
bool PrintIdAxisSeries(bool smoke, std::vector<IdAxisRow>* rows) {
  printf("\nId axis: IdAxisBytes vs |D| (auction documents)\n");
  printf("  %8s %9s %12s %10s\n", "people", "nodes", "id_axis_bytes",
         "B/node");
  for (int people : {5'000, 10'000, 20'000}) {
    const xml::Document doc = xml::MakeAuctionDocument(people, /*seed=*/2003);
    const uint64_t bytes = doc.IdAxisBytes();
    const double per_node =
        static_cast<double>(bytes) / static_cast<double>(doc.size());
    printf("  %8d %9u %12llu %10.2f\n", people, doc.size(),
           static_cast<unsigned long long>(bytes), per_node);
    rows->push_back({people, doc.size(), bytes, per_node});
  }
  const double largest = rows->back().bytes_per_node;
  if (smoke && largest > kIdAxisGateBytesPerNode) {
    fprintf(stderr, "FAIL: id axis is %.2f B/node on the largest document "
                    "(gate: %.0f B/node)\n", largest,
            kIdAxisGateBytesPerNode);
    return false;
  }
  return true;
}

struct PointArenaRow {
  int people;
  size_t nodes;
  std::string query;
  uint64_t arena_bytes_peak;
};

constexpr uint64_t kPointArenaGateBytes = 64 * 1024;

/// Session-arena peak of one-origin queries vs document size. Returns
/// false when a query exceeds the gate on the largest document.
bool PrintPointArenaSeries(bool smoke, std::vector<PointArenaRow>* rows) {
  printf("\nPoint-query arena: arena_bytes_peak vs |D| (auction documents, "
         "default engine)\n");
  printf("  %8s %9s %-34s %12s\n", "people", "nodes", "query",
         "arena_bytes");
  bool ok = true;
  const int sizes[] = {5'000, 10'000, 20'000};
  for (int people : sizes) {
    const xml::Document doc = xml::MakeAuctionDocument(people, /*seed=*/2003);
    // Auctions number people/3, so K = people/6 names both a person and
    // an auction mid-document.
    const std::string k = std::to_string(people / 6);
    for (const std::string& query : {"id('person" + k + "')/name",
                                     "count(id('auction" + k + "')/bidder)"}) {
      EvalStats stats;
      EvalOptions options;
      options.stats = &stats;
      const StatusOr<Value> v =
          Evaluate(MustCompile(query), doc, EvalContext{}, options);
      if (!v.ok()) {
        fprintf(stderr, "eval(%s): %s\n", query.c_str(),
                v.status().ToString().c_str());
        std::abort();
      }
      printf("  %8d %9u %-34s %12llu\n", people, doc.size(), query.c_str(),
             static_cast<unsigned long long>(stats.arena_bytes_peak));
      rows->push_back({people, doc.size(), query, stats.arena_bytes_peak});
      if (smoke && people == sizes[2] &&
          stats.arena_bytes_peak > kPointArenaGateBytes) {
        fprintf(stderr, "FAIL: %s peaks at %llu arena bytes on the largest "
                        "document (gate: %llu)\n", query.c_str(),
                static_cast<unsigned long long>(stats.arena_bytes_peak),
                static_cast<unsigned long long>(kPointArenaGateBytes));
        ok = false;
      }
    }
  }
  return ok;
}

bool WriteJson(const char* path, const std::vector<TierRow>& tiers,
               const std::vector<IdAxisRow>& id_axis,
               const std::vector<PointArenaRow>& point_arena, bool ok) {
  FILE* f = fopen(path, "w");
  if (f == nullptr) {
    fprintf(stderr, "FAIL: cannot write %s\n", path);
    return false;
  }
  fprintf(f, "{\n  \"bench\": \"bench_space\",\n  \"tiers\": [");
  for (size_t i = 0; i < tiers.size(); ++i) {
    fprintf(f, "%s\n    {\"elements\": %d, \"nodes\": %zu, "
               "\"hot_bytes\": %zu, \"dense_bytes\": %zu}",
            i == 0 ? "" : ",", tiers[i].elements, tiers[i].nodes,
            tiers[i].hot_bytes, tiers[i].dense_bytes);
  }
  fprintf(f, "\n  ],\n  \"id_axis\": [");
  for (size_t i = 0; i < id_axis.size(); ++i) {
    fprintf(f, "%s\n    {\"people\": %d, \"nodes\": %zu, "
               "\"id_axis_bytes\": %llu, \"bytes_per_node\": %.2f}",
            i == 0 ? "" : ",", id_axis[i].people, id_axis[i].nodes,
            static_cast<unsigned long long>(id_axis[i].bytes),
            id_axis[i].bytes_per_node);
  }
  fprintf(f, "\n  ],\n  \"point_arena\": [");
  for (size_t i = 0; i < point_arena.size(); ++i) {
    fprintf(f, "%s\n    {\"people\": %d, \"nodes\": %zu, "
               "\"query\": \"%s\", \"arena_bytes_peak\": %llu}",
            i == 0 ? "" : ",", point_arena[i].people, point_arena[i].nodes,
            point_arena[i].query.c_str(),
            static_cast<unsigned long long>(point_arena[i].arena_bytes_peak));
  }
  fprintf(f, "\n  ],\n  \"id_axis_gate_bytes_per_node\": %.0f,\n"
             "  \"point_arena_gate_bytes\": %llu,\n"
             "  \"ok\": %s\n}\n",
          kIdAxisGateBytesPerNode,
          static_cast<unsigned long long>(kPointArenaGateBytes),
          ok ? "true" : "false");
  fclose(f);
  printf("wrote %s\n", path);
  return true;
}

}  // namespace
}  // namespace xpe::bench

int main(int argc, char** argv) {
  using xpe::EngineKind;
  using xpe::bench::PrintSeries;
  using xpe::bench::PrintIdAxisSeries;
  using xpe::bench::PrintPointArenaSeries;
  using xpe::bench::PrintTierSeries;
  using xpe::bench::Series;

  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  // One positional predicate so every engine builds real tables.
  constexpr const char* kFullQuery =
      "/descendant::*/descendant::*[position() > last()*0.5 or "
      "self::* = 100]";
  // Example 9 (Wadler fragment), adapted to the grown document.
  constexpr const char* kWadlerQuery =
      "/child::r/child::a/descendant::*[boolean(following::d[(position() != "
      "last()) and (preceding-sibling::*/preceding::* = 100)]/"
      "following::d)]";

  printf("E5: peak context-value-table cells vs |D| "
         "(growth: log2 ratio per |D| doubling)\n");

  PrintSeries(Series{"E-up (full tables, expect growth ~3)",
                     EngineKind::kBottomUp, kFullQuery, {1, 2, 4}});
  PrintSeries(Series{"E-down, wide documents (pair sets stay linear here)",
                     EngineKind::kTopDown, kFullQuery, {2, 4, 8, 16, 32}});
  PrintSeries(Series{"MINCONTEXT, wide documents (relevance-restricted)",
                     EngineKind::kMinContext, kFullQuery, {2, 4, 8, 16, 32}});
  // Deep chains: descendant steps relate Θ(|D|²) pairs. E↓ materializes
  // them; MINCONTEXT's outermost paths stay sets (§3.1's "special
  // treatment of location paths on the outermost level").
  PrintSeries(Series{"E-down, chain documents (expect growth ~2)",
                     EngineKind::kTopDown, kFullQuery,
                     {32, 64, 128, 256},
                     &xpe::xml::MakeChainDocument});
  PrintSeries(Series{"MINCONTEXT, chain documents (expect growth ~1)",
                     EngineKind::kMinContext, kFullQuery,
                     {32, 64, 128, 256},
                     &xpe::xml::MakeChainDocument});
  PrintSeries(Series{"OPTMINCONTEXT on a Wadler query (expect growth ~1)",
                     EngineKind::kOptMinContext, kWadlerQuery,
                     {2, 4, 8, 16, 32, 64}});
  PrintSeries(Series{"MINCONTEXT on the same Wadler query (expect ~2)",
                     EngineKind::kMinContext, kWadlerQuery,
                     {2, 4, 8, 16, 32}});
  std::vector<xpe::bench::TierRow> tiers;
  std::vector<xpe::bench::IdAxisRow> id_axis;
  std::vector<xpe::bench::PointArenaRow> point_arena;
  bool ok = PrintTierSeries(smoke, &tiers);
  ok = PrintIdAxisSeries(smoke, &id_axis) && ok;
  ok = PrintPointArenaSeries(smoke, &point_arena) && ok;
  if (json_path != nullptr) {
    ok = xpe::bench::WriteJson(json_path, tiers, id_axis, point_arena, ok) &&
         ok;
  }
  if (!ok) return 1;
  if (smoke) {
    printf("\nsmoke OK: dense tier within the 40%% space gate, id axis "
           "within %.0f B/node, point-query arena within %llu KiB\n",
           xpe::bench::kIdAxisGateBytesPerNode,
           static_cast<unsigned long long>(
               xpe::bench::kPointArenaGateBytes / 1024));
  }
  return 0;
}
