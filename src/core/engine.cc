#include "src/core/engine.h"

#include <algorithm>
#include <bit>

#include "src/analyze/satisfiability.h"
#include "src/analyze/summary.h"
#include "src/core/engine_internal.h"
#include "src/core/evaluator.h"
#include "src/core/stats.h"
#include "src/core/step_common.h"
#include "src/index/step_index.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"

namespace xpe {

// One "no limit" value flows from ResultSpec through the engines into
// the index kernels; the per-layer sentinels must stay the same number.
static_assert(ResultSpec::kNoLimit == kNoNodeLimit &&
              ResultSpec::kNoLimit == index::kNoStepLimit);

const char* EngineKindToString(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNaive:
      return "naive";
    case EngineKind::kBottomUp:
      return "bottom-up";
    case EngineKind::kTopDown:
      return "top-down";
    case EngineKind::kMinContext:
      return "mincontext";
    case EngineKind::kOptMinContext:
      return "optmincontext";
    case EngineKind::kCoreXPath:
      return "corexpath";
  }
  return "?";
}

std::vector<EngineKind> AllEngines() {
  return {EngineKind::kNaive,      EngineKind::kBottomUp,
          EngineKind::kTopDown,    EngineKind::kMinContext,
          EngineKind::kOptMinContext, EngineKind::kCoreXPath};
}

const char* ResultModeToString(ResultMode mode) {
  switch (mode) {
    case ResultMode::kFull:
      return "full";
    case ResultMode::kFirst:
      return "first";
    case ResultMode::kExists:
      return "exists";
    case ResultMode::kCount:
      return "count";
    case ResultMode::kLimit:
      return "limit";
  }
  return "?";
}

std::string EvalStats::ToString() const {
  // Every field, keyed by its exact struct-field name, in declaration
  // order. The format is pinned by a test (obs_test.cc): a field added
  // to EvalStats but not rendered here is a silent observability hole.
  return "cells_allocated=" + std::to_string(cells_allocated) +
         " cells_live=" + std::to_string(cells_live) +
         " cells_peak=" + std::to_string(cells_peak) +
         " contexts_evaluated=" + std::to_string(contexts_evaluated) +
         " axis_evals=" + std::to_string(axis_evals) +
         " indexed_steps=" + std::to_string(indexed_steps) +
         " nodes_visited=" + std::to_string(nodes_visited) +
         " arena_bytes_peak=" + std::to_string(arena_bytes_peak) +
         " count_fast_path=" + std::to_string(count_fast_path) +
         " pruned_by_summary=" + std::to_string(pruned_by_summary) +
         " budget_trips=" + std::to_string(budget_trips);
}

namespace {

/// Applies the ResultSpec to the engine's raw value: truncation to the
/// mode's node bound (a no-op for engines that already stopped at it),
/// the kExists/kCount conversions, and the streaming sink. All engines
/// funnel through this one reduction, which is what makes a mode's
/// answer engine-independent: an engine that could not short-circuit a
/// given shape returns the full set and the reduction of that full set
/// is, by construction, the same answer.
Value ApplyResultSpec(Value v, const ResultSpec& spec) {
  if (spec.mode == ResultMode::kFull) {
    if (spec.sink) {
      for (xml::NodeId n : v.node_set()) {
        if (!spec.sink(n)) break;
      }
    }
    return v;
  }
  const NodeSet& full = v.node_set();
  switch (spec.mode) {
    case ResultMode::kExists:
      return Value::Boolean(!full.empty());
    case ResultMode::kCount:
      return Value::Number(static_cast<double>(full.size()));
    default: {  // kFirst / kLimit: the document-order prefix
      const uint64_t bound = spec.node_limit();
      NodeSet prefix =
          full.size() > bound
              ? NodeSet::FromSorted(
                    std::span<const xml::NodeId>(full.ids()).first(bound))
              : std::move(v).node_set();  // rvalue accessor: a real move
      if (spec.sink) {
        for (xml::NodeId n : prefix) {
          if (!spec.sink(n)) break;
        }
      }
      return Value::Nodes(std::move(prefix));
    }
  }
}

/// An answer found before any engine runs, already in the result mode's
/// shape, with what accounts for it: one evaluated context, `visited`
/// nodes, and one profile row keyed to `step`.
struct EarlyAnswer {
  Value value;
  xpath::AstId step = 0;
  uint64_t produced = 0;
  uint64_t visited = 0;
  bool from_summary = false;  // the summary prune; else a postings count
};

/// The O(log n) count fast path: a Count() evaluation — ResultMode::kCount,
/// or a kFull evaluation of a top-level count(π) call — whose operand is a
/// single predicate-free index-eligible descendant step answers straight
/// from a postings CountInRange over the origin's subtree interval. No
/// node-set is materialized: two binary searches over the per-name
/// postings (either tier), so nodes_visited records 1 + ⌈log2(postings)⌉
/// instead of the match count, and the row "produces" the count itself.
bool CountFromPostings(const xpath::CompiledQuery& query,
                       const xml::Document& doc, const EvalContext& context,
                       const EvalOptions& options, EarlyAnswer* out) {
  // The naive engine stays the index-free executable specification.
  if (!options.use_index || options.engine == EngineKind::kNaive) return false;
  const xpath::QueryTree& tree = query.tree();
  const xpath::AstNode* node = &tree.node(tree.root());
  const ResultSpec& spec = options.result;
  if (spec.mode == ResultMode::kCount) {
    // Count(π): the dispatcher would reduce the materialized set.
  } else if (spec.mode == ResultMode::kFull && !spec.sink &&
             node->kind == xpath::ExprKind::kFunctionCall &&
             node->fn == xpath::FunctionId::kCount &&
             node->children.size() == 1) {
    node = &tree.node(node->children[0]);
  } else {
    return false;
  }
  if (node->kind != xpath::ExprKind::kPath || node->has_head ||
      node->children.size() != 1) {
    return false;
  }
  const xpath::AstNode& step = tree.node(node->children[0]);
  if (step.kind != xpath::ExprKind::kStep || !step.children.empty() ||
      !step.index_eligible ||
      (step.axis != Axis::kDescendant &&
       step.axis != Axis::kDescendantOrSelf)) {
    return false;
  }
  const xml::NodeId origin = node->absolute ? doc.root() : context.node;
  const IndexChoice index = ResolveIndexChoice(doc, options);
  const index::PostingsView postings = index::StepPostings(
      doc, doc.index_view(index.tier), step.axis, step.test);
  // The postings hold only the principal-node-type matches of the test,
  // so counting them inside the subtree interval is exact — including
  // the descendant-or-self origin itself when it matches.
  const xml::NodeId lo =
      step.axis == Axis::kDescendant ? origin + 1 : origin;
  const uint64_t count = postings.CountInRange(lo, doc.subtree_end(origin));
  out->value = Value::Number(static_cast<double>(count));
  out->step = node->children[0];
  out->produced = count;
  out->visited = 1 + std::bit_width(static_cast<uint64_t>(postings.size()));
  return true;
}

/// The summary prune: walk the compiled AST against the document's
/// structural summary (src/analyze/). If the top-level node-set is
/// provably empty — or the boolean/count root provably constant — the
/// empty set / false / 0 is the result under *every* engine, tier and
/// result mode, so nothing downstream can disagree. Costs
/// O(|Q| · |summary|), charged to nodes_visited as the analyzer's step
/// count; when the analysis proves nothing the stage charges nothing,
/// keeping satisfiable evaluations bit-identical with analyze on and
/// off. The row is keyed to the step the analysis failed at (the root
/// when the verdict came from a constant boolean/count root).
bool ProveFromSummary(const xpath::CompiledQuery& query,
                      const xml::Document& doc, const EvalContext& context,
                      const EvalOptions& options, EarlyAnswer* out) {
  // The naive engine stays the analysis-free executable specification.
  if (!options.analyze || options.engine == EngineKind::kNaive) return false;
  // The Core XPath engine rejects queries outside its fragment; a prune
  // must not mask that error (ok-ness would then depend on `analyze`).
  if (options.engine == EngineKind::kCoreXPath &&
      query.fragment() != xpath::Fragment::kCoreXPath) {
    return false;
  }
  const analyze::QueryAnalysis analysis =
      analyze::AnalyzeQuery(query, doc, doc.summary(), context.node);
  if (analysis.proves_empty()) {
    switch (options.result.mode) {
      case ResultMode::kExists:
        out->value = Value::Boolean(false);
        break;
      case ResultMode::kCount:
        out->value = Value::Number(0.0);
        break;
      default:  // kFull / kFirst / kLimit: the empty node-set; a sink
                // has nothing to stream.
        out->value = Value::Nodes(NodeSet());
        break;
    }
  } else if (analysis.constant_boolean.has_value()) {
    out->value = Value::Boolean(*analysis.constant_boolean);
  } else if (analysis.constant_number.has_value()) {
    out->value = Value::Number(*analysis.constant_number);
  } else {
    return false;
  }
  out->step = query.tree().root();
  for (const analyze::StepAnalysis& s : analysis.steps) {
    if (s.verdict == analyze::StepVerdict::kEmpty) {
      out->step = s.step;
      break;
    }
  }
  out->visited = analysis.steps_analyzed;
  out->from_summary = true;
  return true;
}

/// The pre-engine answer stage: the summary prune, then the count fast
/// path. When either answers, no engine runs, and the stats, the
/// profiler row and the metric are charged here, once, for both — the
/// engines never see the evaluation. The profiler row carries the same
/// visited charge as the stats, keeping its rows-account-for-stats
/// invariant. Returns true and sets `*out` (already in the result mode's
/// shape — ApplyResultSpec must not run again) when the stage answers.
bool AnswerBeforeEngines(const xpath::CompiledQuery& query,
                         const xml::Document& doc, const EvalContext& context,
                         const EvalOptions& options, Value* out) {
  auto now = [&] {
    return options.profile != nullptr ? obs::MonotonicNanos() : 0;
  };
  uint64_t t0 = now();
  EarlyAnswer answer;
  if (!ProveFromSummary(query, doc, context, options, &answer)) {
    t0 = now();
    if (!CountFromPostings(query, doc, context, options, &answer)) {
      return false;
    }
  }
  if (options.stats != nullptr) {
    ++options.stats->contexts_evaluated;
    options.stats->nodes_visited += answer.visited;
    if (answer.from_summary) {
      ++options.stats->pruned_by_summary;
    } else {
      ++options.stats->indexed_steps;
      ++options.stats->count_fast_path;
    }
  }
  if (options.profile != nullptr) {
    const uint64_t elapsed = obs::MonotonicNanos() - t0;
    if (answer.from_summary) options.profile->RecordPhase("summary", elapsed);
    options.profile->RecordStep(answer.step, elapsed, /*frontier=*/1,
                                answer.produced, answer.visited,
                                /*indexed=*/!answer.from_summary);
  }
  static obs::Counter* pruned_total =
      obs::Registry::Global().GetCounter("xpe_analyze_pruned_total");
  static obs::Counter* fast_path_total =
      obs::Registry::Global().GetCounter("xpe_count_fast_path_total");
  (answer.from_summary ? pruned_total : fast_path_total)->Increment();
  *out = std::move(answer.value);
  return true;
}

}  // namespace

StatusOr<Value> internal::EvaluateWith(EvalWorkspace& ws,
                                       const xpath::CompiledQuery& query,
                                       const xml::Document& doc,
                                       const EvalContext& context,
                                       const EvalOptions& options) {
  if (context.node >= doc.size()) {
    return StatusOr<Value>(
        Status::InvalidArgument("context node is not part of the document"));
  }
  if (context.position < 1 || context.size < context.position) {
    return StatusOr<Value>(Status::InvalidArgument(
        "context must satisfy 1 <= position <= size"));
  }
  const ResultSpec& spec = options.result;
  if ((spec.mode != ResultMode::kFull || spec.sink) &&
      query.result_type() != xpath::ValueType::kNodeSet) {
    return StatusOr<Value>(Status::InvalidArgument(
        std::string("result mode '") + ResultModeToString(spec.mode) +
        "' requires a node-set query, but '" + query.source() +
        "' evaluates to " +
        std::string(xpath::ValueTypeToString(query.result_type()))));
  }
  if (spec.mode == ResultMode::kLimit && spec.limit == 0) {
    // Almost always a forgotten `.limit` on a raw ResultSpec; an empty
    // OK answer would read as "no matches".
    return StatusOr<Value>(Status::InvalidArgument(
        "result mode 'limit' requires ResultSpec::limit >= 1"));
  }
  const uint64_t eval_t0 =
      options.profile != nullptr ? obs::MonotonicNanos() : 0;
  // Every exit records the eval phase and the arena peak.
  auto record_eval = [&] {
    if (options.profile != nullptr) {
      options.profile->RecordPhase("eval", obs::MonotonicNanos() - eval_t0);
    }
    if (options.stats != nullptr) {
      options.stats->arena_bytes_peak = std::max<uint64_t>(
          options.stats->arena_bytes_peak, ws.arena()->bytes_peak());
    }
  };
  if (Value early; AnswerBeforeEngines(query, doc, context, options, &early)) {
    record_eval();
    return StatusOr<Value>(std::move(early));
  }
  auto finish = [&](StatusOr<Value> result) -> StatusOr<Value> {
    record_eval();
    // Budget trips are recorded centrally so the counter is uniform
    // across engines, tiers and result modes — kCount and kLimit trip
    // it identically (the regression test in engine_test.cc holds the
    // modes equal).
    if (options.stats != nullptr && !result.ok() &&
        result.status().code() == StatusCode::kResourceExhausted) {
      ++options.stats->budget_trips;
    }
    if (!result.ok()) return result;
    return ApplyResultSpec(std::move(result).value(), spec);
  };
  switch (options.engine) {
    case EngineKind::kNaive:
      // The naive engine ignores the node limit (it is the executable
      // specification); the reduction in finish() still answers every
      // mode correctly.
      return finish(internal::EvalNaive(query, doc, context, options));
    case EngineKind::kBottomUp:
      return finish(internal::EvalBottomUp(ws, query, doc, context, options));
    case EngineKind::kTopDown:
      return finish(internal::EvalTopDown(ws, query, doc, context, options));
    case EngineKind::kMinContext:
      return finish(internal::EvalMinContext(ws, query, doc, context, options,
                                             /*optimized=*/false));
    case EngineKind::kOptMinContext:
      // Algorithm 8 + Theorem 13: a fully Core XPath query runs on the
      // linear-time engine; otherwise bottom-up passes + MINCONTEXT.
      if (query.fragment() == xpath::Fragment::kCoreXPath &&
          !options.ablate_outermost_sets) {
        return finish(
            internal::EvalCoreXPath(ws, query, doc, context, options));
      }
      return finish(internal::EvalMinContext(ws, query, doc, context, options,
                                             /*optimized=*/true));
    case EngineKind::kCoreXPath:
      return finish(internal::EvalCoreXPath(ws, query, doc, context, options));
  }
  return StatusOr<Value>(Status::InvalidArgument("unknown engine"));
}

StatusOr<Value> Evaluate(const xpath::CompiledQuery& query,
                         const xml::Document& doc, const EvalContext& context,
                         const EvalOptions& options) {
  // A one-shot session: same dispatch as Evaluator, so results are
  // identical by construction; only the memory reuse differs.
  EvalWorkspace ws;
  return internal::EvaluateWith(ws, query, doc, context, options);
}

StatusOr<NodeSet> EvaluateNodeSet(const xpath::CompiledQuery& query,
                                  const xml::Document& doc,
                                  const EvalContext& context,
                                  const EvalOptions& options) {
  XPE_ASSIGN_OR_RETURN(Value v, Evaluate(query, doc, context, options));
  if (!v.is_node_set()) {
    return StatusOr<NodeSet>(Status::InvalidArgument(
        "query evaluates to " +
        std::string(xpath::ValueTypeToString(v.type())) + ", not a node-set"));
  }
  return std::move(v).node_set();
}

}  // namespace xpe
