#ifndef XPE_BATCH_PLAN_CACHE_H_
#define XPE_BATCH_PLAN_CACHE_H_

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/common/status.h"
#include "src/core/query.h"
#include "src/obs/metrics.h"
#include "src/xpath/compile.h"

namespace xpe::batch {

/// A shared compiled plan. CompiledQuery is immutable and engines never
/// write into it, so one plan can back any number of concurrent
/// evaluations; shared_ptr ownership keeps in-flight evaluations safe
/// across cache eviction.
using SharedPlan = std::shared_ptr<const xpath::CompiledQuery>;

/// A process-wide, lock-striped dedup level over compiled plans, keyed
/// by CompiledQuery::canonical_key(). It holds weak references only —
/// it never extends a plan's lifetime, it just lets independent
/// PlanCaches (one per tenant in xpe::serve) converge on a single plan
/// object for equivalent queries, so N tenants asking "//a" (or any
/// spelling that normalizes to it) share one compilation's memory
/// instead of N copies.
///
/// Thread-safety: the canonical-key → weak_ptr map is sharded into
/// kStripes stripes, each with its own mutex (the key's hash picks the
/// stripe), so tenants registering plans contend only when their keys
/// collide on a stripe. Expired entries are swept opportunistically
/// when a stripe outgrows its high-water mark — the level is
/// self-bounding without any coordination with cache eviction.
///
/// Adopt() is self-contained (one stripe lock, no callbacks), so a
/// PlanCache may call it while holding its own mutex without lock-order
/// hazards.
class CanonicalPlanLevel {
 public:
  CanonicalPlanLevel() = default;
  CanonicalPlanLevel(const CanonicalPlanLevel&) = delete;
  CanonicalPlanLevel& operator=(const CanonicalPlanLevel&) = delete;

  /// The default process-wide level shared by every cache that opts in
  /// (ServeOptions wires the per-tenant caches here).
  static CanonicalPlanLevel& Global();

  /// Returns the already-published plan equivalent to `plan` if one is
  /// still alive, publishing `plan` (and returning it) otherwise. The
  /// caller replaces its plan with the return value; pointer inequality
  /// means an existing plan was adopted.
  SharedPlan Adopt(SharedPlan plan);

  /// Live (non-expired) entries — O(n), for tests and introspection.
  size_t live_entries() const;

  /// Drops every expired entry now; returns how many were removed.
  /// Adopt() already sweeps opportunistically; this is for tests.
  size_t SweepExpired();

 private:
  static constexpr size_t kStripes = 16;
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::weak_ptr<const xpath::CompiledQuery>>
        map;
    /// Sweep expired entries when the map grows past this; doubled (min
    /// 64) after each sweep that stays mostly live, halved toward the
    /// live size otherwise — amortized O(1) per Adopt.
    size_t sweep_watermark = 64;
  };
  Stripe& StripeFor(std::string_view key) {
    return stripes_[std::hash<std::string_view>{}(key) % kStripes];
  }

  Stripe stripes_[kStripes];
};

/// A thread-safe cache from query text to compiled plan, so repeated
/// workloads skip the whole parse → normalize → type → classify
/// front-end (Maneth & Nguyen's whole-query-optimization motivation:
/// compile once, evaluate many).
///
/// Two-level keying:
///  - the primary map keys on the *source text* exactly as submitted —
///    the common repeated-workload probe is one hash lookup;
///  - behind it, plans are deduplicated by CompiledQuery::canonical_key()
///    (the normalized rendering), so textually different spellings of
///    one query ("//a", "descendant-or-self::node()/child::a") share a
///    single plan object instead of compiling to duplicates.
///
/// Capacity is bounded: source entries are evicted LRU. The canonical
/// level holds weak references only, so eviction actually frees plans
/// nobody is evaluating.
///
/// The canonical level comes in two scopes:
///  - private (the default): this cache's own map — the original
///    behavior, one dedup domain per cache;
///  - shared: pass a CanonicalPlanLevel* and equivalent plans are
///    deduplicated *across caches*. This is how xpe::serve keeps one
///    PlanCache per tenant (isolated capacity, isolated LRU, isolated
///    stats) while the process still compiles and stores each distinct
///    canonical query once — the per-tenant/canonical split described
///    in docs/architecture.md.
///
/// Variable bindings change what a query compiles to, so they are fixed
/// per cache (constructor), not per lookup: one PlanCache serves one
/// binding environment. Caches sharing a CanonicalPlanLevel must share
/// one binding environment too — canonical keys do not encode bindings.
///
/// Thread-safety: all members are guarded by one mutex. Compilation runs
/// outside the lock — a slow compile never blocks cache hits on other
/// threads. Compiles are single-flight: while one caller compiles a
/// source text, concurrent callers asking for the same text wait for
/// that compile instead of starting their own, so a burst of misses on
/// one new query compiles it once.
class PlanCache {
 public:
  struct Stats {
    uint64_t hits = 0;    // source-text hits, waiters on a compile included
    uint64_t misses = 0;  // full compiles (includes failures)
    uint64_t canonical_shares = 0;  // new spelling adopted an existing plan
    uint64_t evictions = 0;       // LRU source entries dropped
    uint64_t failures = 0;        // compiles that returned an error
    size_t entries = 0;           // current source entries
    /// Private dedup-level entries (bounded: see .cc). Always 0 when a
    /// shared CanonicalPlanLevel is attached — ask the level instead.
    size_t canonical_entries = 0;
  };

  /// `registry` is where the cache publishes its metrics
  /// (xpe_plan_cache_{hits,misses,evictions,canonical_shares,failures}
  /// _total counters and the xpe_plan_cache_compile_us histogram);
  /// defaults to the process-wide obs::Registry::Global(). The counters
  /// mirror stats() — stats() stays the exact per-cache view, the
  /// registry aggregates across caches for the exporters.
  ///
  /// `canonical` switches the dedup level to the given shared
  /// CanonicalPlanLevel (see the class comment); null keeps the
  /// private per-cache level.
  explicit PlanCache(size_t capacity = 1024,
                     xpath::CompileOptions compile_options = {},
                     obs::Registry* registry = nullptr,
                     CanonicalPlanLevel* canonical = nullptr)
      : capacity_(capacity == 0 ? 1 : capacity),
        compile_options_(std::move(compile_options)),
        canonical_level_(canonical) {
    obs::Registry& r =
        registry != nullptr ? *registry : obs::Registry::Global();
    hits_metric_ = r.GetCounter("xpe_plan_cache_hits_total");
    misses_metric_ = r.GetCounter("xpe_plan_cache_misses_total");
    evictions_metric_ = r.GetCounter("xpe_plan_cache_evictions_total");
    canonical_shares_metric_ =
        r.GetCounter("xpe_plan_cache_canonical_shares_total");
    failures_metric_ = r.GetCounter("xpe_plan_cache_failures_total");
    compile_us_metric_ = r.GetHistogram("xpe_plan_cache_compile_us");
  }

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan for `query`, compiling and inserting on
  /// miss. If another caller is already compiling `query`, waits for
  /// that compile and returns its outcome (counted as a hit). Compile
  /// errors are returned to the compiling caller and every waiter, and
  /// never cached (a transiently mistyped query must not poison the
  /// cache). If `cache_hit` is non-null it is set to whether this call
  /// returned without compiling.
  StatusOr<SharedPlan> GetOrCompile(std::string_view query,
                                    bool* cache_hit = nullptr);

  /// GetOrCompile wrapped in the xpe::Query facade: the serving pattern
  /// "shared cached plan + private session" in one call. The returned
  /// Query shares the cached plan (eviction-safe — the shared_ptr keeps
  /// it alive) and owns a fresh Evaluator session, so it is ready for
  /// the typed verbs (Exists/First/Count/...) on the calling thread.
  StatusOr<Query> GetOrCompileQuery(std::string_view query,
                                    bool* cache_hit = nullptr) {
    XPE_ASSIGN_OR_RETURN(SharedPlan plan, GetOrCompile(query, cache_hit));
    return Query(std::move(plan));
  }

  /// Source-text lookup without compiling; nullptr on miss. Counts as a
  /// hit/miss in stats().
  SharedPlan Lookup(std::string_view query);

  /// Pre-compiles `query` (e.g. a server warming its known workload).
  Status Warm(std::string_view query) {
    return GetOrCompile(query).status();
  }

  void Clear();

  Stats stats() const;
  size_t capacity() const { return capacity_; }

 private:
  // LRU order, most recent at front. The list owns each entry's source
  // key; the maps hold views/iterators into it.
  struct Entry {
    std::string source;
    SharedPlan plan;
  };
  using LruList = std::list<Entry>;

  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  /// Inserts `plan` under `source`, deduplicating against the canonical
  /// level and evicting LRU entries beyond capacity. Returns the plan to
  /// use (ours, or the already-cached equivalent). Lock must be held.
  SharedPlan InsertLocked(std::string_view source, SharedPlan plan);

  const size_t capacity_;
  const xpath::CompileOptions compile_options_;
  /// Shared cross-cache dedup level; null = use by_canonical_ below.
  CanonicalPlanLevel* const canonical_level_ = nullptr;

  // Registry metrics, resolved once at construction (never null).
  obs::Counter* hits_metric_;
  obs::Counter* misses_metric_;
  obs::Counter* evictions_metric_;
  obs::Counter* canonical_shares_metric_;
  obs::Counter* failures_metric_;
  obs::Histogram* compile_us_metric_;

  mutable std::mutex mu_;
  /// Compiles in progress, by source text; each waiter holds a copy of
  /// the future.
  std::unordered_map<std::string, std::shared_future<StatusOr<SharedPlan>>,
                     StringHash, std::equal_to<>>
      in_flight_;
  LruList lru_;
  std::unordered_map<std::string_view, LruList::iterator, StringHash,
                     std::equal_to<>>
      by_source_;
  std::unordered_map<std::string, std::weak_ptr<const xpath::CompiledQuery>,
                     StringHash, std::equal_to<>>
      by_canonical_;
  Stats stats_;
};

}  // namespace xpe::batch

#endif  // XPE_BATCH_PLAN_CACHE_H_
