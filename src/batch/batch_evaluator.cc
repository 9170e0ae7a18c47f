#include "src/batch/batch_evaluator.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "src/obs/clock.h"

namespace xpe::batch {

namespace {

/// Race-free aggregation semantics: counters sum, high-water marks max
/// (a batch's peak is the largest any single worker saw, since workers
/// have disjoint arenas).
void MergeEvalStats(EvalStats* agg, const EvalStats& s) {
  agg->cells_allocated += s.cells_allocated;
  agg->cells_live += s.cells_live;
  agg->cells_peak = std::max(agg->cells_peak, s.cells_peak);
  agg->contexts_evaluated += s.contexts_evaluated;
  agg->axis_evals += s.axis_evals;
  agg->indexed_steps += s.indexed_steps;
  agg->nodes_visited += s.nodes_visited;
  agg->arena_bytes_peak = std::max(agg->arena_bytes_peak, s.arena_bytes_peak);
  agg->count_fast_path += s.count_fast_path;
  agg->pruned_by_summary += s.pruned_by_summary;
  agg->budget_trips += s.budget_trips;
}

int ResolveWorkerCount(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

/// In-flight batch state. Owned by EvaluateAll's stack frame; workers
/// only touch it between the submit and done handshakes. Work is
/// distributed by an atomic cursor (workers steal the next unclaimed
/// item), results land in pre-sized per-item slots — which is what makes
/// output ordering deterministic under any schedule.
struct BatchEvaluator::Batch {
  const std::vector<BatchItem>* items = nullptr;
  std::vector<BatchResult>* results = nullptr;
  std::atomic<size_t> next{0};
  uint64_t submit_ns = 0;  // set before workers are woken; read-only after
  int active_workers = 0;  // guarded by BatchEvaluator::mu_
  BatchStats stats;        // guarded by BatchEvaluator::mu_
};

BatchEvaluator::BatchEvaluator(const BatchOptions& options)
    : options_(options),
      registry_(options.registry != nullptr ? options.registry
                                            : &obs::Registry::Global()),
      cache_(std::make_unique<PlanCache>(options.plan_cache_capacity,
                                         options.compile, registry_)) {
  // One sink written by every worker is a data race by construction;
  // refusing loudly beats silently dropping the caller's sink (which is
  // what this code used to do). Aggregated counters are in
  // last_batch_stats() and the registry.
  if (options.eval.stats != nullptr || options.eval.profile != nullptr) {
    fprintf(stderr,
            "xpe::batch::BatchOptions::eval carries a %s sink: one sink "
            "shared by every worker thread is a data race. Use "
            "last_batch_stats() / BatchOptions::registry for aggregated "
            "counters.\n",
            options.eval.stats != nullptr ? "stats" : "profile");
    fflush(stderr);
    std::abort();
  }
  items_total_ = registry_->GetCounter("xpe_batch_items_total");
  errors_total_ = registry_->GetCounter("xpe_batch_errors_total");
  item_latency_us_ = registry_->GetHistogram("xpe_batch_item_latency_us");
  queue_wait_us_ = registry_->GetHistogram("xpe_batch_queue_wait_us");
  worker_utilization_pct_ =
      registry_->GetHistogram("xpe_batch_worker_utilization_pct");
  const int n = ResolveWorkerCount(options.workers);
  sessions_.reserve(n);
  threads_.reserve(n);
  for (int i = 0; i < n; ++i) {
    sessions_.push_back(std::make_unique<Evaluator>());
    sessions_.back()->AttachMetrics(registry_);
  }
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

BatchEvaluator::~BatchEvaluator() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  submit_.notify_all();
  for (std::thread& t : threads_) t.join();
}

BatchStats BatchEvaluator::last_batch_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_stats_;
}

std::vector<BatchResult> BatchEvaluator::EvaluateAll(
    const std::vector<BatchItem>& items) {
  // One batch at a time; concurrent callers queue here.
  std::lock_guard<std::mutex> batch_lock(batch_mu_);

  std::vector<const xml::Document*> docs;
  for (const BatchItem& item : items) {
    if (item.doc != nullptr) docs.push_back(item.doc);
  }
  std::sort(docs.begin(), docs.end());
  docs.erase(std::unique(docs.begin(), docs.end()), docs.end());
  for (const xml::Document* doc : docs) doc->WarmCaches();

  std::vector<BatchResult> results(items.size());
  Batch batch;
  batch.items = &items;
  batch.results = &results;
  batch.submit_ns = obs::MonotonicNanos();
  batch.active_workers = workers();

  {
    std::lock_guard<std::mutex> lock(mu_);
    batch_ = &batch;
    ++generation_;
  }
  submit_.notify_all();

  {
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [&] { return batch.active_workers == 0; });
    batch_ = nullptr;
    last_stats_ = batch.stats;
  }
  return results;
}

void BatchEvaluator::WorkerLoop(int worker_index) {
  Evaluator& session = *sessions_[worker_index];
  uint64_t seen_generation = 0;
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      submit_.wait(lock, [&] {
        return shutdown_ ||
               (batch_ != nullptr && generation_ != seen_generation);
      });
      if (shutdown_) return;
      batch = batch_;
      seen_generation = generation_;
    }

    // Thread-local accumulation; merged once under the lock below.
    BatchStats local;
    uint64_t busy_ns = 0;
    for (;;) {
      const size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch->items->size()) break;
      const BatchItem& item = (*batch->items)[i];
      BatchResult& out = (*batch->results)[i];
      ++local.items;
      // Queue wait: submit-to-claim. Under a full pool this is the
      // scheduling backlog an arriving item sees.
      const uint64_t claim_ns = obs::MonotonicNanos();
      queue_wait_us_->Record((claim_ns - batch->submit_ns) / 1000);

      if (item.doc == nullptr) {
        out.value = Status::InvalidArgument("BatchItem::doc is null");
        ++local.errors;
        continue;
      }
      StatusOr<SharedPlan> plan =
          cache_->GetOrCompile(item.query, &out.cache_hit);
      if (out.cache_hit) {
        ++local.plan_cache_hits;
      } else {
        ++local.plan_cache_misses;
      }
      if (!plan.ok()) {
        out.value = plan.status();
        ++local.errors;
        const uint64_t done_ns = obs::MonotonicNanos();
        item_latency_us_->Record((done_ns - claim_ns) / 1000);
        busy_ns += done_ns - claim_ns;
        continue;
      }

      EvalOptions opts = options_.eval;
      EvalStats item_stats;
      opts.stats = &item_stats;
      opts.result = item.result;  // per-item result shape (BatchItem)
      out.value = session.Evaluate(**plan, *item.doc, item.context, opts);
      MergeEvalStats(&local.eval, item_stats);
      if (!out.value.ok()) ++local.errors;
      const uint64_t done_ns = obs::MonotonicNanos();
      item_latency_us_->Record((done_ns - claim_ns) / 1000);
      busy_ns += done_ns - claim_ns;
    }
    // Utilization over this batch: item work as a share of the worker's
    // submit-to-drain wall time (a starved worker in a skewed batch
    // shows up as a low bucket here).
    if (local.items > 0) {
      const uint64_t elapsed_ns = obs::MonotonicNanos() - batch->submit_ns;
      worker_utilization_pct_->Record(
          elapsed_ns == 0 ? 100 : busy_ns * 100 / elapsed_ns);
    }
    items_total_->Add(local.items);
    errors_total_->Add(local.errors);

    {
      std::lock_guard<std::mutex> lock(mu_);
      MergeEvalStats(&batch->stats.eval, local.eval);
      batch->stats.items += local.items;
      batch->stats.errors += local.errors;
      batch->stats.plan_cache_hits += local.plan_cache_hits;
      batch->stats.plan_cache_misses += local.plan_cache_misses;
      if (--batch->active_workers == 0) done_.notify_all();
    }
  }
}

}  // namespace xpe::batch
