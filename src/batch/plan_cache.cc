#include "src/batch/plan_cache.h"

#include <algorithm>
#include <utility>

#include "src/obs/clock.h"

namespace xpe::batch {

CanonicalPlanLevel& CanonicalPlanLevel::Global() {
  static CanonicalPlanLevel* level = new CanonicalPlanLevel();  // leaked
  return *level;
}

SharedPlan CanonicalPlanLevel::Adopt(SharedPlan plan) {
  const std::string& key = plan->canonical_key();
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.map.find(key);
  if (it != stripe.map.end()) {
    if (SharedPlan existing = it->second.lock()) return existing;
    it->second = plan;  // expired: re-publish ours under the same key
    return plan;
  }
  stripe.map.emplace(key, plan);
  if (stripe.map.size() > stripe.sweep_watermark) {
    for (auto sweep = stripe.map.begin(); sweep != stripe.map.end();) {
      sweep = sweep->second.expired() ? stripe.map.erase(sweep)
                                      : std::next(sweep);
    }
    stripe.sweep_watermark = std::max<size_t>(64, stripe.map.size() * 2);
  }
  return plan;
}

size_t CanonicalPlanLevel::live_entries() const {
  size_t live = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const auto& [key, weak] : stripe.map) {
      if (!weak.expired()) ++live;
    }
  }
  return live;
}

size_t CanonicalPlanLevel::SweepExpired() {
  size_t removed = 0;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (auto it = stripe.map.begin(); it != stripe.map.end();) {
      if (it->second.expired()) {
        it = stripe.map.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
  }
  return removed;
}

SharedPlan PlanCache::Lookup(std::string_view query) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_source_.find(query);
  if (it == by_source_.end()) {
    ++stats_.misses;
    misses_metric_->Increment();
    return nullptr;
  }
  ++stats_.hits;
  hits_metric_->Increment();
  lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to front
  return it->second->plan;
}

StatusOr<SharedPlan> PlanCache::GetOrCompile(std::string_view query,
                                             bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  std::promise<StatusOr<SharedPlan>> outcome;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = by_source_.find(query);
    if (it != by_source_.end()) {
      ++stats_.hits;
      hits_metric_->Increment();
      lru_.splice(lru_.begin(), lru_, it->second);
      if (cache_hit != nullptr) *cache_hit = true;
      return it->second->plan;
    }
    auto pending = in_flight_.find(query);
    if (pending != in_flight_.end()) {
      ++stats_.hits;
      hits_metric_->Increment();
      std::shared_future<StatusOr<SharedPlan>> compiling = pending->second;
      lock.unlock();
      if (cache_hit != nullptr) *cache_hit = true;
      return compiling.get();
    }
    ++stats_.misses;
    misses_metric_->Increment();
    in_flight_.emplace(std::string(query), outcome.get_future().share());
  }

  // Compile outside the lock: parsing a pathological query must not
  // stall every other thread's cache hit.
  const uint64_t compile_t0 = obs::MonotonicNanos();
  StatusOr<xpath::CompiledQuery> compiled =
      xpath::Compile(query, compile_options_);
  compile_us_metric_->Record((obs::MonotonicNanos() - compile_t0) / 1000);
  StatusOr<SharedPlan> result =
      compiled.ok() ? StatusOr<SharedPlan>(
                          std::make_shared<const xpath::CompiledQuery>(
                              std::move(compiled).value()))
                    : StatusOr<SharedPlan>(compiled.status());
  {
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_.erase(in_flight_.find(query));
    if (result.ok()) {
      result = InsertLocked(query, std::move(result).value());
    } else {
      ++stats_.failures;
      failures_metric_->Increment();
    }
  }
  // Waiters read the outcome through their shared_future copies.
  outcome.set_value(result);
  return result;
}

SharedPlan PlanCache::InsertLocked(std::string_view source, SharedPlan plan) {
  // Canonical dedup: a different spelling of an already-cached query
  // shares the existing plan object (weak_ptr: eviction of the last
  // source alias really frees the plan once evaluations finish). With a
  // shared CanonicalPlanLevel the dedup domain is process-wide and
  // lock-striped; Adopt() is self-contained, so calling it under mu_
  // cannot deadlock.
  if (canonical_level_ != nullptr) {
    SharedPlan adopted = canonical_level_->Adopt(plan);
    if (adopted != plan) {
      ++stats_.canonical_shares;
      canonical_shares_metric_->Increment();
      plan = std::move(adopted);
    }
  } else {
    auto canon = by_canonical_.find(plan->canonical_key());
    if (canon != by_canonical_.end()) {
      if (SharedPlan existing = canon->second.lock()) {
        ++stats_.canonical_shares;
        canonical_shares_metric_->Increment();
        plan = std::move(existing);
      } else {
        canon->second = plan;  // expired: re-publish ours
      }
    } else {
      by_canonical_.emplace(plan->canonical_key(), plan);
    }
  }

  lru_.push_front(Entry{std::string(source), plan});
  by_source_.emplace(std::string_view(lru_.front().source), lru_.begin());

  while (by_source_.size() > capacity_) {
    Entry& victim = lru_.back();
    by_source_.erase(std::string_view(victim.source));
    std::string canonical = victim.plan->canonical_key();
    lru_.pop_back();  // may release the last strong reference
    // Drop the canonical entry once no alias or in-flight evaluation
    // keeps the plan alive; live weak entries stay sharable.
    auto vc = by_canonical_.find(canonical);
    if (vc != by_canonical_.end() && vc->second.expired()) {
      by_canonical_.erase(vc);
    }
    ++stats_.evictions;
    evictions_metric_->Increment();
  }
  // The canonical level must stay bounded too: an evicted plan kept
  // alive by an in-flight holder leaves a live weak entry behind, and
  // once that holder drops nothing would ever revisit the key. Sweep
  // all expired entries whenever the map outgrows everything that can
  // legitimately back it (cached aliases + one round of capacity).
  if (by_canonical_.size() > by_source_.size() + capacity_) {
    for (auto it = by_canonical_.begin(); it != by_canonical_.end();) {
      it = it->second.expired() ? by_canonical_.erase(it) : std::next(it);
    }
  }
  stats_.entries = by_source_.size();
  return plan;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  by_source_.clear();
  by_canonical_.clear();
  lru_.clear();
  stats_.entries = 0;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = by_source_.size();
  s.canonical_entries = by_canonical_.size();
  return s;
}

}  // namespace xpe::batch
