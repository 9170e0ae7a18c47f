#ifndef XPE_SERVE_ADMISSION_H_
#define XPE_SERVE_ADMISSION_H_

#include <atomic>
#include <cstdint>
#include <optional>

#include "src/obs/metrics.h"

namespace xpe::serve {

/// Admission policy for the query endpoint, built on the engines'
/// EvalOptions::budget (docs/operations.md#admission-control):
///  - `max_inflight` bounds concurrently admitted queries — beyond it
///    the server answers 429 immediately instead of queueing unbounded
///    work (shed early, at the cheapest point);
///  - `default_budget` is applied to requests that don't name one, and
///    `max_budget` caps what any request may ask for, so one tenant's
///    pathological query is cut off by kResourceExhausted (HTTP 422)
///    after a bounded number of (step × frontier-node) charge units
///    rather than occupying a handler thread indefinitely.
struct AdmissionOptions {
  /// Concurrently admitted /query requests; <= 0 admits nothing (every
  /// query gets 429 — the deterministic overload arm of serve_test).
  int max_inflight = 256;
  /// Budget for requests without one. 0 = unlimited — fine for trusted
  /// corpora; production configs should set it (capacity notes in
  /// docs/operations.md).
  uint64_t default_budget = 0;
  /// Upper bound on any per-request budget; requested values above it
  /// are clamped (never rejected — the cap is a protection, not a
  /// schema rule). 0 = no cap.
  uint64_t max_budget = 0;
};

/// Decides, per request, whether work enters the evaluation pipeline.
/// All fast-path state is a single atomic; the controller is shared by
/// every connection thread without locks.
class AdmissionController {
 public:
  /// `registry` receives xpe_serve_admission_* metrics; null means
  /// obs::Registry::Global().
  explicit AdmissionController(const AdmissionOptions& options,
                               obs::Registry* registry = nullptr);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// An admitted request's slot, released on destruction (RAII — error
  /// paths in the handler can't leak capacity).
  class Ticket {
   public:
    Ticket() = default;
    ~Ticket() { Release(); }
    Ticket(Ticket&& other) noexcept : controller_(other.controller_) {
      other.controller_ = nullptr;
    }
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        Release();
        controller_ = other.controller_;
        other.controller_ = nullptr;
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

   private:
    friend class AdmissionController;
    explicit Ticket(AdmissionController* controller)
        : controller_(controller) {}
    void Release() {
      if (controller_ != nullptr) {
        controller_->inflight_.fetch_sub(1, std::memory_order_relaxed);
        controller_ = nullptr;
      }
    }
    AdmissionController* controller_ = nullptr;
  };

  /// Admits one request, or returns nullopt when the in-flight bound is
  /// reached (the caller answers 429).
  std::optional<Ticket> TryAdmit();

  /// The effective budget for a request: `requested` (0 = not named)
  /// resolved against default_budget and clamped to max_budget.
  uint64_t EffectiveBudget(uint64_t requested) const;

  int inflight() const { return inflight_.load(std::memory_order_relaxed); }
  const AdmissionOptions& options() const { return options_; }

 private:
  const AdmissionOptions options_;
  std::atomic<int> inflight_{0};

  obs::Counter* admitted_total_;
  obs::Counter* rejected_total_;
  obs::Counter* inflight_peak_;
};

}  // namespace xpe::serve

#endif  // XPE_SERVE_ADMISSION_H_
