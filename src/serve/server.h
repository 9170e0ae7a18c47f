#ifndef XPE_SERVE_SERVER_H_
#define XPE_SERVE_SERVER_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/batch/plan_cache.h"
#include "src/core/engine.h"
#include "src/core/evaluator.h"
#include "src/obs/metrics.h"
#include "src/serve/admission.h"
#include "src/serve/document_store.h"
#include "src/serve/http.h"

namespace xpe::serve {

/// Configuration for a serve::Server (RocksDB-style options struct).
/// Every field has a loopback-demo-safe default; docs/operations.md has
/// the capacity-planning guidance for production values.
struct ServeOptions {
  /// Listen address. Defaults to loopback — exposing the server beyond
  /// the host is an explicit decision (no TLS/auth in this tier; put it
  /// behind a terminating proxy).
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port, readable via Server::port()
  /// (how tests and the bench run collision-free).
  int port = 0;

  /// Connection-handler threads. Each admitted connection is pinned to
  /// one handler for its keep-alive lifetime, so this bounds concurrent
  /// connections; arrivals beyond it queue in accept_backlog and are
  /// answered 503 when that overflows (connection-level shedding —
  /// request-level shedding is `admission`). Handlers evaluate their
  /// own queries, so this also bounds concurrent evaluations.
  int io_threads = 8;
  /// Pending accepted connections awaiting a free handler.
  size_t accept_backlog = 64;

  /// Request-level admission control (429) and budget caps (422).
  AdmissionOptions admission;

  /// Per-tenant PlanCache capacity (distinct source texts per tenant).
  /// All tenant caches share `canonical` (below), so capacity isolation
  /// never duplicates equivalent compiled plans across tenants.
  size_t plan_cache_capacity = 256;
  /// Cross-tenant canonical dedup level; null = the process-wide
  /// CanonicalPlanLevel::Global().
  batch::CanonicalPlanLevel* canonical = nullptr;

  /// Base evaluation options for every request (engine, use_index,
  /// parallel defaults). Per-request fields — budget, result mode,
  /// parallel, index tier — are overlaid per request. The stats and
  /// profile sinks must be null: every handler would write them
  /// concurrently, so Start() refuses them.
  EvalOptions eval;
  /// Variable bindings for every tenant's compiles. One binding
  /// environment per server — canonical keys don't encode bindings.
  xpath::CompileOptions compile;

  /// HTTP input bounds: oversized heads → 431, oversized bodies → 413.
  HttpLimits limits;

  /// Where every subsystem below this server publishes its metrics —
  /// xpe_serve_* (server, store, admission), xpe_plan_cache_* (tenant
  /// caches), xpe_session_* (the handlers' evaluation sessions).
  /// GET /metrics renders exactly this registry. Null = Global().
  obs::Registry* registry = nullptr;
};

/// The network front door over the engines: a minimal embedded HTTP/1.1
/// server (blocking accept loop, fixed handler threads, no third-party
/// dependencies). Each handler evaluates its own admitted queries on its
/// own pooled Evaluator session — inter-query parallelism over shared
/// read-only documents needs no coordinator thread.
///
/// Endpoints (full schemas and curl examples in docs/http_api.md):
///   POST   /query             evaluate an XPath against a named doc
///   GET    /healthz           liveness + corpus summary
///   GET    /metrics           Prometheus text exposition
///   GET    /metrics.json      the same registry as JSON
///   GET    /documents         list names/versions/sizes
///   PUT    /documents/{name}  parse + warm + hot-swap publish (XML body)
///   DELETE /documents/{name}  remove (in-flight queries finish safely)
///
/// Request lifecycle (docs/architecture.md#one-request): handler thread
/// parses HTTP + JSON → admission ticket (429 beyond max_inflight) →
/// document handle resolved in the DocumentStore (404) → plan resolved
/// in the tenant's PlanCache (400 on compile errors, before any engine
/// work) → the handler's session evaluates the plan with the request's
/// budget, mode, parallelism and tier overlaid → the handler renders the
/// result (or 422 on budget exhaustion) and answers.
///
/// Threads: 1 acceptor + io_threads handlers (intra-query parallelism
/// borrows the process-wide exec::Executor). Stop() (and the destructor)
/// stops accepting, lets each handler finish the request it is
/// evaluating, and joins everything — no detached threads, which is what
/// keeps serve_test clean under the TSan CI wall.
class Server {
 public:
  explicit Server(ServeOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the serving threads. Returns the bind
  /// error on failure (port in use, bad address), and InvalidArgument
  /// when options.eval carries a stats or profile sink. Idempotence: a
  /// second Start on a running server is an error.
  Status Start();

  /// Stops accepting, completes in-flight work, joins all threads.
  /// Safe to call twice; the destructor calls it.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (after Start); with options.port == 0 this is the
  /// kernel-chosen ephemeral port.
  int port() const { return port_; }

  /// The corpus. Typically seeded before Start(); PUT /documents is the
  /// network path to the same store.
  DocumentStore& documents() { return documents_; }

  obs::Registry& registry() { return *registry_; }

  /// The tenant's plan-cache stats (creates the cache if new) — for
  /// tests and introspection.
  batch::PlanCache::Stats TenantCacheStats(const std::string& tenant);

 private:
  void AcceptLoop();
  void HandlerLoop();

  /// Serves one connection's keep-alive lifetime; `session` is the
  /// calling handler's own, so no two threads ever share one.
  void ServeConnection(int fd, Evaluator& session);
  HttpResponse Route(const HttpRequest& request, Evaluator& session);
  HttpResponse HandleQuery(const HttpRequest& request, Evaluator& session);
  HttpResponse HandleAnalyze(const HttpRequest& request);
  HttpResponse HandleHealth();
  HttpResponse HandleMetrics(bool json);
  HttpResponse HandleDocumentList();
  HttpResponse HandleDocumentPut(std::string_view name,
                                 const HttpRequest& request);
  HttpResponse HandleDocumentDelete(std::string_view name);

  batch::PlanCache& TenantCache(const std::string& tenant);
  int handler_count() const { return std::max(1, options_.io_threads); }

  const ServeOptions options_;
  obs::Registry* registry_;  // resolved in the constructor, never null
  batch::CanonicalPlanLevel* canonical_;  // likewise
  DocumentStore documents_;
  AdmissionController admission_;

  // Serve-tier metrics, resolved once at construction.
  obs::Counter* requests_total_;
  obs::Counter* responses_2xx_total_;
  obs::Counter* responses_4xx_total_;
  obs::Counter* responses_5xx_total_;
  obs::Counter* connections_total_;
  obs::Counter* connections_shed_total_;
  obs::Histogram* request_us_;

  // Per-tenant plan caches (created on first use, never dropped — the
  // tenant id space is expected to be small and operator-controlled).
  std::mutex tenants_mu_;
  std::unordered_map<std::string, std::unique_ptr<batch::PlanCache>> tenants_;

  // Accepted connections waiting for a handler.
  std::mutex conns_mu_;
  std::condition_variable conns_cv_;
  std::deque<int> pending_conns_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  int port_ = 0;
  Listener listener_;
  std::thread acceptor_;
  std::vector<std::thread> handlers_;
};

}  // namespace xpe::serve

#endif  // XPE_SERVE_SERVER_H_
