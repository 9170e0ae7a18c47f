#include "src/serve/server.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "src/analyze/diagnostics.h"
#include "src/analyze/satisfiability.h"
#include "src/analyze/summary.h"
#include "src/obs/clock.h"
#include "src/obs/export.h"
#include "src/serve/json.h"
#include "src/xml/parser.h"

namespace xpe::serve {

namespace {

/// How much result data one response may carry; the full node-set stays
/// available through count/limit semantics, this only bounds rendering
/// (docs/http_api.md#response-size-bounds).
constexpr size_t kMaxRenderedNodes = 1000;
constexpr size_t kMaxStringValue = 256;

/// StatusCode → HTTP status for evaluation/compile errors. 422 for
/// budget exhaustion is deliberate: the request was well-formed, the
/// server refused to process it to completion (admission semantics in
/// docs/operations.md).
int HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kParseError:
    case StatusCode::kInvalidQuery:
    case StatusCode::kUnsupported:
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kResourceExhausted:
      return 422;
    default:
      return 500;
  }
}

HttpResponse ErrorResponse(int http_status, std::string_view code,
                           std::string_view message) {
  Json error = Json::Obj();
  error.Set("code", Json::Str(std::string(code)));
  error.Set("message", Json::Str(std::string(message)));
  Json body = Json::Obj();
  body.Set("error", std::move(error));
  HttpResponse response;
  response.status = http_status;
  response.body = body.Dump();
  return response;
}

HttpResponse ErrorResponse(const Status& status) {
  return ErrorResponse(HttpStatusFor(status.code()),
                       StatusCodeToString(status.code()), status.ToString());
}

/// Value of `key` in the request target's query string
/// ("/documents/a?index_tier=dense" → "dense"), or empty when absent.
/// No %-decoding: the parameters this API accepts are plain tokens.
std::string_view QueryParam(std::string_view target, std::string_view key) {
  const size_t q = target.find('?');
  if (q == std::string_view::npos) return {};
  std::string_view rest = target.substr(q + 1);
  while (!rest.empty()) {
    const size_t amp = rest.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? rest : rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view{}
                                         : rest.substr(amp + 1);
    const size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
  }
  return {};
}

bool ParseResultMode(std::string_view name, ResultMode* mode) {
  if (name == "full") {
    *mode = ResultMode::kFull;
  } else if (name == "first") {
    *mode = ResultMode::kFirst;
  } else if (name == "exists") {
    *mode = ResultMode::kExists;
  } else if (name == "count") {
    *mode = ResultMode::kCount;
  } else if (name == "limit") {
    *mode = ResultMode::kLimit;
  } else {
    return false;
  }
  return true;
}

/// One result node as the API renders it: id (document-order position,
/// stable for a document version), name, and a bounded string-value.
Json RenderNode(const xml::Document& doc, xml::NodeId id) {
  Json node = Json::Obj();
  node.Set("id", Json::Number(static_cast<double>(id)));
  node.Set("name", Json::Str(std::string(doc.name(id))));
  std::string value = doc.StringValue(id);
  if (value.size() > kMaxStringValue) {
    value.resize(kMaxStringValue);
    node.Set("string_truncated", Json::Bool(true));
  }
  node.Set("string", Json::Str(std::move(value)));
  return node;
}

Json RenderValue(const Value& value, const xml::Document& doc) {
  Json out = Json::Obj();
  switch (value.type()) {
    case ValueType::kNodeSet: {
      const NodeSet& nodes = value.node_set();
      out.Set("type", Json::Str("node-set"));
      out.Set("count", Json::Number(static_cast<double>(nodes.size())));
      Json::Array rendered;
      rendered.reserve(std::min(nodes.size(), kMaxRenderedNodes));
      for (xml::NodeId id : nodes) {
        if (rendered.size() >= kMaxRenderedNodes) {
          out.Set("nodes_truncated", Json::Bool(true));
          break;
        }
        rendered.push_back(RenderNode(doc, id));
      }
      out.Set("nodes", Json::Arr(std::move(rendered)));
      break;
    }
    case ValueType::kBoolean:
      out.Set("type", Json::Str("boolean"));
      out.Set("value", Json::Bool(value.boolean()));
      break;
    case ValueType::kNumber:
      out.Set("type", Json::Str("number"));
      out.Set("value", Json::Number(value.number()));
      break;
    case ValueType::kString:
      out.Set("type", Json::Str("string"));
      out.Set("value", Json::Str(value.string()));
      break;
  }
  return out;
}

/// Typed field extraction with precise 400 messages. A missing optional
/// field returns true with *out untouched.
bool FieldString(const Json& body, std::string_view key, bool required,
                 std::string* out, std::string* error) {
  const Json* field = body.Find(key);
  if (field == nullptr) {
    if (required) *error = "missing required field \"" + std::string(key) + '"';
    return !required;
  }
  if (!field->is_string()) {
    *error = "field \"" + std::string(key) + "\" must be a string";
    return false;
  }
  *out = field->string();
  return true;
}

bool FieldUint(const Json& body, std::string_view key, uint64_t* out,
               std::string* error) {
  const Json* field = body.Find(key);
  if (field == nullptr) return true;
  if (!field->is_number() || field->number() < 0 ||
      field->number() != field->number() ||  // NaN
      field->number() > 9.007199254740992e15) {
    *error = "field \"" + std::string(key) +
             "\" must be a non-negative integer";
    return false;
  }
  *out = static_cast<uint64_t>(field->number());
  return true;
}

bool FieldBool(const Json& body, std::string_view key, bool* out,
               std::string* error) {
  const Json* field = body.Find(key);
  if (field == nullptr) return true;
  if (!field->is_bool()) {
    *error = "field \"" + std::string(key) + "\" must be a boolean";
    return false;
  }
  *out = field->boolean();
  return true;
}

/// The body of GET /documents/{name} and one entry of GET /documents.
Json InfoJson(const DocumentStore::Info& info) {
  auto number = [](uint64_t v) { return Json::Number(static_cast<double>(v)); };
  Json out = Json::Obj();
  out.Set("name", Json::Str(info.name));
  out.Set("version", number(info.version));
  out.Set("nodes", number(info.nodes));
  out.Set("index_tier", Json::Str(index::IndexTierToString(info.index_tier)));
  out.Set("index_bytes", number(info.index_bytes));
  out.Set("summary_bytes", number(info.summary_bytes));
  out.Set("id_axis_bytes", number(info.id_axis_bytes));
  return out;
}

}  // namespace

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      registry_(options_.registry != nullptr ? options_.registry
                                             : &obs::Registry::Global()),
      canonical_(options_.canonical != nullptr
                     ? options_.canonical
                     : &batch::CanonicalPlanLevel::Global()),
      documents_(registry_),
      admission_(options_.admission, registry_) {
  requests_total_ = registry_->GetCounter("xpe_serve_requests_total");
  responses_2xx_total_ = registry_->GetCounter("xpe_serve_responses_2xx_total");
  responses_4xx_total_ = registry_->GetCounter("xpe_serve_responses_4xx_total");
  responses_5xx_total_ = registry_->GetCounter("xpe_serve_responses_5xx_total");
  connections_total_ = registry_->GetCounter("xpe_serve_connections_total");
  connections_shed_total_ =
      registry_->GetCounter("xpe_serve_connections_shed_total");
  request_us_ = registry_->GetHistogram("xpe_serve_request_us");
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already running");
  }
  if (options_.eval.stats != nullptr || options_.eval.profile != nullptr) {
    return Status::InvalidArgument(
        "ServeOptions::eval must not carry a stats or profile sink: every "
        "handler thread would write it concurrently");
  }
  stop_.store(false, std::memory_order_release);

  XPE_ASSIGN_OR_RETURN(listener_,
                       Listener::Bind(options_.host, options_.port));
  port_ = listener_.port();

  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  handlers_.reserve(handler_count());
  for (int i = 0; i < handler_count(); ++i) {
    handlers_.emplace_back([this] { HandlerLoop(); });
  }
  return Status::OK();
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    // Set under the connection lock so no idle handler can observe
    // stop_ false and then sleep through the notify below.
    std::lock_guard<std::mutex> lock(conns_mu_);
    stop_.store(true, std::memory_order_release);
  }
  listener_.Close();  // wakes the acceptor
  conns_cv_.notify_all();

  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& handler : handlers_) {
    if (handler.joinable()) handler.join();
  }
  handlers_.clear();

  // Connections accepted but never claimed by a handler.
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (const int fd : pending_conns_) close(fd);
  pending_conns_.clear();
}

void Server::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    const int fd = listener_.Accept(&stop_);
    if (fd < 0) {
      if (stop_.load(std::memory_order_acquire)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (stop_.load(std::memory_order_acquire) ||
          pending_conns_.size() >= options_.accept_backlog) {
        shed = true;
      } else {
        pending_conns_.push_back(fd);
      }
    }
    if (shed) {
      // Connection-level shedding: every handler is pinned and the
      // hand-off queue is full. Answer 503 cheaply from the acceptor
      // instead of letting the connect back up invisibly.
      connections_shed_total_->Increment();
      HttpResponse response = ErrorResponse(
          503, "Overloaded", "no connection handler available; retry");
      response.close = true;
      WriteHttpResponse(fd, response);
      close(fd);
      continue;
    }
    conns_cv_.notify_one();
  }
}

void Server::HandlerLoop() {
  // This handler's evaluation session: its arena and scratch pools are
  // reused by every query the handler serves, and touched by no other
  // thread.
  Evaluator session;
  session.AttachMetrics(registry_);
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(conns_mu_);
      conns_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) ||
               !pending_conns_.empty();
      });
      if (stop_.load(std::memory_order_acquire)) return;
      fd = pending_conns_.front();
      pending_conns_.pop_front();
    }
    connections_total_->Increment();
    ServeConnection(fd, session);
    close(fd);
  }
}

void Server::ServeConnection(int fd, Evaluator& session) {
  std::string buffer;
  for (;;) {
    HttpRequest request;
    const HttpReadOutcome outcome =
        ReadHttpRequest(fd, options_.limits, &stop_, &request, &buffer);
    switch (outcome) {
      case HttpReadOutcome::kOk:
        break;
      case HttpReadOutcome::kMalformed: {
        HttpResponse response =
            ErrorResponse(400, "BadRequest", "malformed HTTP request");
        response.close = true;
        WriteHttpResponse(fd, response);
        return;
      }
      case HttpReadOutcome::kHeadTooLarge: {
        HttpResponse response = ErrorResponse(
            431, "HeadersTooLarge", "request head exceeds the size limit");
        response.close = true;
        WriteHttpResponse(fd, response);
        return;
      }
      case HttpReadOutcome::kBodyTooLarge: {
        HttpResponse response = ErrorResponse(
            413, "BodyTooLarge", "request body exceeds the size limit");
        response.close = true;
        WriteHttpResponse(fd, response);
        return;
      }
      case HttpReadOutcome::kClosed:
      case HttpReadOutcome::kStopped:
      case HttpReadOutcome::kError:
        return;
    }

    requests_total_->Increment();
    const uint64_t t0 = obs::MonotonicNanos();
    HttpResponse response = Route(request, session);
    request_us_->Record((obs::MonotonicNanos() - t0) / 1000);
    if (response.status >= 500) {
      responses_5xx_total_->Increment();
    } else if (response.status >= 400) {
      responses_4xx_total_->Increment();
    } else {
      responses_2xx_total_->Increment();
    }
    if (!request.KeepAlive()) response.close = true;
    if (!WriteHttpResponse(fd, response)) return;
    if (response.close) return;
  }
}

HttpResponse Server::Route(const HttpRequest& request, Evaluator& session) {
  const std::string_view path = request.path();
  if (path == "/query") {
    if (request.method != "POST") {
      return ErrorResponse(405, "MethodNotAllowed", "use POST /query");
    }
    return HandleQuery(request, session);
  }
  if (path == "/analyze") {
    if (request.method != "POST") {
      return ErrorResponse(405, "MethodNotAllowed", "use POST /analyze");
    }
    return HandleAnalyze(request);
  }
  if (path == "/healthz") {
    if (request.method != "GET") {
      return ErrorResponse(405, "MethodNotAllowed", "use GET /healthz");
    }
    return HandleHealth();
  }
  if (path == "/metrics" || path == "/metrics.json") {
    if (request.method != "GET") {
      return ErrorResponse(405, "MethodNotAllowed", "metrics are GET-only");
    }
    return HandleMetrics(/*json=*/path == "/metrics.json");
  }
  if (path == "/documents") {
    if (request.method != "GET") {
      return ErrorResponse(405, "MethodNotAllowed",
                           "use GET /documents, or PUT/DELETE "
                           "/documents/{name}");
    }
    return HandleDocumentList();
  }
  if (path.rfind("/documents/", 0) == 0) {
    const std::string_view name = path.substr(strlen("/documents/"));
    if (name.empty() || name.find('/') != std::string_view::npos) {
      return ErrorResponse(404, "NotFound", "document names are one segment");
    }
    if (request.method == "PUT") return HandleDocumentPut(name, request);
    if (request.method == "DELETE") return HandleDocumentDelete(name);
    if (request.method == "GET") {
      const DocumentHandle handle = documents_.Get(name);
      if (handle == nullptr) {
        return ErrorResponse(404, "NotFound",
                             "unknown document \"" + std::string(name) + '"');
      }
      HttpResponse response;
      response.body = InfoJson(DocumentStore::Describe(*handle)).Dump();
      return response;
    }
    return ErrorResponse(405, "MethodNotAllowed",
                         "use GET, PUT or DELETE on /documents/{name}");
  }
  return ErrorResponse(404, "NotFound",
                       "no such endpoint; see docs/http_api.md");
}

batch::PlanCache& Server::TenantCache(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    it = tenants_
             .emplace(tenant, std::make_unique<batch::PlanCache>(
                                  options_.plan_cache_capacity,
                                  options_.compile, registry_, canonical_))
             .first;
  }
  return *it->second;
}

batch::PlanCache::Stats Server::TenantCacheStats(const std::string& tenant) {
  return TenantCache(tenant).stats();
}

HttpResponse Server::HandleQuery(const HttpRequest& request,
                                 Evaluator& session) {
  StatusOr<Json> body = Json::Parse(request.body);
  if (!body.ok()) return ErrorResponse(body.status());
  if (!body->is_object()) {
    return ErrorResponse(400, "BadRequest", "request body must be an object");
  }

  std::string doc_name, xpath, mode_name = "full", tenant = "default";
  std::string tier_name;
  uint64_t limit = 0, budget = 0;
  bool parallel = options_.eval.parallel.enabled;
  std::string field_error;
  if (!FieldString(*body, "doc", /*required=*/true, &doc_name, &field_error) ||
      !FieldString(*body, "xpath", /*required=*/true, &xpath, &field_error) ||
      !FieldString(*body, "mode", /*required=*/false, &mode_name,
                   &field_error) ||
      !FieldString(*body, "tenant", /*required=*/false, &tenant,
                   &field_error) ||
      !FieldString(*body, "index_tier", /*required=*/false, &tier_name,
                   &field_error) ||
      !FieldUint(*body, "limit", &limit, &field_error) ||
      !FieldUint(*body, "budget", &budget, &field_error) ||
      !FieldBool(*body, "parallel", &parallel, &field_error)) {
    return ErrorResponse(400, "BadRequest", field_error);
  }
  ResultMode mode;
  if (!ParseResultMode(mode_name, &mode)) {
    return ErrorResponse(400, "BadRequest",
                         "unknown mode \"" + mode_name +
                             "\" (full|first|exists|count|limit)");
  }
  // Per-request tier override; the document's configured tier answers
  // when absent. An unconfigured tier builds lazily on first use, so
  // this is a latency knob, never an error.
  std::optional<index::IndexTier> tier_override;
  if (!tier_name.empty()) {
    index::IndexTier tier;
    if (!index::ParseIndexTier(tier_name, &tier)) {
      return ErrorResponse(400, "BadRequest",
                           "unknown index_tier \"" + tier_name +
                               "\" (hot|dense)");
    }
    tier_override = tier;
  }
  if (mode == ResultMode::kLimit && limit == 0) {
    return ErrorResponse(400, "BadRequest",
                         "mode \"limit\" requires \"limit\" >= 1");
  }

  // Admission before any engine-adjacent work: shedding must stay the
  // cheapest path through the server.
  std::optional<AdmissionController::Ticket> ticket = admission_.TryAdmit();
  if (!ticket.has_value()) {
    return ErrorResponse(429, "Overloaded",
                         "in-flight query limit reached; retry with backoff");
  }

  const DocumentHandle handle = documents_.Get(doc_name);
  if (handle == nullptr) {
    return ErrorResponse(404, "NotFound",
                         "unknown document \"" + doc_name + '"');
  }

  // Compile (or hit) in the tenant's cache. Compile errors answer here,
  // before any engine work.
  bool cache_hit = false;
  StatusOr<batch::SharedPlan> plan =
      TenantCache(tenant).GetOrCompile(xpath, &cache_hit);
  if (!plan.ok()) return ErrorResponse(plan.status());

  // Evaluate on this handler's session. The ticket and the handle stay
  // alive until this function returns, so the slot stays counted and the
  // document version stays pinned through rendering.
  EvalOptions eval = options_.eval;
  eval.budget = admission_.EffectiveBudget(budget);
  eval.parallel.enabled = parallel;
  if (tier_override.has_value()) eval.index_tier = tier_override;
  eval.result = ResultSpec{.mode = mode, .limit = limit, .sink = nullptr};
  const uint64_t eval_t0 = obs::MonotonicNanos();
  const StatusOr<Value> value =
      session.Evaluate(**plan, handle->doc, EvalContext{}, eval);
  const uint64_t eval_us = (obs::MonotonicNanos() - eval_t0) / 1000;
  if (!value.ok()) return ErrorResponse(value.status());

  Json out = RenderValue(*value, handle->doc);
  out.Set("doc", Json::Str(handle->name));
  out.Set("doc_version", Json::Number(static_cast<double>(handle->version)));
  out.Set("mode", Json::Str(mode_name));
  out.Set("cache_hit", Json::Bool(cache_hit));
  out.Set("eval_us", Json::Number(static_cast<double>(eval_us)));
  HttpResponse response;
  response.body = out.Dump();
  return response;
}

HttpResponse Server::HandleAnalyze(const HttpRequest& request) {
  StatusOr<Json> body = Json::Parse(request.body);
  if (!body.ok()) return ErrorResponse(body.status());
  if (!body->is_object()) {
    return ErrorResponse(400, "BadRequest", "request body must be an object");
  }

  std::string doc_name, xpath, tenant = "default";
  std::string field_error;
  if (!FieldString(*body, "doc", /*required=*/true, &doc_name, &field_error) ||
      !FieldString(*body, "xpath", /*required=*/true, &xpath, &field_error) ||
      !FieldString(*body, "tenant", /*required=*/false, &tenant,
                   &field_error)) {
    return ErrorResponse(400, "BadRequest", field_error);
  }

  const DocumentHandle handle = documents_.Get(doc_name);
  if (handle == nullptr) {
    return ErrorResponse(404, "NotFound",
                         "unknown document \"" + doc_name + '"');
  }

  // Same compile path as /query — a lint of query Q warms the cache the
  // subsequent POST /query of Q will hit.
  bool cache_hit = false;
  StatusOr<batch::SharedPlan> plan =
      TenantCache(tenant).GetOrCompile(xpath, &cache_hit);
  if (!plan.ok()) return ErrorResponse(plan.status());

  // The analysis itself is O(|Q| · |summary|) — cheap enough to answer
  // without an admission ticket.
  const xml::Document& doc = handle->doc;
  const analyze::StructuralSummary& summary = doc.summary();
  const analyze::QueryAnalysis analysis =
      analyze::AnalyzeQuery(**plan, doc, summary);
  const std::vector<analyze::Diagnostic> diagnostics =
      analyze::Lint(**plan, doc, summary);

  Json out = Json::Obj();
  out.Set("doc", Json::Str(handle->name));
  out.Set("doc_version", Json::Number(static_cast<double>(handle->version)));
  out.Set("xpath", Json::Str(xpath));
  out.Set("verdict", Json::Str(analyze::StepVerdictToString(analysis.verdict)));
  if (analysis.constant_boolean.has_value()) {
    out.Set("constant_boolean", Json::Bool(*analysis.constant_boolean));
  }
  if (analysis.constant_number.has_value()) {
    out.Set("constant_number", Json::Number(*analysis.constant_number));
  }
  out.Set("steps_analyzed",
          Json::Number(static_cast<double>(analysis.steps_analyzed)));
  out.Set("summary_bytes",
          Json::Number(static_cast<double>(summary.MemoryUsageBytes())));
  out.Set("cache_hit", Json::Bool(cache_hit));
  Json::Array warnings;
  warnings.reserve(diagnostics.size());
  for (const analyze::Diagnostic& d : diagnostics) {
    Json w = Json::Obj();
    w.Set("code", Json::Str(analyze::DiagnosticCodeToString(d.code)));
    if (!d.subject.empty()) w.Set("subject", Json::Str(d.subject));
    w.Set("message", Json::Str(d.message));
    if (!d.nearest_path.empty()) {
      w.Set("nearest_path", Json::Str(d.nearest_path));
    }
    warnings.push_back(std::move(w));
  }
  out.Set("warnings", Json::Arr(std::move(warnings)));
  HttpResponse response;
  response.body = out.Dump();
  return response;
}

HttpResponse Server::HandleHealth() {
  Json body = Json::Obj();
  body.Set("status", Json::Str("ok"));
  body.Set("documents", Json::Number(static_cast<double>(documents_.size())));
  body.Set("workers", Json::Number(handler_count()));
  body.Set("inflight", Json::Number(admission_.inflight()));
  HttpResponse response;
  response.body = body.Dump();
  return response;
}

HttpResponse Server::HandleMetrics(bool json) {
  HttpResponse response;
  if (json) {
    response.body = obs::ToJson(*registry_);
  } else {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = obs::ToPrometheusText(*registry_);
  }
  return response;
}

HttpResponse Server::HandleDocumentList() {
  Json::Array list;
  for (const DocumentStore::Info& info : documents_.List()) {
    list.push_back(InfoJson(info));
  }
  Json body = Json::Obj();
  body.Set("documents", Json::Arr(std::move(list)));
  HttpResponse response;
  response.body = body.Dump();
  return response;
}

HttpResponse Server::HandleDocumentPut(std::string_view name,
                                       const HttpRequest& request) {
  // ?index_tier=hot|dense picks the index build this document warms and
  // serves by default (docs/http_api.md); hot when absent.
  index::IndexTier tier = index::IndexTier::kHot;
  const std::string_view tier_name = QueryParam(request.target, "index_tier");
  if (!tier_name.empty() && !index::ParseIndexTier(tier_name, &tier)) {
    return ErrorResponse(400, "BadRequest",
                         "unknown index_tier \"" + std::string(tier_name) +
                             "\" (hot|dense)");
  }
  StatusOr<xml::Document> doc = xml::Parse(request.body);
  if (!doc.ok()) {
    return ErrorResponse(400, StatusCodeToString(doc.status().code()),
                         doc.status().ToString());
  }
  const DocumentHandle handle =
      documents_.Put(name, std::move(doc).value(), tier);
  Json body = Json::Obj();
  body.Set("name", Json::Str(handle->name));
  body.Set("version", Json::Number(static_cast<double>(handle->version)));
  body.Set("nodes", Json::Number(static_cast<double>(handle->doc.size())));
  body.Set("index_tier", Json::Str(index::IndexTierToString(tier)));
  HttpResponse response;
  response.status = handle->version == 1 ? 201 : 200;
  response.body = body.Dump();
  return response;
}

HttpResponse Server::HandleDocumentDelete(std::string_view name) {
  if (!documents_.Remove(name)) {
    return ErrorResponse(404, "NotFound",
                         "unknown document \"" + std::string(name) + '"');
  }
  Json body = Json::Obj();
  body.Set("removed", Json::Str(std::string(name)));
  HttpResponse response;
  response.body = body.Dump();
  return response;
}

}  // namespace xpe::serve
