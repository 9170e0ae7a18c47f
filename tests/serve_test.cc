// The xpe::serve contract, end to end over loopback HTTP: one status
// code per failure class (400 malformed, 404 unknown doc, 422 budget,
// 429 overload), hot-swap visibility (in-flight requests finish on
// their version, later requests see the new one), per-tenant plan
// caches converging on one canonical plan, handlers evaluating
// independently (a cheap query never waits behind a slow one), and a
// /metrics endpoint whose Prometheus text actually parses. The threaded
// cases run under the TSan CI wall like every other concurrency suite
// in this repo.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/admission.h"
#include "src/serve/document_store.h"
#include "src/serve/http.h"
#include "src/serve/json.h"
#include "src/serve/server.h"
#include "tests/test_util.h"

namespace xpe {
namespace {

using serve::AdmissionController;
using serve::DocumentHandle;
using serve::DocumentStore;
using serve::HttpClient;
using serve::HttpResponse;
using serve::Json;
using serve::ServeOptions;
using serve::Server;
using test::MustParse;

constexpr std::string_view kCatalogXml = R"(<catalog>
  <book id="b1"><title>TCP Illustrated</title><price>55</price></book>
  <book id="b2"><title>Purely Functional DS</title><price>40</price></book>
  <book id="b3"><title>The Art of Multiprocessor</title><price>60</price></book>
</catalog>)";

std::string BigXml(int items) {
  std::string xml = "<root>";
  for (int i = 0; i < items; ++i) {
    xml += "<item><name>n</name><value>1</value></item>";
  }
  xml += "</root>";
  return xml;
}

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

TEST(JsonTest, ParseDumpRoundTrip) {
  StatusOr<Json> parsed = Json::Parse(
      R"({"b":true,"n":42,"s":"hi\n","a":[1,2],"o":{"k":null}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Dump(),
            R"({"a":[1,2],"b":true,"n":42,"o":{"k":null},"s":"hi\n"})")
      << "keys sort, numbers stay integral, escapes round-trip";
}

TEST(JsonTest, TrailingGarbageAndBadSyntaxAreParseErrors) {
  EXPECT_FALSE(Json::Parse("{} x").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("01").ok());
  const Status status = Json::Parse("[1, \x01]").status();
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_GT(status.column(), 0) << "errors carry a 1-based offset";
}

TEST(JsonTest, DepthCapStopsHostileNesting) {
  std::string deep(Json::kMaxDepth + 8, '[');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(JsonTest, FindAndSetOnObjects) {
  Json obj = Json::Obj();
  obj.Set("x", Json::Number(7));
  ASSERT_NE(obj.Find("x"), nullptr);
  EXPECT_EQ(obj.Find("x")->number(), 7);
  EXPECT_EQ(obj.Find("missing"), nullptr);
  EXPECT_EQ(Json::Number(3).Find("x"), nullptr) << "non-objects have no keys";
}

// ---------------------------------------------------------------------------
// DocumentStore
// ---------------------------------------------------------------------------

TEST(DocumentStoreTest, PutGetVersionsAscend) {
  obs::Registry registry;
  DocumentStore store(&registry);
  EXPECT_EQ(store.Get("d"), nullptr);
  DocumentHandle v1 = store.Put("d", MustParse("<a><b/></a>"));
  EXPECT_EQ(v1->version, 1u);
  DocumentHandle v2 = store.Put("d", MustParse("<a><b/><c/></a>"));
  EXPECT_EQ(v2->version, 2u);
  EXPECT_EQ(store.Get("d")->version, 2u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(DocumentStoreTest, InFlightHandlePinsOldVersionAcrossSwap) {
  obs::Registry registry;
  DocumentStore store(&registry);
  store.Put("d", MustParse("<old/>"));
  DocumentHandle held = store.Get("d");  // the "in-flight request"
  store.Put("d", MustParse("<new><n/></new>"));
  // The held handle still reads the old tree; new lookups see the swap.
  EXPECT_EQ(held->version, 1u);
  EXPECT_EQ(held->doc.name(1), "old");
  EXPECT_EQ(store.Get("d")->version, 2u);
  EXPECT_EQ(store.Get("d")->doc.name(1), "new");
}

TEST(DocumentStoreTest, RemoveKeepsHandlesAliveAndVersionsMonotonic) {
  obs::Registry registry;
  DocumentStore store(&registry);
  store.Put("d", MustParse("<a/>"));
  DocumentHandle held = store.Get("d");
  EXPECT_TRUE(store.Remove("d"));
  EXPECT_FALSE(store.Remove("d"));
  EXPECT_EQ(store.Get("d"), nullptr);
  EXPECT_EQ(held->doc.name(1), "a") << "removal must not free held versions";
  // Re-adding the name continues the sequence — observers can order swaps.
  EXPECT_EQ(store.Put("d", MustParse("<a/>"))->version, 2u);
}

TEST(DocumentStoreTest, ListIsSortedByName) {
  obs::Registry registry;
  DocumentStore store(&registry);
  store.Put("zebra", MustParse("<z/>"));
  store.Put("alpha", MustParse("<a><b/></a>"));
  const std::vector<DocumentStore::Info> list = store.List();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].name, "alpha");
  EXPECT_EQ(list[1].name, "zebra");
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

TEST(AdmissionTest, InflightBoundAndTicketRelease) {
  obs::Registry registry;
  AdmissionController admission({.max_inflight = 2}, &registry);
  auto t1 = admission.TryAdmit();
  auto t2 = admission.TryAdmit();
  ASSERT_TRUE(t1.has_value());
  ASSERT_TRUE(t2.has_value());
  EXPECT_FALSE(admission.TryAdmit().has_value()) << "third must be rejected";
  t1.reset();  // RAII release frees the slot
  EXPECT_TRUE(admission.TryAdmit().has_value());
}

TEST(AdmissionTest, ZeroInflightAdmitsNothing) {
  obs::Registry registry;
  AdmissionController admission({.max_inflight = 0}, &registry);
  EXPECT_FALSE(admission.TryAdmit().has_value());
}

TEST(AdmissionTest, EffectiveBudgetResolvesDefaultThenClamps) {
  obs::Registry registry;
  AdmissionController admission(
      {.max_inflight = 1, .default_budget = 100, .max_budget = 50}, &registry);
  EXPECT_EQ(admission.EffectiveBudget(0), 50u) << "default, then clamped";
  EXPECT_EQ(admission.EffectiveBudget(10), 10u);
  EXPECT_EQ(admission.EffectiveBudget(1000), 50u) << "cap clamps, not rejects";
  AdmissionController open({.max_inflight = 1}, &registry);
  EXPECT_EQ(open.EffectiveBudget(0), 0u) << "0 stays unlimited";
  EXPECT_EQ(open.EffectiveBudget(7), 7u);
}

// ---------------------------------------------------------------------------
// CanonicalPlanLevel: cross-cache dedup
// ---------------------------------------------------------------------------

TEST(CanonicalPlanLevelTest, TwoCachesConvergeOnOnePlan) {
  obs::Registry registry;
  batch::CanonicalPlanLevel level;
  batch::PlanCache tenant_a(8, {}, &registry, &level);
  batch::PlanCache tenant_b(8, {}, &registry, &level);
  batch::SharedPlan a = *tenant_a.GetOrCompile("//x[1]");
  batch::SharedPlan b = *tenant_b.GetOrCompile("//x[ 1 ]");
  EXPECT_EQ(a.get(), b.get())
      << "equivalent spellings across tenants must share one plan object";
  EXPECT_EQ(tenant_b.stats().canonical_shares, 1u);
  EXPECT_EQ(tenant_a.stats().canonical_entries, 0u)
      << "shared level: the private canonical map stays empty";
  EXPECT_EQ(level.live_entries(), 1u);
}

TEST(CanonicalPlanLevelTest, HoldsWeakReferencesOnly) {
  obs::Registry registry;
  batch::CanonicalPlanLevel level;
  {
    batch::PlanCache cache(8, {}, &registry, &level);
    ASSERT_TRUE(cache.GetOrCompile("//weak").ok());
    EXPECT_EQ(level.live_entries(), 1u);
  }
  // The cache (and its plan) are gone; the level must not keep it alive.
  EXPECT_EQ(level.live_entries(), 0u);
  EXPECT_EQ(level.SweepExpired(), 1u);
}

// ---------------------------------------------------------------------------
// Server integration over loopback
// ---------------------------------------------------------------------------

class ServeTest : public ::testing::Test {
 protected:
  void StartServer(ServeOptions options = {}) {
    options.registry = &registry_;
    options.canonical = &canonical_;
    options.io_threads = 4;
    server_ = std::make_unique<Server>(std::move(options));
    server_->documents().Put("catalog", MustParse(kCatalogXml));
    ASSERT_TRUE(server_->Start().ok());
    StatusOr<HttpClient> client =
        HttpClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok()) << client.status();
    client_ = std::move(client).value();
  }

  /// POST /query and return the response (fails the test on socket errors).
  HttpResponse Query(const Json& body) {
    StatusOr<HttpResponse> response =
        client_.RoundTrip("POST", "/query", body.Dump());
    EXPECT_TRUE(response.ok()) << response.status();
    return response.ok() ? *response : HttpResponse{.status = -1};
  }

  static Json QueryBody(std::string_view xpath,
                        std::string_view doc = "catalog") {
    Json body = Json::Obj();
    body.Set("doc", Json::Str(std::string(doc)));
    body.Set("xpath", Json::Str(std::string(xpath)));
    return body;
  }

  static Json MustJson(const HttpResponse& response) {
    StatusOr<Json> parsed = Json::Parse(response.body);
    EXPECT_TRUE(parsed.ok()) << parsed.status() << " in: " << response.body;
    return parsed.ok() ? *parsed : Json::Null();
  }

  obs::Registry registry_;
  batch::CanonicalPlanLevel canonical_;
  std::unique_ptr<Server> server_;
  HttpClient client_;
};

TEST_F(ServeTest, FullModeReturnsNodesInDocumentOrder) {
  StartServer();
  const HttpResponse response = Query(QueryBody("//book/title"));
  ASSERT_EQ(response.status, 200) << response.body;
  const Json body = MustJson(response);
  EXPECT_EQ(body.Find("type")->string(), "node-set");
  EXPECT_EQ(body.Find("count")->number(), 3);
  EXPECT_EQ(body.Find("doc")->string(), "catalog");
  EXPECT_EQ(body.Find("doc_version")->number(), 1);
  const Json::Array& nodes = body.Find("nodes")->array();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0].Find("name")->string(), "title");
  EXPECT_EQ(nodes[0].Find("string")->string(), "TCP Illustrated");
  EXPECT_LT(nodes[0].Find("id")->number(), nodes[1].Find("id")->number())
      << "ids are NodeIds, so ascending means document order";
}

TEST_F(ServeTest, EveryResultModeAnswers) {
  StartServer();
  Json exists = QueryBody("//book[price>50]");
  exists.Set("mode", Json::Str("exists"));
  Json body = MustJson(Query(exists));
  EXPECT_EQ(body.Find("type")->string(), "boolean");
  EXPECT_TRUE(body.Find("value")->boolean());

  Json count = QueryBody("//book");
  count.Set("mode", Json::Str("count"));
  body = MustJson(Query(count));
  EXPECT_EQ(body.Find("type")->string(), "number");
  EXPECT_EQ(body.Find("value")->number(), 3);

  Json first = QueryBody("//book");
  first.Set("mode", Json::Str("first"));
  body = MustJson(Query(first));
  EXPECT_EQ(body.Find("count")->number(), 1);

  Json limit = QueryBody("//book");
  limit.Set("mode", Json::Str("limit"));
  limit.Set("limit", Json::Number(2));
  body = MustJson(Query(limit));
  EXPECT_EQ(body.Find("count")->number(), 2);
}

TEST_F(ServeTest, MalformedJsonIs400) {
  StartServer();
  StatusOr<HttpResponse> response =
      client_.RoundTrip("POST", "/query", "{not json");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 400);
  EXPECT_EQ(MustJson(*response).Find("error")->Find("code")->string(),
            "ParseError");
}

TEST_F(ServeTest, BadXPathIs400) {
  StartServer();
  EXPECT_EQ(Query(QueryBody("//book[")).status, 400);
}

TEST_F(ServeTest, MissingFieldAndBadModeAre400) {
  StartServer();
  Json no_xpath = Json::Obj();
  no_xpath.Set("doc", Json::Str("catalog"));
  EXPECT_EQ(Query(no_xpath).status, 400);

  Json bad_mode = QueryBody("//book");
  bad_mode.Set("mode", Json::Str("stream"));
  EXPECT_EQ(Query(bad_mode).status, 400);

  Json zero_limit = QueryBody("//book");
  zero_limit.Set("mode", Json::Str("limit"));
  EXPECT_EQ(Query(zero_limit).status, 400) << "limit mode needs limit >= 1";
}

TEST_F(ServeTest, UnknownDocumentIs404) {
  StartServer();
  EXPECT_EQ(Query(QueryBody("//book", "nope")).status, 404);
}

TEST_F(ServeTest, BudgetExhaustionIs422) {
  StartServer();
  server_->documents().Put("big", MustParse(BigXml(200)));
  Json body = QueryBody("//item/name", "big");
  body.Set("budget", Json::Number(1));
  const HttpResponse response = Query(body);
  EXPECT_EQ(response.status, 422) << response.body;
  EXPECT_EQ(MustJson(response).Find("error")->Find("code")->string(),
            "ResourceExhausted");
}

TEST_F(ServeTest, ServerSideBudgetCapAppliesWithoutClientOptIn) {
  ServeOptions options;
  options.admission.default_budget = 1;  // every request inherits it
  StartServer(std::move(options));
  server_->documents().Put("big", MustParse(BigXml(200)));
  EXPECT_EQ(Query(QueryBody("//item/name", "big")).status, 422);
}

TEST_F(ServeTest, OverloadIs429) {
  ServeOptions options;
  options.admission.max_inflight = 0;  // deterministic: admit nothing
  StartServer(std::move(options));
  const HttpResponse response = Query(QueryBody("//book"));
  EXPECT_EQ(response.status, 429);
  EXPECT_EQ(MustJson(response).Find("error")->Find("code")->string(),
            "Overloaded");
}

TEST_F(ServeTest, HotSwapNewRequestsSeeNewVersion) {
  StartServer();
  Json before = MustJson(Query(QueryBody("//book")));
  EXPECT_EQ(before.Find("doc_version")->number(), 1);
  EXPECT_EQ(before.Find("count")->number(), 3);

  StatusOr<HttpResponse> put = client_.RoundTrip(
      "PUT", "/documents/catalog",
      "<catalog><book id='only'><title>One</title></book></catalog>",
      "application/xml");
  ASSERT_TRUE(put.ok());
  ASSERT_EQ(put->status, 200) << put->body;
  EXPECT_EQ(MustJson(*put).Find("version")->number(), 2);

  Json after = MustJson(Query(QueryBody("//book")));
  EXPECT_EQ(after.Find("doc_version")->number(), 2);
  EXPECT_EQ(after.Find("count")->number(), 1);
}

TEST_F(ServeTest, DocumentCrudOverHttp) {
  StartServer();
  StatusOr<HttpResponse> put = client_.RoundTrip(
      "PUT", "/documents/fresh", "<r><x/></r>", "application/xml");
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put->status, 201) << "first version is a creation";

  StatusOr<HttpResponse> bad_xml =
      client_.RoundTrip("PUT", "/documents/bad", "<r>", "application/xml");
  ASSERT_TRUE(bad_xml.ok());
  EXPECT_EQ(bad_xml->status, 400);

  StatusOr<HttpResponse> list = client_.RoundTrip("GET", "/documents");
  ASSERT_TRUE(list.ok());
  const Json listing = MustJson(*list);
  const Json::Array& docs = listing.Find("documents")->array();
  ASSERT_EQ(docs.size(), 2u) << "catalog + fresh, sorted";
  EXPECT_EQ(docs[0].Find("name")->string(), "catalog");
  EXPECT_EQ(docs[1].Find("name")->string(), "fresh");
  // The catalog's book ids give it an id axis; <r><x/></r> has none, so
  // nothing was built for it.
  const double catalog_id_axis_bytes = static_cast<double>(
      server_->documents().Get("catalog")->doc.IdAxisBytes());
  EXPECT_GT(catalog_id_axis_bytes, 0);
  EXPECT_EQ(docs[0].Find("id_axis_bytes")->number(), catalog_id_axis_bytes);
  EXPECT_EQ(docs[1].Find("id_axis_bytes")->number(), 0);

  StatusOr<HttpResponse> info = client_.RoundTrip("GET", "/documents/fresh");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(MustJson(*info).Find("nodes")->number(), 3);
  EXPECT_EQ(MustJson(*info).Find("id_axis_bytes")->number(), 0);
  info = client_.RoundTrip("GET", "/documents/catalog");
  ASSERT_TRUE(info.ok());
  const Json catalog = MustJson(*info);
  EXPECT_EQ(catalog.Find("id_axis_bytes")->number(), catalog_id_axis_bytes);
  EXPECT_EQ(catalog.Find("index_bytes")->number(),
            docs[0].Find("index_bytes")->number());

  StatusOr<HttpResponse> del = client_.RoundTrip("DELETE", "/documents/fresh");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->status, 200);
  del = client_.RoundTrip("DELETE", "/documents/fresh");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->status, 404);
}

TEST_F(ServeTest, AnalyzeEndpointReportsWarnings) {
  StartServer();
  Json body = Json::Obj();
  body.Set("doc", Json::Str("catalog"));
  body.Set("xpath", Json::Str("//book/chapter"));
  StatusOr<HttpResponse> response =
      client_.RoundTrip("POST", "/analyze", body.Dump());
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  const Json out = MustJson(*response);
  EXPECT_EQ(out.Find("verdict")->string(), "empty");
  EXPECT_GT(out.Find("summary_bytes")->number(), 0);
  EXPECT_GT(out.Find("steps_analyzed")->number(), 0);
  const Json::Array& warnings = out.Find("warnings")->array();
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].Find("code")->string(), "always-empty-step");
  EXPECT_EQ(warnings[0].Find("nearest_path")->string(), "/catalog/book");
  EXPECT_FALSE(warnings[0].Find("message")->string().empty());

  // A clean query: satisfiable, no warnings.
  body.Set("xpath", Json::Str("//book/title"));
  response = client_.RoundTrip("POST", "/analyze", body.Dump());
  ASSERT_TRUE(response.ok());
  const Json clean = MustJson(*response);
  EXPECT_EQ(clean.Find("verdict")->string(), "satisfiable");
  EXPECT_TRUE(clean.Find("warnings")->array().empty());

  // A provably-constant scalar root reports its value.
  body.Set("xpath", Json::Str("count(//chapter)"));
  response = client_.RoundTrip("POST", "/analyze", body.Dump());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(MustJson(*response).Find("constant_number")->number(), 0);
}

TEST_F(ServeTest, AnalyzeEndpointErrors) {
  StartServer();
  Json body = Json::Obj();
  body.Set("doc", Json::Str("nope"));
  body.Set("xpath", Json::Str("//x"));
  StatusOr<HttpResponse> response =
      client_.RoundTrip("POST", "/analyze", body.Dump());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 404);

  body.Set("doc", Json::Str("catalog"));
  body.Set("xpath", Json::Str("//["));
  response = client_.RoundTrip("POST", "/analyze", body.Dump());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 400);

  response = client_.RoundTrip("GET", "/analyze");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 405);
}

TEST_F(ServeTest, AnalyzeSharesThePlanCacheWithQuery) {
  StartServer();
  Json body = QueryBody("//book/price");
  StatusOr<HttpResponse> lint =
      client_.RoundTrip("POST", "/analyze", body.Dump());
  ASSERT_TRUE(lint.ok());
  EXPECT_FALSE(MustJson(*lint).Find("cache_hit")->boolean());
  // The lint compiled (and cached) the plan; the query hits it.
  const HttpResponse query = Query(body);
  ASSERT_EQ(query.status, 200);
  EXPECT_TRUE(MustJson(query).Find("cache_hit")->boolean());
}

TEST_F(ServeTest, IndexTierSelectionOverHttp) {
  StartServer();
  // ?index_tier=dense publishes under the succinct tier; the response
  // and both document views echo it.
  StatusOr<HttpResponse> put =
      client_.RoundTrip("PUT", "/documents/packed?index_tier=dense",
                        "<r><x/><x/><y/></r>", "application/xml");
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put->status, 201);
  EXPECT_EQ(MustJson(*put).Find("index_tier")->string(), "dense");

  StatusOr<HttpResponse> info = client_.RoundTrip("GET", "/documents/packed");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(MustJson(*info).Find("index_tier")->string(), "dense");

  StatusOr<HttpResponse> list = client_.RoundTrip("GET", "/documents");
  ASSERT_TRUE(list.ok());
  const Json listing = MustJson(*list);
  for (const Json& entry : listing.Find("documents")->array()) {
    const bool dense = entry.Find("name")->string() == "packed";
    EXPECT_EQ(entry.Find("index_tier")->string(), dense ? "dense" : "hot");
    EXPECT_GT(entry.Find("index_bytes")->number(), 0);
    EXPECT_GT(entry.Find("summary_bytes")->number(), 0);
  }

  // An unknown tier never publishes.
  StatusOr<HttpResponse> bad = client_.RoundTrip(
      "PUT", "/documents/nope?index_tier=warm", "<r/>", "application/xml");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);
  EXPECT_EQ(client_.RoundTrip("GET", "/documents/nope")->status, 404);

  // Per-request override: the same query answers identically through
  // either tier, whatever the document's default.
  Json body = QueryBody("count(//x)", "packed");
  for (const char* tier : {"hot", "dense"}) {
    body.Set("index_tier", Json::Str(tier));
    const HttpResponse response = Query(body);
    ASSERT_EQ(response.status, 200) << tier << ": " << response.body;
    EXPECT_EQ(MustJson(response).Find("value")->number(), 2) << tier;
  }
  body.Set("index_tier", Json::Str("warm"));
  EXPECT_EQ(Query(body).status, 400);
}

TEST_F(ServeTest, TenantsShareOneCanonicalPlan) {
  StartServer();
  Json t1 = QueryBody("//book/title");
  t1.Set("tenant", Json::Str("tenant-1"));
  ASSERT_EQ(Query(t1).status, 200);
  Json t2 = QueryBody("//book/ title ");  // same canonical query, respelled
  t2.Set("tenant", Json::Str("tenant-2"));
  ASSERT_EQ(Query(t2).status, 200);

  EXPECT_EQ(server_->TenantCacheStats("tenant-1").entries, 1u);
  EXPECT_EQ(server_->TenantCacheStats("tenant-2").entries, 1u)
      << "capacity/LRU stay per-tenant";
  EXPECT_EQ(server_->TenantCacheStats("tenant-2").canonical_shares, 1u)
      << "…but the compiled plan is shared through the canonical level";
  EXPECT_EQ(canonical_.live_entries(), 1u);
}

TEST_F(ServeTest, HealthzAnswers) {
  StartServer();
  StatusOr<HttpResponse> response = client_.RoundTrip("GET", "/healthz");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  const Json body = MustJson(*response);
  EXPECT_EQ(body.Find("status")->string(), "ok");
  EXPECT_EQ(body.Find("documents")->number(), 1);
  EXPECT_EQ(body.Find("workers")->number(), 4) << "one per handler thread";
}

TEST_F(ServeTest, MetricsExposeEveryTierAsValidPrometheusText) {
  StartServer();
  ASSERT_EQ(Query(QueryBody("//book")).status, 200);  // populate the tiers
  StatusOr<HttpResponse> response = client_.RoundTrip("GET", "/metrics");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->content_type.rfind("text/plain", 0), 0u);
  const std::string& text = response->body;
  for (std::string_view series :
       {"xpe_serve_requests_total", "xpe_serve_admission_admitted_total",
        "xpe_serve_request_us", "xpe_plan_cache_misses_total",
        "xpe_session_evals_total", "xpe_session_eval_latency_us"}) {
    EXPECT_NE(text.find(series), std::string::npos) << "missing " << series;
  }
  // Shape check: every non-empty line is a comment or `name[{labels}] value`.
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string_view::npos) << "bad line: " << line;
    char* parse_end = nullptr;
    const std::string value(line.substr(space + 1));
    strtod(value.c_str(), &parse_end);
    EXPECT_EQ(*parse_end, '\0') << "non-numeric sample: " << line;
  }
}

TEST_F(ServeTest, MetricsJsonParses) {
  StartServer();
  StatusOr<HttpResponse> response = client_.RoundTrip("GET", "/metrics.json");
  ASSERT_TRUE(response.ok());
  const Json body = MustJson(*response);
  EXPECT_NE(body.Find("counters"), nullptr);
  EXPECT_NE(body.Find("histograms"), nullptr);
}

TEST_F(ServeTest, UnknownPathAndWrongMethod) {
  StartServer();
  StatusOr<HttpResponse> response = client_.RoundTrip("GET", "/nope");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 404);
  response = client_.RoundTrip("GET", "/query");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 405);
  response = client_.RoundTrip("POST", "/metrics");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 405);
}

TEST_F(ServeTest, KeepAliveServesManyRequestsOnOneConnection) {
  StartServer();
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(Query(QueryBody("//book")).status, 200) << "round " << i;
  }
  const Json body = MustJson(Query(QueryBody("//book")));
  EXPECT_TRUE(body.Find("cache_hit")->boolean())
      << "repeated source text must hit the tenant cache";
}

TEST_F(ServeTest, ConcurrentClientsGetConsistentAnswers) {
  StartServer();
  constexpr int kClients = 4;
  constexpr int kRounds = 16;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      StatusOr<HttpClient> client =
          HttpClient::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kRounds; ++i) {
        Json body = QueryBody(i % 2 == 0 ? "//book" : "count(//book)");
        StatusOr<HttpResponse> response =
            client->RoundTrip("POST", "/query", body.Dump());
        if (!response.ok() || response->status != 200) ++failures;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServeTest, CheapQueryIsNotHeldBehindASlowOne) {
  StartServer();
  // Eight value comparisons per item over 60000 items: a few hundred
  // milliseconds of evaluation in an optimized build.
  server_->documents().Put("big", MustParse(BigXml(60000)));
  std::string slow = "//item[value = 2";
  for (int v = 3; v <= 9; ++v) slow += " or value = " + std::to_string(v);
  slow += "]";

  std::atomic<bool> slow_done{false};
  std::thread slow_client([&] {
    StatusOr<HttpClient> client =
        HttpClient::Connect("127.0.0.1", server_->port());
    StatusOr<HttpResponse> response =
        client.ok() ? client->RoundTrip("POST", "/query",
                                        QueryBody(slow, "big").Dump())
                    : StatusOr<HttpResponse>(client.status());
    slow_done.store(true);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->status, 200) << response->body;
  });

  // The slow query holds an admission ticket while it evaluates; poll
  // until it is seen in flight, so the order needs no sleeps.
  bool admitted = false;
  while (!admitted && !slow_done.load()) {
    StatusOr<HttpResponse> health = client_.RoundTrip("GET", "/healthz");
    if (!health.ok()) break;
    admitted = MustJson(*health).Find("inflight")->number() >= 1;
  }
  StatusOr<HttpClient> cheap =
      HttpClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(cheap.ok()) << cheap.status();
  StatusOr<HttpResponse> answer =
      cheap->RoundTrip("POST", "/query", QueryBody("count(//book)").Dump());
  const bool slow_outstanding = !slow_done.load();
  slow_client.join();

  ASSERT_TRUE(admitted) << "the slow query was never seen in flight";
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->status, 200) << answer->body;
  EXPECT_EQ(MustJson(*answer).Find("value")->number(), 3);
  EXPECT_TRUE(slow_outstanding)
      << "count(//book) waited for the slow query on another connection";
}

TEST_F(ServeTest, StopIsIdempotentAndRestartable) {
  StartServer();
  ASSERT_EQ(Query(QueryBody("//book")).status, 200);
  server_->Stop();
  server_->Stop();  // second stop is a no-op
  EXPECT_FALSE(server_->running());
  ASSERT_TRUE(server_->Start().ok()) << "a stopped server can start again";
  StatusOr<HttpClient> client =
      HttpClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  StatusOr<HttpResponse> response =
      client->RoundTrip("POST", "/query", QueryBody("//book").Dump());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
}

TEST(ServerOptionsTest, StartRefusesASharedStatsSink) {
  // Every handler evaluates concurrently, so one sink in the base
  // options would be written by all of them.
  obs::Registry registry;
  EvalStats stats;
  ServeOptions options;
  options.registry = &registry;
  options.eval.stats = &stats;
  Server server(options);
  EXPECT_EQ(server.Start().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace xpe
