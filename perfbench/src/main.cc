// xpe_perfbench: the repository's end-to-end benchmark. One process runs
// one seeded workload against the public API: set-up (server start and
// document PUTs, repeated), then an in-process closed loop of Query verbs
// in two halves around an open-loop HTTP rate ladder. Every answer is
// checked against a reference evaluation afterwards. The last line of standard output is
// the result object; perfbench/README.md describes the metrics.
//
//   xpe_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <spans.jsonl>]

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/loadgen.h"
#include "perfbench/src/measure.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "src/succinct/succinct_index.h"
#include "src/xpe.h"

namespace perfbench {
namespace {

using xpe::Query;
using xpe::StatusOr;
using xpe::Value;
using xpe::xml::Document;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0) || args->seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] - '0';
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         args->trace >= 0;
}

// ---------------------------------------------------------------------------
// The run plan: every input, generated before anything is timed.
// ---------------------------------------------------------------------------

struct Plan {
  std::vector<OpSpec> ops;  // distinct operations
  std::map<std::string, size_t> op_index;
  std::vector<size_t> cycle;  // one cycle of the in-process loop
  // Rung 0 warms the request path at the nominal rate and is not
  // reported; rungs 1.. are the ladder, nominal rate first.
  std::vector<std::vector<Request>> rungs;
  std::vector<double> rung_rates;
  std::vector<double> rung_seconds;
  std::vector<std::pair<std::string, OpSpec>> warm;  // (tenant, op)
};

size_t AddOp(Plan* plan, const OpSpec& op) {
  const std::string key = op.doc + '\n' + op.xpath + '\n' +
                          ModeName(op.mode) + '\n' + std::to_string(op.limit) +
                          (op.parallel ? "p" : "");
  auto [it, inserted] = plan->op_index.emplace(key, plan->ops.size());
  if (inserted) plan->ops.push_back(op);
  return it->second;
}

std::string QueryBody(const OpSpec& op, const std::string& tenant,
                      bool analyze) {
  using xpe::serve::JsonEscape;
  std::string body = "{\"doc\":" + JsonEscape(op.doc) +
                     ",\"xpath\":" + JsonEscape(op.xpath) +
                     ",\"tenant\":" + JsonEscape(tenant);
  if (!analyze) {
    body += ",\"mode\":\"" + std::string(ModeName(op.mode)) + "\"";
    if (op.mode == Mode::kLimit) {
      body += ",\"limit\":" + std::to_string(op.limit);
    }
    if (op.parallel) body += ",\"parallel\":true";
  }
  return body + "}";
}

Plan BuildPlan(const Workload& w, uint64_t seed, double seconds) {
  Plan plan;
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 17);
  auto literal = [&](const Template& t) {
    return t.literals.empty() ? std::string()
                              : t.literals[rng() % t.literals.size()];
  };
  for (const Template& t : w.templates) {
    for (int k = 0; k < t.local_weight; ++k) {
      plan.cycle.push_back(AddOp(&plan, Instantiate(t, literal(t))));
    }
  }
  std::shuffle(plan.cycle.begin(), plan.cycle.end(), rng);

  static const std::string kTenants[] = {"t1", "t2"};
  std::vector<const Template*> served;
  std::vector<int> weights;
  for (const Template& t : w.templates) {
    if (t.http_weight == 0) continue;
    served.push_back(&t);
    weights.push_back(t.http_weight);
    for (const std::string& tenant : kTenants) {
      if (t.literals.empty()) plan.warm.emplace_back(tenant, Instantiate(t, ""));
      for (const std::string& l : t.literals) {
        plan.warm.emplace_back(tenant, Instantiate(t, l));
      }
    }
  }
  std::discrete_distribution<size_t> pick(weights.begin(), weights.end());
  std::uniform_real_distribution<double> unit(0, 1);
  size_t next_fresh = 0;

  const double http_seconds = seconds * (1 - w.local_share);
  const size_t n_rungs = w.rates.size();
  for (size_t k = 0; k <= n_rungs; ++k) {
    // The nominal rung gets the largest share: serve latency is read there.
    const double secs = k == 0   ? http_seconds * 0.05
                        : k == 1 ? http_seconds * 0.55
                                 : http_seconds * 0.4 / (n_rungs - 1);
    const double rate = w.rates[k == 0 ? 0 : k - 1];
    plan.rung_seconds.push_back(secs);
    plan.rung_rates.push_back(rate);
    std::exponential_distribution<double> gap(rate);
    std::vector<Request> requests;
    double t = 0;
    while (true) {
      t += gap(rng);
      if (t >= secs) break;
      const std::string& tenant = kTenants[rng() % 2];
      const double u = unit(rng);
      Request request;
      request.due_ns = static_cast<uint64_t>(t * 1e9);
      if (u < w.fresh_share / 3 && next_fresh < w.fresh.literals.size()) {
        // A burst of three identical never-seen texts, due together, so
        // concurrent plan-cache misses on one text show up.
        const OpSpec op =
            Instantiate(w.fresh, w.fresh.literals[next_fresh++]);
        request.op = AddOp(&plan, op);
        request.fresh = true;
        request.body = QueryBody(op, tenant, false);
        for (int b = 0; b < 3; ++b) requests.push_back(request);
        continue;
      }
      const Template& t_op = *served[pick(rng)];
      OpSpec op = Instantiate(t_op, literal(t_op));
      if (u < w.fresh_share / 3 + w.analyze_share) {
        request.analyze = true;
        op.mode = Mode::kExists;  // the reference answer's emptiness
        op.limit = 0;
        op.parallel = false;
      }
      request.op = AddOp(&plan, op);
      request.body = QueryBody(op, tenant, request.analyze);
      requests.push_back(std::move(request));
    }
    plan.rungs.push_back(std::move(requests));
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Set-up: server start, document PUTs, plan-cache warm-up.
// ---------------------------------------------------------------------------

/// A running server with the registry and plan level it publishes to;
/// the server is declared last so that it stops before they go.
struct Service {
  std::unique_ptr<xpe::obs::Registry> registry;
  std::unique_ptr<xpe::batch::CanonicalPlanLevel> canonical;
  std::unique_ptr<xpe::serve::Server> server;
};

std::string PutTarget(const DocSpec& doc) {
  return "/documents/" + doc.name + (doc.dense ? "?index_tier=dense" : "");
}

/// Starts a server and publishes every document's first version. PUT
/// round-trip times of docs[0] go to `put_ms`; returns null on failure.
std::unique_ptr<Service> SetUp(const Workload& w, int connections,
                               std::vector<double>* put_ms) {
  auto service = std::make_unique<Service>();
  service->registry = std::make_unique<xpe::obs::Registry>();
  service->canonical = std::make_unique<xpe::batch::CanonicalPlanLevel>();
  xpe::serve::ServeOptions options;
  options.io_threads = connections + 2;
  options.registry = service->registry.get();
  options.canonical = service->canonical.get();
  service->server = std::make_unique<xpe::serve::Server>(options);
  if (!service->server->Start().ok()) return nullptr;
  StatusOr<xpe::serve::HttpClient> client =
      xpe::serve::HttpClient::Connect("127.0.0.1", service->server->port());
  if (!client.ok()) return nullptr;
  for (const DocSpec& doc : w.docs) {
    const uint64_t t0 = NowNs();
    StatusOr<xpe::serve::HttpResponse> reply = client->RoundTrip(
        "PUT", PutTarget(doc), doc.versions[0], "application/xml");
    if (!reply.ok() || reply->status != 201) return nullptr;
    if (&doc == &w.docs[0]) {
      put_ms->push_back(static_cast<double>(NowNs() - t0) / 1e6);
    }
  }
  return service;
}

/// Compiles every regular query text into both tenants' plan caches
/// (POST /analyze shares them), so that plan-cache misses in the ladder
/// come from never-seen texts only.
bool WarmPlans(const Plan& plan, int port) {
  StatusOr<xpe::serve::HttpClient> client =
      xpe::serve::HttpClient::Connect("127.0.0.1", port);
  if (!client.ok()) return false;
  for (const auto& [tenant, op] : plan.warm) {
    StatusOr<xpe::serve::HttpResponse> reply = client->RoundTrip(
        "POST", "/analyze", QueryBody(op, tenant, /*analyze=*/true));
    if (!reply.ok() || reply->status != 200) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The in-process phase: a closed loop of Query verbs, one caller thread.
// ---------------------------------------------------------------------------

const char* VerbSpanName(Mode mode) {
  switch (mode) {
    case Mode::kFull:
      return "core.full";
    case Mode::kFirst:
      return "core.first";
    case Mode::kExists:
      return "core.exists";
    case Mode::kCount:
      return "core.count";
    case Mode::kLimit:
      return "core.limit";
  }
  return "core.verb";
}

StatusOr<Value> Verb(Query& q, const Document& doc, const OpSpec& op) {
  switch (op.mode) {
    case Mode::kFull: {
      if (q.result_type() != xpe::ValueType::kNodeSet) return q.Eval(doc);
      StatusOr<xpe::NodeSet> nodes = q.Nodes(doc);
      if (!nodes.ok()) return nodes.status();
      return Value::Nodes(std::move(nodes).value());
    }
    case Mode::kFirst: {
      StatusOr<std::optional<xpe::xml::NodeId>> first = q.First(doc);
      if (!first.ok()) return first.status();
      std::vector<xpe::xml::NodeId> ids;
      if (first->has_value()) ids.push_back(**first);
      return Value::Nodes(xpe::NodeSet(std::move(ids)));
    }
    case Mode::kExists: {
      StatusOr<bool> exists = q.Exists(doc);
      if (!exists.ok()) return exists.status();
      return Value::Boolean(*exists);
    }
    case Mode::kCount: {
      StatusOr<uint64_t> count = q.Count(doc);
      if (!count.ok()) return count.status();
      return Value::Number(static_cast<double>(*count));
    }
    case Mode::kLimit: {
      StatusOr<xpe::NodeSet> nodes = q.Limit(doc, op.limit);
      if (!nodes.ok()) return nodes.status();
      return Value::Nodes(std::move(nodes).value());
    }
  }
  return xpe::Status(xpe::StatusCode::kInvalidArgument, "unknown mode");
}

/// Runs the op's verb as one traced operation, timed into *ns (the span
/// included, so that the traced run shows what tracing costs).
StatusOr<Value> TimedVerb(Query& q, const Document& doc, const OpSpec& op,
                          uint64_t* ns) {
  const uint64_t t0 = NowNs();
  StatusOr<Value> value = [&] {
    Span span(VerbSpanName(op.mode), NewRequestId());
    return Verb(q, doc, op);
  }();
  *ns = NowNs() - t0;
  return value;
}

struct ClassStats {
  std::vector<double> latency_us;
  uint64_t visited = 0;
  uint64_t results = 0;
  uint64_t count_fast_path = 0;
  uint64_t pruned = 0;
};

struct LocalRun {
  size_t verbs = 0;   // attempted
  size_t cycles = 0;  // whole cycles run
  std::map<size_t, std::vector<double>> op_us;  // per op, successful verbs
  // Each op repeats once per cycle. The machine is shared and outside
  // load only ever adds time, so an op's latency is taken as the median
  // of its repetitions: typical_us holds that for every verb of one
  // cycle (see Typical).
  std::vector<double> typical_us;
  size_t failed = 0;  // errors and answers that changed between repeats
  std::map<size_t, Answer> answers;  // first answer per op
  std::map<std::string, ClassStats> classes;
  uint64_t arena_bytes_peak = 0;
  uint64_t cells_peak = 0;
};

using DocLookup = std::map<std::string, const Document*>;

std::map<size_t, Query> CompileOps(const Plan& plan,
                                   const std::vector<size_t>& ops) {
  std::map<size_t, Query> queries;
  for (size_t op : ops) {
    if (queries.count(op) != 0) continue;
    StatusOr<Query> q = Query::Compile(plan.ops[op].xpath);
    if (!q.ok()) continue;  // counted as a failure at first use
    if (plan.ops[op].parallel) q->WithParallel({.enabled = true});
    queries.emplace(op, std::move(q).value());
  }
  return queries;
}

/// Runs whole cycles for `seconds`, appending to `run`.
void RunLocal(const Plan& plan, const DocLookup& docs, double seconds,
              bool with_stats, LocalRun& run) {
  std::map<size_t, Query> queries = CompileOps(plan, plan.cycle);
  // One untimed cycle first: sessions size their arenas on first use.
  for (size_t op_id : plan.cycle) {
    auto q = queries.find(op_id);
    uint64_t ns = 0;
    if (q != queries.end()) {
      (void)TimedVerb(q->second, *docs.at(plan.ops[op_id].doc), plan.ops[op_id], &ns);
    }
  }
  const uint64_t start = NowNs();
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  // Whole cycles only, so every run measures the same class mix.
  do {
    for (size_t op_id : plan.cycle) {
      const OpSpec& op = plan.ops[op_id];
      ++run.verbs;
      auto q = queries.find(op_id);
      if (q == queries.end()) {  // did not compile
        ++run.failed;
        continue;
      }
      xpe::EvalStats stats;
      if (with_stats) q->second.WithStats(&stats);
      uint64_t ns = 0;
      StatusOr<Value> value = TimedVerb(q->second, *docs.at(op.doc), op, &ns);
      if (with_stats) q->second.WithStats(nullptr);
      if (!value.ok()) {
        if (run.failed++ < 5) {
          std::fprintf(stderr, "verb failed: %s mode=%s: %s\n", op.xpath.c_str(),
                       ModeName(op.mode), value.status().ToString().c_str());
        }
        continue;
      }
      const double us = static_cast<double>(ns) / 1e3;
      run.op_us[op_id].push_back(us);
      ClassStats& cls = run.classes[op.cls];
      cls.latency_us.push_back(us);
      const Answer answer = ValueAnswer(*value);
      auto [it, first] = run.answers.emplace(op_id, answer);
      if (!first && !(it->second == answer)) {
        if (run.failed++ < 5) {
          std::fprintf(stderr, "answer changed between repeats: %s mode=%s\n",
                       op.xpath.c_str(), ModeName(op.mode));
        }
      }
      if (with_stats) {
        cls.visited += stats.nodes_visited;
        cls.results += value->is_node_set()
                           ? std::max<uint64_t>(1, value->node_set().size())
                           : 1;
        cls.count_fast_path += stats.count_fast_path;
        cls.pruned += stats.pruned_by_summary;
        run.arena_bytes_peak =
            std::max(run.arena_bytes_peak, stats.arena_bytes_peak);
        run.cells_peak = std::max(run.cells_peak, stats.cells_peak);
      }
    }
    ++run.cycles;
  } while (NowNs() - start < budget);
}

/// Fills typical_us from the per-op latencies.
void Typical(const Plan& plan, LocalRun& run) {
  for (size_t op : plan.cycle) run.typical_us.push_back(Median(run.op_us[op]));
}

// ---------------------------------------------------------------------------
// Verification against reference answers, after everything timed.
// ---------------------------------------------------------------------------

struct Check {
  size_t op = 0;
  size_t doc = 0;   // index into Workload::docs
  size_t body = 0;  // index into DocSpec::versions
  Answer got;
  bool analyze_empty = false;  // POST /analyze said "empty"
  bool analyze = false;
};

size_t DocIndex(const Workload& w, const std::string& name) {
  for (size_t d = 0; d < w.docs.size(); ++d) {
    if (w.docs[d].name == name) return d;
  }
  return 0;
}

/// Computes the reference value of every (document version, text) the
/// checks need and returns how many checks disagree with it.
size_t Verify(const Workload& w, const Plan& plan,
              const std::vector<Check>& checks) {
  std::map<std::pair<size_t, size_t>, std::set<std::string>> needed;
  for (const Check& c : checks) {
    needed[{c.doc, c.body}].insert(plan.ops[c.op].xpath);
  }
  std::map<std::pair<size_t, size_t>, Document> docs;
  for (const auto& [key, texts] : needed) {
    StatusOr<Document> doc =
        xpe::xml::Parse(w.docs[key.first].versions[key.second]);
    if (doc.ok()) docs.emplace(key, std::move(doc).value());
  }
  struct Task {
    std::pair<size_t, size_t> key;
    std::string text;
  };
  std::vector<Task> tasks;
  for (const auto& [key, texts] : needed) {
    for (const std::string& text : texts) tasks.push_back({key, text});
  }
  std::map<std::tuple<size_t, size_t, std::string>, std::optional<Value>> refs;
  std::mutex refs_mu;
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const unsigned workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  for (unsigned t = 0; t < workers; ++t) {
    threads.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < tasks.size();) {
        const Task& task = tasks[i];
        std::optional<Value> value;
        auto doc = docs.find(task.key);
        if (doc != docs.end()) {
          StatusOr<Value> v = ReferenceValue(doc->second, task.text);
          if (v.ok()) value = std::move(v).value();
        }
        std::lock_guard<std::mutex> lock(refs_mu);
        refs[{task.key.first, task.key.second, task.text}] = std::move(value);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  size_t wrong = 0;
  for (const Check& c : checks) {
    const OpSpec& op = plan.ops[c.op];
    const std::optional<Value>& ref = refs[{c.doc, c.body, op.xpath}];
    bool ok = ref.has_value();
    if (ok && c.analyze) {
      // Soundness: "empty" may only be claimed of an empty result.
      ok = !c.analyze_empty ||
           ExpectedAnswer(*ref, Mode::kExists, 0, 0).number == 0;
    } else if (ok) {
      ok = ExpectedAnswer(*ref, op.mode, op.limit, c.got.hashed) == c.got;
    }
    if (!ok) {
      if (wrong < 10) {
        std::fprintf(stderr, "wrong answer: doc=%s v%zu %s mode=%s got=%s want=%s\n",
                     op.doc.c_str(), c.body, op.xpath.c_str(), ModeName(op.mode),
                     c.got.ToString().c_str(),
                     ref.has_value()
                         ? ExpectedAnswer(*ref, op.mode, op.limit, c.got.hashed)
                               .ToString()
                               .c_str()
                         : "(reference failed)");
      }
      ++wrong;
    }
  }
  return wrong;
}

// ---------------------------------------------------------------------------
// Layer probes for the traced run: each layer's public calls, timed on
// fresh documents.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;  // behind the value; 0 when it is not a statistic
  std::string note;    // printed beside it; "n=<samples>" when empty
};
using Metrics = std::vector<Metric>;

void Add(Metrics* m, const std::string& name, double value,
         const std::string& unit, size_t samples = 0, std::string note = "") {
  if (note.empty() && samples > 0) note = "n=" + std::to_string(samples);
  m->push_back({name, value, unit, samples, std::move(note)});
}

void ProbeDocumentLayers(const DocSpec& spec, Metrics* m) {
  constexpr int kReps = 3;
  const std::string& text = spec.versions[0];
  // The text was accepted by the server's PUT, so it parses.
  auto fresh = [&] {
    Span span("xml.parse");
    Document doc = xpe::xml::Parse(text).value();
    if (spec.dense) doc.set_index_tier(xpe::index::IndexTier::kDense);
    return doc;
  };
  uint64_t index_bytes = 0, succinct_bytes = 0, summary_bytes = 0;
  for (int r = 0; r < kReps; ++r) {
    {
      Document doc = fresh();
      Span span("index.build");
      index_bytes = doc.index().MemoryUsageBytes();
    }
    {
      Document doc = fresh();
      Span span("succinct.build");
      succinct_bytes = doc.succinct_index().MemoryUsageBytes();
    }
    {
      Document doc = fresh();
      Span span("analyze.summary_build");
      summary_bytes = doc.summary().MemoryUsageBytes();
    }
    {
      Document doc = fresh();
      Span span("xml.id_axis_build");
      doc.IdAxisForward(0);
    }
    {
      Document doc = fresh();
      Span span("xml.warm");
      doc.WarmCaches();
    }
  }
  const std::vector<SpanRecord> spans = CollectSpans();
  const std::vector<double> parse_ms = SpanDurationsMs(spans, "xml.parse");
  Add(m, "xml.parse_mb_s",
      static_cast<double>(text.size()) / 1e6 / (Median(parse_ms) / 1e3), "MB/s",
      parse_ms.size());
  Add(m, "xml.id_axis_build_ms", Median(SpanDurationsMs(spans, "xml.id_axis_build")),
      "ms", kReps);
  Add(m, "xml.warm_ms", Median(SpanDurationsMs(spans, "xml.warm")), "ms", kReps);
  Add(m, "index.build_ms", Median(SpanDurationsMs(spans, "index.build")), "ms",
      kReps);
  Add(m, "index.bytes", static_cast<double>(index_bytes), "bytes");
  Add(m, "succinct.build_ms", Median(SpanDurationsMs(spans, "succinct.build")), "ms",
      kReps);
  Add(m, "succinct.bytes", static_cast<double>(succinct_bytes), "bytes");
  Add(m, "analyze.summary_build_ms",
      Median(SpanDurationsMs(spans, "analyze.summary_build")), "ms", kReps);
  Add(m, "analyze.summary_bytes", static_cast<double>(summary_bytes), "bytes");
}

void ProbeCompileLayers(const Plan& plan, const DocLookup& docs, Metrics* m) {
  std::set<std::pair<std::string, std::string>> texts;
  for (const OpSpec& op : plan.ops) texts.emplace(op.doc, op.xpath);
  xpe::batch::PlanCache cache(1024);
  for (int pass = 0; pass < 2; ++pass) {  // misses, then hits
    for (const auto& [doc, text] : texts) {
      Span span("batch.get_or_compile");
      (void)cache.GetOrCompile(text);
    }
  }
  std::vector<double> compile_us, analyze_us;
  for (const auto& [doc_name, text] : texts) {
    const uint64_t t0 = NowNs();
    StatusOr<xpe::xpath::CompiledQuery> compiled = [&] {
      Span span("xpath.compile");
      return xpe::xpath::Compile(text);
    }();
    compile_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!compiled.ok()) continue;
    const Document& doc = *docs.at(doc_name);
    Span span("analyze.analyze");
    const uint64_t t1 = NowNs();
    (void)xpe::analyze::AnalyzeQuery(*compiled, doc, doc.summary());
    analyze_us.push_back(static_cast<double>(NowNs() - t1) / 1e3);
  }
  Add(m, "xpath.compile_us", Median(compile_us), "us", compile_us.size());
  Add(m, "analyze.analyze_us", Median(analyze_us), "us", analyze_us.size());
}

/// In-process cost of each op, median of a few runs (µs).
std::map<size_t, double> InProcessCost(const Plan& plan, const DocLookup& docs,
                                       const std::vector<size_t>& ops,
                                       int reps) {
  std::map<size_t, Query> queries = CompileOps(plan, ops);
  std::map<size_t, double> cost;
  for (auto& [op_id, q] : queries) {
    std::vector<double> us;
    for (int r = 0; r < reps; ++r) {
      uint64_t ns = 0;
      (void)TimedVerb(q, *docs.at(plan.ops[op_id].doc), plan.ops[op_id], &ns);
      us.push_back(static_cast<double>(ns) / 1e3);
    }
    cost[op_id] = Median(us);
  }
  return cost;
}

double IndexedStepRatio(const Plan& plan, const DocLookup& docs) {
  std::map<size_t, Query> queries = CompileOps(plan, plan.cycle);
  std::map<size_t, int> weight;
  for (size_t op : plan.cycle) ++weight[op];
  double indexed = 0, all = 0;
  for (auto& [op_id, q] : queries) {
    StatusOr<xpe::obs::ProfileReport> report =
        q.Profile(*docs.at(plan.ops[op_id].doc));
    if (!report.ok()) continue;
    for (const auto& step : report->data.steps()) {
      indexed += static_cast<double>(weight[op_id] * step.indexed_calls);
      all += static_cast<double>(weight[op_id] *
                                 (step.indexed_calls + step.scanned_calls));
    }
  }
  return all == 0 ? 0 : indexed / all;
}

double ParallelSpeedup(const Plan& plan, const DocLookup& docs) {
  std::vector<size_t> scans;
  for (size_t op : plan.cycle) {
    if (plan.ops[op].cls == "scan-full" &&
        std::find(scans.begin(), scans.end(), op) == scans.end()) {
      scans.push_back(op);
    }
  }
  double sequential = 0, parallel = 0;
  for (size_t op_id : scans) {
    OpSpec op = plan.ops[op_id];
    StatusOr<Query> q = Query::Compile(op.xpath);
    if (!q.ok()) continue;
    const Document& doc = *docs.at(op.doc);
    for (bool on : {false, true}) {
      q->WithParallel({.enabled = on});
      std::vector<double> us;
      for (int r = 0; r < 7; ++r) {
        uint64_t ns = 0;
        (void)TimedVerb(*q, doc, op, &ns);
        us.push_back(static_cast<double>(ns) / 1e3);
      }
      (on ? parallel : sequential) += Median(us);
    }
  }
  return parallel == 0 ? 0 : sequential / parallel;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetric(const std::string& name, double value, const std::string& unit,
                 const std::string& note) {
  std::printf("  %-40s %16.4f %-6s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

std::string SampleNote(size_t n, double p) {
  const size_t beyond = SamplesBeyond(n, p);
  return "n=" + std::to_string(n) + " beyond=" + std::to_string(beyond) +
         (beyond < 10 ? " (under 10 beyond: low confidence)" : "");
}

int Run(const Args& args) {
  const Workload w = MakeWorkload(args.workload, args.seed);
  if (w.name.empty()) {
    std::fprintf(stderr, "unknown workload \"%s\"\n", args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace == 1;
  const Plan plan = BuildPlan(w, args.seed, args.seconds);
  const int cores = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 2u, 8u));
  const int connections = w.writer_period_s > 0 ? cores - 1 : cores;
  std::printf("workload %s seed %llu seconds %g trace %d connections %d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, connections);

  // Set-up, several times, in four groups: one before anything is timed,
  // whose last set-up stays up, and one after each timed phase, each
  // beside the running one. The host's speed drifts over seconds, so the
  // median spans the run. A set-up takes less memory than an in-process
  // phase, so the groups before the peak RSS reading do not set it.
  std::vector<double> setup_s, setup_put_ms;
  auto set_up = [&](std::unique_ptr<Service>& service) {
    service.reset();
    // Hand the torn-down set-up's freed heap back, so that discarded
    // set-ups do not count in peak_rss_mb.
    malloc_trim(0);
    const uint64_t t0 = NowNs();
    service = SetUp(w, connections, &setup_put_ms);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (service == nullptr) std::fprintf(stderr, "set-up failed\n");
    return service != nullptr;
  };
  const int group = (w.setups + 3) / 4;
  auto set_up_beside = [&] {
    for (int s = 0; s < group; ++s) {
      std::unique_ptr<Service> extra;
      if (!set_up(extra)) return false;
    }
    return true;
  };
  std::unique_ptr<Service> service;
  for (int s = 0; s < group; ++s) {
    if (!set_up(service)) return 1;
  }
  xpe::serve::Server& server = *service->server;
  if (!WarmPlans(plan, server.port())) {
    std::fprintf(stderr, "plan-cache warm-up failed\n");
    return 1;
  }
  std::vector<xpe::serve::DocumentHandle> handles;
  DocLookup docs;
  for (const DocSpec& d : w.docs) {
    handles.push_back(server.documents().Get(d.name));
    docs[d.name] = &handles.back()->doc;
  }

  // In-process phase, in two halves around the HTTP phase, so that the
  // per-op medians span the whole run. The end-to-end numbers come from
  // untraced work only: tracing is off but for the warm-up rung, the
  // second half (which also passes EvalStats sinks) and the layer probes
  // of a traced run, which reports the difference between the halves as
  // the tracing overhead.
  const double half_local = args.seconds * w.local_share / 2;
  LocalRun plain, spanned;
  RunLocal(plan, docs, half_local, false, plain);
  if (!set_up_beside()) return 1;

  // HTTP phase: the rate ladder, with the writer alongside if any.
  std::map<std::string, xpe::batch::PlanCache::Stats> cache_before;
  for (const char* tenant : {"t1", "t2"}) {
    cache_before[tenant] = server.TenantCacheStats(tenant);
  }
  std::unique_ptr<Writer> writer;
  if (w.writer_period_s > 0) {
    std::vector<const std::string*> bodies;
    for (const std::string& v : w.docs[0].versions) bodies.push_back(&v);
    writer = std::make_unique<Writer>(server.port(), PutTarget(w.docs[0]),
                                      std::move(bodies), w.writer_period_s);
  }
  std::vector<RungResult> rungs;  // rungs[0] is the warm-up
  for (size_t k = 0; k < plan.rungs.size(); ++k) {
    SetTracing(traced && k == 0);
    rungs.push_back(RunRung(server.port(), connections, plan.rungs[k],
                            plan.rung_rates[k], plan.rung_seconds[k],
                            w.latency_limit_us));
    if (k > 0 && !rungs.back().passed) break;
  }
  const std::vector<RungResult> ladder(rungs.begin() + 1, rungs.end());
  if (writer != nullptr) writer->Stop();
  if (!set_up_beside()) return 1;
  SetTracing(traced);
  RunLocal(plan, docs, half_local, traced, traced ? spanned : plain);
  SetTracing(false);
  Typical(plan, plain);
  Typical(plan, spanned);
  const double peak_rss_mb = PeakRssMb();
  if (!set_up_beside()) return 1;

  // Attempts and failures, then every answer against its reference.
  size_t attempted = plain.verbs + spanned.verbs;
  size_t failed = plain.failed + spanned.failed;
  std::vector<double> put_ms = setup_put_ms;
  std::map<uint64_t, size_t> version_body = {{1, 0}};  // docs[0] versions
  if (writer != nullptr) {
    put_ms.clear();
    for (const Writer::Put& put : writer->puts()) {
      ++attempted;
      if (put.status != 200 || put.version == 0) {
        ++failed;
        continue;
      }
      put_ms.push_back(put.latency_ms);
      version_body[put.version] = put.body;
    }
  }
  std::vector<Check> checks;
  for (const LocalRun* run : {&plain, &spanned}) {
    for (const auto& [op_id, answer] : run->answers) {
      checks.push_back({op_id, DocIndex(w, plan.ops[op_id].doc), 0, answer});
    }
  }
  size_t rejected = 0, http_attempted = 0;
  std::set<std::tuple<size_t, uint64_t, std::string>> seen;
  for (size_t k = 0; k < rungs.size(); ++k) {
    const RungResult& r = rungs[k];
    attempted += r.attempted;
    http_attempted += r.attempted;
    failed += r.failed;
    rejected += r.rejected;
    for (const Response& response : r.responses) {
      const Request& request = plan.rungs[k][response.request];
      if (response.status != 200 ||
          (request.analyze ? response.verdict.empty()
                           : !response.answer.has_value())) {
        continue;  // already counted as failed
      }
      const size_t doc = DocIndex(w, plan.ops[request.op].doc);
      const auto body = doc == 0 ? version_body.find(response.doc_version)
                                 : version_body.end();
      if (doc == 0 ? body == version_body.end() : response.doc_version != 1) {
        ++failed;  // a version nobody published
        continue;
      }
      Check c;
      c.op = request.op;
      c.doc = doc;
      c.body = doc == 0 ? body->second : 0;
      c.analyze = request.analyze;
      c.analyze_empty = response.verdict == "empty";
      if (response.answer.has_value()) c.got = *response.answer;
      // One check per distinct (op, version, answer) keeps the reference
      // work proportional to the distinct questions asked.
      if (seen.emplace(c.op, response.doc_version, c.got.ToString() +
                                                       response.verdict)
              .second) {
        checks.push_back(c);
      }
    }
  }
  const size_t wrong = Verify(w, plan, checks);
  failed += wrong;

  // End-to-end metrics.
  const RungResult& nominal = ladder.front();
  const double max_rps = MaxSustainedRate(ladder);
  std::printf("rungs (latency limit %.0f us on p99):\n", w.latency_limit_us);
  for (const RungResult& r : ladder) {
    std::printf(
        "  rate %7.0f/s %5.2fs n=%-6zu p50 %9.1f us p99 %9.1f us (beyond %zu) "
        "late p99 %7.1f us backlog growth %6.1f achieved %8.1f/s failed %zu "
        "%s\n",
        r.rate, r.seconds, r.attempted, r.p50_us, r.p99_us,
        SamplesBeyond(r.quiet_samples, 0.99), Percentile(r.late_us, 0.99),
        r.backlog_growth, r.achieved_rps, r.failed, r.passed ? "pass" : "FAIL");
  }
  std::printf("in-process verbs by class (%zu verbs, %zu cycles):\n",
              plain.verbs, plain.cycles);
  for (const auto& [name, c] : plain.classes) {
    std::printf("  %-12s n=%-6zu p50 %10.1f us p99 %10.1f us mean %10.1f us\n",
                name.c_str(), c.latency_us.size(), Percentile(c.latency_us, 0.5),
                Percentile(c.latency_us, 0.99), Mean(c.latency_us));
  }
  Metrics e2e;
  const std::string cycle_note =
      "cycle of " + std::to_string(plan.cycle.size()) + " verbs x " +
      std::to_string(plain.cycles) + " repetitions (median per verb)";
  double cycle_us = 0;
  for (double us : plain.typical_us) cycle_us += us;
  Add(&e2e, "setup_s", Median(setup_s), "s", setup_s.size(),
      "n=" + std::to_string(setup_s.size()) + " (median)");
  Add(&e2e, "query_qps",
      static_cast<double>(plain.typical_us.size()) / (cycle_us / 1e6), "1/s",
      plain.verbs, cycle_note);
  Add(&e2e, "query_p50_us", Percentile(plain.typical_us, 0.50), "us", plain.verbs,
      cycle_note);
  Add(&e2e, "query_p99_us", Percentile(plain.typical_us, 0.99), "us", plain.verbs,
      cycle_note);
  Add(&e2e, "serve_p50_us", nominal.p50_us, "us", nominal.quiet_samples,
      SampleNote(nominal.quiet_samples, 0.50));
  Add(&e2e, "serve_p99_us", nominal.p99_us, "us", nominal.quiet_samples,
      SampleNote(nominal.quiet_samples, 0.99));
  Add(&e2e, "serve_max_rps", max_rps, "1/s", ladder.size(),
      "rungs=" + std::to_string(ladder.size()));
  Add(&e2e, "put_p50_ms", Percentile(put_ms, 0.50), "ms", put_ms.size(),
      SampleNote(put_ms.size(), 0.50));
  Add(&e2e, "put_p90_ms", Percentile(put_ms, 0.90), "ms", put_ms.size(),
      SampleNote(put_ms.size(), 0.90));
  Add(&e2e, "peak_rss_mb", peak_rss_mb, "MB");
  const double error_ratio =
      static_cast<double>(failed) / static_cast<double>(std::max<size_t>(1, attempted));

  Metrics layers;
  if (traced) {
    SetTracing(true);
    for (const char* cls : kClasses) {
      auto it = spanned.classes.find(cls);
      const ClassStats empty;
      const ClassStats& c = it == spanned.classes.end() ? empty : it->second;
      Add(&layers, std::string("core.") + cls + ".eval_p50_us",
          Percentile(c.latency_us, 0.5), "us", c.latency_us.size());
      Add(&layers, std::string("core.") + cls + ".visited_per_result",
          c.results == 0 ? 0
                         : static_cast<double>(c.visited) /
                               static_cast<double>(c.results),
          "nodes", c.latency_us.size());
    }
    uint64_t pruned = 0, count_verbs = 0, fast = 0;
    for (const auto& [name, c] : spanned.classes) pruned += c.pruned;
    for (size_t op : plan.cycle) {
      if (plan.ops[op].cls == "count") ++count_verbs;
    }
    const auto count_it = spanned.classes.find("count");
    if (count_it != spanned.classes.end()) fast = count_it->second.count_fast_path;
    Add(&layers, "core.arena_bytes_peak", static_cast<double>(spanned.arena_bytes_peak),
        "bytes");
    Add(&layers, "core.cells_peak", static_cast<double>(spanned.cells_peak), "cells");
    Add(&layers, "core.count_fast_path_ratio",
        static_cast<double>(fast) /
            (static_cast<double>(count_verbs) * static_cast<double>(spanned.cycles)),
        "ratio", count_verbs * spanned.cycles);
    Add(&layers, "analyze.pruned_ratio",
        static_cast<double>(pruned) / static_cast<double>(spanned.verbs), "ratio",
        spanned.verbs);
    Add(&layers, "index.indexed_step_ratio", IndexedStepRatio(plan, docs), "ratio");
    Add(&layers, "exec.parallel_speedup", ParallelSpeedup(plan, docs), "x");
    ProbeCompileLayers(plan, docs, &layers);

    // Serve: client latency minus the in-process cost of the same op.
    std::vector<size_t> served;
    for (const Request& r : plan.rungs[1]) {
      if (!r.analyze) served.push_back(r.op);
    }
    const std::map<size_t, double> cost = InProcessCost(plan, docs, served, 5);
    std::vector<double> overhead;
    for (size_t i = 0; i < nominal.responses.size(); ++i) {
      const Request& r = plan.rungs[1][i];
      auto c = cost.find(r.op);
      if (r.analyze || nominal.responses[i].status != 200 || c == cost.end()) {
        continue;
      }
      overhead.push_back(nominal.latency_us[i] - c->second);
    }
    Add(&layers, "serve.overhead_us", Median(overhead), "us", overhead.size());
    xpe::obs::Registry& registry = server.registry();
    const auto queue_wait =
        registry.GetHistogram("xpe_serve_queue_wait_us")->snapshot();
    const auto batch = registry.GetHistogram("xpe_serve_dispatch_batch_size")->snapshot();
    Add(&layers, "serve.queue_wait_p50_us", static_cast<double>(queue_wait.p50), "us",
        queue_wait.count);
    Add(&layers, "serve.dispatch_batch_size_mean",
        batch.count == 0 ? 0
                         : static_cast<double>(batch.sum) / static_cast<double>(batch.count),
        "requests", batch.count);
    Add(&layers, "serve.rejected_ratio",
        static_cast<double>(rejected) / static_cast<double>(std::max<size_t>(1, http_attempted)),
        "ratio", http_attempted);
    Add(&layers, "serve.generator_late_p99_us", Percentile(nominal.late_us, 0.99), "us",
        nominal.late_us.size(), SampleNote(nominal.late_us.size(), 0.99));
    uint64_t hits = 0, misses = 0;
    for (const char* tenant : {"t1", "t2"}) {
      const auto now = server.TenantCacheStats(tenant);
      hits += now.hits - cache_before[tenant].hits;
      misses += now.misses - cache_before[tenant].misses;
    }
    Add(&layers, "batch.plan_cache_hit_ratio",
        hits + misses == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(hits + misses),
        "ratio", hits + misses);
    size_t fresh_sent = 0;
    {
      std::set<std::pair<size_t, std::string>> fresh;
      for (size_t k = 0; k < rungs.size(); ++k) {
        for (const Request& r : plan.rungs[k]) {
          if (r.fresh) fresh.emplace(r.op, r.body);
        }
      }
      fresh_sent = fresh.size();
    }
    Add(&layers, "batch.misses_per_fresh_text",
        fresh_sent == 0 ? 0 : static_cast<double>(misses) / static_cast<double>(fresh_sent),
        "compiles", fresh_sent);
    const double untraced_p50 = Percentile(plain.typical_us, 0.5);
    Add(&layers, "trace.overhead_pct",
        untraced_p50 == 0 ? 0
                          : (Percentile(spanned.typical_us, 0.5) - untraced_p50) /
                                untraced_p50 * 100,
        "%", spanned.verbs);
    ProbeDocumentLayers(w.docs[0], &layers);

    const std::vector<SpanRecord> spans = CollectSpans();
    std::printf("span self time by layer call (traced run):\n");
    for (const auto& [name, t] : SelfTimes(spans)) {
      std::printf("  %-28s n=%-7llu total %10.2f ms self %10.2f ms\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_ms, t.self_ms);
    }
    if (!args.trace_out.empty() && !WriteSpans(spans, args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  }

  std::printf("end-to-end metrics (seed %llu):\n",
              static_cast<unsigned long long>(args.seed));
  for (const Metric& m : e2e) PrintMetric(m.name, m.value, m.unit, m.note);
  Metrics all = e2e;
  all.insert(all.end(), layers.begin(), layers.end());
  {
    // Every end-to-end metric this run measured, listed in BENCHMARK.json
    // or not, and the sample count behind each statistic: for spread.py
    // and the trajectory file.
    std::string values = "metrics: {", counts = "samples: {";
    for (const Metric& m : e2e) {
      values += (values.back() == '{' ? "\"" : ", \"") + m.name + "\": " + JsonNumber(m.value);
    }
    for (const Metric& m : all) {
      if (m.samples == 0) continue;
      counts += (counts.back() == '{' ? "\"" : ", \"") + m.name + "\": " +
                std::to_string(m.samples);
    }
    std::printf("%s}\n%s}\n", values.c_str(), counts.c_str());
  }
  PrintMetric("error_ratio", error_ratio, "ratio",
              std::to_string(failed) + "/" + std::to_string(attempted) +
                  " (wrong answers " + std::to_string(wrong) + ")");
  if (traced) {
    std::printf("per-layer metrics:\n");
    for (const Metric& m : layers) PrintMetric(m.name, m.value, m.unit, m.note);
  }

  // Any failed operation makes the run incorrect: on the workloads listed
  // nothing is expected to fail, so a failure is a fault of the program.
  const bool correct = failed == 0;
  service.reset();
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (const Metric& m : all) {
    out += std::string(out.back() == '{' ? "" : ", ") + "\"" + m.name +
           "\": {\"value\": " + JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Allocations of 1 MiB and more are mapped and unmapped on their own,
  // so that the peak resident set follows live memory rather than what
  // glibc's sliding mmap threshold happens to keep in its heaps.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: xpe_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
