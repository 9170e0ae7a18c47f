// The serve-tier load generator: an in-process serve::Server over
// loopback, hammered by keep-alive HTTP clients running a mixed query
// workload (full / exists / count / limit over two documents, warm plan
// cache after round one). Latency is sampled per request on the client
// side — enqueue-to-response wall time, the number an operator's SLO is
// written against — and percentiles are computed exactly from the raw
// samples, not from log2 histogram buckets.
//
// --smoke gates the serve tier for CI (the eighth perf wall):
//   - zero transport errors and zero 5xx responses under concurrency;
//   - p99 ≤ max(5 × p50, 2000 µs): tail amplification through the
//     accept → handler path (each handler evaluates its own requests)
//     stays bounded. The absolute floor keeps a small container from
//     failing on scheduler jitter when p50 is tens of microseconds.
// --json PATH writes the numbers for the perf-trajectory artifact.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace xpe::bench {
namespace {

std::string ItemsXml(int items) {
  std::string xml = "<root>";
  for (int i = 0; i < items; ++i) {
    xml += "<item><name>n</name><value>1</value></item>";
  }
  xml += "</root>";
  return xml;
}

/// The request mix: realistic serving is not one query shape. Every body
/// repeats across rounds, so rounds after the first run plan-cache-warm.
const char* RequestBody(int i) {
  static const std::string bodies[] = {
      R"json({"doc":"items","xpath":"//item/name","mode":"count"})json",
      R"json({"doc":"items","xpath":"//item[value=1]","mode":"exists"})json",
      R"json({"doc":"items","xpath":"//item","mode":"limit","limit":5})json",
      R"json({"doc":"catalog","xpath":"//book/title"})json",
      R"json({"doc":"catalog","xpath":"count(//book)"})json",
  };
  return bodies[i % 5].c_str();
}

struct ClientResult {
  std::vector<uint64_t> latencies_us;
  int transport_errors = 0;
  int server_errors = 0;  // 5xx
  int other_errors = 0;   // non-200 below 500
};

uint64_t Percentile(std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t index = static_cast<size_t>(p * (sorted.size() - 1));
  return sorted[index];
}

}  // namespace
}  // namespace xpe::bench

int main(int argc, char** argv) {
  using namespace xpe;
  using namespace xpe::bench;

  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  const int clients = smoke ? 4 : 8;
  const int requests_per_client = smoke ? 100 : 500;

  serve::ServeOptions options;
  options.io_threads = clients;
  serve::Server server(options);
  server.documents().Put("items", xml::Parse(ItemsXml(2000)).value());
  server.documents().Put(
      "catalog",
      xml::Parse("<catalog><book><title>A</title></book>"
                 "<book><title>B</title></book></catalog>")
          .value());
  if (Status status = server.Start(); !status.ok()) {
    fprintf(stderr, "FAIL: server start: %s\n", status.ToString().c_str());
    return 1;
  }

  std::vector<ClientResult> results(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientResult& out = results[c];
      out.latencies_us.reserve(requests_per_client);
      StatusOr<serve::HttpClient> client =
          serve::HttpClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        out.transport_errors = requests_per_client;
        return;
      }
      for (int i = 0; i < requests_per_client; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        StatusOr<serve::HttpResponse> response =
            client->RoundTrip("POST", "/query", RequestBody(c + i));
        const auto t1 = std::chrono::steady_clock::now();
        if (!response.ok()) {
          ++out.transport_errors;
          continue;
        }
        out.latencies_us.push_back(
            std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                .count());
        if (response->status >= 500) {
          ++out.server_errors;
        } else if (response->status != 200) {
          ++out.other_errors;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  server.Stop();

  std::vector<uint64_t> all;
  int transport_errors = 0, server_errors = 0, other_errors = 0;
  for (const ClientResult& r : results) {
    all.insert(all.end(), r.latencies_us.begin(), r.latencies_us.end());
    transport_errors += r.transport_errors;
    server_errors += r.server_errors;
    other_errors += r.other_errors;
  }
  std::sort(all.begin(), all.end());
  const uint64_t p50 = Percentile(all, 0.50);
  const uint64_t p95 = Percentile(all, 0.95);
  const uint64_t p99 = Percentile(all, 0.99);
  const uint64_t worst = all.empty() ? 0 : all.back();

  printf("bench_serve: %d clients x %d requests (keep-alive, mixed modes)\n",
         clients, requests_per_client);
  printf("%-28s %12s\n", "metric", "value");
  printf("%-28s %12zu\n", "requests_ok",
         all.size() - static_cast<size_t>(server_errors + other_errors));
  printf("%-28s %12d\n", "transport_errors", transport_errors);
  printf("%-28s %12d\n", "http_5xx", server_errors);
  printf("%-28s %12d\n", "http_other_non200", other_errors);
  printf("%-28s %10lu us\n", "p50_latency", (unsigned long)p50);
  printf("%-28s %10lu us\n", "p95_latency", (unsigned long)p95);
  printf("%-28s %10lu us\n", "p99_latency", (unsigned long)p99);
  printf("%-28s %10lu us\n", "max_latency", (unsigned long)worst);

  if (json_path != nullptr) {
    FILE* f = fopen(json_path, "w");
    if (f == nullptr) {
      fprintf(stderr, "FAIL: cannot write %s\n", json_path);
      return 1;
    }
    fprintf(f,
            "{\"bench\":\"serve\",\"clients\":%d,\"requests_per_client\":%d,"
            "\"samples\":%zu,\"transport_errors\":%d,\"http_5xx\":%d,"
            "\"http_other_non200\":%d,\"p50_us\":%lu,\"p95_us\":%lu,"
            "\"p99_us\":%lu,\"max_us\":%lu}\n",
            clients, requests_per_client, all.size(), transport_errors,
            server_errors, other_errors, (unsigned long)p50,
            (unsigned long)p95, (unsigned long)p99, (unsigned long)worst);
    fclose(f);
    printf("wrote %s\n", json_path);
  }

  if (smoke) {
    bool ok = true;
    if (transport_errors != 0 || server_errors != 0 || other_errors != 0) {
      fprintf(stderr, "FAIL: errors under load (transport=%d 5xx=%d other=%d)"
              " — a loaded server must answer every well-formed request\n",
              transport_errors, server_errors, other_errors);
      ok = false;
    }
    // Tail gate: 5× median, with an absolute floor so microsecond-scale
    // medians on a noisy single core don't produce false failures.
    const uint64_t ceiling = std::max<uint64_t>(5 * p50, 2000);
    if (p99 > ceiling) {
      fprintf(stderr,
              "FAIL: p99 %lu us exceeds ceiling %lu us (p50 %lu us) — tail "
              "amplification through the dispatch pipeline\n",
              (unsigned long)p99, (unsigned long)ceiling, (unsigned long)p50);
      ok = false;
    }
    if (!ok) return 1;
    printf("smoke OK: %zu requests, zero errors, p99 %lu us <= %lu us\n",
           all.size(), (unsigned long)p99, (unsigned long)ceiling);
  }
  return 0;
}
