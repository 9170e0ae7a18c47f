#include "perfbench/src/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "perfbench/src/trace.h"

namespace perfbench {

namespace {

using xpe::serve::HttpClient;
using xpe::serve::HttpResponse;
using xpe::serve::Json;

constexpr double kFailedLatencyUs = std::numeric_limits<double>::infinity();

void SleepUntilNs(uint64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

/// Requests due by `t` minus requests sent by `t`, both sorted.
double Backlog(const std::vector<uint64_t>& due, const std::vector<uint64_t>& sent,
               uint64_t t) {
  const auto d = std::upper_bound(due.begin(), due.end(), t) - due.begin();
  const auto s = std::upper_bound(sent.begin(), sent.end(), t) - sent.begin();
  return static_cast<double>(d - s);
}

Response ReadResponse(size_t index, const Request& request,
                      const xpe::StatusOr<HttpResponse>& reply) {
  Response out;
  out.request = index;
  if (!reply.ok()) return out;  // status 0: transport error
  out.status = reply->status;
  if (reply->status != 200) return out;
  if (request.analyze) {
    xpe::StatusOr<Json> body = Json::Parse(reply->body);
    const Json* verdict = body.ok() ? body->Find("verdict") : nullptr;
    const Json* version = body.ok() ? body->Find("doc_version") : nullptr;
    if (verdict != nullptr && verdict->is_string() && version != nullptr &&
        version->is_number()) {
      out.verdict = verdict->string();
      out.doc_version = static_cast<uint64_t>(version->number());
    }
    return out;
  }
  out.answer = ParseQueryResponse(reply->body, &out.doc_version);
  return out;
}

bool Ok(const Request& request, const Response& response) {
  if (response.status < 200 || response.status >= 300) return false;
  return request.analyze ? !response.verdict.empty()
                         : response.answer.has_value();
}

}  // namespace

RungResult RunRung(int port, int connections,
                   const std::vector<Request>& requests, double rate,
                   double seconds, double latency_limit_us) {
  RungResult r;
  r.rate = rate;
  r.seconds = seconds;
  r.attempted = requests.size();
  const size_t n = requests.size();
  std::vector<uint64_t> sent_ns(n, 0), done_ns(n, 0);
  std::vector<char> on_time(n, 0);
  r.responses.resize(n);

  std::vector<HttpClient> clients;
  for (int c = 0; c < connections; ++c) {
    xpe::StatusOr<HttpClient> client = HttpClient::Connect("127.0.0.1", port);
    if (client.ok()) clients.push_back(std::move(client).value());
  }
  const uint64_t start = NowNs() + 2'000'000;
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (HttpClient& client : clients) {
    threads.emplace_back([&, c = &client] {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        const Request& request = requests[i];
        const uint64_t due = start + request.due_ns;
        if (NowNs() < due) {
          on_time[i] = 1;
          SleepUntilNs(due);
        }
        sent_ns[i] = NowNs();
        xpe::StatusOr<HttpResponse> reply = [&] {
          Span span("serve.round_trip", NewRequestId());
          return c->RoundTrip("POST",
                              request.analyze ? "/analyze" : "/query",
                              request.body);
        }();
        done_ns[i] = NowNs();
        r.responses[i] = ReadResponse(i, request, reply);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (clients.empty()) {
    r.failed = n;
    return r;
  }

  uint64_t last_done = start;
  std::vector<uint64_t> due_sorted, sent_sorted;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t due = start + requests[i].due_ns;
    due_sorted.push_back(due);
    sent_sorted.push_back(sent_ns[i]);
    last_done = std::max(last_done, done_ns[i]);
    const Response& response = r.responses[i];
    if (!Ok(requests[i], response)) {
      ++r.failed;
      if (response.status == 429 || response.status == 503) ++r.rejected;
      r.latency_us.push_back(kFailedLatencyUs);
      continue;
    }
    r.latency_us.push_back(static_cast<double>(done_ns[i] - due) / 1e3);
    if (on_time[i]) {
      r.late_us.push_back(static_cast<double>(sent_ns[i] - due) / 1e3);
    }
  }
  std::sort(due_sorted.begin(), due_sorted.end());
  std::sort(sent_sorted.begin(), sent_sorted.end());
  const double span_ns = seconds * 1e9;
  double first = 0, last = 0;
  constexpr int kPoints = 10;
  for (int k = 0; k < kPoints; ++k) {
    const double f = (k + 0.5) / kPoints;
    first += Backlog(due_sorted, sent_sorted,
                     start + static_cast<uint64_t>(span_ns * 0.25 * f));
    last += Backlog(due_sorted, sent_sorted,
                    start + static_cast<uint64_t>(span_ns * (0.75 + 0.25 * f)));
  }
  r.backlog_growth = (last - first) / kPoints;
  r.achieved_rps = static_cast<double>(n - r.failed) /
                   (static_cast<double>(last_done - start) / 1e9);
  // Up to ten windows of at least 100 requests in due order, quietest
  // (least mean latency) first; the percentiles pool the fewest quietest
  // windows that hold 1000 requests.
  const size_t windows = std::clamp<size_t>(n / 100, 1, 10);
  std::vector<std::pair<double, size_t>> by_mean;
  for (size_t w = 0; w < windows; ++w) {
    by_mean.emplace_back(
        Mean(std::vector<double>(r.latency_us.begin() + w * n / windows,
                                 r.latency_us.begin() + (w + 1) * n / windows)),
        w);
  }
  std::sort(by_mean.begin(), by_mean.end());
  std::vector<double> quiet;
  for (const auto& [mean, w] : by_mean) {
    if (quiet.size() >= 1000) break;
    quiet.insert(quiet.end(), r.latency_us.begin() + w * n / windows,
                 r.latency_us.begin() + (w + 1) * n / windows);
  }
  r.quiet_samples = quiet.size();
  r.p50_us = Percentile(quiet, 0.50);
  r.p99_us = Percentile(quiet, 0.99);
  r.saturated = r.backlog_growth > static_cast<double>(connections);
  r.passed = r.failed == 0 && r.p99_us <= latency_limit_us && !r.saturated;
  return r;
}

double MaxSustainedRate(const std::vector<RungResult>& rungs) {
  const RungResult* best = nullptr;
  for (const RungResult& r : rungs) {
    if (r.passed && (best == nullptr || r.rate > best->rate)) best = &r;
  }
  return best == nullptr ? 0 : best->achieved_rps;
}

Writer::Writer(int port, std::string target,
               std::vector<const std::string*> bodies, double period_s)
    : port_(port),
      target_(std::move(target)),
      bodies_(std::move(bodies)),
      period_s_(period_s),
      thread_([this] { Loop(); }) {}

Writer::~Writer() { Stop(); }

void Writer::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

void Writer::Loop() {
  xpe::StatusOr<HttpClient> client = HttpClient::Connect("127.0.0.1", port_);
  const uint64_t start = NowNs();
  for (size_t k = 1; !stop_.load(std::memory_order_relaxed); ++k) {
    const uint64_t due =
        start + static_cast<uint64_t>(period_s_ * 1e9 * static_cast<double>(k));
    while (NowNs() < due && !stop_.load(std::memory_order_relaxed)) {
      SleepUntilNs(std::min(due, NowNs() + 10'000'000));
    }
    if (stop_.load(std::memory_order_relaxed)) return;
    Put put;
    put.body = k % bodies_.size();
    const uint64_t t0 = NowNs();
    if (client.ok()) {
      xpe::StatusOr<HttpResponse> reply =
          client->RoundTrip("PUT", target_, *bodies_[put.body],
                            "application/xml");
      if (reply.ok()) {
        put.status = reply->status;
        put.version = ParsePutVersion(reply->body);
      }
    }
    put.latency_ms = static_cast<double>(NowNs() - t0) / 1e6;
    puts_.push_back(put);
  }
}

uint64_t ParsePutVersion(const std::string& body) {
  xpe::StatusOr<Json> json = Json::Parse(body);
  const Json* version = json.ok() ? json->Find("version") : nullptr;
  return version != nullptr && version->is_number()
             ? static_cast<uint64_t>(version->number())
             : 0;
}

}  // namespace perfbench
