#include "perfbench/src/trace.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "perfbench/src/measure.h"

namespace perfbench {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_id{1};

// Per-thread span buffers. The registry owns them so that spans of
// threads that have already exited can still be collected.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<std::vector<SpanRecord>>>& Buffers() {
  static auto* buffers =
      new std::vector<std::unique_ptr<std::vector<SpanRecord>>>();
  return *buffers;
}

std::vector<SpanRecord>& ThreadBuffer() {
  thread_local std::vector<SpanRecord>* buffer = [] {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(std::make_unique<std::vector<SpanRecord>>());
    return Buffers().back().get();
  }();
  return *buffer;
}

// The innermost open span on this thread (0 = none) and its request.
thread_local uint64_t t_open_span = 0;
thread_local uint64_t t_open_request = 0;

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool TracingEnabled() { return g_tracing.load(std::memory_order_relaxed); }

uint64_t NewRequestId() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

Span::Span(const char* name, uint64_t request) {
  if (!TracingEnabled()) return;
  active_ = true;
  record_.name = name;
  record_.id = NewRequestId();
  record_.parent = t_open_span;
  record_.request = request != 0 ? request : t_open_request;
  saved_request_ = t_open_request;
  t_open_span = record_.id;
  t_open_request = record_.request;
  record_.start_ns = NowNs();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = NowNs();
  ThreadBuffer().push_back(record_);
  t_open_span = record_.parent;
  t_open_request = saved_request_;
}

std::vector<SpanRecord> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRecord> all;
  for (const auto& buffer : Buffers()) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  return all;
}

std::map<std::string, SelfTime> SelfTimes(
    const std::vector<SpanRecord>& spans) {
  // Children on one thread never overlap, so a parent's covered time is
  // the sum of its children's durations.
  std::unordered_map<uint64_t, uint64_t> child_ns;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SelfTime> out;
  for (const SpanRecord& s : spans) {
    const uint64_t duration = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    const uint64_t covered = it == child_ns.end() ? 0 : it->second;
    SelfTime& t = out[s.name];
    ++t.count;
    t.total_ms += static_cast<double>(duration) / 1e6;
    t.self_ms +=
        static_cast<double>(duration > covered ? duration - covered : 0) / 1e6;
  }
  return out;
}

std::vector<double> SpanDurationsMs(const std::vector<SpanRecord>& spans,
                                    const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

bool WriteSpans(const std::vector<SpanRecord>& spans,
                const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
