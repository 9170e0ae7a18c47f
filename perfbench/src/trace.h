// Span tracing for the traced benchmark run. The benchmark records one
// span around each call it makes into a layer of the program (the
// program itself is not instrumented): name, start, end, the enclosing
// span, and a request id shared by the spans of one operation. Spans
// stay in per-thread memory and are written out once, at exit. When
// tracing is off a Span costs one relaxed load.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  // "<layer>.<call>", a string literal
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root span
  uint64_t request = 0;  // shared by the spans of one operation
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

void SetTracing(bool on);
bool TracingEnabled();

/// RAII span. Nested spans on one thread become children of the
/// innermost open span and inherit its request id when given none.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord record_;
  uint64_t saved_request_ = 0;  // the enclosing span's request id
  bool active_ = false;
};

/// A fresh request id for spans that belong to one operation.
uint64_t NewRequestId();

/// Every span recorded so far, from all threads.
std::vector<SpanRecord> CollectSpans();

/// Per span name: count, total duration and self time (duration minus
/// the time covered by its child spans), in milliseconds.
struct SelfTime {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::map<std::string, SelfTime> SelfTimes(const std::vector<SpanRecord>& spans);

/// Durations in milliseconds of the spans named `name`.
std::vector<double> SpanDurationsMs(const std::vector<SpanRecord>& spans,
                                    const std::string& name);

/// Writes the spans as JSON lines; returns false when the file cannot be
/// written.
bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
