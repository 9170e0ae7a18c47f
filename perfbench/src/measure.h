// Shared measurement helpers for the perfbench program: clocks,
// percentiles, peak RSS, and the answer digests that let an in-process
// Query verb, an HTTP response and a reference evaluation be compared.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/xpe.h"

namespace perfbench {

uint64_t NowNs();

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Samples strictly above the nearest-rank p-th percentile: the rule is
/// that a reported percentile needs at least ten of them.
size_t SamplesBeyond(size_t n, double p);

/// Peak resident set of this process so far (getrusage), in MB.
double PeakRssMb();

/// The result shapes a request can ask for; the names match the serve
/// API's "mode" field.
enum class Mode { kFull, kFirst, kExists, kCount, kLimit };
const char* ModeName(Mode mode);

/// A comparable digest of one answer. A node-set digest hashes the ids
/// of its first `hashed` members and keeps the full count: in-process
/// answers hash every id, and an HTTP response renders at most
/// kHttpRenderedNodes of them.
struct Answer {
  static constexpr size_t kHttpRenderedNodes = 1000;
  char kind = '?';     // 'n' node-set, 'b' boolean, 'd' number, 's' string
  double number = 0;   // node count, number value, or 0/1
  uint64_t hash = 0;   // node ids (node-sets) or the string (strings)
  uint64_t hashed = 0;  // node-sets: how many leading ids `hash` covers
  bool operator==(const Answer&) const = default;
  std::string ToString() const;
};

Answer ValueAnswer(const xpe::Value& value);

/// The answer a request of `mode` must produce, derived from the full
/// reference value of its query; a node-set hashes at most `hashed`
/// leading ids, as many as the answer it is compared with.
Answer ExpectedAnswer(const xpe::Value& reference, Mode mode, uint64_t limit,
                      uint64_t hashed);

/// Reads the answer out of a POST /query response body; nullopt when the
/// body is not a well-formed result or renders another number of nodes
/// than min(count, kHttpRenderedNodes).
std::optional<Answer> ParseQueryResponse(std::string_view body,
                                         uint64_t* doc_version);

/// Evaluates `text` the reference way: MINCONTEXT, not the default
/// engine, with the index, the summary analysis and the optimizer off.
xpe::StatusOr<xpe::Value> ReferenceValue(const xpe::xml::Document& doc,
                                         const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
