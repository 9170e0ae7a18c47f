// The benchmark's workloads: seeded documents, the query operations
// asked of them in-process and over HTTP, and the open-loop rate ladder.
// Everything here is generated from the workload seed; the program only
// ever sees the generated inputs.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/src/measure.h"

namespace perfbench {

/// The query classes every workload's mix is drawn from. A class is a
/// query shape, so the per-class metrics mean the same on every
/// workload.
inline constexpr const char* kClasses[] = {
    "probe-pred",  // Exists/First over predicate paths
    "positional",  // [k] and count(...) > k predicates
    "value-join",  // id() joins and string/attribute equality
    "count",       // Count verbs: fast path and predicate counts
    "scan-full",   // full materializations, with `parallel` on
    "empty",       // queries the summary proves empty
};

/// One distinct query operation: a text asked of one document in one
/// result mode.
struct OpSpec {
  std::string cls;
  std::string doc;
  std::string xpath;
  Mode mode = Mode::kFull;
  uint64_t limit = 0;
  bool parallel = false;
};

/// A family of operations: `pattern` with "{}" replaced by a literal from
/// a seeded pool.
struct Template {
  std::string cls;
  std::string doc;
  std::string pattern;
  std::vector<std::string> literals;  // empty: the pattern has no "{}"
  Mode mode = Mode::kFull;
  uint64_t limit = 0;
  bool parallel = false;
  int local_weight = 0;  // verbs per in-process cycle
  int http_weight = 0;   // relative share of HTTP query requests
};

/// A named document and its successive contents: versions[0] is PUT at
/// set-up; a writer PUTs the others in turn.
struct DocSpec {
  std::string name;
  std::vector<std::string> versions;  // serialized XML
  bool dense = false;                 // PUT with ?index_tier=dense
};

struct Workload {
  std::string name;
  std::vector<DocSpec> docs;
  std::vector<Template> templates;
  /// Never-seen query texts: this pattern with a fresh literal each time.
  Template fresh;
  double fresh_share = 0;    // of HTTP requests, sent in bursts of 3
  double analyze_share = 0;  // of HTTP requests, as POST /analyze
  /// Share of the measured time spent in the in-process phase; the rest
  /// goes to the HTTP ladder.
  double local_share = 0;
  /// Open-loop rates in requests per second; rates[0] is the nominal
  /// rate at which serve latency is reported.
  std::vector<double> rates;
  double latency_limit_us = 0;  // on serve p99
  int setups = 4;  // set-up repetitions (setup_s is the median)
  /// When > 0, one connection PUTs docs[0]'s next version this often.
  double writer_period_s = 0;
};

/// The workload of that name, generated from `seed`; a workload with an
/// empty name when there is none.
Workload MakeWorkload(std::string_view name, uint64_t seed);

/// Instantiates a template with one literal.
OpSpec Instantiate(const Template& t, const std::string& literal);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
