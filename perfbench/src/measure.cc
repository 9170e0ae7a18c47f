#include "perfbench/src/measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t FnvString(std::string_view s) {
  uint64_t h = kFnvOffset;
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

/// Digest of a node-set of `count` members whose leading ids are `ids`.
Answer NodesAnswer(const std::vector<xpe::xml::NodeId>& ids, uint64_t count) {
  Answer a;
  a.kind = 'n';
  a.number = static_cast<double>(count);
  a.hash = kFnvOffset;
  for (xpe::xml::NodeId id : ids) a.hash = Fnv(a.hash, id);
  a.hashed = ids.size();
  return a;
}

/// Digest of the first `n` members of `nodes`, hashing at most `hashed`.
Answer NodesAnswer(const xpe::NodeSet& nodes, size_t n, uint64_t hashed) {
  std::vector<xpe::xml::NodeId> ids;
  const size_t h = std::min<size_t>(n, hashed);
  ids.reserve(h);
  for (size_t i = 0; i < h; ++i) ids.push_back(nodes[i]);
  return NodesAnswer(ids, n);
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

size_t SamplesBeyond(size_t n, double p) {
  const size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kFull:
      return "full";
    case Mode::kFirst:
      return "first";
    case Mode::kExists:
      return "exists";
    case Mode::kCount:
      return "count";
    case Mode::kLimit:
      return "limit";
  }
  return "?";
}

std::string Answer::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%c:%.17g:%016llx:%llu", kind, number,
                static_cast<unsigned long long>(hash),
                static_cast<unsigned long long>(hashed));
  return buf;
}

Answer ValueAnswer(const xpe::Value& value) {
  Answer a;
  switch (value.type()) {
    case xpe::ValueType::kNodeSet:
      return NodesAnswer(value.node_set(), value.node_set().size(),
                         value.node_set().size());
    case xpe::ValueType::kBoolean:
      a.kind = 'b';
      a.number = value.boolean() ? 1 : 0;
      break;
    case xpe::ValueType::kNumber:
      a.kind = 'd';
      a.number = value.number();
      break;
    case xpe::ValueType::kString:
      a.kind = 's';
      a.hash = FnvString(value.string());
      break;
  }
  return a;
}

Answer ExpectedAnswer(const xpe::Value& reference, Mode mode, uint64_t limit,
                      uint64_t hashed) {
  if (!reference.is_node_set()) return ValueAnswer(reference);
  const xpe::NodeSet& nodes = reference.node_set();
  Answer a;
  switch (mode) {
    case Mode::kExists:
      a.kind = 'b';
      a.number = nodes.empty() ? 0 : 1;
      return a;
    case Mode::kCount:
      a.kind = 'd';
      a.number = static_cast<double>(nodes.size());
      return a;
    case Mode::kFull:
      return NodesAnswer(nodes, nodes.size(), hashed);
    case Mode::kFirst:
    case Mode::kLimit:
      return NodesAnswer(
          nodes, std::min<size_t>(nodes.size(), mode == Mode::kFirst ? 1 : limit),
          hashed);
  }
  return ValueAnswer(reference);
}

std::optional<Answer> ParseQueryResponse(std::string_view body,
                                         uint64_t* doc_version) {
  using xpe::serve::Json;
  xpe::StatusOr<Json> json = Json::Parse(body);
  if (!json.ok() || !json->is_object()) return std::nullopt;
  const Json* type = json->Find("type");
  const Json* version = json->Find("doc_version");
  if (type == nullptr || !type->is_string() || version == nullptr ||
      !version->is_number()) {
    return std::nullopt;
  }
  *doc_version = static_cast<uint64_t>(version->number());
  const std::string& t = type->string();
  Answer a;
  if (t == "node-set") {
    const Json* count = json->Find("count");
    const Json* nodes = json->Find("nodes");
    if (count == nullptr || !count->is_number() || nodes == nullptr ||
        !nodes->is_array()) {
      return std::nullopt;
    }
    const auto n = static_cast<uint64_t>(count->number());
    if (nodes->array().size() != std::min<uint64_t>(n, Answer::kHttpRenderedNodes)) {
      return std::nullopt;
    }
    std::vector<xpe::xml::NodeId> ids;
    for (const Json& node : nodes->array()) {
      const Json* id = node.Find("id");
      if (id == nullptr || !id->is_number()) return std::nullopt;
      ids.push_back(static_cast<xpe::xml::NodeId>(id->number()));
    }
    return NodesAnswer(ids, n);
  }
  const Json* value = json->Find("value");
  if (value == nullptr) return std::nullopt;
  if (t == "boolean" && value->is_bool()) {
    a.kind = 'b';
    a.number = value->boolean() ? 1 : 0;
  } else if (t == "number" && value->is_number()) {
    a.kind = 'd';
    a.number = value->number();
  } else if (t == "string" && value->is_string()) {
    a.kind = 's';
    a.hash = FnvString(value->string());
  } else {
    return std::nullopt;
  }
  return a;
}

xpe::StatusOr<xpe::Value> ReferenceValue(const xpe::xml::Document& doc,
                                         const std::string& text) {
  xpe::xpath::CompileOptions compile;
  compile.optimize = false;
  XPE_ASSIGN_OR_RETURN(xpe::xpath::CompiledQuery query,
                       xpe::xpath::Compile(text, compile));
  xpe::EvalOptions options;
  options.engine = xpe::EngineKind::kMinContext;
  options.use_index = false;
  options.analyze = false;
  return xpe::Evaluate(query, doc, xpe::EvalContext{}, options);
}

}  // namespace perfbench
