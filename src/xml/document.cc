#include "src/xml/document.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <sstream>

#include "src/analyze/summary.h"
#include "src/common/numeric.h"
#include "src/common/str_util.h"
#include "src/index/document_index.h"
#include "src/index/index_tier.h"
#include "src/succinct/succinct_index.h"

namespace xpe::xml {

// The id axis in CSR form: x's forward set is
// forward_targets[forward_offsets[x] .. forward_offsets[x + 1]), and the
// inverse direction likewise. One build fills both.
//
// The strval of the root, an element or a text node is the slice
// [text_begin[x], text_begin[subtree_end(x)]) of strval(root), so
// strval(root) is tokenized once and every whole token is looked up once.
// A node's forward set is then the hits lying fully inside its slice
// (found by binary search) plus at most two fragments: a slice boundary
// can cut a token (text nodes join without a separator), and only the
// part inside the slice belongs to the node's strval. Attributes,
// comments and PIs tokenize their own content.
struct Document::IdAxis {
  explicit IdAxis(const Document& doc);

  uint64_t MemoryUsageBytes() const {
    return sizeof(uint32_t) *
               (forward_offsets.capacity() + inverse_offsets.capacity()) +
           sizeof(NodeId) *
               (forward_targets.capacity() + inverse_sources.capacity());
  }

  std::vector<uint32_t> forward_offsets;  // |D| + 1 entries
  std::vector<NodeId> forward_targets;
  std::vector<uint32_t> inverse_offsets;  // |D| + 1 entries
  std::vector<NodeId> inverse_sources;
};

/// See the declaration in document.h: the immovable synchronization
/// primitives of the lazy caches, boxed so Document stays move-only.
struct Document::LazyCaches {
  std::once_flag id_axis_once;
  std::once_flag index_once;
  std::once_flag succinct_once;
  std::once_flag summary_once;
  std::once_flag number_once;
  std::unique_ptr<index::DocumentIndex> document_index;
  std::unique_ptr<succinct::SuccinctDocumentIndex> succinct_index;
  std::unique_ptr<analyze::StructuralSummary> summary;
  std::unique_ptr<IdAxis> id_axis;
};

Document::Document() : caches_(std::make_unique<LazyCaches>()) {}
Document::~Document() = default;
Document::Document(Document&&) noexcept = default;
Document& Document::operator=(Document&&) noexcept = default;

const char* NodeKindToString(NodeKind kind) {
  switch (kind) {
    case NodeKind::kRoot:
      return "root";
    case NodeKind::kElement:
      return "element";
    case NodeKind::kAttribute:
      return "attribute";
    case NodeKind::kText:
      return "text";
    case NodeKind::kComment:
      return "comment";
    case NodeKind::kProcessingInstruction:
      return "processing-instruction";
  }
  return "unknown";
}

bool Document::IsAncestor(NodeId ancestor, NodeId node) const {
  if (ancestor == node) return false;
  if (IsAttribute(node)) {
    // An attribute's ancestors are its element and that element's ancestors.
    NodeId owner = parent(node);
    return ancestor == owner || IsAncestor(ancestor, owner);
  }
  // Attribute nodes own no subtree beyond themselves.
  if (IsAttribute(ancestor)) return false;
  return ancestor < node && node < subtree_end(ancestor);
}

std::string_view Document::name(NodeId id) const {
  uint32_t n = nodes_[id].name;
  if (n == kNoString) return {};
  return names_[n];
}

std::string_view Document::content(NodeId id) const {
  uint32_t c = nodes_[id].content;
  if (c == kNoString) return {};
  return contents_[c];
}

uint32_t Document::LookupNameId(std::string_view name) const {
  auto it = name_ids_.find(name);
  return it == name_ids_.end() ? kNoString : it->second;
}

std::optional<std::string_view> Document::Attribute(
    NodeId element, std::string_view name) const {
  if (!IsElement(element)) return std::nullopt;
  for (NodeId a = AttrBegin(element); a < AttrEnd(element); ++a) {
    if (this->name(a) == name) return content(a);
  }
  return std::nullopt;
}

std::string Document::StringValue(NodeId id) const {
  switch (kind(id)) {
    case NodeKind::kText:
    case NodeKind::kComment:
    case NodeKind::kProcessingInstruction:
    case NodeKind::kAttribute:
      return std::string(content(id));
    case NodeKind::kRoot:
    case NodeKind::kElement: {
      std::string out;
      for (NodeId n = id; n < subtree_end(id); ++n) {
        if (kind(n) == NodeKind::kText) out += content(n);
      }
      return out;
    }
  }
  return {};
}

void Document::EnsureNumberCache() const {
  std::call_once(caches_->number_once, [this] {
    number_cache_ = std::vector<std::atomic<double>>(nodes_.size());
    number_cached_ = std::vector<std::atomic<uint8_t>>(nodes_.size());
  });
}

double Document::NumberValue(NodeId id) const {
  // Lock-free per-entry memoization: the once_flag sizes the arrays, the
  // release store of the flag publishes the value. Concurrent fillers
  // recompute the same deterministic double, which is harmless.
  EnsureNumberCache();
  if (number_cached_[id].load(std::memory_order_acquire)) {
    return number_cache_[id].load(std::memory_order_relaxed);
  }
  const double value = XPathStringToNumber(StringValue(id));
  number_cache_[id].store(value, std::memory_order_relaxed);
  number_cached_[id].store(1, std::memory_order_release);
  return value;
}

std::vector<NodeId> Document::DerefIds(std::string_view keys) const {
  std::vector<NodeId> out;
  for (std::string_view key : SplitOnWhitespace(keys)) {
    if (auto node = GetElementById(key)) out.push_back(*node);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::optional<NodeId> Document::GetElementById(std::string_view key) const {
  auto it = id_index_.find(key);
  if (it == id_index_.end()) return std::nullopt;
  return it->second;
}

namespace {

void SortAndDedupe(std::vector<NodeId>* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

}  // namespace

Document::IdAxis::IdAxis(const Document& doc) {
  const NodeId n = doc.size();
  // Most tokens are not ids. Before hashing one, check that some key
  // starts with its first byte and has its length (lengths of 63 and
  // more share the top bit).
  size_t max_key = 0;
  uint64_t key_lengths[256] = {};
  for (const auto& entry : doc.id_index_) {
    const std::string& key = entry.first;
    if (key.empty()) continue;  // no token is empty
    max_key = std::max(max_key, key.size());
    key_lengths[static_cast<unsigned char>(key[0])] |=
        uint64_t{1} << std::min<size_t>(key.size(), 63);
  }
  auto lookup = [&](std::string_view token) {
    if (token.size() > max_key) return kInvalidNodeId;
    const unsigned char first = static_cast<unsigned char>(token[0]);
    const size_t length_bit = std::min<size_t>(token.size(), 63);
    if (((key_lengths[first] >> length_bit) & 1) == 0) return kInvalidNodeId;
    return doc.GetElementById(token).value_or(kInvalidNodeId);
  };

  size_t text_size = 0;
  for (NodeId x = 0; x < n; ++x) {
    if (doc.IsText(x)) text_size += doc.content(x).size();
  }
  std::string text;  // strval(root)
  text.reserve(text_size);
  std::vector<size_t> text_begin(n + 1);
  for (NodeId x = 0; x < n; ++x) {
    text_begin[x] = text.size();
    if (doc.IsText(x)) text += doc.content(x);
  }
  text_begin[n] = text.size();
  const std::string_view strval_root = text;
  auto in_word = [strval_root](size_t i) {
    return i < strval_root.size() && !IsXmlWhitespaceChar(strval_root[i]);
  };

  struct Hit {
    size_t begin, end;  // the token strval_root[begin, end)
    NodeId target;
  };
  std::vector<Hit> hits;
  ForEachWhitespaceToken(strval_root, [&](std::string_view token) {
    const NodeId target = lookup(token);
    if (target == kInvalidNodeId) return;
    const size_t begin = static_cast<size_t>(token.data() - strval_root.data());
    hits.push_back({begin, begin + token.size(), target});
  });

  // The set of the last slice computed: an element whose text is one
  // text child shares that child's slice, so the child reuses it.
  std::vector<NodeId> slice_set;
  size_t slice_lo = 1, slice_hi = 0;  // no slice yet
  auto compute_slice_set = [&](size_t lo, size_t hi) {
    slice_lo = lo;
    slice_hi = hi;
    slice_set.clear();
    if (lo == hi) return;
    auto add = [&](std::string_view token) {
      const NodeId target = lookup(token);
      if (target != kInvalidNodeId) slice_set.push_back(target);
    };
    auto first = std::lower_bound(
        hits.begin(), hits.end(), lo,
        [](const Hit& h, size_t pos) { return h.begin < pos; });
    auto last = std::upper_bound(
        first, hits.end(), hi,
        [](size_t pos, const Hit& h) { return pos < h.end; });
    for (auto it = first; it < last; ++it) slice_set.push_back(it->target);
    // Scans stop one character past the longest key: a longer fragment
    // cannot be an id. When the slice lies inside one token, both ends
    // cut the same fragment, and it is looked up once.
    bool whole_slice_cut = false;
    if (lo > 0 && in_word(lo - 1) && in_word(lo)) {
      const size_t stop = std::min(hi, lo + max_key + 1);
      size_t end = lo;
      while (end < stop && in_word(end)) ++end;
      add(strval_root.substr(lo, end - lo));
      whole_slice_cut = end == hi;
    }
    if (!whole_slice_cut && in_word(hi - 1) && in_word(hi)) {
      const size_t stop = hi - lo > max_key + 1 ? hi - max_key - 1 : lo;
      size_t begin = hi;
      while (begin > stop && in_word(begin - 1)) --begin;
      add(strval_root.substr(begin, hi - begin));
    }
    SortAndDedupe(&slice_set);
  };

  forward_offsets.reserve(n + 1);
  forward_offsets.push_back(0);
  std::vector<NodeId> own_set;
  for (NodeId x = 0; x < n; ++x) {
    switch (doc.kind(x)) {
      case NodeKind::kAttribute:
      case NodeKind::kComment:
      case NodeKind::kProcessingInstruction:
        own_set.clear();
        ForEachWhitespaceToken(doc.content(x), [&](std::string_view token) {
          const NodeId target = lookup(token);
          if (target != kInvalidNodeId) own_set.push_back(target);
        });
        SortAndDedupe(&own_set);
        forward_targets.insert(forward_targets.end(), own_set.begin(),
                               own_set.end());
        break;
      case NodeKind::kRoot:
      case NodeKind::kElement:
      case NodeKind::kText: {
        const size_t lo = text_begin[x];
        const size_t hi = text_begin[doc.subtree_end(x)];
        if (lo != slice_lo || hi != slice_hi) compute_slice_set(lo, hi);
        forward_targets.insert(forward_targets.end(), slice_set.begin(),
                               slice_set.end());
        break;
      }
    }
    // A document whose forward sets hold 2^32 entries would need 16 GiB
    // for the targets alone.
    if (forward_targets.size() > UINT32_MAX) std::abort();
    forward_offsets.push_back(static_cast<uint32_t>(forward_targets.size()));
  }
  forward_targets.shrink_to_fit();

  // Counting sort by target. Sources are visited in ascending order, so
  // each inverse set comes out ascending.
  inverse_offsets.assign(n + 1, 0);
  for (NodeId y : forward_targets) ++inverse_offsets[y + 1];
  for (NodeId y = 0; y < n; ++y) inverse_offsets[y + 1] += inverse_offsets[y];
  inverse_sources.resize(forward_targets.size());
  std::vector<uint32_t> cursor(inverse_offsets.begin(),
                               inverse_offsets.end() - 1);
  for (NodeId x = 0; x < n; ++x) {
    for (uint32_t i = forward_offsets[x]; i < forward_offsets[x + 1]; ++i) {
      inverse_sources[cursor[forward_targets[i]]++] = x;
    }
  }
}

const Document::IdAxis& Document::id_axis() const {
  std::call_once(caches_->id_axis_once, [this] {
    caches_->id_axis = std::make_unique<IdAxis>(*this);
  });
  return *caches_->id_axis;
}

std::span<const NodeId> Document::IdAxisForward(NodeId x) const {
  if (id_index_.empty()) return {};
  const IdAxis& axis = id_axis();
  const uint32_t begin = axis.forward_offsets[x];
  return {axis.forward_targets.data() + begin,
          axis.forward_offsets[x + 1] - begin};
}

std::span<const NodeId> Document::IdAxisInverse(NodeId y) const {
  if (id_index_.empty()) return {};
  const IdAxis& axis = id_axis();
  const uint32_t begin = axis.inverse_offsets[y];
  return {axis.inverse_sources.data() + begin,
          axis.inverse_offsets[y + 1] - begin};
}

uint64_t Document::IdAxisBytes() const {
  return id_index_.empty() ? 0 : id_axis().MemoryUsageBytes();
}

const index::DocumentIndex& Document::index() const {
  std::call_once(caches_->index_once, [this] {
    caches_->document_index = std::make_unique<index::DocumentIndex>(*this);
  });
  return *caches_->document_index;
}

const succinct::SuccinctDocumentIndex& Document::succinct_index() const {
  std::call_once(caches_->succinct_once, [this] {
    caches_->succinct_index =
        std::make_unique<succinct::SuccinctDocumentIndex>(*this);
  });
  return *caches_->succinct_index;
}

index::IndexView Document::index_view(index::IndexTier tier) const {
  return tier == index::IndexTier::kDense ? index::IndexView(&succinct_index())
                                          : index::IndexView(&index());
}

const analyze::StructuralSummary& Document::summary() const {
  std::call_once(caches_->summary_once, [this] {
    caches_->summary =
        std::make_unique<analyze::StructuralSummary>(analyze::Summarize(*this));
  });
  return *caches_->summary;
}

void Document::WarmCaches() const {
  // First-touch under contention is already safe (once_flags / per-entry
  // atomics), but a server that warms before fan-out gets a fully
  // read-only document: no worker ever pays a lazy O(|D|) build mid-query
  // or serializes behind another's call_once.
  //
  // Only the configured tier is warmed: a dense document must not pull
  // the ~9x larger flat index into memory just by being warmed — that
  // would defeat the tier's point. A per-evaluation tier override still
  // works (the other tier builds lazily, under its own once_flag).
  if (index_tier_ == index::IndexTier::kDense) {
    succinct_index();
  } else {
    index();
  }
  IdAxisForward(0);  // builds both directions; a no-op without ids
  EnsureNumberCache();
  summary();  // the analyzer's DataGuide — tiny, and read on every query
}

std::string Document::DebugDump() const {
  std::ostringstream os;
  for (NodeId id = 0; id < size(); ++id) {
    os << id << ": " << NodeKindToString(kind(id));
    if (!name(id).empty()) os << " name=" << name(id);
    if (!content(id).empty()) os << " content=\"" << content(id) << "\"";
    os << " parent=" << static_cast<int64_t>(parent(id) == kInvalidNodeId
                                                 ? -1
                                                 : static_cast<int64_t>(parent(id)))
       << " end=" << subtree_end(id) << "\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// DocumentBuilder

DocumentBuilder::DocumentBuilder(std::string id_attribute_name) {
  doc_.id_attribute_name_ = std::move(id_attribute_name);
  // The document root.
  AppendNode(NodeKind::kRoot, kNoString, kNoString);
  open_.push_back(0);
  children_started_ = true;  // the root never carries attributes
}

uint32_t DocumentBuilder::InternName(std::string_view name) {
  auto [it, inserted] = doc_.name_ids_.emplace(
      std::string(name), static_cast<uint32_t>(doc_.names_.size()));
  if (inserted) doc_.names_.emplace_back(name);
  return it->second;
}

uint32_t DocumentBuilder::AddContent(std::string_view content) {
  doc_.contents_.emplace_back(content);
  return static_cast<uint32_t>(doc_.contents_.size() - 1);
}

NodeId DocumentBuilder::AppendNode(NodeKind kind, uint32_t name,
                                   uint32_t content) {
  NodeId id = static_cast<NodeId>(doc_.nodes_.size());
  NodeRecord rec;
  rec.kind = kind;
  rec.name = name;
  rec.content = content;
  rec.subtree_end = id + 1;
  if (!open_.empty()) {
    NodeId p = open_.back();
    rec.parent = p;
    if (kind != NodeKind::kAttribute) {
      NodeRecord& pr = doc_.nodes_[p];
      if (pr.first_child == kInvalidNodeId) {
        pr.first_child = id;
      } else {
        doc_.nodes_[pr.last_child].next_sibling = id;
        rec.prev_sibling = pr.last_child;
      }
      pr.last_child = id;
    }
  }
  doc_.nodes_.push_back(rec);
  return id;
}

void DocumentBuilder::StartElement(std::string_view name) {
  NodeId id = AppendNode(NodeKind::kElement, InternName(name), kNoString);
  open_.push_back(id);
  children_started_ = false;
}

void DocumentBuilder::EndElement() {
  if (open_.size() <= 1) {
    if (deferred_error_.ok()) {
      deferred_error_ = Status::Internal("EndElement without open element");
    }
    return;
  }
  NodeId id = open_.back();
  open_.pop_back();
  doc_.nodes_[id].subtree_end = static_cast<NodeId>(doc_.nodes_.size());
  children_started_ = true;
}

void DocumentBuilder::AddAttribute(std::string_view name,
                                   std::string_view value) {
  if (open_.size() <= 1 || children_started_) {
    if (deferred_error_.ok()) {
      deferred_error_ = Status::Internal(
          "AddAttribute must directly follow StartElement");
    }
    return;
  }
  NodeId elem = open_.back();
  AppendNode(NodeKind::kAttribute, InternName(name), AddContent(value));
  ++doc_.nodes_[elem].attr_count;
  if (name == doc_.id_attribute_name_) {
    doc_.id_index_.emplace(std::string(value), elem);  // first wins
  }
}

void DocumentBuilder::AddText(std::string_view text) {
  NodeId p = open_.back();
  NodeId last = doc_.nodes_[p].last_child;
  if (last != kInvalidNodeId && doc_.nodes_[last].kind == NodeKind::kText) {
    doc_.contents_[doc_.nodes_[last].content].append(text);
    return;
  }
  AppendNode(NodeKind::kText, kNoString, AddContent(text));
  children_started_ = true;
}

void DocumentBuilder::AddComment(std::string_view text) {
  AppendNode(NodeKind::kComment, kNoString, AddContent(text));
  children_started_ = true;
}

void DocumentBuilder::AddProcessingInstruction(std::string_view target,
                                               std::string_view content) {
  AppendNode(NodeKind::kProcessingInstruction, InternName(target),
             AddContent(content));
  children_started_ = true;
}

StatusOr<Document> DocumentBuilder::Finish() && {
  XPE_RETURN_IF_ERROR(deferred_error_);
  if (open_.size() != 1) {
    return Status::Internal("Finish with unclosed elements");
  }
  doc_.nodes_[0].subtree_end = static_cast<NodeId>(doc_.nodes_.size());
  return std::move(doc_);
}

}  // namespace xpe::xml
