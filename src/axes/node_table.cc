#include "src/axes/node_table.h"

#include <algorithm>
#include <vector>

namespace xpe {

void NodeTable::Reset(EvalArena* arena, uint32_t num_keys) {
  ids_.Reset(arena);
  arena_ = arena;
  num_keys_ = num_keys;
  pages_ = static_cast<RowRef**>(
      arena->Allocate(sizeof(RowRef*) * num_pages(), alignof(RowRef*)));
  for (uint32_t p = 0; p < num_pages(); ++p) pages_[p] = nullptr;
  row_open_ = false;
  cells_ = 0;
  bound_ = true;
}

NodeTable::RowRef& NodeTable::Slot(uint32_t key) {
  RowRef*& page = pages_[key >> kPageBits];
  if (page == nullptr) {
    // The last page holds only the keys that exist, so a small table
    // costs what the flat row array did.
    const uint32_t first = key & ~(kPageKeys - 1);
    const uint32_t n = std::min(kPageKeys, num_keys_ - first);
    page = static_cast<RowRef*>(
        arena_->Allocate(sizeof(RowRef) * n, alignof(RowRef)));
    for (uint32_t k = 0; k < n; ++k) page[k] = RowRef{};
  }
  return page[key & (kPageKeys - 1)];
}

void NodeTable::BeginRow(uint32_t key) {
  open_key_ = key;
  open_begin_ = ids_.size();
  row_open_ = true;
}

void NodeTable::CommitRow() {
  RowRef& row = Slot(open_key_);
  if (row.size > 0) cells_ -= static_cast<uint64_t>(row.size);
  row.offset = open_begin_;
  row.size = static_cast<ptrdiff_t>(ids_.size() - open_begin_);
  cells_ += static_cast<uint64_t>(row.size);
  row_open_ = false;
}

void NodeTable::SetRow(uint32_t key, std::span<const xml::NodeId> ids) {
  BeginRow(key);
  ids_.append(ids.data(), ids.size());
  CommitRow();
}

void NodeTable::CopyRows(const NodeTable& other) {
  const uint32_t limit = std::min(other.num_keys_, num_keys_);
  for (uint32_t p = 0; p < other.num_pages(); ++p) {
    if (other.pages_[p] == nullptr) continue;
    const uint32_t first = p << kPageBits;
    const uint32_t last = std::min(first + kPageKeys, limit);
    for (uint32_t k = first; k < last; ++k) {
      if (other.has_row(k)) SetRow(k, other.Row(k));
    }
  }
}

NodeSet NodeTable::RowAsNodeSet(uint32_t key) const {
  std::span<const xml::NodeId> row = Row(key);
  // Rows are sorted and duplicate-free by construction, so the NodeSet
  // constructor's sort pass is a no-op scan.
  return NodeSet(std::vector<xml::NodeId>(row.begin(), row.end()));
}

}  // namespace xpe
