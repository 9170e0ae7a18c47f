#include "src/serve/document_store.h"

#include <utility>

#include "src/analyze/summary.h"
#include "src/index/document_index.h"
#include "src/succinct/succinct_index.h"

namespace xpe::serve {

DocumentStore::DocumentStore(obs::Registry* registry) {
  obs::Registry& r = registry != nullptr ? *registry : obs::Registry::Global();
  puts_total_ = r.GetCounter("xpe_serve_doc_puts_total");
  swaps_total_ = r.GetCounter("xpe_serve_doc_swaps_total");
  docs_peak_ = r.GetCounter("xpe_serve_docs_peak");
  hot_puts_total_ = r.GetCounter("xpe_index_tier_hot_puts_total");
  dense_puts_total_ = r.GetCounter("xpe_index_tier_dense_puts_total");
}

DocumentHandle DocumentStore::Put(std::string_view name, xml::Document doc,
                                  index::IndexTier tier) {
  // Configure the tier before warming: WarmCaches builds (only) the
  // configured tier's index, so a dense document never pays the flat
  // postings' memory. Warm outside the lock: the O(|D|) cache builds
  // must block neither concurrent lookups nor other publications.
  doc.set_index_tier(tier);
  doc.WarmCaches();

  auto version = std::make_shared<DocumentVersion>();
  version->name = std::string(name);
  version->doc = std::move(doc);

  std::lock_guard<std::mutex> lock(mu_);
  uint64_t& next = next_version_[version->name];
  version->version = ++next;
  auto [it, inserted] = docs_.insert_or_assign(version->name,
                                               DocumentHandle(version));
  puts_total_->Increment();
  (tier == index::IndexTier::kDense ? dense_puts_total_ : hot_puts_total_)
      ->Increment();
  if (!inserted) swaps_total_->Increment();
  docs_peak_->MaxWith(docs_.size());
  return it->second;
}

DocumentHandle DocumentStore::Get(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = docs_.find(name);
  return it == docs_.end() ? nullptr : it->second;
}

bool DocumentStore::Remove(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = docs_.find(name);
  if (it == docs_.end()) return false;
  docs_.erase(it);
  return true;
}

DocumentStore::Info DocumentStore::Describe(const DocumentVersion& version) {
  const xml::Document& doc = version.doc;
  const index::IndexTier tier = doc.index_tier();
  // The configured tier is already warm (Put built it), so these
  // accessors are pure reads — no lazy build under the store lock.
  const uint64_t bytes = tier == index::IndexTier::kDense
                             ? doc.succinct_index().MemoryUsageBytes()
                             : doc.index().MemoryUsageBytes();
  return Info{version.name, version.version, doc.size(), tier, bytes,
              doc.summary().MemoryUsageBytes(), doc.IdAxisBytes()};
}

std::vector<DocumentStore::Info> DocumentStore::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Info> out;
  out.reserve(docs_.size());
  for (const auto& [name, handle] : docs_) out.push_back(Describe(*handle));
  return out;
}

size_t DocumentStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return docs_.size();
}

}  // namespace xpe::serve
