#ifndef XPE_SERVE_DOCUMENT_STORE_H_
#define XPE_SERVE_DOCUMENT_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/index/index_tier.h"
#include "src/obs/metrics.h"
#include "src/xml/document.h"

namespace xpe::serve {

/// A named, versioned document published by a DocumentStore. Immutable
/// once published; handed out as shared_ptr<const DocumentVersion>, so
/// an in-flight evaluation keeps its version alive across any number of
/// hot-swaps (the SXSI-line requirement that storage/versioning be a
/// server concern, not an example-program afterthought).
struct DocumentVersion {
  std::string name;
  uint64_t version = 0;  // per-name, monotonically increasing from 1
  xml::Document doc;
};

using DocumentHandle = std::shared_ptr<const DocumentVersion>;

/// The serve tier's corpus: named documents with versioned hot-swap.
///
/// Publish protocol (Put):
///  1. the new Document's lazy caches are force-built (WarmCaches) so
///     no serving thread ever pays the O(|D|) index build;
///  2. the warmed document is wrapped in an immutable DocumentVersion
///     with the next version number for its name;
///  3. the name→handle map entry is swapped under the lock — a single
///     shared_ptr publish.
///
/// Visibility contract (tested in serve_test.cc): a request that
/// resolved its handle before a swap finishes on the old version; every
/// request resolving after the swap sees the new one. Old versions are
/// freed when the last in-flight holder drops — there is no epoch
/// machinery because shared_ptr already is one.
///
/// Thread-safety: all members are guarded by one mutex; the critical
/// sections are pointer swaps and map lookups (warming runs outside the
/// lock), so the store is never a serving bottleneck.
class DocumentStore {
 public:
  /// `registry` is where the store publishes xpe_serve_doc_* metrics;
  /// null means obs::Registry::Global().
  explicit DocumentStore(obs::Registry* registry = nullptr);

  DocumentStore(const DocumentStore&) = delete;
  DocumentStore& operator=(const DocumentStore&) = delete;

  /// Publishes `doc` under `name`, replacing (hot-swapping) any current
  /// version. Warms the document's lazy caches before publication —
  /// `tier` picks which index build is warmed and served by default
  /// (kHot: flat postings, fastest; kDense: the succinct tier at a
  /// fraction of the memory). Returns the handle just published
  /// (version 1 for a new name).
  DocumentHandle Put(std::string_view name, xml::Document doc,
                     index::IndexTier tier = index::IndexTier::kHot);

  /// The current version of `name`, or nullptr when unknown. The handle
  /// pins that version for as long as the caller holds it.
  DocumentHandle Get(std::string_view name) const;

  /// Removes `name`. In-flight holders keep their version alive; a
  /// later Put under the same name continues the version sequence
  /// (versions never restart, so observers can order swaps). Returns
  /// whether the name existed.
  bool Remove(std::string_view name);

  struct Info {
    std::string name;
    uint64_t version = 0;
    uint64_t nodes = 0;  // |dom| of the current version
    /// The tier this version warms and serves by default, and that
    /// tier's index footprint (what the operator traded).
    index::IndexTier index_tier = index::IndexTier::kHot;
    uint64_t index_bytes = 0;
    /// Footprint of the structural summary the analyzer reads
    /// (Document::summary(), warmed at Put like the index).
    uint64_t summary_bytes = 0;
    /// Footprint of the id-axis arrays (Document::IdAxisBytes(), warmed
    /// at Put; 0 for a document without an ID attribute).
    uint64_t id_axis_bytes = 0;
  };
  /// Info for one published version. Its caches are warm (Put built
  /// them), so this only reads.
  static Info Describe(const DocumentVersion& version);
  /// Current documents, sorted by name (deterministic /documents body).
  std::vector<Info> List() const;

  size_t size() const;

 private:
  obs::Counter* puts_total_;   // publications, first versions included
  obs::Counter* swaps_total_;  // publications that replaced a version
  obs::Counter* docs_peak_;    // high-water mark of resident documents
  /// Publications per tier (xpe_index_tier_{hot,dense}_puts_total):
  /// operators watch the mix to see what the corpus actually serves.
  obs::Counter* hot_puts_total_;
  obs::Counter* dense_puts_total_;

  mutable std::mutex mu_;
  std::map<std::string, DocumentHandle, std::less<>> docs_;
  /// Survives Remove so re-added names keep ascending versions.
  std::map<std::string, uint64_t, std::less<>> next_version_;
};

}  // namespace xpe::serve

#endif  // XPE_SERVE_DOCUMENT_STORE_H_
