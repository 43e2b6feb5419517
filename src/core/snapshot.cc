#include "core/snapshot.h"

#include <utility>

namespace nous {

KgSnapshot::KgSnapshot(uint64_t version, PropertyGraph graph,
                       std::shared_ptr<const RenderedPatternSet> pattern_set,
                       PipelineStats stats)
    : version_(version),
      graph_(std::move(graph)),
      pattern_set_(std::move(pattern_set)),
      stats_(std::move(stats)) {
  // Chunk byte caches make this O(chunks touched since the last
  // accounting pass); the producer constructs off the pipeline locks.
  approx_graph_bytes_ = graph_.Footprint().total_bytes();
}

const std::vector<RenderedPattern>& KgSnapshot::patterns() const {
  static const std::vector<RenderedPattern> kEmpty;
  return pattern_set_ == nullptr ? kEmpty : pattern_set_->patterns;
}

void SnapshotStore::Publish(std::shared_ptr<const KgSnapshot> snapshot) {
  if (snapshot == nullptr) return;
  {
    MutexLock lock(mutex_);
    // Install unless a racing publisher already holds an equal-or-newer
    // view.
    if (current_ != nullptr && snapshot->version() <= current_->version()) {
      return;
    }
    current_.swap(snapshot);
  }
  // `snapshot` now holds the replaced view; dropping it may free the
  // chunks only it still shared, so that happens after the unlock.
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace nous
