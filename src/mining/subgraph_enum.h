#ifndef NOUS_MINING_SUBGRAPH_ENUM_H_
#define NOUS_MINING_SUBGRAPH_ENUM_H_

#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <unordered_map>
#include <vector>

#include "graph/property_graph.h"
#include "mining/miner_config.h"

namespace nous {

/// Enumerates every connected live-edge subset of size in [1,
/// max_edges] containing `anchor`, optionally restricted to edges with
/// id < anchor. The callback receives each subset once (sorted edge
/// ids). Returns the number of subsets visited (callback count), which
/// is also capped at config.max_subsets_per_edge.
///
/// The `older_only` restriction gives exactly-once global enumeration:
/// every connected subset has a unique maximum edge id, so enumerating
/// per-anchor over all edges (or per arriving edge in the streaming
/// miner, where the new edge is always the maximum) covers each subset
/// exactly once.
///
/// Subsets grow depth-first from {anchor}; each level extends by the
/// live edges adjacent to the subset's endpoints, in adjacency order.
/// The scratch buffers are reused across calls, so a caller that
/// enumerates many anchors keeps one enumerator (one per thread).
class SubsetEnumerator {
 public:
  using Callback = std::function<void(const std::vector<EdgeId>&)>;

  /// config.max_edges must be <= kMaxPatternEdges.
  size_t Enumerate(const PropertyGraph& graph, EdgeId anchor,
                   const MinerConfig& config, bool older_only,
                   const Callback& fn);

 private:
  /// Visits subset_[0, size) and recurses; false once the cap is hit.
  bool Grow(size_t size);
  /// Fills extensions_[size] with the candidate edges for subset_[0,
  /// size), deduplicated by an epoch stamp per edge id.
  void CollectExtensions(size_t size);

  // Per-call state.
  const PropertyGraph* graph_ = nullptr;
  const MinerConfig* config_ = nullptr;
  const Callback* fn_ = nullptr;
  EdgeId anchor_ = 0;
  bool older_only_ = true;
  size_t visited_ = 0;

  // Reused scratch.
  EdgeId subset_[kMaxPatternEdges] = {};
  std::vector<EdgeId> sorted_;
  std::vector<EdgeId> extensions_[kMaxPatternEdges];
  std::vector<uint32_t> stamp_;  // per edge id; == epoch_ when marked
  uint32_t epoch_ = 0;
  /// Subsets of three or more edges can be reached along several
  /// growth orders; smaller ones are unique by construction. Keys are
  /// the sorted ids, padded with the largest EdgeId.
  std::set<std::array<EdgeId, kMaxPatternEdges>> seen_;
};

/// One-shot SubsetEnumerator::Enumerate with fresh scratch.
size_t EnumerateConnectedSubsets(const PropertyGraph& graph, EdgeId anchor,
                                 const MinerConfig& config, bool older_only,
                                 const SubsetEnumerator::Callback& fn);

/// Canonical code of `num_edges` graph edges (EdgeSetCanonicalizer),
/// reading each distinct vertex's type once when `use_vertex_types`.
/// `assignment` (if non-null, room for kMaxPatternVertices) receives
/// the graph vertex per canonical position.
PatternCode CanonicalCodeOf(const PropertyGraph& graph, const EdgeId* edges,
                            size_t num_edges, bool use_vertex_types,
                            VertexId* assignment);

/// CanonicalCodeOf as a Pattern; assignment (if non-null) receives the
/// graph vertex per canonical position.
Pattern CanonicalizeEdgeSet(const PropertyGraph& graph,
                            const std::vector<EdgeId>& edges,
                            bool use_vertex_types,
                            std::vector<VertexId>* assignment = nullptr);

/// Accumulates embeddings into per-pattern MNI support counts; shared
/// by the re-enumeration baselines.
class SupportCounter {
 public:
  SupportCounter(const PropertyGraph* graph, bool use_vertex_types);

  void AddEmbedding(const std::vector<EdgeId>& edges);

  /// Folds another counter's per-pattern counts into this one (used to
  /// combine per-worker counters after a parallel enumeration).
  void Merge(const SupportCounter& other);

  /// Patterns meeting `min_support`, sorted by support descending.
  std::vector<PatternStats> Results(size_t min_support) const;

  size_t num_patterns() const { return entries_.size(); }
  size_t total_embeddings() const { return total_embeddings_; }

 private:
  struct Entry {
    Pattern pattern;
    std::vector<std::unordered_map<VertexId, uint32_t>> position_counts;
    size_t embeddings = 0;
  };

  /// Index of the entry for `code`, created on first sight.
  size_t EntryFor(const PatternCode& code);

  const PropertyGraph* graph_;
  bool use_vertex_types_;
  std::vector<Entry> entries_;
  std::unordered_map<PatternCode, size_t, PatternCodeHash> index_;
  size_t total_embeddings_ = 0;
};

}  // namespace nous

#endif  // NOUS_MINING_SUBGRAPH_ENUM_H_
