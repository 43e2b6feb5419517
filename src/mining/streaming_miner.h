#ifndef NOUS_MINING_STREAMING_MINER_H_
#define NOUS_MINING_STREAMING_MINER_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/temporal_window.h"
#include "mining/miner_config.h"
#include "mining/subgraph_enum.h"

namespace nous {

/// NOUS's streaming frequent graph miner (§3.5): subscribes to a
/// TemporalWindow and maintains, fully incrementally, the embeddings
/// and MNI supports of every connected pattern up to max_edges.
///
/// - On arrival, only subsets containing the new edge are enumerated
///   (the new edge always has the maximum id, so each subset is
///   discovered exactly once) — no global re-enumeration.
/// - On expiry, a per-edge inverted index removes exactly the dead
///   embeddings and decrements their pattern counts; each removal is
///   O(pattern size), independent of how many embeddings share an edge.
/// - Sub-pattern counts are maintained alongside their super-patterns,
///   so when a pattern decays below the support threshold its smaller
///   frequent structure is immediately reportable — the paper's
///   demotion/reconstruction property.
///
/// Frequent and closed-frequent pattern sets are computed on demand
/// from the maintained counts. Baselines (gspan.h, arabesque_sim.h)
/// recompute from scratch per window for the E4 speedup comparison.
///
/// Concurrency: externally synchronized. The miner keeps no internal
/// locks; KgPipeline owns it behind `kg_mutex()` (`miner_` is
/// GUARDED_BY in pipeline.h) — updates arrive under the exclusive
/// side, reads (FrequentPatterns, query serving) under the shared
/// side. Standalone users need the same discipline or a single
/// thread.
class StreamingMiner : public WindowListener {
 public:
  /// `config.max_edges` must not exceed kMaxPatternEdges (checked).
  explicit StreamingMiner(MinerConfig config);

  // WindowListener:
  void OnEdgeAdded(const PropertyGraph& graph, EdgeId edge) override;
  void OnEdgeExpiring(const PropertyGraph& graph, EdgeId edge) override;

  /// Patterns with support >= min_support, sorted by support desc.
  std::vector<PatternStats> FrequentPatterns() const;

  /// Frequent patterns with no frequent strict super-pattern of equal
  /// support.
  std::vector<PatternStats> ClosedFrequentPatterns() const;

  /// Support of one pattern (0 when untracked).
  size_t SupportOf(const Pattern& pattern) const;

  /// Frequency churn since the previous TakeChurn call.
  struct Churn {
    std::vector<Pattern> became_frequent;
    std::vector<Pattern> became_infrequent;
  };
  Churn TakeChurn();

  /// Monotonic counter bumped by every window event the miner
  /// observes. Equal generations guarantee the pattern set (and its
  /// rendering) is unchanged, so snapshot publish can reuse the
  /// previous RenderedPatternSet instead of re-stringifying every
  /// closed frequent pattern.
  uint64_t generation() const { return generation_; }

  size_t num_tracked_patterns() const { return patterns_.size(); }
  size_t num_live_embeddings() const { return live_embeddings_; }
  size_t total_embeddings_created() const { return created_total_; }
  size_t total_embeddings_removed() const { return removed_total_; }
  const MinerConfig& config() const { return config_; }

 private:
  struct PatternEntry {
    Pattern pattern;
    /// Distinct graph vertices seen at each canonical position; MNI
    /// support is their minimum.
    std::vector<uint32_t> distinct;
    size_t embeddings = 0;
  };

  /// Live embeddings per (pattern, position, vertex), in one
  /// open-addressing table (linear probing, backward-shift deletion):
  /// MNI bookkeeping without a heap node per newly seen vertex.
  class PositionCounts {
   public:
    /// Counts one more occurrence; true when the key is new.
    bool Increment(uint32_t pattern_id, size_t pos, VertexId v);
    /// Counts one fewer occurrence of a present key; true when that
    /// was its last one.
    bool Decrement(uint32_t pattern_id, size_t pos, VertexId v);

   private:
    struct Slot {
      uint64_t key = 0;
      uint32_t count = 0;  // 0 = empty slot
    };
    static uint64_t Key(uint32_t pattern_id, size_t pos, VertexId v);
    size_t Home(uint64_t key) const;
    /// Index of `key`'s slot, or of the empty slot ending its probe.
    size_t Find(uint64_t key) const;
    void Grow();

    std::vector<Slot> slots_;
    size_t used_ = 0;
  };

  /// One live embedding, stored inline: the steady-state path makes no
  /// per-embedding allocation. `edge_slot[i]` is this embedding's index
  /// in `edge_index_[edges[i]]`, so removal swap-removes it from every
  /// edge's list in O(1). Edge and vertex counts come from the
  /// pattern; enumerated subsets are connected, so k edges have at most
  /// k+1 vertices.
  struct Embedding {
    uint32_t pattern_id = kFreeSlot;
    EdgeId edges[kMaxPatternEdges] = {};
    uint32_t edge_slot[kMaxPatternEdges] = {};
    VertexId assignment[kMaxPatternEdges + 1] = {};
  };
  static constexpr uint32_t kFreeSlot = ~uint32_t{0};

  void AddEmbedding(const PropertyGraph& graph,
                    const std::vector<EdgeId>& edges);
  /// Removes one embedding; `draining` is the expiring edge whose list
  /// the caller is walking (and releases afterwards), so it is skipped.
  void RemoveEmbedding(uint32_t embedding_id, EdgeId draining);
  size_t SupportOfEntry(const PatternEntry& entry) const;

  MinerConfig config_;
  std::vector<PatternEntry> patterns_;
  std::unordered_map<PatternCode, uint32_t, PatternCodeHash> pattern_index_;
  PositionCounts position_counts_;
  std::vector<Embedding> embeddings_;
  std::vector<uint32_t> free_slots_;
  /// Embedding ids per window-graph edge id (dense: edge ids only
  /// grow). An expired edge's list is released.
  std::vector<std::vector<uint32_t>> edge_index_;
  SubsetEnumerator enumerator_;
  std::unordered_set<size_t> last_frequent_;  // pattern ids
  uint64_t generation_ = 0;
  size_t live_embeddings_ = 0;
  size_t created_total_ = 0;
  size_t removed_total_ = 0;
};

}  // namespace nous

#endif  // NOUS_MINING_STREAMING_MINER_H_
