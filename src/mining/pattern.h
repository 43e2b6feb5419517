#ifndef NOUS_MINING_PATTERN_H_
#define NOUS_MINING_PATTERN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/dictionary.h"
#include "graph/types.h"

namespace nous {

/// One edge of a pattern: variable ids into the pattern's vertex set.
struct PatternEdge {
  int src = 0;
  PredicateId pred = kInvalidPredicate;
  int dst = 0;

  friend bool operator==(const PatternEdge& a, const PatternEdge& b) {
    return a.src == b.src && a.pred == b.pred && a.dst == b.dst;
  }
};

/// Largest pattern, in edges, that canonicalization and the miners
/// handle. Canonicalization tries every edge ordering, so its cost is
/// factorial in this; the streaming miner stores this many edges inline
/// per embedding.
inline constexpr size_t kMaxPatternEdges = 4;
/// Distinct endpoints of kMaxPatternEdges edges (disconnected at worst).
inline constexpr size_t kMaxPatternVertices = 2 * kMaxPatternEdges;

/// A canonical code in fixed storage: what a Pattern holds, without the
/// heap. Entries past num_edges / num_vertices stay value-initialized;
/// equality and Hash() read only the used prefix. Hash() equals
/// Pattern::Hash() of the same pattern.
struct PatternCode {
  uint8_t num_edges = 0;
  uint8_t num_vertices = 0;
  PatternEdge edges[kMaxPatternEdges] = {};
  TypeId labels[kMaxPatternVertices] = {};

  size_t Hash() const;
  friend bool operator==(const PatternCode& a, const PatternCode& b);
};

struct PatternCodeHash {
  size_t operator()(const PatternCode& c) const { return c.Hash(); }
};

/// Canonicalizes a concrete edge set in fixed (stack) storage. Add()
/// resolves each endpoint to a local vertex index by a linear probe
/// over the distinct vertices seen so far (first appearance, subject
/// before object). The caller then sets each distinct vertex's label
/// once and calls Canonicalize().
class EdgeSetCanonicalizer {
 public:
  /// Appends one edge; at most kMaxPatternEdges in total.
  void Add(uint64_t src, PredicateId pred, uint64_t dst);

  size_t num_vertices() const { return num_vertices_; }
  uint64_t vertex(size_t local) const { return vertices_[local]; }
  void set_label(size_t local, TypeId label) { labels_[local] = label; }

  /// Tries every edge ordering, numbers vertices by first appearance in
  /// it, and keeps the lexicographically smallest code (edge triples,
  /// then vertex labels); among equal codes the first ordering in
  /// std::next_permutation order wins. If `position_to_local` is
  /// non-null it receives, per canonical vertex position, the local
  /// index of the concrete vertex there — the assignment MNI support
  /// counting needs.
  PatternCode Canonicalize(uint8_t* position_to_local = nullptr) const;

 private:
  uint8_t num_edges_ = 0;
  uint8_t num_vertices_ = 0;
  uint8_t src_[kMaxPatternEdges] = {};
  uint8_t dst_[kMaxPatternEdges] = {};
  PredicateId pred_[kMaxPatternEdges] = {};
  uint64_t vertices_[kMaxPatternVertices] = {};
  TypeId labels_[kMaxPatternVertices] = {};
};

/// A small connected, directed, edge-labeled (and optionally
/// vertex-typed) subgraph pattern in canonical form. Canonicalization
/// tries every edge ordering (patterns are capped at kMaxPatternEdges
/// edges), renumbers vertices by first appearance, and keeps the
/// lexicographically smallest code — a minimal-DFS-code construction
/// specialized to tiny patterns.
class Pattern {
 public:
  Pattern() = default;
  explicit Pattern(const PatternCode& code);

  /// A concrete edge during canonicalization: endpoints are opaque
  /// 64-bit vertex keys (graph VertexIds in practice).
  struct ConcreteEdge {
    uint64_t src;
    PredicateId pred;
    uint64_t dst;
  };

  /// Builds the canonical pattern for `edges` (1..kMaxPatternEdges of
  /// them) with EdgeSetCanonicalizer. `vertex_label` supplies the type
  /// label per concrete vertex (return kInvalidType for untyped
  /// mining); it is called once per distinct vertex. If
  /// `position_to_vertex` is non-null it receives the concrete vertex
  /// for each canonical variable position.
  static Pattern Canonicalize(
      const std::vector<ConcreteEdge>& edges,
      const std::function<TypeId(uint64_t)>& vertex_label,
      std::vector<uint64_t>* position_to_vertex = nullptr);

  /// The fixed-storage code of this pattern (at most kMaxPatternEdges
  /// edges, as every canonicalized pattern is).
  PatternCode Code() const;

  const std::vector<PatternEdge>& edges() const { return edges_; }
  const std::vector<TypeId>& vertex_labels() const {
    return vertex_labels_;
  }
  size_t num_edges() const { return edges_.size(); }
  size_t num_vertices() const { return vertex_labels_.size(); }

  /// True when `sub` embeds into this pattern (injective on edges,
  /// consistent on variables, matching labels). Used for closedness.
  bool Contains(const Pattern& sub) const;

  /// Connected (num_edges-1)-edge sub-patterns, deduplicated.
  std::vector<Pattern> SubPatterns() const;

  /// Human-readable form, e.g. "(?0)-[acquired]->(?1) ...".
  std::string ToString(const Dictionary& predicates,
                       const Dictionary* types = nullptr) const;

  friend bool operator==(const Pattern& a, const Pattern& b) {
    return a.edges_ == b.edges_ && a.vertex_labels_ == b.vertex_labels_;
  }

  size_t Hash() const;

 private:
  std::vector<PatternEdge> edges_;
  std::vector<TypeId> vertex_labels_;
};

struct PatternHash {
  size_t operator()(const Pattern& p) const { return p.Hash(); }
};

}  // namespace nous

#endif  // NOUS_MINING_PATTERN_H_
