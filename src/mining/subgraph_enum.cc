#include "mining/subgraph_enum.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace nous {

size_t SubsetEnumerator::Enumerate(const PropertyGraph& graph,
                                   EdgeId anchor, const MinerConfig& config,
                                   bool older_only, const Callback& fn) {
  NOUS_CHECK(config.max_edges <= kMaxPatternEdges)
      << "max_edges " << config.max_edges << " > kMaxPatternEdges";
  graph_ = &graph;
  config_ = &config;
  fn_ = &fn;
  anchor_ = anchor;
  older_only_ = older_only;
  visited_ = 0;
  if (stamp_.size() < graph.NumEdgeSlots()) {
    stamp_.resize(graph.NumEdgeSlots(), 0);
  }
  seen_.clear();
  subset_[0] = anchor;
  Grow(1);
  return visited_;
}

bool SubsetEnumerator::Grow(size_t size) {
  sorted_.assign(subset_, subset_ + size);
  std::sort(sorted_.begin(), sorted_.end());
  if (size >= 3) {
    std::array<EdgeId, kMaxPatternEdges> key;
    key.fill(std::numeric_limits<EdgeId>::max());
    std::copy(sorted_.begin(), sorted_.end(), key.begin());
    if (!seen_.insert(key).second) return true;
  }
  ++visited_;
  (*fn_)(sorted_);
  if (visited_ >= config_->max_subsets_per_edge) return false;
  // max_edges <= kMaxPatternEdges; the second test bounds subset_ for
  // the compiler too.
  if (size >= config_->max_edges || size >= kMaxPatternEdges) return true;
  CollectExtensions(size);
  for (EdgeId ext : extensions_[size]) {
    subset_[size] = ext;
    if (!Grow(size + 1)) return false;
  }
  return true;
}

void SubsetEnumerator::CollectExtensions(size_t size) {
  std::vector<EdgeId>& out = extensions_[size];
  out.clear();
  if (++epoch_ == 0) {  // wrapped: old stamps could alias
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  for (size_t i = 0; i < size; ++i) stamp_[subset_[i]] = epoch_;
  auto consider = [&](EdgeId e) {
    if (older_only_ && e >= anchor_) return;
    if (stamp_[e] == epoch_) return;  // in the subset or already listed
    stamp_[e] = epoch_;
    out.push_back(e);
  };
  for (size_t i = 0; i < size; ++i) {
    const EdgeRecord& rec = graph_->Edge(subset_[i]);
    for (VertexId v : {rec.subject, rec.object}) {
      for (const AdjEntry& a : graph_->OutEdges(v)) consider(a.edge);
      for (const AdjEntry& a : graph_->InEdges(v)) consider(a.edge);
    }
  }
}

size_t EnumerateConnectedSubsets(const PropertyGraph& graph, EdgeId anchor,
                                 const MinerConfig& config, bool older_only,
                                 const SubsetEnumerator::Callback& fn) {
  SubsetEnumerator enumerator;
  return enumerator.Enumerate(graph, anchor, config, older_only, fn);
}

PatternCode CanonicalCodeOf(const PropertyGraph& graph, const EdgeId* edges,
                            size_t num_edges, bool use_vertex_types,
                            VertexId* assignment) {
  EdgeSetCanonicalizer set;
  for (size_t i = 0; i < num_edges; ++i) {
    const EdgeRecord& rec = graph.Edge(edges[i]);
    set.Add(rec.subject, rec.predicate, rec.object);
  }
  if (use_vertex_types) {
    for (size_t v = 0; v < set.num_vertices(); ++v) {
      set.set_label(v, graph.VertexType(static_cast<VertexId>(set.vertex(v))));
    }
  }
  uint8_t local[kMaxPatternVertices];
  PatternCode code = set.Canonicalize(assignment != nullptr ? local : nullptr);
  if (assignment != nullptr) {
    for (size_t pos = 0; pos < code.num_vertices; ++pos) {
      assignment[pos] = static_cast<VertexId>(set.vertex(local[pos]));
    }
  }
  return code;
}

Pattern CanonicalizeEdgeSet(const PropertyGraph& graph,
                            const std::vector<EdgeId>& edges,
                            bool use_vertex_types,
                            std::vector<VertexId>* assignment) {
  VertexId positions[kMaxPatternVertices];
  PatternCode code =
      CanonicalCodeOf(graph, edges.data(), edges.size(), use_vertex_types,
                      assignment != nullptr ? positions : nullptr);
  if (assignment != nullptr) {
    assignment->assign(positions, positions + code.num_vertices);
  }
  return Pattern(code);
}

SupportCounter::SupportCounter(const PropertyGraph* graph,
                               bool use_vertex_types)
    : graph_(graph), use_vertex_types_(use_vertex_types) {}

size_t SupportCounter::EntryFor(const PatternCode& code) {
  auto [it, inserted] = index_.try_emplace(code, entries_.size());
  if (inserted) {
    Entry entry;
    entry.pattern = Pattern(code);
    entry.position_counts.resize(code.num_vertices);
    entries_.push_back(std::move(entry));
  }
  return it->second;
}

void SupportCounter::AddEmbedding(const std::vector<EdgeId>& edges) {
  VertexId assignment[kMaxPatternVertices];
  PatternCode code = CanonicalCodeOf(*graph_, edges.data(), edges.size(),
                                     use_vertex_types_, assignment);
  Entry& entry = entries_[EntryFor(code)];
  for (size_t pos = 0; pos < code.num_vertices; ++pos) {
    entry.position_counts[pos][assignment[pos]]++;
  }
  ++entry.embeddings;
  ++total_embeddings_;
}

void SupportCounter::Merge(const SupportCounter& other) {
  for (const Entry& entry : other.entries_) {
    Entry& target = entries_[EntryFor(entry.pattern.Code())];
    for (size_t pos = 0; pos < entry.position_counts.size(); ++pos) {
      for (const auto& [vertex, count] : entry.position_counts[pos]) {
        target.position_counts[pos][vertex] += count;
      }
    }
    target.embeddings += entry.embeddings;
  }
  total_embeddings_ += other.total_embeddings_;
}

std::vector<PatternStats> SupportCounter::Results(
    size_t min_support) const {
  std::vector<PatternStats> results;
  for (const Entry& entry : entries_) {
    size_t support = entry.position_counts.empty()
                         ? 0
                         : entry.position_counts[0].size();
    for (const auto& counts : entry.position_counts) {
      support = std::min(support, counts.size());
    }
    if (support < min_support) continue;
    PatternStats stats;
    stats.pattern = entry.pattern;
    stats.embeddings = entry.embeddings;
    stats.support = support;
    results.push_back(std::move(stats));
  }
  std::sort(results.begin(), results.end(),
            [](const PatternStats& a, const PatternStats& b) {
              return a.support > b.support;
            });
  return results;
}

}  // namespace nous
