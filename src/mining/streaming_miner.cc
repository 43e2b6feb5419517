#include "mining/streaming_miner.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nous {

namespace {

struct MinerMetrics {
  Counter* patterns_emitted;
  Counter* patterns_demoted;
  Gauge* tracked_patterns;
  Gauge* live_embeddings;
};

const MinerMetrics& Metrics() {
  static MinerMetrics metrics = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    MinerMetrics m;
    m.patterns_emitted = r.GetCounter(
        "nous_mining_patterns_emitted_total",
        "Patterns that crossed min_support upward");
    m.patterns_demoted = r.GetCounter(
        "nous_mining_patterns_demoted_total",
        "Patterns that decayed below min_support");
    m.tracked_patterns = r.GetGauge("nous_mining_tracked_patterns",
                                    "Distinct patterns under maintenance");
    m.live_embeddings = r.GetGauge("nous_mining_live_embeddings",
                                   "Live embeddings across all patterns");
    return m;
  }();
  return metrics;
}

}  // namespace

StreamingMiner::StreamingMiner(MinerConfig config) : config_(config) {
  NOUS_CHECK(config_.max_edges <= kMaxPatternEdges)
      << "MinerConfig::max_edges " << config_.max_edges
      << " exceeds kMaxPatternEdges " << kMaxPatternEdges;
}

void StreamingMiner::OnEdgeAdded(const PropertyGraph& graph, EdgeId edge) {
  NOUS_SPAN("mining");
  ++generation_;
  if (edge_index_.size() < graph.NumEdgeSlots()) {
    edge_index_.resize(graph.NumEdgeSlots());
  }
  // Every connected subset containing the new edge; all other edges in
  // the window are older (smaller ids), so older_only enumeration
  // discovers each subset exactly once across the stream.
  enumerator_.Enumerate(graph, edge, config_, /*older_only=*/true,
                        [this, &graph](const std::vector<EdgeId>& subset) {
                          AddEmbedding(graph, subset);
                        });
  Metrics().tracked_patterns->Set(static_cast<double>(patterns_.size()));
  Metrics().live_embeddings->Set(static_cast<double>(live_embeddings_));
}

void StreamingMiner::OnEdgeExpiring(const PropertyGraph& /*graph*/,
                                    EdgeId edge) {
  NOUS_SPAN("mining_expire");
  ++generation_;
  if (edge >= edge_index_.size()) return;
  std::vector<uint32_t>& ids = edge_index_[edge];
  for (uint32_t id : ids) RemoveEmbedding(id, edge);
  std::vector<uint32_t>().swap(ids);  // the edge never comes back
  Metrics().live_embeddings->Set(static_cast<double>(live_embeddings_));
}

void StreamingMiner::AddEmbedding(const PropertyGraph& graph,
                                  const std::vector<EdgeId>& edges) {
  VertexId assignment[kMaxPatternVertices];
  PatternCode code = CanonicalCodeOf(graph, edges.data(), edges.size(),
                                     config_.use_vertex_types, assignment);
  auto [it, inserted] = pattern_index_.try_emplace(
      code, static_cast<uint32_t>(patterns_.size()));
  if (inserted) {
    PatternEntry entry;
    entry.pattern = Pattern(code);
    entry.distinct.resize(code.num_vertices);
    patterns_.push_back(std::move(entry));
  }
  uint32_t pattern_id = it->second;
  PatternEntry& entry = patterns_[pattern_id];
  size_t support_before = SupportOfEntry(entry);
  for (size_t pos = 0; pos < code.num_vertices; ++pos) {
    if (position_counts_.Increment(pattern_id, pos, assignment[pos])) {
      ++entry.distinct[pos];
    }
  }
  ++entry.embeddings;
  if (support_before < config_.min_support &&
      SupportOfEntry(entry) >= config_.min_support) {
    Metrics().patterns_emitted->Increment();
  }

  uint32_t id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    id = static_cast<uint32_t>(embeddings_.size());
    embeddings_.emplace_back();
  }
  Embedding& emb = embeddings_[id];
  emb.pattern_id = pattern_id;
  for (size_t i = 0; i < code.num_edges; ++i) {
    std::vector<uint32_t>& list = edge_index_[edges[i]];
    emb.edges[i] = edges[i];
    emb.edge_slot[i] = static_cast<uint32_t>(list.size());
    list.push_back(id);
  }
  std::copy(assignment, assignment + code.num_vertices, emb.assignment);
  ++live_embeddings_;
  ++created_total_;
}

void StreamingMiner::RemoveEmbedding(uint32_t embedding_id, EdgeId draining) {
  Embedding& emb = embeddings_[embedding_id];
  NOUS_CHECK(emb.pattern_id != kFreeSlot);
  PatternEntry& entry = patterns_[emb.pattern_id];
  size_t support_before = SupportOfEntry(entry);
  for (size_t pos = 0; pos < entry.distinct.size(); ++pos) {
    if (position_counts_.Decrement(emb.pattern_id, pos,
                                   emb.assignment[pos])) {
      --entry.distinct[pos];
    }
  }
  --entry.embeddings;
  if (support_before >= config_.min_support &&
      SupportOfEntry(entry) < config_.min_support) {
    Metrics().patterns_demoted->Increment();
  }
  for (size_t i = 0; i < entry.pattern.num_edges(); ++i) {
    if (emb.edges[i] == draining) continue;
    std::vector<uint32_t>& list = edge_index_[emb.edges[i]];
    const uint32_t slot = emb.edge_slot[i];
    const uint32_t moved = list.back();
    list[slot] = moved;
    list.pop_back();
    if (moved != embedding_id) {
      Embedding& other = embeddings_[moved];
      for (size_t j = 0; j < kMaxPatternEdges; ++j) {
        if (other.edges[j] == emb.edges[i]) {
          other.edge_slot[j] = slot;
          break;
        }
      }
    }
  }
  emb.pattern_id = kFreeSlot;
  free_slots_.push_back(embedding_id);
  --live_embeddings_;
  ++removed_total_;
}

size_t StreamingMiner::SupportOfEntry(const PatternEntry& entry) const {
  if (entry.embeddings == 0 || entry.distinct.empty()) return 0;
  return *std::min_element(entry.distinct.begin(), entry.distinct.end());
}

uint64_t StreamingMiner::PositionCounts::Key(uint32_t pattern_id,
                                             size_t pos, VertexId v) {
  // A position fits 3 bits; the pattern id gets the 29 above them.
  static_assert(kMaxPatternEdges + 1 <= 8);
  NOUS_CHECK(pattern_id < (uint32_t{1} << 29));
  return uint64_t{pattern_id} << 35 | uint64_t{pos} << 32 | v;
}

size_t StreamingMiner::PositionCounts::Home(uint64_t key) const {
  return Mix64(key) & (slots_.size() - 1);
}

size_t StreamingMiner::PositionCounts::Find(uint64_t key) const {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(key);
  while (slots_[i].count != 0 && slots_[i].key != key) i = (i + 1) & mask;
  return i;
}

bool StreamingMiner::PositionCounts::Increment(uint32_t pattern_id,
                                               size_t pos, VertexId v) {
  if (2 * (used_ + 1) > slots_.size()) Grow();  // load <= 1/2
  const uint64_t key = Key(pattern_id, pos, v);
  Slot& slot = slots_[Find(key)];
  if (slot.count++ != 0) return false;
  slot.key = key;
  ++used_;
  return true;
}

bool StreamingMiner::PositionCounts::Decrement(uint32_t pattern_id,
                                               size_t pos, VertexId v) {
  const size_t mask = slots_.size() - 1;
  size_t hole = Find(Key(pattern_id, pos, v));
  NOUS_CHECK(slots_[hole].count != 0);
  if (--slots_[hole].count != 0) return false;
  // Backward-shift deletion: pull later entries of the probe run into
  // the hole unless that would move one before its home slot.
  for (size_t j = (hole + 1) & mask; slots_[j].count != 0;
       j = (j + 1) & mask) {
    const size_t home = Home(slots_[j].key);
    const bool stays = hole < j ? (hole < home && home <= j)
                                : (hole < home || home <= j);
    if (stays) continue;
    slots_[hole] = slots_[j];
    slots_[j].count = 0;
    hole = j;
  }
  --used_;
  return true;
}

void StreamingMiner::PositionCounts::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max<size_t>(64, 2 * old.size()), Slot{});
  for (const Slot& slot : old) {
    if (slot.count != 0) slots_[Find(slot.key)] = slot;
  }
}

std::vector<PatternStats> StreamingMiner::FrequentPatterns() const {
  std::vector<PatternStats> results;
  for (const PatternEntry& entry : patterns_) {
    size_t support = SupportOfEntry(entry);
    if (support < config_.min_support) continue;
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

std::vector<PatternStats> StreamingMiner::ClosedFrequentPatterns() const {
  std::vector<PatternStats> frequent = FrequentPatterns();
  std::vector<PatternStats> closed;
  for (const PatternStats& p : frequent) {
    bool subsumed = false;
    for (const PatternStats& q : frequent) {
      if (q.pattern.num_edges() <= p.pattern.num_edges()) continue;
      if (q.support == p.support && q.pattern.Contains(p.pattern)) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) closed.push_back(p);
  }
  return closed;
}

size_t StreamingMiner::SupportOf(const Pattern& pattern) const {
  if (pattern.num_edges() == 0 || pattern.num_edges() > kMaxPatternEdges) {
    return 0;
  }
  auto it = pattern_index_.find(pattern.Code());
  if (it == pattern_index_.end()) return 0;
  return SupportOfEntry(patterns_[it->second]);
}

StreamingMiner::Churn StreamingMiner::TakeChurn() {
  std::unordered_set<size_t> now;
  for (size_t i = 0; i < patterns_.size(); ++i) {
    if (SupportOfEntry(patterns_[i]) >= config_.min_support) {
      now.insert(i);
    }
  }
  Churn churn;
  for (size_t id : now) {
    if (last_frequent_.count(id) == 0) {
      churn.became_frequent.push_back(patterns_[id].pattern);
    }
  }
  for (size_t id : last_frequent_) {
    if (now.count(id) == 0) {
      churn.became_infrequent.push_back(patterns_[id].pattern);
    }
  }
  last_frequent_ = std::move(now);
  return churn;
}

}  // namespace nous
