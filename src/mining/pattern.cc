#include "mining/pattern.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace nous {

namespace {

/// Pattern::Hash's formula, shared with PatternCode::Hash.
size_t HashCode(const PatternEdge* edges, size_t num_edges,
                const TypeId* labels, size_t num_vertices) {
  size_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < num_edges; ++i) {
    h = HashCombine(h, static_cast<size_t>(edges[i].src));
    h = HashCombine(h, static_cast<size_t>(edges[i].pred));
    h = HashCombine(h, static_cast<size_t>(edges[i].dst));
  }
  for (size_t v = 0; v < num_vertices; ++v) h = HashCombine(h, labels[v]);
  return h;
}

/// Code order: edge triples lexicographically, then vertex labels.
/// Callers compare codes of one edge set, so sizes agree.
bool CodeLess(const PatternCode& a, const PatternCode& b) {
  for (size_t i = 0; i < a.num_edges; ++i) {
    const PatternEdge& x = a.edges[i];
    const PatternEdge& y = b.edges[i];
    if (x.src != y.src) return x.src < y.src;
    if (x.pred != y.pred) return x.pred < y.pred;
    if (x.dst != y.dst) return x.dst < y.dst;
  }
  return std::lexicographical_compare(a.labels, a.labels + a.num_vertices,
                                      b.labels, b.labels + b.num_vertices);
}

}  // namespace

size_t PatternCode::Hash() const {
  return HashCode(edges, num_edges, labels, num_vertices);
}

bool operator==(const PatternCode& a, const PatternCode& b) {
  return a.num_edges == b.num_edges && a.num_vertices == b.num_vertices &&
         std::equal(a.edges, a.edges + a.num_edges, b.edges) &&
         std::equal(a.labels, a.labels + a.num_vertices, b.labels);
}

void EdgeSetCanonicalizer::Add(uint64_t src, PredicateId pred,
                               uint64_t dst) {
  NOUS_CHECK(num_edges_ < kMaxPatternEdges);
  auto local = [this](uint64_t v) -> uint8_t {
    for (uint8_t i = 0; i < num_vertices_; ++i) {
      if (vertices_[i] == v) return i;
    }
    vertices_[num_vertices_] = v;
    labels_[num_vertices_] = kInvalidType;
    return num_vertices_++;
  };
  src_[num_edges_] = local(src);
  dst_[num_edges_] = local(dst);
  pred_[num_edges_] = pred;
  ++num_edges_;
}

PatternCode EdgeSetCanonicalizer::Canonicalize(
    uint8_t* position_to_local) const {
  NOUS_CHECK(num_edges_ > 0);
  uint8_t order[kMaxPatternEdges];
  for (uint8_t i = 0; i < num_edges_; ++i) order[i] = i;
  PatternCode best;
  uint8_t best_local[kMaxPatternVertices] = {};
  bool have_best = false;
  do {
    PatternCode code;
    code.num_edges = num_edges_;
    uint8_t local_of[kMaxPatternVertices];  // position -> local vertex
    int8_t var_of[kMaxPatternVertices];     // local vertex -> position
    std::fill(var_of, var_of + num_vertices_, -1);
    auto var = [&](uint8_t local) -> int {
      if (var_of[local] < 0) {
        var_of[local] = static_cast<int8_t>(code.num_vertices);
        local_of[code.num_vertices++] = local;
      }
      return var_of[local];
    };
    for (size_t i = 0; i < num_edges_; ++i) {
      const uint8_t e = order[i];
      const int s = var(src_[e]);
      const int d = var(dst_[e]);
      code.edges[i] = PatternEdge{s, pred_[e], d};
    }
    for (size_t v = 0; v < code.num_vertices; ++v) {
      code.labels[v] = labels_[local_of[v]];
    }
    if (!have_best || CodeLess(code, best)) {
      best = code;
      std::copy(local_of, local_of + code.num_vertices, best_local);
      have_best = true;
    }
  } while (std::next_permutation(order, order + num_edges_));
  if (position_to_local != nullptr) {
    std::copy(best_local, best_local + best.num_vertices, position_to_local);
  }
  return best;
}

Pattern::Pattern(const PatternCode& code)
    : edges_(code.edges, code.edges + code.num_edges),
      vertex_labels_(code.labels, code.labels + code.num_vertices) {}

PatternCode Pattern::Code() const {
  NOUS_CHECK(edges_.size() <= kMaxPatternEdges &&
             vertex_labels_.size() <= kMaxPatternVertices);
  PatternCode code;
  code.num_edges = static_cast<uint8_t>(edges_.size());
  code.num_vertices = static_cast<uint8_t>(vertex_labels_.size());
  std::copy(edges_.begin(), edges_.end(), code.edges);
  std::copy(vertex_labels_.begin(), vertex_labels_.end(), code.labels);
  return code;
}

Pattern Pattern::Canonicalize(
    const std::vector<ConcreteEdge>& edges,
    const std::function<TypeId(uint64_t)>& vertex_label,
    std::vector<uint64_t>* position_to_vertex) {
  NOUS_CHECK(!edges.empty());
  EdgeSetCanonicalizer set;
  for (const ConcreteEdge& e : edges) set.Add(e.src, e.pred, e.dst);
  for (size_t v = 0; v < set.num_vertices(); ++v) {
    set.set_label(v, vertex_label(set.vertex(v)));
  }
  uint8_t local[kMaxPatternVertices];
  PatternCode code = set.Canonicalize(local);
  if (position_to_vertex != nullptr) {
    position_to_vertex->clear();
    for (size_t pos = 0; pos < code.num_vertices; ++pos) {
      position_to_vertex->push_back(set.vertex(local[pos]));
    }
  }
  return Pattern(code);
}

bool Pattern::Contains(const Pattern& sub) const {
  if (sub.num_edges() > num_edges()) return false;
  // Try every injective assignment of sub edges onto our edges with a
  // consistent variable mapping. Pattern sizes are tiny.
  std::vector<bool> used(edges_.size(), false);
  std::vector<int> var_map(sub.num_vertices(), -1);

  std::function<bool(size_t)> match = [&](size_t i) -> bool {
    if (i == sub.edges_.size()) return true;
    const PatternEdge& se = sub.edges_[i];
    for (size_t j = 0; j < edges_.size(); ++j) {
      if (used[j]) continue;
      const PatternEdge& pe = edges_[j];
      if (pe.pred != se.pred) continue;
      int old_s = var_map[se.src];
      int old_d = var_map[se.dst];
      if (old_s != -1 && old_s != pe.src) continue;
      if (old_d != -1 && old_d != pe.dst) continue;
      // Label compatibility (invalid label matches anything equal).
      if (sub.vertex_labels_[se.src] != vertex_labels_[pe.src]) continue;
      if (sub.vertex_labels_[se.dst] != vertex_labels_[pe.dst]) continue;
      // Injectivity on variables.
      bool clash = false;
      for (int v = 0; v < static_cast<int>(var_map.size()); ++v) {
        if (v != se.src && var_map[v] == pe.src) clash = true;
        if (v != se.dst && var_map[v] == pe.dst) clash = true;
      }
      if (clash) continue;
      used[j] = true;
      var_map[se.src] = pe.src;
      var_map[se.dst] = pe.dst;
      if (match(i + 1)) return true;
      used[j] = false;
      var_map[se.src] = old_s;
      var_map[se.dst] = old_d;
    }
    return false;
  };
  return match(0);
}

std::vector<Pattern> Pattern::SubPatterns() const {
  std::vector<Pattern> subs;
  if (edges_.size() <= 1) return subs;
  for (size_t drop = 0; drop < edges_.size(); ++drop) {
    std::vector<ConcreteEdge> rest;
    for (size_t i = 0; i < edges_.size(); ++i) {
      if (i == drop) continue;
      rest.push_back(ConcreteEdge{static_cast<uint64_t>(edges_[i].src),
                                  edges_[i].pred,
                                  static_cast<uint64_t>(edges_[i].dst)});
    }
    // Connectivity check over the remaining edges.
    std::vector<uint64_t> stack = {rest[0].src};
    std::vector<uint64_t> seen = {rest[0].src};
    while (!stack.empty()) {
      uint64_t v = stack.back();
      stack.pop_back();
      for (const ConcreteEdge& e : rest) {
        for (uint64_t next : {e.src, e.dst}) {
          if ((e.src == v || e.dst == v) &&
              std::find(seen.begin(), seen.end(), next) == seen.end()) {
            seen.push_back(next);
            stack.push_back(next);
          }
        }
      }
    }
    std::vector<uint64_t> needed;
    for (const ConcreteEdge& e : rest) {
      for (uint64_t v : {e.src, e.dst}) {
        if (std::find(needed.begin(), needed.end(), v) == needed.end()) {
          needed.push_back(v);
        }
      }
    }
    if (seen.size() != needed.size()) continue;  // disconnected
    const std::vector<TypeId>& labels = vertex_labels_;
    Pattern sub = Canonicalize(
        rest,
        [&labels](uint64_t v) { return labels[static_cast<size_t>(v)]; });
    if (std::find(subs.begin(), subs.end(), sub) == subs.end()) {
      subs.push_back(std::move(sub));
    }
  }
  return subs;
}

std::string Pattern::ToString(const Dictionary& predicates,
                              const Dictionary* types) const {
  std::vector<std::string> parts;
  for (const PatternEdge& e : edges_) {
    std::string src_label, dst_label;
    if (types != nullptr && vertex_labels_[e.src] != kInvalidType) {
      src_label = ":" + types->GetString(vertex_labels_[e.src]);
    }
    if (types != nullptr && vertex_labels_[e.dst] != kInvalidType) {
      dst_label = ":" + types->GetString(vertex_labels_[e.dst]);
    }
    parts.push_back(StrFormat(
        "(?%d%s)-[%s]->(?%d%s)", e.src, src_label.c_str(),
        predicates.GetString(e.pred).c_str(), e.dst, dst_label.c_str()));
  }
  return Join(parts, " ");
}

size_t Pattern::Hash() const {
  return HashCode(edges_.data(), edges_.size(), vertex_labels_.data(),
                  vertex_labels_.size());
}

}  // namespace nous
