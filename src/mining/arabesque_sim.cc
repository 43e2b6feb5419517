#include "mining/arabesque_sim.h"

#include <memory>

#include "mining/subgraph_enum.h"

namespace nous {

std::vector<PatternStats> MineArabesqueSim(const PropertyGraph& graph,
                                           const MinerConfig& config,
                                           size_t* total_embeddings) {
  SupportCounter counter(&graph, config.use_vertex_types);
  SubsetEnumerator enumerator;
  const SubsetEnumerator::Callback add =
      [&counter](const std::vector<EdgeId>& subset) {
        counter.AddEmbedding(subset);
      };
  graph.ForEachEdge([&](EdgeId anchor, const EdgeRecord&) {
    enumerator.Enumerate(graph, anchor, config, /*older_only=*/true, add);
  });
  if (total_embeddings != nullptr) {
    *total_embeddings = counter.total_embeddings();
  }
  return counter.Results(config.min_support);
}

std::vector<PatternStats> MineArabesqueSimParallel(
    const PropertyGraph& graph, const MinerConfig& config,
    ThreadPool* pool, size_t* total_embeddings) {
  if (pool == nullptr || pool->num_threads() <= 1) {
    return MineArabesqueSim(graph, config, total_embeddings);
  }
  std::vector<EdgeId> anchors;
  graph.ForEachEdge(
      [&anchors](EdgeId e, const EdgeRecord&) { anchors.push_back(e); });
  const size_t shards = pool->num_threads();
  std::vector<std::unique_ptr<SupportCounter>> counters;
  counters.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    counters.push_back(std::make_unique<SupportCounter>(
        &graph, config.use_vertex_types));
  }
  for (size_t s = 0; s < shards; ++s) {
    pool->Submit([s, shards, &anchors, &graph, &config, &counters] {
      SupportCounter* counter = counters[s].get();
      SubsetEnumerator enumerator;
      const SubsetEnumerator::Callback add =
          [counter](const std::vector<EdgeId>& subset) {
            counter->AddEmbedding(subset);
          };
      for (size_t i = s; i < anchors.size(); i += shards) {
        enumerator.Enumerate(graph, anchors[i], config, /*older_only=*/true,
                             add);
      }
    });
  }
  pool->Wait();
  SupportCounter merged(&graph, config.use_vertex_types);
  for (const auto& counter : counters) merged.Merge(*counter);
  if (total_embeddings != nullptr) {
    *total_embeddings = merged.total_embeddings();
  }
  return merged.Results(config.min_support);
}

}  // namespace nous
