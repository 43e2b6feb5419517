// Quickstart: build a tiny drone-domain knowledge graph from a synthetic
// news stream fused with a curated KB, then ask questions.
//
// This is the 60-second tour of the NOUS public API:
//   world  -> curated KB snapshot + synthetic articles (the data)
//   Nous   -> construction pipeline (extract, link, map, score, mine)
//   Ask()  -> the five query classes of the paper's Figure 5.

#include <iostream>

#include "core/nous.h"
#include "corpus/article_generator.h"
#include "corpus/document_stream.h"
#include "corpus/world_model.h"
#include "kb/kb_generator.h"
#include "common/status.h"

int main() {
  using namespace nous;

  // 1. A ground-truth world: entities + dated facts. Real deployments
  //    replace this with actual feeds; the world model stands in for
  //    the licensed WSJ corpus so results are reproducible.
  DroneWorldConfig world_config;
  world_config.num_companies = 15;
  world_config.num_events = 120;
  WorldModel world = WorldModel::BuildDroneWorld(world_config);

  // 2. A curated KB covering part of that world (the YAGO2 role).
  KbCoverage coverage;
  coverage.entity_coverage = 0.6;
  CuratedKb kb = BuildCuratedKb(world, Ontology::DroneDefault(), coverage);

  // 3. Render the world's events as a news stream.
  CorpusConfig corpus_config;
  DocumentStream stream(
      ArticleGenerator(&world, corpus_config).GenerateArticles());
  std::cout << "Streaming " << stream.TotalCount() << " articles...\n";

  // 4. Construct the dynamic knowledge graph.
  Nous nous(&kb);
  NOUS_CHECK_OK(nous.IngestStream(&stream));

  GraphStats stats = nous.ComputeStats();
  std::cout << "\nFused knowledge graph:\n" << stats.ToString() << "\n";
  std::cout << "Pipeline: " << nous.snapshot()->stats().ToString() << "\n\n";

  // 5. Ask questions.
  for (const char* question :
       {"tell me about DJI", "what is trending", "show patterns"}) {
    std::cout << "Q: " << question << "\n";
    auto answer = nous.Ask(question);
    if (answer.ok()) {
      std::cout << answer->Render(nous.graph()) << "\n";
    } else {
      std::cout << "  error: " << answer.status() << "\n";
    }
  }
  return 0;
}
