// Quality dashboard (the paper's demo feature 2: "Visualize the
// resultant graph and summarization of quality-related statistics,
// such as confidence distributions, and understanding how the
// structure of the underlying data influence the output quality").
//
// Prints, for a freshly constructed KG: graph composition, the
// extracted-confidence histogram, per-predicate counts, per-source
// trust, and the most- and least-confident facts.

#include <algorithm>
#include <iostream>
#include <vector>

#include <fstream>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/nous.h"
#include "obs/metrics.h"
#include "graph/dot_export.h"
#include "graph/graph_algorithms.h"
#include "corpus/article_generator.h"
#include "corpus/document_stream.h"
#include "corpus/world_model.h"
#include "kb/kb_generator.h"
#include "common/status.h"

int main() {
  using namespace nous;

  DroneWorldConfig world_config;
  world_config.num_events = 400;
  WorldModel world = WorldModel::BuildDroneWorld(world_config);
  KbCoverage coverage;
  coverage.entity_coverage = 0.6;
  CuratedKb kb = BuildCuratedKb(world, Ontology::DroneDefault(), coverage);
  CorpusConfig corpus_config;
  corpus_config.pronoun_rate = 0.4;
  corpus_config.sources = {"wsj", "webcrawl", "technews", "blogfeed"};
  DocumentStream stream(
      ArticleGenerator(&world, corpus_config).GenerateArticles());

  Nous nous(&kb);
  std::cout << "=== NOUS quality dashboard ===\n";
  std::cout << "Ingesting " << stream.TotalCount() << " articles...\n\n";
  NOUS_CHECK_OK(nous.IngestStream(&stream));

  GraphStats stats = nous.ComputeStats();
  std::cout << "-- graph composition --\n" << stats.ToString() << "\n";
  std::cout << "-- pipeline counters --\n"
            << nous.snapshot()->stats().ToString() << "\n\n";

  std::cout << "-- extracted-confidence distribution --\n";
  auto buckets = stats.extracted_confidence.Bucketize(0.0, 1.0, 10);
  size_t max_count = 1;
  for (size_t c : buckets) max_count = std::max(max_count, c);
  for (size_t b = 0; b < buckets.size(); ++b) {
    size_t bar = buckets[b] * 50 / max_count;
    std::cout << StrFormat("[%.1f-%.1f) %5zu |%s\n", 0.1 * b,
                           0.1 * (b + 1), buckets[b],
                           std::string(bar, '#').c_str());
  }

  std::cout << "\n-- edges per predicate --\n";
  TablePrinter predicates({"predicate", "edges"});
  for (const auto& [name, count] : stats.per_predicate) {
    predicates.AddRow(
        {name, TablePrinter::Int(static_cast<long long>(count))});
  }
  predicates.Print(std::cout);

  std::cout << "\n-- source trust (corroboration rate vs corpus base "
               "rate) --\n";
  const PropertyGraph& g = nous.graph();
  const SourceTrustTracker& trust = nous.pipeline().source_trust();
  TablePrinter sources({"source", "corroboration rate",
                        "relative trust", "observations"});
  for (SourceId s : trust.KnownSources()) {
    sources.AddRow({g.sources().GetString(s),
                    TablePrinter::Num(trust.Trust(s), 3),
                    TablePrinter::Num(trust.RelativeTrust(s), 3),
                    TablePrinter::Num(trust.Observations(s), 0)});
  }
  sources.Print(std::cout);
  std::cout << StrFormat("corpus base rate: %.3f\n", trust.GlobalRate());

  // Most and least confident extracted facts — the triage view an
  // analyst uses to spot extraction problems.
  struct Scored {
    double confidence;
    std::string text;
  };
  std::vector<Scored> facts;
  g.ForEachEdge([&](EdgeId, const EdgeRecord& rec) {
    if (rec.meta.curated) return;
    facts.push_back(Scored{
        rec.meta.confidence,
        StrFormat("(%s, %s, %s) [%s]",
                  g.VertexLabel(rec.subject).c_str(),
                  g.predicates().GetString(rec.predicate).c_str(),
                  g.VertexLabel(rec.object).c_str(),
                  rec.meta.source == kInvalidSource
                      ? "?"
                      : g.sources().GetString(rec.meta.source).c_str())});
  });
  std::sort(facts.begin(), facts.end(),
            [](const Scored& a, const Scored& b) {
              return a.confidence > b.confidence;
            });
  std::cout << "\n-- most confident extracted facts --\n";
  for (size_t i = 0; i < facts.size() && i < 5; ++i) {
    std::cout << StrFormat("  %.3f %s\n", facts[i].confidence,
                           facts[i].text.c_str());
  }
  std::cout << "-- least confident extracted facts --\n";
  for (size_t i = facts.size() > 5 ? facts.size() - 5 : 0;
       i < facts.size(); ++i) {
    std::cout << StrFormat("  %.3f %s\n", facts[i].confidence,
                           facts[i].text.c_str());
  }

  // -- structural view: components, central entities, ego export --
  size_t components = 0;
  WeaklyConnectedComponents(g, &components);
  std::cout << StrFormat("\n-- structure: %zu weakly connected "
                         "component(s) --\n",
                         components);
  auto rank = PageRank(g);
  std::vector<VertexId> by_rank(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) by_rank[v] = v;
  std::sort(by_rank.begin(), by_rank.end(),
            [&rank](VertexId a, VertexId b) { return rank[a] > rank[b]; });
  std::cout << "central entities by PageRank:\n";
  for (size_t i = 0; i < by_rank.size() && i < 8; ++i) {
    std::cout << StrFormat("  %.4f %s\n", rank[by_rank[i]],
                           g.VertexLabel(by_rank[i]).c_str());
  }

  // Runtime telemetry for the same run: stage counters and latency
  // quantiles from the process-wide registry.
  std::cout << "\n";
  MetricsRegistry::Global().PrintSummary(std::cout);

  // Export DJI's 1-hop neighborhood for Graphviz rendering
  // (red = curated edges, blue = extracted — Figure 2's convention).
  if (auto dji = g.FindVertex("DJI")) {
    DotOptions dot_options;
    dot_options.vertices = EgoNetwork(g, *dji, 1);
    dot_options.graph_name = "dji_ego";
    std::ofstream out("dji_ego.dot");
    if (out.is_open() && WriteDot(g, dot_options, out).ok()) {
      std::cout << "\nwrote dji_ego.dot (" << dot_options.vertices.size()
                << " vertices) — render with: dot -Tsvg dji_ego.dot\n";
    }
  }
  return 0;
}
