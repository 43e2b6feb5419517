// E1 — reproduces Figure 2 / Figure 4: the fused drone knowledge
// graph. Curated (red) vs. extracted (blue) edge composition, the
// per-fact confidence distribution assigned by the link-prediction
// module, and KG growth as the article stream lengthens.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/nous.h"
#include "graph/graph_stats.h"
#include "common/status.h"

namespace nous {
namespace {

void RunGrowthSweep() {
  bench::PrintHeader("E1: fused KG construction",
                     "Figure 2 + Figure 4 (drone knowledge graph)",
                     "KG composition and confidence vs. stream length.");
  TablePrinter table({"events", "articles", "vertices", "curated edges",
                      "extracted edges", "new entities", "conf mean",
                      "conf p10", "conf p90", "docs/s"});
  for (size_t events : {100ul, 200ul, 400ul, 800ul}) {
    auto fixture = bench::MakeDroneFixture(events);
    Nous nous(&fixture.kb);
    WallTimer timer;
    for (const Article& article : fixture.articles) {
      NOUS_CHECK_OK(nous.Ingest(article));
    }
    nous.Finalize();
    double seconds = timer.ElapsedSeconds();
    GraphStats stats = nous.ComputeStats();
    const Histogram& conf = stats.extracted_confidence;
    table.AddRow(
        {TablePrinter::Int(static_cast<long long>(events)),
         TablePrinter::Int(static_cast<long long>(
             fixture.articles.size())),
         TablePrinter::Int(static_cast<long long>(stats.vertices)),
         TablePrinter::Int(static_cast<long long>(stats.curated_edges)),
         TablePrinter::Int(static_cast<long long>(stats.extracted_edges)),
         TablePrinter::Int(static_cast<long long>(
             nous.snapshot()->stats().new_entities)),
         TablePrinter::Num(conf.Mean(), 3),
         TablePrinter::Num(conf.Quantile(0.1), 3),
         TablePrinter::Num(conf.Quantile(0.9), 3),
         TablePrinter::Num(static_cast<double>(
                               fixture.articles.size()) / seconds, 1)});
  }
  table.Print(std::cout);
}

void RunConfidenceHistogram() {
  std::cout << "\n-- extracted-fact confidence distribution "
               "(Figure 2's per-fact probabilities; 800 events) --\n";
  auto fixture = bench::MakeDroneFixture(800);
  Nous nous(&fixture.kb);
  for (const Article& article : fixture.articles) NOUS_CHECK_OK(nous.Ingest(article));
  nous.Finalize();
  GraphStats stats = nous.ComputeStats();
  auto buckets = stats.extracted_confidence.Bucketize(0.0, 1.0, 10);
  TablePrinter table({"confidence bucket", "extracted facts"});
  for (size_t b = 0; b < buckets.size(); ++b) {
    table.AddRow({StrFormat("[%.1f, %.1f)", 0.1 * b, 0.1 * (b + 1)),
                  TablePrinter::Int(static_cast<long long>(buckets[b]))});
  }
  table.Print(std::cout);
  std::cout << "\nPer-predicate edge counts (top of Figure 4's legend):\n";
  TablePrinter preds({"predicate", "edges"});
  for (const auto& [name, count] : stats.per_predicate) {
    preds.AddRow({name, TablePrinter::Int(static_cast<long long>(count))});
  }
  preds.Print(std::cout);
}

void BM_IngestArticle(benchmark::State& state) {
  auto fixture = bench::MakeDroneFixture(400);
  Nous nous(&fixture.kb);
  size_t i = 0;
  for (auto _ : state) {
    NOUS_CHECK_OK(nous.Ingest(fixture.articles[i % fixture.articles.size()]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_IngestArticle);

}  // namespace
}  // namespace nous

int main(int argc, char** argv) {
  nous::RunGrowthSweep();
  nous::RunConfidenceHistogram();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
