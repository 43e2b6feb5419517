#include "fixture.h"

#include <algorithm>
#include <utility>

#include "common/binary_io.h"
#include "common/hash.h"
#include "common/random.h"
#include "corpus/article_generator.h"
#include "harness.h"
#include "kb/kb_generator.h"
#include "kb/ontology.h"

namespace perfbench {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return nous::Mix64(seed * 0x9e3779b97f4a7c15ULL + stream);
}

std::unique_ptr<Fixture> MakeFixture(uint64_t seed, const WorldShape& shape) {
  Span span("corpus.generate", "corpus");
  auto fixture = std::make_unique<Fixture>();
  nous::DroneWorldConfig wc;
  wc.num_companies *= shape.scale;
  wc.num_people *= shape.scale;
  wc.num_products *= shape.scale;
  wc.num_events = shape.num_events;
  wc.seed = SubSeed(seed, 1);
  fixture->world = nous::WorldModel::BuildDroneWorld(wc);
  nous::KbCoverage coverage;
  coverage.seed = SubSeed(seed, 2);
  fixture->kb = std::make_unique<nous::CuratedKb>(nous::BuildCuratedKb(
      fixture->world, nous::Ontology::DroneDefault(), coverage));
  nous::CorpusConfig corpus;
  corpus.seed = SubSeed(seed, 3);
  fixture->articles =
      nous::ArticleGenerator(&fixture->world, corpus).GenerateArticles();
  return fixture;
}

nous::NousOptions MakeOptions(size_t pool_threads,
                              const std::string& durable_dir) {
  nous::NousOptions options;
  options.pipeline.num_threads = pool_threads;
  if (!durable_dir.empty()) {
    options.durability.dir = durable_dir;
    options.durability.fsync_policy = nous::FsyncPolicy::kAlways;
  }
  return options;
}

std::vector<nous::Query> MakeQueryMix(const nous::KgSnapshot& snap,
                                      uint64_t seed, size_t count) {
  const nous::PropertyGraph& g = snap.graph();
  std::vector<std::pair<size_t, nous::VertexId>> ranked;
  for (nous::VertexId v = 0; v < g.NumVertices(); ++v) {
    size_t degree = g.OutDegree(v) + g.InDegree(v);
    if (degree > 0) ranked.emplace_back(degree, v);
  }
  // Highest degree first; ties by id keep the order seed-stable.
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<std::string> labels;
  for (const auto& [degree, v] : ranked) labels.push_back(g.VertexLabel(v));

  std::vector<nous::Query> mix;
  if (labels.size() < 2) return mix;
  nous::Rng rng(SubSeed(seed, 4));
  nous::ZipfSampler zipf(labels.size(), 1.0);
  auto pick = [&] { return labels[zipf.Sample(&rng)]; };
  while (mix.size() < count) {
    const double roll = rng.UniformDouble();
    nous::Query q;
    if (roll < 0.50) {
      q.kind = nous::QueryKind::kEntity;
      q.entity_a = pick();
    } else if (roll < 0.75) {
      q.kind = roll < 0.65 ? nous::QueryKind::kRelationship
                           : nous::QueryKind::kSearch;
      q.entity_a = pick();
      q.entity_b = pick();
      if (q.entity_a == q.entity_b) continue;
    } else if (roll < 0.90) {
      q.kind = nous::QueryKind::kTrending;
    } else {
      q.kind = nous::QueryKind::kPattern;
    }
    mix.push_back(std::move(q));
  }
  return mix;
}

uint64_t GraphDigest(const nous::KgSnapshot& snap) {
  nous::BinaryWriter w;
  snap.graph().SaveBinary(&w);
  return nous::Fnv1a(w.data());
}

double PrivateKiB(const nous::KgSnapshot& snap) {
  return static_cast<double>(snap.graph().Footprint().private_bytes) / 1024.0;
}

std::string LiveGraphBytes(nous::Nous& nous) {
  nous::ReaderMutexLock lock(nous.kg_mutex());
  nous::BinaryWriter w;
  nous.graph().SaveBinary(&w);
  return w.Take();
}

std::vector<std::vector<nous::Article>> Batches(
    const std::vector<nous::Article>& articles, size_t begin, size_t end,
    size_t size) {
  std::vector<std::vector<nous::Article>> out;
  end = std::min(end, articles.size());
  for (size_t i = begin; i < end; i += size) {
    out.emplace_back(articles.begin() + i,
                     articles.begin() + std::min(end, i + size));
  }
  return out;
}

}  // namespace perfbench
