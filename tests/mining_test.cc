#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/nous.h"
#include "core/snapshot.h"
#include "corpus/article_generator.h"
#include "corpus/world_model.h"
#include "graph/graph_generator.h"
#include "graph/property_graph.h"
#include "graph/temporal_window.h"
#include "kb/kb_generator.h"
#include "mining/arabesque_sim.h"
#include "mining/gspan.h"
#include "mining/pattern.h"
#include "mining/streaming_miner.h"
#include "mining/subgraph_enum.h"

namespace nous {
namespace {

TypeId NoLabel(uint64_t) { return kInvalidType; }

// ---------- Pattern canonicalization ----------

TEST(PatternTest, SingleEdgeCanonicalForm) {
  Pattern p = Pattern::Canonicalize({{7, 3, 9}}, NoLabel);
  ASSERT_EQ(p.num_edges(), 1u);
  EXPECT_EQ(p.edges()[0].src, 0);
  EXPECT_EQ(p.edges()[0].dst, 1);
  EXPECT_EQ(p.edges()[0].pred, 3u);
  EXPECT_EQ(p.num_vertices(), 2u);
}

TEST(PatternTest, SelfLoopCanonicalForm) {
  Pattern p = Pattern::Canonicalize({{5, 2, 5}}, NoLabel);
  EXPECT_EQ(p.edges()[0].src, 0);
  EXPECT_EQ(p.edges()[0].dst, 0);
  EXPECT_EQ(p.num_vertices(), 1u);
}

TEST(PatternTest, InvariantUnderVertexRelabeling) {
  // Star: x -p1-> a, x -p2-> b with different concrete ids.
  Pattern p1 = Pattern::Canonicalize({{1, 10, 2}, {1, 20, 3}}, NoLabel);
  Pattern p2 = Pattern::Canonicalize({{99, 20, 7}, {99, 10, 42}}, NoLabel);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(PatternHash()(p1), PatternHash()(p2));
}

TEST(PatternTest, DirectionMatters) {
  Pattern chain = Pattern::Canonicalize({{1, 5, 2}, {2, 5, 3}}, NoLabel);
  Pattern converge = Pattern::Canonicalize({{1, 5, 2}, {3, 5, 2}}, NoLabel);
  EXPECT_FALSE(chain == converge);
}

TEST(PatternTest, VertexLabelsDistinguishPatterns) {
  auto label_a = [](uint64_t v) -> TypeId { return v == 1 ? 7u : 8u; };
  auto label_b = [](uint64_t) -> TypeId { return 7u; };
  Pattern p1 = Pattern::Canonicalize({{1, 5, 2}}, label_a);
  Pattern p2 = Pattern::Canonicalize({{1, 5, 2}}, label_b);
  EXPECT_FALSE(p1 == p2);
}

TEST(PatternTest, ContainsSubPattern) {
  Pattern star =
      Pattern::Canonicalize({{1, 10, 2}, {1, 20, 3}}, NoLabel);
  Pattern edge10 = Pattern::Canonicalize({{1, 10, 2}}, NoLabel);
  Pattern edge30 = Pattern::Canonicalize({{1, 30, 2}}, NoLabel);
  EXPECT_TRUE(star.Contains(edge10));
  EXPECT_FALSE(star.Contains(edge30));
  EXPECT_FALSE(edge10.Contains(star));
  EXPECT_TRUE(star.Contains(star));
}

TEST(PatternTest, SubPatternsAreConnectedAndSmaller) {
  Pattern chain =
      Pattern::Canonicalize({{1, 10, 2}, {2, 20, 3}, {3, 30, 4}}, NoLabel);
  auto subs = chain.SubPatterns();
  // Dropping the middle edge disconnects; only the two end-drops work.
  ASSERT_EQ(subs.size(), 2u);
  for (const Pattern& sub : subs) {
    EXPECT_EQ(sub.num_edges(), 2u);
    EXPECT_TRUE(chain.Contains(sub));
  }
}

TEST(PatternTest, ToStringRendersPredicateNames) {
  Dictionary preds;
  PredicateId acquired = preds.Intern("acquired");
  Pattern p = Pattern::Canonicalize({{1, acquired, 2}}, NoLabel);
  EXPECT_EQ(p.ToString(preds), "(?0)-[acquired]->(?1)");
}

// ---------- Enumeration ----------

TEST(SubgraphEnumTest, EnumeratesSubsetsContainingAnchor) {
  PropertyGraph g;
  VertexId a = g.GetOrAddVertex("a");
  VertexId b = g.GetOrAddVertex("b");
  VertexId c = g.GetOrAddVertex("c");
  PredicateId p = g.predicates().Intern("p");
  EdgeId e0 = g.AddEdge(a, p, b, {});
  EdgeId e1 = g.AddEdge(b, p, c, {});
  EdgeId e2 = g.AddEdge(a, p, c, {});
  MinerConfig config;
  config.max_edges = 3;
  std::vector<std::vector<EdgeId>> found;
  EnumerateConnectedSubsets(g, e2, config, /*older_only=*/true,
                            [&](const std::vector<EdgeId>& s) {
                              found.push_back(s);
                            });
  // {e2}, {e2,e0}, {e2,e1}, {e2,e0,e1} — all connected, all older.
  EXPECT_EQ(found.size(), 4u);
  for (const auto& subset : found) {
    EXPECT_NE(std::find(subset.begin(), subset.end(), e2), subset.end());
  }
  (void)e0;
  (void)e1;
}

TEST(SubgraphEnumTest, OlderOnlySkipsNewerEdges) {
  PropertyGraph g;
  VertexId a = g.GetOrAddVertex("a");
  VertexId b = g.GetOrAddVertex("b");
  VertexId c = g.GetOrAddVertex("c");
  PredicateId p = g.predicates().Intern("p");
  EdgeId e0 = g.AddEdge(a, p, b, {});
  g.AddEdge(b, p, c, {});  // newer than anchor
  MinerConfig config;
  config.max_edges = 2;
  size_t count = 0;
  EnumerateConnectedSubsets(g, e0, config, true,
                            [&](const std::vector<EdgeId>&) { ++count; });
  EXPECT_EQ(count, 1u);  // only {e0}
}

// ---------- Streaming miner ----------

TimedTriple Tr(const std::string& s, const std::string& p,
               const std::string& o, Timestamp ts) {
  TimedTriple t;
  t.triple = {s, p, o};
  t.timestamp = ts;
  return t;
}

TEST(StreamingMinerTest, CountsSingleEdgePatternSupport) {
  PropertyGraph g;
  TemporalWindow w(&g, 0);
  MinerConfig config;
  config.min_support = 2;
  StreamingMiner miner(config);
  w.AddListener(&miner);
  w.Add(Tr("a", "likes", "b", 0));
  w.Add(Tr("c", "likes", "d", 1));
  w.Add(Tr("e", "hates", "f", 2));
  auto frequent = miner.FrequentPatterns();
  ASSERT_EQ(frequent.size(), 1u);  // only "likes" reaches support 2
  EXPECT_EQ(frequent[0].support, 2u);
  EXPECT_EQ(frequent[0].embeddings, 2u);
}

TEST(StreamingMinerTest, MniSupportNotEmbeddingCount) {
  PropertyGraph g;
  TemporalWindow w(&g, 0);
  MinerConfig config;
  config.min_support = 3;
  StreamingMiner miner(config);
  w.AddListener(&miner);
  // Same subject fans out to 5 objects: 5 embeddings but subject
  // position has 1 distinct vertex -> MNI support 1.
  for (int i = 0; i < 5; ++i) {
    w.Add(Tr("hubsub", "p", "o" + std::to_string(i), i));
  }
  EXPECT_TRUE(miner.FrequentPatterns().empty());
  Pattern p = Pattern::Canonicalize({{0, 0, 1}}, NoLabel);
  EXPECT_EQ(miner.SupportOf(p), 1u);
}

TEST(StreamingMinerTest, ExpiryDecrementsSupport) {
  PropertyGraph g;
  TemporalWindow w(&g, 2);  // tiny window
  MinerConfig config;
  config.min_support = 1;
  StreamingMiner miner(config);
  w.AddListener(&miner);
  w.Add(Tr("a", "p", "b", 0));
  w.Add(Tr("c", "p", "d", 1));
  EXPECT_EQ(miner.FrequentPatterns()[0].support, 2u);
  w.Add(Tr("e", "q", "f", 2));  // expires (a,p,b)
  auto frequent = miner.FrequentPatterns();
  std::map<size_t, size_t> support_by_edges;
  for (const auto& f : frequent) {
    support_by_edges[f.pattern.edges()[0].pred] = f.support;
  }
  PredicateId p_id = *g.predicates().Lookup("p");
  PredicateId q_id = *g.predicates().Lookup("q");
  EXPECT_EQ(support_by_edges[p_id], 1u);
  EXPECT_EQ(support_by_edges[q_id], 1u);
  EXPECT_GT(miner.total_embeddings_removed(), 0u);
}

TEST(StreamingMinerTest, TwoEdgePatternsFromPlantedStream) {
  PropertyGraph g;
  TemporalWindow w(&g, 0);
  MinerConfig config;
  config.max_edges = 2;
  config.min_support = 5;
  StreamingMiner miner(config);
  w.AddListener(&miner);
  PlantedStreamConfig pc;
  pc.num_events = 400;
  pc.noise_entities = 200;
  pc.patterns = {{"star", {"pa", "pb"}, 0.15}};
  for (const TimedTriple& t : GeneratePlantedStream(pc)) w.Add(t);
  // The planted star (x -pa-> hub0, x -pb-> hub1) must be frequent.
  PredicateId pa = *g.predicates().Lookup("pa");
  PredicateId pb = *g.predicates().Lookup("pb");
  Pattern star = Pattern::Canonicalize(
      {{0, pa, 1}, {0, pb, 2}}, NoLabel);
  EXPECT_GE(miner.SupportOf(star), config.min_support);
  // And it must appear in the frequent report.
  bool found = false;
  for (const auto& stats : miner.FrequentPatterns()) {
    if (stats.pattern == star) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(StreamingMinerTest, ChurnTracksDrift) {
  PropertyGraph g;
  TemporalWindow w(&g, 300);
  MinerConfig config;
  config.max_edges = 2;
  config.min_support = 5;
  StreamingMiner miner(config);
  w.AddListener(&miner);
  PlantedStreamConfig phase1;
  phase1.num_events = 400;
  phase1.patterns = {{"one", {"pa", "pb"}, 0.2}};
  PlantedStreamConfig phase2 = phase1;
  phase2.patterns = {{"two", {"pc", "pd"}, 0.2}};
  auto stream = GenerateDriftStream(phase1, phase2);
  // First phase.
  for (size_t i = 0; i < 400; ++i) w.Add(stream[i]);
  auto churn1 = miner.TakeChurn();
  EXPECT_FALSE(churn1.became_frequent.empty());
  EXPECT_TRUE(churn1.became_infrequent.empty());
  // Second phase: pattern one ages out of the window, two appears.
  for (size_t i = 400; i < stream.size(); ++i) w.Add(stream[i]);
  auto churn2 = miner.TakeChurn();
  EXPECT_FALSE(churn2.became_frequent.empty());
  EXPECT_FALSE(churn2.became_infrequent.empty());
}

TEST(StreamingMinerTest, ClosednessFiltersSubsumedPatterns) {
  PropertyGraph g;
  TemporalWindow w(&g, 0);
  MinerConfig config;
  config.max_edges = 2;
  config.min_support = 3;
  StreamingMiner miner(config);
  w.AddListener(&miner);
  // Every pa edge is accompanied by a pb edge from the same subject:
  // the 1-edge pa pattern has the same support as the 2-edge star, so
  // only the star (and the equally-supported pb edge case) is closed.
  for (int i = 0; i < 5; ++i) {
    std::string x = "x" + std::to_string(i);
    w.Add(Tr(x, "pa", "ya" + std::to_string(i), 2 * i));
    w.Add(Tr(x, "pb", "yb" + std::to_string(i), 2 * i + 1));
  }
  auto frequent = miner.FrequentPatterns();
  auto closed = miner.ClosedFrequentPatterns();
  EXPECT_LT(closed.size(), frequent.size());
  // The 2-edge star must be closed.
  PredicateId pa = *g.predicates().Lookup("pa");
  PredicateId pb = *g.predicates().Lookup("pb");
  Pattern star = Pattern::Canonicalize({{0, pa, 1}, {0, pb, 2}}, NoLabel);
  bool star_closed = false;
  for (const auto& stats : closed) {
    if (stats.pattern == star) star_closed = true;
  }
  EXPECT_TRUE(star_closed);
  // The 1-edge pa pattern must NOT be closed (same support as star).
  Pattern pa_edge = Pattern::Canonicalize({{0, pa, 1}}, NoLabel);
  for (const auto& stats : closed) {
    EXPECT_FALSE(stats.pattern == pa_edge);
  }
}

// ---------- Result equivalence: streaming == re-enumeration ----------

std::map<std::string, std::pair<size_t, size_t>> ToMap(
    const std::vector<PatternStats>& stats, const Dictionary& preds) {
  std::map<std::string, std::pair<size_t, size_t>> result;
  for (const PatternStats& s : stats) {
    result[s.pattern.ToString(preds)] = {s.support, s.embeddings};
  }
  return result;
}

struct EquivalenceCase {
  uint64_t seed;
  size_t max_edges;
  size_t min_support;
  bool use_types;
};

class MinerEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(MinerEquivalenceTest, StreamingMatchesBothBaselines) {
  const EquivalenceCase& param = GetParam();
  PropertyGraph g;
  TemporalWindow w(&g, 250);  // forces expiry churn
  MinerConfig config;
  config.max_edges = param.max_edges;
  config.min_support = param.min_support;
  config.use_vertex_types = param.use_types;
  StreamingMiner miner(config);
  w.AddListener(&miner);

  StreamConfig sc;
  sc.num_edges = 400;
  sc.num_entities = 60;
  sc.num_predicates = 4;
  sc.seed = param.seed;
  for (const TimedTriple& t : GenerateStream(sc)) w.Add(t);

  auto streaming = ToMap(miner.FrequentPatterns(), g.predicates());
  auto arabesque = ToMap(MineArabesqueSim(g, config), g.predicates());
  auto gspan = ToMap(MineGspan(g, config), g.predicates());
  EXPECT_EQ(streaming, arabesque);
  EXPECT_EQ(streaming, gspan);
  EXPECT_FALSE(streaming.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MinerEquivalenceTest,
    ::testing::Values(EquivalenceCase{1, 2, 3, false},
                      EquivalenceCase{2, 2, 5, false},
                      EquivalenceCase{3, 2, 3, true},
                      EquivalenceCase{4, 3, 8, false},
                      EquivalenceCase{5, 3, 10, true},
                      EquivalenceCase{6, 1, 2, false}));

TEST(MinerEquivalenceTest, EquivalenceAfterFullExpiry) {
  PropertyGraph g;
  TemporalWindow w(&g, 50);
  MinerConfig config;
  config.min_support = 2;
  StreamingMiner miner(config);
  w.AddListener(&miner);
  StreamConfig sc;
  sc.num_edges = 300;  // 6x the window: heavy churn
  sc.num_entities = 25;
  sc.num_predicates = 3;
  for (const TimedTriple& t : GenerateStream(sc)) w.Add(t);
  auto streaming = ToMap(miner.FrequentPatterns(), g.predicates());
  auto arabesque = ToMap(MineArabesqueSim(g, config), g.predicates());
  EXPECT_EQ(streaming, arabesque);
  EXPECT_EQ(miner.num_live_embeddings(),
            miner.total_embeddings_created() -
                miner.total_embeddings_removed());
}

// ---------- Randomized churn: O(1) removal keeps exact counts ----------

std::map<std::string, std::pair<size_t, size_t>> ToTypedMap(
    const std::vector<PatternStats>& stats, const PropertyGraph& g) {
  std::map<std::string, std::pair<size_t, size_t>> result;
  for (const PatternStats& s : stats) {
    result[s.pattern.ToString(g.predicates(), &g.types())] = {s.support,
                                                              s.embeddings};
  }
  EXPECT_EQ(result.size(), stats.size());
  return result;
}

// Random windows of 1-64 edges with self-loops and parallel edges.
// The stream is fixed by default; under --gtest_shuffle every
// --gtest_repeat iteration draws a new one (replay a failure with the
// printed --gtest_random_seed).
TEST(StreamingMinerChurnTest, EverySlideMatchesReenumeration) {
  std::mt19937_64 rng(20261017 +
                      ::testing::UnitTest::GetInstance()->random_seed());
  for (int round = 0; round < 30; ++round) {
    const size_t window = 1 + rng() % 64;
    MinerConfig config;
    config.max_edges = 1 + rng() % 3;
    config.min_support = 1 + rng() % 3;
    config.use_vertex_types = rng() % 2 == 0;
    SCOPED_TRACE(StrFormat("round %d window %zu max_edges %zu", round,
                           window, config.max_edges));
    PropertyGraph g;
    TemporalWindow w(&g, window);
    StreamingMiner miner(config);
    w.AddListener(&miner);
    // Few vertices relative to the window: self-loops (s == o) and
    // parallel edges (a repeated triple) are common.
    const size_t num_vertices = 2 + window / 3;
    for (size_t v = 0; v < num_vertices; ++v) {
      VertexId id = g.GetOrAddVertex("v" + std::to_string(v));
      g.SetVertexType(id, g.types().Intern(v % 2 == 0 ? "even" : "odd"));
    }
    const size_t stream = 2 * window + 8;
    for (size_t i = 0; i < stream; ++i) {
      TimedTriple t;
      t.triple.subject = "v" + std::to_string(rng() % num_vertices);
      t.triple.predicate = "p" + std::to_string(rng() % 3);
      t.triple.object = rng() % 5 == 0
                            ? t.triple.subject
                            : "v" + std::to_string(rng() % num_vertices);
      t.timestamp = static_cast<Timestamp>(i);
      w.Add(t);
      ASSERT_EQ(ToTypedMap(miner.FrequentPatterns(), g),
                ToTypedMap(MineArabesqueSim(g, config), g))
          << "after edge " << i;
      ASSERT_EQ(miner.num_live_embeddings(),
                miner.total_embeddings_created() -
                    miner.total_embeddings_removed());
    }
    EXPECT_GT(miner.total_embeddings_removed(), 0u);
  }
}

TEST(StreamingMinerDeathTest, RejectsMaxEdgesAboveBound) {
  MinerConfig config;
  config.max_edges = kMaxPatternEdges + 1;
  EXPECT_DEATH(StreamingMiner{config}, "exceeds kMaxPatternEdges");
}

TEST(StreamingMinerTest, AcceptsMaxEdgesAtBound) {
  PropertyGraph g;
  TemporalWindow w(&g, 0);
  MinerConfig config;
  config.max_edges = kMaxPatternEdges;
  config.min_support = 1;
  StreamingMiner miner(config);
  w.AddListener(&miner);
  // A 4-edge chain: every connected subset of it is one embedding.
  w.Add(Tr("a", "p", "b", 0));
  w.Add(Tr("b", "p", "c", 1));
  w.Add(Tr("c", "p", "d", 2));
  w.Add(Tr("d", "p", "e", 3));
  EXPECT_EQ(miner.total_embeddings_created(), 4u + 3u + 2u + 1u);
}

TEST(StreamingMinerTest, ZeroMaxEdgesMinesTheAnchorEdgeOnly) {
  PropertyGraph g;
  TemporalWindow w(&g, 0);
  MinerConfig config;
  config.max_edges = 0;
  config.min_support = 1;
  StreamingMiner miner(config);
  w.AddListener(&miner);
  w.Add(Tr("a", "p", "b", 0));
  w.Add(Tr("b", "q", "c", 1));
  w.Add(Tr("a", "p", "c", 2));
  EXPECT_EQ(miner.total_embeddings_created(), 3u);
  for (const PatternStats& stats : miner.FrequentPatterns()) {
    EXPECT_EQ(stats.pattern.num_edges(), 1u);
  }
  EXPECT_EQ(miner.FrequentPatterns().size(), 2u);
}

// ---------- Golden order: pinned against the original miner ----------
//
// Pattern ids, tie order among equal supports and the MNI assignment of
// automorphic patterns all follow the enumeration callback order and
// the canonicalization tie-break. These digests were captured from the
// allocating implementation the current miner replaced; any drift in
// either order changes them.

uint64_t DigestRendered(uint64_t h,
                        const std::vector<RenderedPattern>& patterns) {
  for (const RenderedPattern& p : patterns) {
    h = Mix64(h ^ Fnv1a(p.description));
    h = Mix64(h ^ p.support);
    h = Mix64(h ^ p.embeddings);
  }
  return Mix64(h ^ patterns.size());
}

struct GoldenDigests {
  uint64_t ingest = 0;     // after every ingest batch
  uint64_t finalized = 0;  // ... and after Finalize
  size_t removed = 0;      // embeddings expired along the way
};

// Feeds a seeded drone corpus through Nous::IngestBatch in 32 batches
// and digests the rendered (closed frequent) pattern list after each.
// One thread mines inline in the commit loop; more than one runs the
// miner stage beside it. The digests must not depend on which.
GoldenDigests IngestAndDigest(const MinerConfig& miner, size_t num_threads) {
  DroneWorldConfig wc;
  wc.num_events = 1500;
  wc.seed = 1;
  WorldModel world = WorldModel::BuildDroneWorld(wc);
  KbCoverage coverage;
  coverage.entity_coverage = 0.6;
  CuratedKb kb = BuildCuratedKb(world, Ontology::DroneDefault(), coverage);
  CorpusConfig corpus;
  corpus.seed = 1;
  std::vector<Article> articles =
      ArticleGenerator(&world, corpus).GenerateArticles();
  NousOptions options;
  options.pipeline.miner = miner;
  options.pipeline.miner_window_edges = 600;  // expiry churn mid-corpus
  options.pipeline.num_threads = num_threads;
  Nous nous(&kb, options);

  constexpr size_t kBatches = 32;
  const size_t batch_docs = (articles.size() + kBatches - 1) / kBatches;
  GoldenDigests out;
  size_t batches = 0;
  for (size_t begin = 0; begin < articles.size(); begin += batch_docs) {
    size_t end = std::min(articles.size(), begin + batch_docs);
    std::vector<Article> batch(articles.begin() + begin,
                               articles.begin() + end);
    EXPECT_TRUE(nous.IngestBatch(batch).ok());
    out.ingest = DigestRendered(out.ingest, nous.snapshot()->patterns());
    ++batches;
  }
  EXPECT_EQ(batches, kBatches);
  EXPECT_FALSE(nous.snapshot()->patterns().empty());
  nous.Finalize();
  out.finalized = DigestRendered(out.ingest, nous.snapshot()->patterns());
  out.removed = nous.miner()->total_embeddings_removed();
  return out;
}

TEST(MinerGoldenTest, RenderedPatternListAfterEveryBatch) {
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    GoldenDigests d = IngestAndDigest(MinerConfig{}, threads);
    EXPECT_GT(d.removed, 0u);
    EXPECT_EQ(d.ingest, 0x1ed9e9f14250f2e9ULL) << std::hex << d.ingest;
    EXPECT_EQ(d.finalized, 0xed20fd6440aa5f70ULL) << std::hex << d.finalized;
  }
}

TEST(MinerGoldenTest, TypedThreeEdgePatternListAfterEveryBatch) {
  MinerConfig config;
  config.max_edges = 3;
  config.min_support = 3;
  config.use_vertex_types = true;
  // Curated hubs never expire; the cap keeps 3-edge growth around them
  // bounded (and pins the order in which a capped anchor stops).
  config.max_subsets_per_edge = 100;
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    GoldenDigests d = IngestAndDigest(config, threads);
    EXPECT_GT(d.removed, 0u);
    EXPECT_EQ(d.ingest, 0xc5d9b2ff6a9e8882ULL) << std::hex << d.ingest;
    EXPECT_EQ(d.finalized, 0x58185fa2baca024ULL) << std::hex << d.finalized;
  }
}

// A 40-edge graph around one hub with self-loops and parallel edges:
// the shapes where extension dedupe and the seen-set matter.
PropertyGraph HubGraph() {
  PropertyGraph g;
  VertexId hub = g.GetOrAddVertex("hub");
  std::vector<VertexId> spokes;
  for (int i = 0; i < 10; ++i) {
    spokes.push_back(g.GetOrAddVertex("v" + std::to_string(i)));
  }
  std::vector<PredicateId> preds = {g.predicates().Intern("p0"),
                                    g.predicates().Intern("p1"),
                                    g.predicates().Intern("p2")};
  for (int i = 0; i < 40; ++i) {
    VertexId v = spokes[i % 10];
    switch (i % 5) {
      case 0:  // self-loop on the hub
        g.AddEdge(hub, preds[i % 3], hub, {});
        break;
      case 1:
        g.AddEdge(hub, preds[i % 3], v, {});
        break;
      case 2:
        g.AddEdge(v, preds[(i + 1) % 3], hub, {});
        break;
      case 3:  // parallel edges hub -p0-> v1
        g.AddEdge(hub, preds[0], spokes[1], {});
        break;
      default:  // off-hub edges, one of them a spoke self-loop
        g.AddEdge(v, preds[2], i == 24 ? v : spokes[(i + 3) % 10], {});
        break;
    }
  }
  return g;
}

TEST(SubgraphEnumGoldenTest, CallbackSequenceOnHubGraph) {
  PropertyGraph g = HubGraph();
  ASSERT_EQ(g.NumEdges(), 40u);
  MinerConfig config;
  config.max_edges = 3;
  uint64_t digest = 0;
  size_t total = 0;
  std::set<std::vector<EdgeId>> global;
  for (bool older_only : {true, false}) {
    for (EdgeId anchor = 0; anchor < 40; ++anchor) {
      std::set<std::vector<EdgeId>> local;
      size_t calls = 0;
      size_t visited = EnumerateConnectedSubsets(
          g, anchor, config, older_only,
          [&](const std::vector<EdgeId>& subset) {
            ++calls;
            EXPECT_TRUE(std::is_sorted(subset.begin(), subset.end()));
            EXPECT_TRUE(local.insert(subset).second) << "repeat subset";
            if (older_only) {
              EXPECT_TRUE(global.insert(subset).second)
                  << "subset found from two anchors";
            }
            digest = Mix64(digest ^ (uint64_t{anchor} << 32 | subset.size()));
            for (EdgeId e : subset) digest = Mix64(digest ^ e);
          });
      EXPECT_EQ(visited, calls);
      total += calls;
    }
  }
  EXPECT_EQ(total, 25056u);
  EXPECT_EQ(digest, 0x2bf455e97834c3f4ULL) << std::hex << digest;
}

TEST(SubgraphEnumGoldenTest, SubsetCapStopsAtExactlyN) {
  PropertyGraph g = HubGraph();
  MinerConfig config;
  config.max_edges = 3;
  std::vector<std::vector<EdgeId>> full;
  EnumerateConnectedSubsets(
      g, 39, config, /*older_only=*/true,
      [&](const std::vector<EdgeId>& s) { full.push_back(s); });
  ASSERT_GT(full.size(), 40u);
  for (size_t cap : {size_t{1}, size_t{2}, size_t{17}, full.size() - 1}) {
    config.max_subsets_per_edge = cap;
    std::vector<std::vector<EdgeId>> capped;
    size_t visited = EnumerateConnectedSubsets(
        g, 39, config, /*older_only=*/true,
        [&](const std::vector<EdgeId>& s) { capped.push_back(s); });
    EXPECT_EQ(visited, cap);
    ASSERT_EQ(capped.size(), cap);
    EXPECT_TRUE(std::equal(capped.begin(), capped.end(), full.begin()));
  }
}

// ---------- Baselines directly ----------

TEST(ArabesqueSimTest, CountsEmbeddingsOnStaticGraph) {
  PropertyGraph g;
  VertexId a = g.GetOrAddVertex("a");
  VertexId b = g.GetOrAddVertex("b");
  VertexId c = g.GetOrAddVertex("c");
  PredicateId p = g.predicates().Intern("p");
  g.AddEdge(a, p, b, {});
  g.AddEdge(b, p, c, {});
  MinerConfig config;
  config.max_edges = 2;
  config.min_support = 1;
  size_t embeddings = 0;
  auto results = MineArabesqueSim(g, config, &embeddings);
  // 2 single-edge embeddings + 1 chain embedding.
  EXPECT_EQ(embeddings, 3u);
  // Patterns: single edge (support 2), chain (support 1).
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].support, 2u);
  EXPECT_EQ(results[1].support, 1u);
}

TEST(ArabesqueSimTest, ParallelVariantMatchesSerial) {
  StreamConfig sc;
  sc.num_edges = 400;
  sc.num_entities = 50;
  sc.num_predicates = 4;
  sc.seed = 9;
  PropertyGraph g;
  for (const TimedTriple& t : GenerateStream(sc)) g.AddTriple(t);
  MinerConfig config;
  config.max_edges = 2;
  config.min_support = 4;
  size_t serial_embeddings = 0, parallel_embeddings = 0;
  auto serial = MineArabesqueSim(g, config, &serial_embeddings);
  ThreadPool pool(4);
  auto parallel =
      MineArabesqueSimParallel(g, config, &pool, &parallel_embeddings);
  EXPECT_EQ(serial_embeddings, parallel_embeddings);
  EXPECT_EQ(ToMap(serial, g.predicates()),
            ToMap(parallel, g.predicates()));
  // Null pool falls back to the serial path.
  auto fallback = MineArabesqueSimParallel(g, config, nullptr);
  EXPECT_EQ(ToMap(serial, g.predicates()),
            ToMap(fallback, g.predicates()));
}

TEST(GspanTest, PruningSkipsInfrequentExtensions) {
  PropertyGraph g;
  // One rare predicate chain that can never reach min_support.
  VertexId a = g.GetOrAddVertex("a");
  VertexId b = g.GetOrAddVertex("b");
  VertexId c = g.GetOrAddVertex("c");
  PredicateId rare = g.predicates().Intern("rare");
  g.AddEdge(a, rare, b, {});
  g.AddEdge(b, rare, c, {});
  // A frequent predicate elsewhere.
  PredicateId common = g.predicates().Intern("common");
  for (int i = 0; i < 6; ++i) {
    VertexId s = g.GetOrAddVertex("s" + std::to_string(i));
    VertexId o = g.GetOrAddVertex("o" + std::to_string(i));
    g.AddEdge(s, common, o, {});
  }
  MinerConfig config;
  config.max_edges = 2;
  config.min_support = 3;
  size_t gspan_embeddings = 0, arabesque_embeddings = 0;
  auto gspan_result = MineGspan(g, config, &gspan_embeddings);
  auto arab_result = MineArabesqueSim(g, config, &arabesque_embeddings);
  EXPECT_EQ(ToMap(gspan_result, g.predicates()),
            ToMap(arab_result, g.predicates()));
  // gSpan materializes fewer embeddings thanks to pruning.
  EXPECT_LT(gspan_embeddings, arabesque_embeddings);
}

}  // namespace
}  // namespace nous
