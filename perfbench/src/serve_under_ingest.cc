// serve_under_ingest: the KG is pre-built and finalized in set-up;
// nproc-1 open-loop clients then send the Figure-5 query mix at a
// fixed offered rate below saturation while one writer ingests the
// rest of the corpus at a fixed pace as single-article non-durable
// commits. Every query and document is timed from when it was due.

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/nous.h"
#include "fixture.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// The bulk_build world: about 2000 articles. Set-up builds the KG
/// from the first half; the writer paces in the rest, which lasts
/// about 30 s at kDocsPerS.
constexpr WorldShape kWorld{1, 6000};
constexpr size_t kBatchDocs = 64;
/// Offered load. Path queries cost ~10 ms each here, so 200 queries/s
/// keeps each client about a quarter busy on a 4-core host: well below
/// saturation, where latency from due stays close to service time.
/// Every ~30 ms a publish invalidates the versioned query cache.
constexpr double kQueriesPerS = 200;
constexpr double kDocsPerS = 32;
/// An answer counts toward goodput when it is OK and returns within
/// this long of its due time.
constexpr double kGoodputDeadlineS = 0.100;
constexpr size_t kQueryMix = 4096;

constexpr const char* kSpanNames[5] = {"nous.Execute trending",
                                       "nous.Execute entity",
                                       "nous.Execute relationship",
                                       "nous.Execute pattern",
                                       "nous.Execute search"};

struct Served {
  std::unique_ptr<Fixture> fx;
  std::unique_ptr<nous::Nous> nous;
  size_t prebuilt = 0;
};

std::unique_ptr<Served> SetUp(RunContext* ctx, LayerInputs* layers) {
  Span span("bench.setup", "bench");
  auto s = std::make_unique<Served>();
  const double t0 = Now();
  s->fx = MakeFixture(ctx->seed, kWorld);
  layers->generate_s.Add(Now() - t0);
  s->nous = std::make_unique<nous::Nous>(s->fx->kb.get(),
                                         MakeOptions(ctx->nproc, ""));
  s->prebuilt = s->fx->articles.size() / 2;
  for (const auto& batch :
       Batches(s->fx->articles, 0, s->prebuilt, kBatchDocs)) {
    nous::Status st = s->nous->IngestBatch(batch);
    if (!st.ok()) {
      ctx->report.Fail("serve_under_ingest: pre-build: " + st.ToString());
      return nullptr;
    }
  }
  s->nous->Finalize();
  return s;
}

/// A wrong answer: entity queries must return facts, trending must
/// rank entities. Path classes may legitimately find no path.
bool AnswerOk(const nous::Query& q, const nous::Result<nous::Answer>& a) {
  if (!a.ok()) return false;
  if (a.value().kind != q.kind) return false;
  if (q.kind == nous::QueryKind::kEntity) return !a.value().facts.empty();
  if (q.kind == nous::QueryKind::kTrending) {
    return !a.value().hot_entities.empty();
  }
  return true;
}

struct ClientLog {
  ClientLog(double t0, double phase_s)
      : latency(t0, phase_s), path_latency(t0, phase_s) {}
  WindowedSamples latency;       // due -> answer, keyed by due
  WindowedSamples path_latency;  // relationship + search only
  Samples late;                  // due -> send
  std::array<Samples, 5> service;
  Samples traced, untraced;
  uint64_t attempted = 0, failed = 0, good = 0;
  double last_done = 0;
};

}  // namespace

int RunServeUnderIngest(RunContext* ctx) {
  Report& report = ctx->report;
  LayerInputs layers;
  Samples setup_s;
  std::unique_ptr<Served> s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s.reset();
    const double t0 = Now();
    s = SetUp(ctx, &layers);
    if (s == nullptr) return 1;
    setup_s.Add(Now() - t0);
  }
  nous::Nous& nous = *s->nous;
  const std::vector<nous::Article>& articles = s->fx->articles;
  const std::vector<nous::Query> mix =
      MakeQueryMix(*nous.snapshot(), ctx->seed, kQueryMix);
  if (mix.empty()) {
    report.Fail("serve_under_ingest: empty query mix");
    return 1;
  }

  const size_t clients = std::max<size_t>(1, ctx->nproc - 1);
  const uint64_t version0 = nous.snapshot()->version();
  const uint64_t publishes0 = nous.pipeline().snapshot_store().publish_count();
  const auto snap0 = nous.snapshot();
  nous::MetricsRegistry::Global().ResetAll();

  // Start a little ahead so every thread is waiting when the first
  // request falls due.
  const double t0 = Now() + 0.05;
  const double end = t0 + ctx->seconds;
  std::vector<ClientLog> logs(clients, ClientLog(t0, ctx->seconds));
  WindowedSamples visible_s(t0, ctx->seconds);
  Samples write_ack_s;
  uint64_t writes = 0, write_failed = 0;
  auto slice_traced = [&](double t) {
    return ctx->trace && static_cast<int64_t>((t - t0) / 0.25) % 2 == 1;
  };

  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[c];
      // Query k of the whole schedule is due at t0 + k / rate; client
      // c sends k = c, c + clients, c + 2 * clients, ...
      for (size_t k = c;; k += clients) {
        const double due = t0 + static_cast<double>(k) / kQueriesPerS;
        if (due >= end) break;
        SleepUntil(due);
        const double sent = Now();
        const bool on = slice_traced(sent);
        Tracer::Get().SetEnabled(on);
        const nous::Query& q = mix[k % mix.size()];
        const size_t cls = static_cast<size_t>(q.kind);
        nous::Result<nous::Answer> answer = nous::Status::Ok();
        {
          Span span(kSpanNames[cls], "qa");
          answer = nous.Execute(q);
        }
        const double done = Now();
        log.last_done = done;
        const bool ok = AnswerOk(q, answer);
        ++log.attempted;
        if (!ok) ++log.failed;
        if (ok && done - due <= kGoodputDeadlineS) ++log.good;
        log.latency.Add(due, done - due);
        if (q.kind == nous::QueryKind::kRelationship ||
            q.kind == nous::QueryKind::kSearch) {
          log.path_latency.Add(due, done - due);
        }
        log.late.Add(sent - due);
        log.service[cls].Add(done - sent);
        (on ? log.traced : log.untraced).Add(done - sent);
      }
    });
  }
  // Writer: document j is due at t0 + j / pace and visible once the
  // published snapshot's version covers its commit.
  threads.emplace_back([&] {
    uint64_t version = version0;
    for (size_t i = s->prebuilt, j = 0; i < articles.size(); ++i, ++j) {
      const double due = t0 + static_cast<double>(j) / kDocsPerS;
      if (due >= end) break;
      SleepUntil(due);
      const double sent = Now();
      Tracer::Get().SetEnabled(slice_traced(sent));
      nous::Status st;
      {
        Span span("nous.Ingest", "core");
        st = nous.Ingest(articles[i]);
      }
      const double acked = Now();
      ++writes;
      if (!st.ok()) {
        ++write_failed;
        continue;
      }
      ++version;
      while (nous.snapshot()->version() < version) std::this_thread::yield();
      visible_s.Add(due, Now() - due);
      write_ack_s.Add(acked - sent);
    }
  });
  for (std::thread& t : threads) t.join();
  Tracer::Get().SetEnabled(false);
  // Goodput is counted over the window from the first due time to the
  // last answer, so a backlog that drains after `end` lowers it.
  double last_done = t0;
  for (const ClientLog& log : logs) last_done = std::max(last_done, log.last_done);
  const double phase_s = last_done - t0;
  layers.reg = RegistryReading::Read();
  layers.publishes =
      nous.pipeline().snapshot_store().publish_count() - publishes0;
  layers.snapshot_private_kb = PrivateKiB(*snap0);

  ClientLog all(t0, ctx->seconds);
  for (const ClientLog& log : logs) {
    all.latency.Merge(log.latency);
    all.path_latency.Merge(log.path_latency);
    all.late.Append(log.late);
    for (size_t k = 0; k < 5; ++k) all.service[k].Append(log.service[k]);
    all.traced.Append(log.traced);
    all.untraced.Append(log.untraced);
    all.attempted += log.attempted;
    all.failed += log.failed;
    all.good += log.good;
  }
  report.CountOps(all.attempted, all.failed);
  report.CountOps(writes, write_failed);

  // The rest of the corpus goes in untimed, so the final KG is a
  // function of the seed alone and its digest comparable across runs.
  const size_t written = s->prebuilt + (writes - write_failed);
  if (written < articles.size()) {
    for (const auto& batch :
         Batches(articles, written, articles.size(), kBatchDocs)) {
      report.CountOp(nous.IngestBatch(batch).ok());
    }
  }
  auto snap = nous.snapshot();

  layers.docs = writes - write_failed;
  layers.ack_sum_s = write_ack_s.Sum();
  layers.service = all.service;
  layers.gen_late_s = all.late;
  layers.vertices = static_cast<double>(snap->graph().NumVertices());
  layers.edges = static_cast<double>(snap->graph().NumEdges());
  if (ctx->trace && all.untraced.Mean() > 0) {
    layers.trace_overhead_pct =
        100.0 * (all.traced.Mean() / all.untraced.Mean() - 1.0);
  }

  const double goodput = static_cast<double>(all.good) / phase_s;
  const double p50_ms = all.latency.MedianOfQuantile(0.5) * 1e3;
  const double p99_ms = all.latency.MedianOfQuantile(0.99) * 1e3;

  report.Detail("query_p50_ms", p50_ms, "ms", all.latency.size());
  report.Detail("query_p99_ms", p99_ms, "ms", all.latency.size());
  report.Detail("path_query_p99_ms",
                all.path_latency.MedianOfQuantile(0.99) * 1e3, "ms",
                all.path_latency.size());
  report.Detail("query_goodput_per_s", goodput, "1/s", all.good);
  report.Detail("visible_p99_ms", visible_s.MedianOfQuantile(0.99) * 1e3,
                "ms", visible_s.size());
  report.Detail("ingest_ack_p50_ms", write_ack_s.Quantile(0.5) * 1e3, "ms",
                write_ack_s.size());

  report.EndToEnd("setup_s", setup_s.Quantile(0.5), "s", setup_s.size());
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB", 1);
  report.EndToEnd("throughput_per_s", goodput, "1/s", all.good);
  report.EndToEnd("latency_p50_ms", p50_ms, "ms", all.latency.size());
  report.EndToEnd("visible_p50_ms", visible_s.MedianOfQuantile(0.5) * 1e3,
                  "ms", visible_s.size());

  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(GraphDigest(*snap)));
  ctx->HeaderString("fsync_policy", "none");
  ctx->HeaderNumber("clients", static_cast<double>(clients));
  ctx->HeaderNumber("offered_queries_per_s", kQueriesPerS);
  ctx->HeaderNumber("offered_docs_per_s", kDocsPerS);
  ctx->HeaderNumber("prebuilt_docs", static_cast<double>(s->prebuilt));
  ctx->HeaderNumber("docs", static_cast<double>(articles.size()));
  ctx->HeaderNumber("vertices", layers.vertices);
  ctx->HeaderNumber("edges", layers.edges);
  ctx->HeaderString("kg_digest", buf);
  if (ctx->trace) ReportLayers(ctx, layers);
  return 0;
}

}  // namespace perfbench
