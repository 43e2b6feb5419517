// bulk_build: one closed-loop client feeds the whole seeded corpus
// through Nous::IngestBatch in 64-document batches (the IngestStream
// batch size), then calls Finalize(). No durability; the pipeline pool
// has nproc threads. A run repeats set-up + build while time remains,
// and reports medians over the repeats.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/nous.h"
#include "fixture.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kBatchDocs = 64;
/// The default drone world at 6000 events yields about 2000 articles,
/// enough KG growth that docs/s in the last quarter of a build is well
/// below the first (per-doc cost that grows with KG size shows here).
constexpr WorldShape kWorld{1, 6000};

}  // namespace

int RunBulkBuild(RunContext* ctx) {
  Report& report = ctx->report;
  LayerInputs layers;
  layers.batched_extraction = true;
  // build_s: first IngestBatch call until Finalize returns, when the
  // whole corpus is visible in its final form.
  Samples setup_s, docs_per_s, batch_ack_s, finalize_s, build_s, first_q,
      last_q;
  Samples traced_ack, untraced_ack;
  size_t docs = 0, vertices = 0, edges = 0;
  uint64_t digest = 0;
  int reps = 0;
  const double start = Now();
  double rep_s = 0;
  // At least kSetupRepeats builds, so setup_s is a median of several
  // set-ups; more while the run length allows.
  while (reps < kSetupRepeats || Now() - start + rep_s <= ctx->seconds) {
    const double rep_start = Now();
    std::unique_ptr<Fixture> fx;
    std::unique_ptr<nous::Nous> nous;
    {
      Span span("bench.setup", "bench");
      const double t0 = Now();
      fx = MakeFixture(ctx->seed, kWorld);
      layers.generate_s.Add(Now() - t0);
      nous = std::make_unique<nous::Nous>(fx->kb.get(),
                                          MakeOptions(ctx->nproc, ""));
      setup_s.Add(Now() - t0);
    }
    const auto batches = Batches(fx->articles, 0, fx->articles.size(),
                                 kBatchDocs);
    docs = fx->articles.size();
    const uint64_t publishes0 =
        nous->pipeline().snapshot_store().publish_count();
    const auto snap0 = nous->snapshot();
    nous::MetricsRegistry::Global().ResetAll();

    const double t0 = Now();
    std::vector<double> batch_end(batches.size());
    for (size_t b = 0; b < batches.size(); ++b) {
      // Traced run: alternate traced and untraced batches, so adjacent
      // batches (same KG size) give the tracing overhead.
      const bool traced = ctx->trace && (b % 2 == 1);
      Tracer::Get().SetEnabled(traced);
      const double c0 = Now();
      nous::Status st;
      {
        Span span("nous.IngestBatch", "core");
        st = nous->IngestBatch(batches[b]);
      }
      batch_end[b] = Now();
      const double ack = batch_end[b] - c0;
      report.CountOp(st.ok());
      batch_ack_s.Add(ack);
      layers.ack_sum_s += ack;
      (traced ? traced_ack : untraced_ack).Add(ack);
    }
    const double ingest_s = Now() - t0;
    // Quarter rates over whole batches: the first batches reaching a
    // quarter of the corpus, and the batches after three quarters.
    size_t cum = 0, q1_docs = 0, q4_from = 0;
    double q1_end = t0, q4_start = t0;
    for (size_t b = 0; b < batches.size(); ++b) {
      cum += batches[b].size();
      if (q1_docs == 0 && cum >= docs / 4) {
        q1_docs = cum;
        q1_end = batch_end[b];
      }
      if (q4_from == 0 && cum >= docs - docs / 4) {
        q4_from = cum;
        q4_start = batch_end[b];
      }
    }
    first_q.Add(static_cast<double>(q1_docs) / (q1_end - t0));
    if (batch_end.back() > q4_start) {
      last_q.Add(static_cast<double>(docs - q4_from) /
                 (batch_end.back() - q4_start));
    }
    docs_per_s.Add(static_cast<double>(docs) / ingest_s);
    char line[96];
    std::snprintf(line, sizeof(line), "build %d: %.1f docs/s over %.3f s",
                  reps, static_cast<double>(docs) / ingest_s, ingest_s);
    report.Note(line);
    Tracer::Get().SetEnabled(ctx->trace);

    const double refresh0 =
        RegistryReading::Read().Sum("nous_embed_refresh_latency_seconds");
    const double f0 = Now();
    {
      Span span("nous.Finalize", "core");
      nous->Finalize();
    }
    finalize_s.Add(Now() - f0);
    build_s.Add(Now() - t0);
    const RegistryReading reading = RegistryReading::Read();
    layers.reg.Accumulate(reading);
    layers.finalize_s += Now() - f0;
    ++layers.finalize_calls;
    layers.finalize_refresh_s +=
        reading.Sum("nous_embed_refresh_latency_seconds") - refresh0;
    layers.docs += docs;
    layers.publishes +=
        nous->pipeline().snapshot_store().publish_count() - publishes0;
    Tracer::Get().SetEnabled(false);

    // Correctness: every batch committed, and a curated entity that
    // has facts answers with facts.
    auto snap = nous->snapshot();
    if (snap == nullptr || snap->version() != 1 + batches.size() + 1) {
      report.Fail("bulk_build: snapshot version does not cover every batch");
    }
    bool asked = false;
    for (const nous::KbEntity& e : fx->kb->entities()) {
      auto v = snap->graph().FindVertex(e.name);
      if (!v || snap->graph().OutDegree(*v) == 0) continue;
      nous::Query q;
      q.kind = nous::QueryKind::kEntity;
      q.entity_a = e.name;
      auto answer = nous->Execute(q);
      report.CountOp(answer.ok() && !answer.value().facts.empty());
      asked = true;
      break;
    }
    if (!asked) report.Fail("bulk_build: no curated entity with facts");
    const uint64_t d = GraphDigest(*snap);
    if (reps > 0 && d != digest) {
      report.Fail("bulk_build: KG digest differs between builds of one seed");
    }
    digest = d;
    vertices = snap->graph().NumVertices();
    edges = snap->graph().NumEdges();
    layers.snapshot_private_kb = PrivateKiB(*snap0);
    ++reps;
    rep_s = Now() - rep_start;
  }

  const double peak_rss = PeakRssMb();
  layers.vertices = static_cast<double>(vertices);
  layers.edges = static_cast<double>(edges);
  if (ctx->trace && untraced_ack.Mean() > 0) {
    layers.trace_overhead_pct =
        100.0 * (traced_ack.Mean() / untraced_ack.Mean() - 1.0);
  }

  report.Detail("ingest_docs_per_s", docs_per_s.Quantile(0.5), "1/s", reps);
  report.Detail("finalize_s", finalize_s.Quantile(0.5), "s", reps);
  report.Detail("first_quarter_docs_per_s", first_q.Quantile(0.5), "1/s",
                reps);
  report.Detail("last_quarter_docs_per_s", last_q.Quantile(0.5), "1/s", reps);
  report.Detail("batch_ack_p50_ms", batch_ack_s.Quantile(0.5) * 1e3, "ms",
                batch_ack_s.size());
  report.Detail("batch_ack_p99_ms", batch_ack_s.Quantile(0.99) * 1e3, "ms",
                batch_ack_s.size());

  report.EndToEnd("setup_s", setup_s.Quantile(0.5), "s", setup_s.size());
  report.EndToEnd("peak_rss_mb", peak_rss, "MB", 1);
  report.EndToEnd("throughput_per_s", docs_per_s.Quantile(0.5), "1/s", reps);
  report.EndToEnd("latency_p50_ms", batch_ack_s.Quantile(0.5) * 1e3, "ms",
                  batch_ack_s.size());
  report.EndToEnd("visible_p50_ms", build_s.Quantile(0.5) * 1e3, "ms", reps);

  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  ctx->HeaderString("fsync_policy", "none");
  ctx->HeaderNumber("builds", reps);
  ctx->HeaderNumber("batch_docs", kBatchDocs);
  ctx->HeaderNumber("docs", static_cast<double>(docs));
  ctx->HeaderNumber("vertices", static_cast<double>(vertices));
  ctx->HeaderNumber("edges", static_cast<double>(edges));
  ctx->HeaderString("kg_digest", buf);
  if (ctx->trace) ReportLayers(ctx, layers);
  return 0;
}

}  // namespace perfbench
