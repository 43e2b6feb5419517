// Per-layer metrics (layer = src/ module) and the self-time table.
// Every reading comes from outside the program: registry counts and
// sums over the timed phase, snapshot/replication accessors, and the
// benchmark's own spans around facade calls.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kClassNames[5] = {"trending", "entity", "relationship",
                                        "pattern", "search"};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Row {
  std::string layer;
  double self_s;
};

void SelfTimeTable(RunContext* ctx, const std::string& path, double total_s,
                   std::vector<Row> rows) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "self time on the %s path (total %.4f s)",
                path.c_str(), total_s);
  ctx->report.Note(buf);
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.self_s > b.self_s; });
  for (const Row& r : rows) {
    std::snprintf(buf, sizeof(buf), "  %-22s %12.4f s %6.1f%%",
                  r.layer.c_str(), r.self_s, 100.0 * Ratio(r.self_s, total_s));
    ctx->report.Note(buf);
  }
  if (!rows.empty() && total_s > 0) {
    std::snprintf(buf, sizeof(buf), "largest self time on the %s path: %s",
                  path.c_str(), rows.front().layer.c_str());
    ctx->report.Note(buf);
  }
}

}  // namespace

void ReportLayers(RunContext* ctx, const LayerInputs& in) {
  const RegistryReading& r = in.reg;
  Report& rep = ctx->report;
  auto hist_mean = [&](const char* name, double scale) {
    return Ratio(r.Sum(name) * scale, static_cast<double>(r.Count(name)));
  };

  // Registry families (NOUS_SPAN stage "x" -> nous_x_latency_seconds).
  const double x_sum = r.Sum("nous_extraction_latency_seconds");
  const uint64_t x_n = r.Count("nous_extraction_latency_seconds");
  const double link_sum = r.Sum("nous_linking_latency_seconds");
  const double map_sum = r.Sum("nous_mapping_latency_seconds");
  const double score_sum = r.Sum("nous_confidence_latency_seconds");
  const uint64_t score_n = r.Count("nous_confidence_latency_seconds");
  const double mine_sum = r.Sum("nous_mining_latency_seconds");
  const double refresh_sum = r.Sum("nous_embed_refresh_latency_seconds");
  const double commit_sum = r.Sum("nous_pipeline_ingest_latency_seconds");
  const double publish_sum = r.Sum("nous_snapshot_publish_latency_seconds");
  const double append_sum = r.Sum("nous_wal_append_latency_seconds");
  const uint64_t append_n = r.Count("nous_wal_append_latency_seconds");
  const double fsync_sum = r.Sum("nous_wal_fsync_latency_seconds");
  const uint64_t fsync_n = r.Count("nous_wal_fsync_latency_seconds");
  const double path_sum = r.Sum("nous_path_search_latency_seconds");
  const uint64_t path_n = r.Count("nous_path_search_latency_seconds");
  const uint64_t docs_total = r.Counter("nous_pipeline_documents_total");
  const uint64_t linked = r.Counter("nous_linking_linked_total");
  const uint64_t minted = r.Counter("nous_linking_new_entities_total");
  const uint64_t mapped = r.Counter("nous_mapping_mapped_total");
  const uint64_t unmapped = r.Counter("nous_mapping_unmapped_total") +
                            r.Counter("nous_mapping_dropped_total");
  const uint64_t rejected = r.Counter("nous_confidence_rejected_total");
  const uint64_t wal_records = r.Counter("nous_wal_records_total");
  const uint64_t cache_hits = r.Counter("nous_query_cache_hits_total");
  const uint64_t cache_misses = r.Counter("nous_query_cache_misses_total");

  rep.Layer("corpus.generate_s", in.generate_s.Quantile(0.5), "s",
            in.generate_s.size());
  rep.Layer("text.extract_us_per_doc", hist_mean(
                "nous_extraction_latency_seconds", 1e6), "us", x_n);
  rep.Layer("text.triples_per_doc",
            Ratio(r.Counter("nous_extraction_triples_total"), x_n), "count",
            x_n);
  rep.Layer("linker.link_us_per_doc", Ratio(link_sum * 1e6, docs_total), "us",
            docs_total);
  rep.Layer("linker.new_entity_ratio", Ratio(minted, minted + linked), "ratio",
            minted + linked);
  rep.Layer("mapping.map_us_per_triple",
            hist_mean("nous_mapping_latency_seconds", 1e6), "us",
            r.Count("nous_mapping_latency_seconds"));
  rep.Layer("mapping.mapped_ratio", Ratio(mapped, mapped + unmapped), "ratio",
            mapped + unmapped);
  rep.Layer("embed.score_us_per_triple",
            hist_mean("nous_confidence_latency_seconds", 1e6), "us", score_n);
  rep.Layer("embed.refresh_ms_per_call",
            hist_mean("nous_embed_refresh_latency_seconds", 1e3), "ms",
            r.Count("nous_embed_refresh_latency_seconds"));
  rep.Layer("embed.refresh_calls", r.Counter("nous_embed_refresh_total"),
            "count", 1);
  rep.Layer("embed.accept_ratio",
            Ratio(static_cast<double>(score_n - std::min(score_n, rejected)),
                  score_n),
            "ratio", score_n);
  rep.Layer("mining.us_per_window_edge",
            hist_mean("nous_mining_latency_seconds", 1e6), "us",
            r.Count("nous_mining_latency_seconds"));
  rep.Layer("mining.window_edges", r.Gauge("nous_mining_window_edges"),
            "count", 1);
  rep.Layer("mining.live_embeddings", r.Gauge("nous_mining_live_embeddings"),
            "count", 1);
  rep.Layer("mining.patterns_emitted",
            r.Counter("nous_mining_patterns_emitted_total"), "count", 1);
  rep.Layer("topic.finalize_self_s",
            Ratio(std::max(0.0, in.finalize_s - in.finalize_refresh_s),
                  in.finalize_calls),
            "s", in.finalize_calls);
  rep.Layer("core.commit_us_per_doc",
            hist_mean("nous_pipeline_ingest_latency_seconds", 1e6), "us",
            r.Count("nous_pipeline_ingest_latency_seconds"));
  rep.Layer("core.publish_us",
            hist_mean("nous_snapshot_publish_latency_seconds", 1e6), "us",
            r.Count("nous_snapshot_publish_latency_seconds"));
  rep.Layer("core.publishes_per_doc", Ratio(in.publishes, in.docs), "ratio",
            in.docs);
  const double s = in.leader_share;
  const double attributed = s * (commit_sum + publish_sum + append_sum);
  rep.Layer("core.writer_wait_share",
            in.ack_sum_s > 0 ? std::max(0.0, 1.0 - attributed / in.ack_sum_s)
                             : 0.0,
            "ratio", in.docs);
  rep.Layer("core.snapshot_private_kb", in.snapshot_private_kb, "KiB", 1);
  rep.Layer("graph.vertices", in.vertices, "count", 1);
  rep.Layer("graph.edges", in.edges, "count", 1);
  rep.Layer("durability.wal_append_us",
            Ratio((append_sum - fsync_sum) * 1e6, append_n), "us", append_n);
  rep.Layer("durability.fsync_us", Ratio(fsync_sum * 1e6, fsync_n), "us",
            fsync_n);
  rep.Layer("durability.fsyncs_per_doc", Ratio(fsync_n, wal_records), "ratio",
            wal_records);
  rep.Layer("durability.wal_bytes_per_doc",
            Ratio(r.Counter("nous_wal_bytes_total"), wal_records), "B",
            wal_records);
  // durable_ingest commits one doc per call, so docs are commits.
  rep.Layer("replication.frames_per_commit", Ratio(in.frames_sent, in.docs),
            "ratio", in.docs);
  rep.Layer("replication.bytes_per_doc", Ratio(in.bytes_sent, in.docs), "B",
            in.docs);
  rep.Layer("replication.resyncs", static_cast<double>(in.resyncs), "count",
            1);
  rep.Layer("replication.lag_versions_max",
            static_cast<double>(in.lag_versions_max), "count", 1);
  for (size_t k = 0; k < 5; ++k) {
    const Samples& svc = in.service[k];
    rep.Layer(std::string("qa.") + kClassNames[k] + "_p50_ms",
              svc.Quantile(0.5) * 1e3, "ms", svc.size());
    rep.Layer(std::string("qa.") + kClassNames[k] + "_p99_ms",
              svc.Quantile(0.99) * 1e3, "ms", svc.size());
  }
  rep.Layer("qa.path_search_us", Ratio(path_sum * 1e6, path_n), "us", path_n);
  rep.Layer("qa.path_expanded_per_search",
            Ratio(r.Counter("nous_path_search_expanded_total"), path_n),
            "count", path_n);
  rep.Layer("qa.cache_hit_ratio", Ratio(cache_hits, cache_hits + cache_misses),
            "ratio", cache_hits + cache_misses);
  rep.Layer("bench.gen_late_p99_ms", in.gen_late_s.Quantile(0.99) * 1e3, "ms",
            in.gen_late_s.size());
  rep.Layer("bench.trace_overhead_pct", in.trace_overhead_pct, "%", 1);

  // Writer blocking path: the facade ingest calls (plus Finalize when
  // the workload times it). Nested registry stages are subtracted from
  // their parent so each second is attributed to one layer.
  if (in.ack_sum_s > 0) {
    const double refresh_ingest = refresh_sum - in.finalize_refresh_s;
    const double core_self = commit_sum - link_sum - map_sum - score_sum -
                             mine_sum - refresh_ingest + publish_sum;
    std::vector<Row> rows = {
        {"linker", s * link_sum},
        {"mapping", s * map_sum},
        {"embed", s * (score_sum + refresh_ingest) + in.finalize_refresh_s},
        {"mining", s * mine_sum},
        {"core", s * std::max(0.0, core_self)},
        {"durability", s * append_sum},
    };
    double known = 0;
    for (const Row& row : rows) known += row.self_s;
    known -= in.finalize_refresh_s;
    // Inline extraction is timed; fanned-out extraction is whatever
    // of the call the sequential stages do not cover.
    const double text = in.batched_extraction
                            ? std::max(0.0, in.ack_sum_s - known)
                            : s * x_sum;
    rows.push_back({"text", text});
    if (!in.batched_extraction) {
      rows.push_back(
          {"core (ingest wait)", std::max(0.0, in.ack_sum_s - known - text)});
    }
    if (in.finalize_s > 0) {
      rows.push_back({"topic", std::max(0.0, in.finalize_s -
                                                 in.finalize_refresh_s)});
    }
    SelfTimeTable(ctx, "ingest", in.ack_sum_s + in.finalize_s, rows);
  }

  // Query blocking path: due time -> answer.
  double service_sum = 0;
  for (const Samples& svc : in.service) service_sum += svc.Sum();
  if (service_sum > 0) {
    SelfTimeTable(ctx, "query", service_sum + in.gen_late_s.Sum(),
                  {{"bench (generator late)", in.gen_late_s.Sum()},
                   {"qa (path search)", path_sum},
                   {"qa", std::max(0.0, service_sum - path_sum)}});
  }
}

}  // namespace perfbench
