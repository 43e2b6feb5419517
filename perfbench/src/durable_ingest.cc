// durable_ingest: nproc-1 closed-loop writers commit one article per
// Nous::Ingest call (the shape of /api/ingest) on a leader armed with
// FsyncPolicy::kAlways on local disk. One in-process
// ReplicationFollower applies every commit to its own durable Nous
// over loopback, and one benchmark thread watches its lag.
//
// Each writer pauses kThinkS after its ack before the next commit.
// Without the pause the writers saturate the leader, and a follower
// that applies each commit at the leader's own per-commit cost trails
// it by a random walk: the lag then measures the run length, not the
// replication path.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/nous.h"
#include "fixture.h"
#include "obs/metrics.h"
#include "replication/follower.h"
#include "replication/leader.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Twice the default world's entities: about 6700 articles, more than
/// the writers commit in a run, so every timed commit is a new article.
constexpr WorldShape kWorld{2, 20000};
/// Articles committed in set-up, as durable 64-doc batches, before the
/// follower must have caught up.
constexpr size_t kPreGrowDocs = 640;
constexpr size_t kBatchDocs = 64;
constexpr double kCatchUpTimeoutS = 60;
/// Writer think time: three writers then offer about a third of what
/// the leader commits when saturated on a 4-core host, so an ack is
/// mostly service time, not queueing behind the other writers. (Real
/// fsync on shared disks has millisecond tails, and queueing amplifies
/// them into run-to-run noise.)
constexpr double kThinkS = 0.030;

/// A leader, a follower and the replication link between them.
struct Cluster {
  std::unique_ptr<Fixture> fx;
  std::string dir;
  std::unique_ptr<nous::Nous> leader;
  std::unique_ptr<nous::Nous> follower;
  std::unique_ptr<nous::ReplicationLeader> shipper;
  std::unique_ptr<nous::ReplicationFollower> replica;

  ~Cluster() {
    if (replica) replica->Stop();
    if (shipper) shipper->Stop();
    replica.reset();
    shipper.reset();
    follower.reset();
    leader.reset();
    std::error_code ec;
    if (!dir.empty()) fs::remove_all(dir, ec);
  }
};

bool WaitCaughtUp(const nous::Nous& leader, const nous::Nous& follower) {
  const double deadline = Now() + kCatchUpTimeoutS;
  while (Now() < deadline) {
    if (follower.last_durable_seq() == leader.last_durable_seq() &&
        follower.durable_kg_version() == leader.durable_kg_version()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

/// Builds a cluster and pre-grows it. Returns null (after reporting)
/// when any set-up step fails.
std::unique_ptr<Cluster> SetUp(RunContext* ctx, int attempt,
                               LayerInputs* layers) {
  Span span("bench.setup", "bench");
  auto c = std::make_unique<Cluster>();
  const double t0 = Now();
  c->fx = MakeFixture(ctx->seed, kWorld);
  layers->generate_s.Add(Now() - t0);
  c->dir = ctx->workdir + "/durable-" + std::to_string(::getpid()) + "-" +
           std::to_string(attempt);
  std::error_code ec;
  fs::remove_all(c->dir, ec);
  fs::create_directories(c->dir, ec);
  const size_t pool = ctx->nproc;
  c->leader = std::make_unique<nous::Nous>(
      c->fx->kb.get(), MakeOptions(pool, c->dir + "/leader"));
  c->follower = std::make_unique<nous::Nous>(
      c->fx->kb.get(), MakeOptions(pool, c->dir + "/follower"));
  nous::Status st = c->leader->EnableDurability();
  if (st.ok()) st = c->follower->EnableDurability();
  if (!st.ok()) {
    ctx->report.Fail("durable_ingest: durability: " + st.ToString());
    return nullptr;
  }
  c->shipper = std::make_unique<nous::ReplicationLeader>(
      c->leader.get(), nous::ReplicationLeader::Options{});
  if (!(st = c->shipper->Start()).ok()) {
    ctx->report.Fail("durable_ingest: leader start: " + st.ToString());
    return nullptr;
  }
  nous::ReplicationFollower::Options fo;
  fo.port = c->shipper->port();
  c->replica = std::make_unique<nous::ReplicationFollower>(c->follower.get(),
                                                           fo);
  if (!(st = c->replica->Start()).ok()) {
    ctx->report.Fail("durable_ingest: follower start: " + st.ToString());
    return nullptr;
  }
  for (const auto& batch :
       Batches(c->fx->articles, 0, kPreGrowDocs, kBatchDocs)) {
    st = c->leader->IngestBatch(batch);
    if (!st.ok()) {
      ctx->report.Fail("durable_ingest: pre-grow: " + st.ToString());
      return nullptr;
    }
  }
  if (!WaitCaughtUp(*c->leader, *c->follower)) {
    ctx->report.Fail("durable_ingest: follower did not catch up in set-up");
    return nullptr;
  }
  return c;
}

/// One acknowledged commit, waiting for the follower to cover it.
struct Pending {
  uint64_t seq;
  double ack_s;
};

}  // namespace

int RunDurableIngest(RunContext* ctx) {
  Report& report = ctx->report;
  LayerInputs layers;
  Samples setup_s;
  std::unique_ptr<Cluster> c;
  for (int i = 0; i < kSetupRepeats; ++i) {
    c.reset();  // tear the previous set-up down first
    const double t0 = Now();
    c = SetUp(ctx, i, &layers);
    if (c == nullptr) return 1;
    setup_s.Add(Now() - t0);
  }
  nous::Nous& leader = *c->leader;
  nous::Nous& follower = *c->follower;
  const std::vector<nous::Article>& articles = c->fx->articles;

  const size_t writers = std::max<size_t>(1, ctx->nproc - 1);
  const nous::ReplicationView leader0 = c->shipper->View();
  const nous::ReplicationView follower0 = c->replica->View();
  const uint64_t publishes0 =
      leader.pipeline().snapshot_store().publish_count();
  const auto snap0 = leader.snapshot();
  nous::MetricsRegistry::Global().ResetAll();

  std::atomic<size_t> cursor{kPreGrowDocs};
  std::atomic<size_t> writers_left{writers};
  std::atomic<double> writers_end{0};
  std::mutex pending_mu;
  std::deque<Pending> pending;  // guarded by pending_mu
  const double t0 = Now();
  const double end = t0 + ctx->seconds;
  std::vector<WindowedSamples> ack(writers, WindowedSamples(t0, ctx->seconds));
  std::vector<Samples> late(writers), traced(writers), untraced(writers);
  std::vector<uint64_t> attempted(writers, 0), failed(writers, 0);
  WindowedSamples lag_s(t0, ctx->seconds);
  uint64_t lag_versions_max = 0;
  // Traced run: tracing alternates in 250 ms slices, so traced and
  // untraced commits interleave at the same KG size.
  auto slice_traced = [&](double t) {
    return ctx->trace && static_cast<int64_t>((t - t0) / 0.25) % 2 == 1;
  };

  std::vector<std::thread> threads;
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      double next = -1;  // when this writer should send again
      while (true) {
        if (next >= 0) SleepUntil(next);
        const double c0 = Now();
        if (c0 >= end) break;
        const size_t i = cursor.fetch_add(1);
        if (i >= articles.size()) break;
        const bool on = slice_traced(c0);
        Tracer::Get().SetEnabled(on);
        if (next >= 0) late[w].Add(c0 - next);
        nous::Status st;
        {
          Span span("nous.Ingest", "core");
          st = leader.Ingest(articles[i]);
        }
        const double acked = Now();
        const uint64_t seq = leader.last_durable_seq();
        next = acked + kThinkS;
        ++attempted[w];
        if (!st.ok()) {
          ++failed[w];
          continue;
        }
        ack[w].Add(c0, acked - c0);
        (on ? traced[w] : untraced[w]).Add(acked - c0);
        std::lock_guard<std::mutex> lock(pending_mu);
        pending.push_back({seq, acked});
      }
      if (writers_left.fetch_sub(1) == 1) writers_end.store(Now());
    });
  }
  // Lag watcher: a commit is covered once the follower's durable seq
  // reaches the leader's seq read right after that commit's ack.
  threads.emplace_back([&] {
    std::vector<Pending> waiting;
    const double deadline = end + kCatchUpTimeoutS;
    while (Now() < deadline) {
      const bool writers_done = writers_left.load() == 0;
      {
        std::lock_guard<std::mutex> lock(pending_mu);
        waiting.insert(waiting.end(), pending.begin(), pending.end());
        pending.clear();
      }
      const uint64_t covered = follower.last_durable_seq();
      const double now = Now();
      const uint64_t lv = leader.durable_kg_version();
      const uint64_t fv = follower.durable_kg_version();
      if (lv > fv) lag_versions_max = std::max(lag_versions_max, lv - fv);
      size_t kept = 0;
      for (const Pending& p : waiting) {
        if (p.seq <= covered) {
          lag_s.Add(p.ack_s, now - p.ack_s);
        } else {
          waiting[kept++] = p;
        }
      }
      waiting.resize(kept);
      if (writers_done && waiting.empty()) break;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (!waiting.empty()) {
      report.Fail("durable_ingest: follower never covered " +
                  std::to_string(waiting.size()) + " commits");
    }
  });
  for (std::thread& t : threads) t.join();
  Tracer::Get().SetEnabled(false);
  const double phase_s = writers_end.load() - t0;
  layers.reg = RegistryReading::Read();

  WindowedSamples acks(t0, ctx->seconds);
  Samples lates, traced_all, untraced_all;
  uint64_t docs = 0;
  for (size_t w = 0; w < writers; ++w) {
    acks.Merge(ack[w]);
    lates.Append(late[w]);
    traced_all.Append(traced[w]);
    untraced_all.Append(untraced[w]);
    report.CountOps(attempted[w], failed[w]);
    docs += attempted[w] - failed[w];
  }

  // Final catch-up, then the follower's graph must be bit-identical.
  if (!WaitCaughtUp(leader, follower)) {
    report.Fail("durable_ingest: follower did not converge after the run");
  } else if (LiveGraphBytes(leader) != LiveGraphBytes(follower)) {
    report.Fail("durable_ingest: follower graph differs from the leader's");
  }
  const nous::ReplicationView leader1 = c->shipper->View();
  const nous::ReplicationView follower1 = c->replica->View();
  auto snap = leader.snapshot();

  layers.docs = docs;
  layers.ack_sum_s = acks.All().Sum();
  const uint64_t applied = follower1.frames_applied - follower0.frames_applied;
  layers.leader_share =
      static_cast<double>(docs) / static_cast<double>(docs + applied);
  layers.publishes =
      leader.pipeline().snapshot_store().publish_count() - publishes0;
  layers.frames_sent = leader1.frames_sent - leader0.frames_sent;
  layers.bytes_sent = leader1.bytes_sent - leader0.bytes_sent;
  layers.resyncs = follower1.resyncs;
  layers.lag_versions_max = lag_versions_max;
  layers.snapshot_private_kb = PrivateKiB(*snap0);
  layers.vertices = static_cast<double>(snap->graph().NumVertices());
  layers.edges = static_cast<double>(snap->graph().NumEdges());
  layers.gen_late_s = lates;
  if (ctx->trace && untraced_all.Mean() > 0) {
    layers.trace_overhead_pct =
        100.0 * (traced_all.Mean() / untraced_all.Mean() - 1.0);
  }
  if (follower1.resyncs != 0) {
    report.Fail("durable_ingest: follower resynced " +
                std::to_string(follower1.resyncs) + " times");
  }

  const double docs_per_s = static_cast<double>(docs) / phase_s;
  const double ack_p50_ms = acks.MedianOfQuantile(0.5) * 1e3;
  const double ack_p99_ms = acks.MedianOfQuantile(0.99) * 1e3;
  const double lag_p50_ms = lag_s.MedianOfQuantile(0.5) * 1e3;
  report.Detail("ingest_docs_per_s", docs_per_s, "1/s", docs);
  report.Detail("ingest_ack_p50_ms", ack_p50_ms, "ms", acks.size());
  report.Detail("ingest_ack_p99_ms", ack_p99_ms, "ms", acks.size());
  report.Detail("follower_lag_p50_ms", lag_p50_ms, "ms", lag_s.size());
  report.Detail("follower_lag_p99_ms", lag_s.MedianOfQuantile(0.99) * 1e3,
                "ms", lag_s.size());

  report.EndToEnd("setup_s", setup_s.Quantile(0.5), "s", setup_s.size());
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB", 1);
  report.EndToEnd("throughput_per_s", docs_per_s, "1/s", docs);
  report.EndToEnd("latency_p50_ms", ack_p50_ms, "ms", acks.size());
  report.EndToEnd("visible_p50_ms", lag_p50_ms, "ms", lag_s.size());

  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(GraphDigest(*snap)));
  ctx->HeaderString("fsync_policy", "always");
  ctx->HeaderNumber("writers", static_cast<double>(writers));
  ctx->HeaderNumber("writer_think_ms", kThinkS * 1e3);
  ctx->HeaderNumber("pre_grown_docs", kPreGrowDocs);
  ctx->HeaderNumber("docs", static_cast<double>(kPreGrowDocs + docs));
  ctx->HeaderNumber("vertices", layers.vertices);
  ctx->HeaderNumber("edges", layers.edges);
  ctx->HeaderString("kg_digest", buf);
  if (ctx->trace) ReportLayers(ctx, layers);
  return 0;
}

}  // namespace perfbench
