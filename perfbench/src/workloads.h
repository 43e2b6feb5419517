#ifndef NOUS_PERFBENCH_WORKLOADS_H_
#define NOUS_PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "qa/query.h"

namespace perfbench {

/// Command-line settings plus what a workload reports.
struct RunContext {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Working directory inside the checkout (WAL dirs, trace output).
  std::string workdir;
  size_t nproc = 1;

  Report report;
  /// Run-header fields as (key, JSON value).
  std::vector<std::pair<std::string, std::string>> header;

  void HeaderString(const std::string& key, const std::string& value) {
    header.emplace_back(key, JsonString(value));
  }
  void HeaderNumber(const std::string& key, double value) {
    header.emplace_back(key, JsonNumber(value));
  }
};

/// Setups per run: setup_s is their median.
inline constexpr int kSetupRepeats = 3;

/// Everything the per-layer metrics are derived from. A workload fills
/// what its timed phase exercised; layers it bypasses report 0.
struct LayerInputs {
  /// Registry counts and sums over the timed phase(s).
  RegistryReading reg;
  Samples generate_s;
  /// Documents acknowledged by the workload's writers.
  uint64_t docs = 0;
  /// Σ writer call time (facade call to return) and whether the call
  /// fans extraction out over the pool (IngestBatch) or runs it inline.
  double ack_sum_s = 0;
  bool batched_extraction = false;
  /// Share of the registry's ingest-side sums that the measured
  /// instance did. The process-wide registry also counts an in-process
  /// follower's re-application of the same commits.
  double leader_share = 1.0;
  /// Σ Finalize span time over `finalize_calls`, and the BPR refresh
  /// time inside it.
  double finalize_s = 0;
  uint64_t finalize_calls = 0;
  double finalize_refresh_s = 0;
  uint64_t publishes = 0;
  double snapshot_private_kb = 0;
  double vertices = 0;
  double edges = 0;
  uint64_t frames_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t resyncs = 0;
  uint64_t lag_versions_max = 0;
  /// Query service time per Figure-5 class, from benchmark spans.
  std::array<Samples, 5> service;
  /// Open-loop lateness: Σ and samples of (send - due).
  Samples gen_late_s;
  double trace_overhead_pct = 0;
};

/// Adds every per-layer metric to `ctx->report` and prints the self
/// time per layer along the blocking path(s), naming the largest.
void ReportLayers(RunContext* ctx, const LayerInputs& in);

int RunBulkBuild(RunContext* ctx);
int RunDurableIngest(RunContext* ctx);
int RunServeUnderIngest(RunContext* ctx);

}  // namespace perfbench

#endif  // NOUS_PERFBENCH_WORKLOADS_H_
