#ifndef NOUS_PERFBENCH_HARNESS_H_
#define NOUS_PERFBENCH_HARNESS_H_

// Measurement plumbing shared by the workloads: a steady clock, exact
// sample quantiles, in-memory spans around the benchmark's own calls
// into NOUS, registry reads (sums and counts only), the result report
// and the run header.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the process started.
double Now();

/// Sleeps until `t` (a Now() value); returns at once when it has passed.
void SleepUntil(double t);

/// Timing samples; quantiles are exact over the stored values.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  double Mean() const;
  /// Linear interpolation between closest ranks; 0 when empty.
  double Quantile(double q) const;

 private:
  // Mutable so Quantile() can sort lazily; sorting keeps the set.
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Samples bucketed by when they were taken into kWindows equal slices
/// of the timed phase. A run reports the median over slices of each
/// slice's quantile, so a burst of host noise that spoils one slice
/// does not move the result.
class WindowedSamples {
 public:
  static constexpr size_t kWindows = 5;

  WindowedSamples(double t0, double phase_s)
      : t0_(t0), window_s_(phase_s / kWindows) {}
  /// `t` is a Now() value inside the phase; later ones count in the
  /// last slice.
  void Add(double t, double v);
  void Merge(const WindowedSamples& other);
  Samples All() const;
  size_t size() const;
  /// Median over non-empty slices of the slice's q-quantile.
  double MedianOfQuantile(double q) const;

 private:
  double t0_;
  double window_s_;
  std::array<Samples, kWindows> windows_;
};

/// One span the benchmark recorded around its own call into NOUS.
struct SpanEvent {
  const char* name = "";
  const char* layer = "";
  uint32_t tid = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  double start_s = 0;
  double dur_s = 0;
};

/// Keeps spans in memory while enabled; written out once at the end.
/// Enabling is a single flag so the traced run can alternate traced
/// and untraced slices and measure the tracing overhead itself.
class Tracer {
 public:
  static Tracer& Get();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(const SpanEvent& event);
  std::vector<SpanEvent> Events() const;
  /// Chrome / Perfetto "traceEvents" JSON. Returns false on I/O error.
  bool WriteChromeJson(const std::string& path) const;
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  /// Spans not kept because the in-memory buffer was full.
  uint64_t dropped() const;

 private:
  static constexpr size_t kMaxEvents = 1 << 20;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<SpanEvent> events_;  // guarded by mutex_
  uint64_t dropped_ = 0;           // guarded by mutex_
};

/// RAII span: records into the Tracer when tracing is on at
/// construction, and nests under the thread's enclosing Span.
class Span {
 public:
  Span(const char* name, const char* layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanEvent event_;
  uint64_t saved_parent_ = 0;
};

/// Sums and counts read from the process-wide MetricsRegistry. Only
/// counts, sums, counter values and gauges are used: the registry's
/// quantiles fall on power-of-two bucket bounds.
class RegistryReading {
 public:
  static RegistryReading Read();

  uint64_t Count(const std::string& histogram) const;
  /// Seconds summed over every observation of `histogram`.
  double Sum(const std::string& histogram) const;
  /// Counter value summed across label sets.
  uint64_t Counter(const std::string& name) const;
  double Gauge(const std::string& name) const;

  /// Adds `other`'s counts, sums and counters (one reading per timed
  /// phase); gauges take `other`'s values.
  void Accumulate(const RegistryReading& other);

 private:
  std::map<std::string, std::pair<uint64_t, double>> histograms_;
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// Collects the run's metrics and operation accounting and prints the
/// human-readable lines plus the final one-line JSON result.
class Report {
 public:
  /// End-to-end metric under the name the result JSON uses.
  void EndToEnd(const std::string& name, double value,
                const std::string& unit, uint64_t samples);
  /// Workload-specific end-to-end reading, printed for people; the
  /// JSON carries it through one of the generic EndToEnd names.
  void Detail(const std::string& name, double value, const std::string& unit,
              uint64_t samples);
  void Layer(const std::string& name, double value, const std::string& unit,
             uint64_t samples);

  void CountOp(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A wrong output that is not tied to one operation (divergence,
  /// digest mismatch). Makes the run incorrect.
  void Fail(const std::string& why);
  void Note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return problems_.empty() && failed_ == 0; }

  /// Prints every line; the JSON result is the last line of stdout.
  /// With `traced` the result carries the per-layer metrics, else the
  /// end-to-end ones.
  void Print(bool traced) const;

 private:
  std::vector<Metric> end_to_end_;
  std::vector<Metric> details_;
  std::vector<Metric> layers_;
  std::vector<std::string> notes_;
  std::vector<std::string> problems_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Peak resident set size of this process, in MiB (getrusage).
double PeakRssMb();

/// CPUs this process may run on (what `nproc` prints).
size_t Nproc();

/// Formats a double with every significant digit, for JSON.
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // NOUS_PERFBENCH_HARNESS_H_
