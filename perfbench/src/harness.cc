#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>

#include "obs/metrics.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kStart = Clock::now();

thread_local uint64_t tl_parent_span = 0;

uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t tag = next.fetch_add(1) + 1;
  return tag;
}

void PrintMetricLine(const char* kind, const Metric& m) {
  std::printf("%-6s %-34s %16.6f %-6s n=%llu\n", kind, m.name.c_str(),
              m.value, m.unit.c_str(),
              static_cast<unsigned long long>(m.samples));
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(Clock::now() - kStart).count();
}

void SleepUntil(double t) {
  double wait = t - Now();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(values_.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] + (values_[hi] - values_[lo]) * frac;
}

void WindowedSamples::Add(double t, double v) {
  double slot = window_s_ > 0 ? (t - t0_) / window_s_ : 0.0;
  slot = std::clamp(slot, 0.0, static_cast<double>(kWindows - 1));
  windows_[static_cast<size_t>(slot)].Add(v);
}

void WindowedSamples::Merge(const WindowedSamples& other) {
  for (size_t i = 0; i < kWindows; ++i) windows_[i].Append(other.windows_[i]);
}

Samples WindowedSamples::All() const {
  Samples all;
  for (const Samples& w : windows_) all.Append(w);
  return all;
}

size_t WindowedSamples::size() const {
  size_t n = 0;
  for (const Samples& w : windows_) n += w.size();
  return n;
}

double WindowedSamples::MedianOfQuantile(double q) const {
  Samples per_window;
  for (const Samples& w : windows_) {
    if (!w.empty()) per_window.Add(w.Quantile(q));
  }
  return per_window.Quantile(0.5);
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Record(const SpanEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back(event);
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<SpanEvent> Tracer::Events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::vector<SpanEvent> events = Events();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& e = events[i];
    if (i > 0) out << ",\n";
    out << "{\"name\":" << JsonString(e.name)
        << ",\"cat\":" << JsonString(e.layer)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
        << ",\"ts\":" << JsonNumber(e.start_s * 1e6)
        << ",\"dur\":" << JsonNumber(e.dur_s * 1e6)
        << ",\"args\":{\"span_id\":" << e.id
        << ",\"parent_id\":" << e.parent << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Span::Span(const char* name, const char* layer) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  event_.name = name;
  event_.layer = layer;
  event_.tid = ThreadTag();
  event_.id = tracer.NextId();
  event_.parent = tl_parent_span;
  saved_parent_ = tl_parent_span;
  tl_parent_span = event_.id;
  event_.start_s = Now();
}

Span::~Span() {
  if (!active_) return;
  event_.dur_s = Now() - event_.start_s;
  tl_parent_span = saved_parent_;
  Tracer::Get().Record(event_);
}

RegistryReading RegistryReading::Read() {
  nous::MetricsRegistry& registry = nous::MetricsRegistry::Global();
  RegistryReading r;
  for (const auto& row : registry.HistogramRows()) {
    auto& slot = r.histograms_[row.name];
    slot.first += row.count;
    slot.second += row.sum;
  }
  for (const auto& row : registry.CounterRows()) {
    r.counters_[row.name] += row.value;
  }
  for (const auto& row : registry.GaugeRows()) {
    r.gauges_[row.name] = row.value;
  }
  return r;
}

uint64_t RegistryReading::Count(const std::string& histogram) const {
  auto it = histograms_.find(histogram);
  return it == histograms_.end() ? 0 : it->second.first;
}

double RegistryReading::Sum(const std::string& histogram) const {
  auto it = histograms_.find(histogram);
  return it == histograms_.end() ? 0.0 : it->second.second;
}

uint64_t RegistryReading::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double RegistryReading::Gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

void RegistryReading::Accumulate(const RegistryReading& other) {
  for (const auto& [name, slot] : other.histograms_) {
    histograms_[name].first += slot.first;
    histograms_[name].second += slot.second;
  }
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
  for (const auto& [name, value] : other.gauges_) gauges_[name] = value;
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit, uint64_t samples) {
  end_to_end_.push_back({name, value, unit, samples});
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit, uint64_t samples) {
  details_.push_back({name, value, unit, samples});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, uint64_t samples) {
  layers_.push_back({name, value, unit, samples});
}

void Report::Fail(const std::string& why) { problems_.push_back(why); }

void Report::Print(bool traced) const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const Metric& m : details_) PrintMetricLine("detail", m);
  for (const Metric& m : end_to_end_) PrintMetricLine("e2e", m);
  for (const Metric& m : layers_) PrintMetricLine("layer", m);
  for (const std::string& p : problems_) {
    std::printf("INCORRECT: %s\n", p.c_str());
  }
  std::printf("failed_op_ratio %.6f (%llu of %llu operations)\n",
              attempted_ == 0 ? 0.0
                              : static_cast<double>(failed_) /
                                    static_cast<double>(attempted_),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  const std::vector<Metric>& out = traced ? layers_ : end_to_end_;
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(out[i].name) + ": {\"value\": " +
            JsonNumber(out[i].value) + ", \"unit\": " +
            JsonString(out[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench
