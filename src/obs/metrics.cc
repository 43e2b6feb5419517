#include "obs/metrics.h"

#include <algorithm>
#include <ostream>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/table_printer.h"

namespace nous {

namespace {

/// Prometheus label-value escaping: backslash, quote, newline.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string RenderLabels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"" + EscapeLabelValue(labels[i].second) +
           "\"";
  }
  out += "}";
  return out;
}

std::string FormatBound(double bound) { return StrFormat("%g", bound); }

}  // namespace

// ---------- LatencyHistogram ----------

LatencyHistogram::LatencyHistogram(FixedHistogram layout)
    : layout_(std::move(layout)),
      stripes_(std::make_unique<Stripe[]>(kStripes)) {
  layout_.Clear();
  for (size_t i = 0; i < kStripes; ++i) stripes_[i].Init(layout_);
}

size_t LatencyHistogram::StripeIndex() {
  static std::atomic<size_t> next_thread{0};
  thread_local size_t index =
      next_thread.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return index;
}

void LatencyHistogram::Observe(double value) {
  stripes_[StripeIndex()].Add(value);
}

FixedHistogram LatencyHistogram::Snapshot() const {
  FixedHistogram merged = layout_;
  for (size_t i = 0; i < kStripes; ++i) stripes_[i].MergeInto(&merged);
  return merged;
}

void LatencyHistogram::Reset() {
  for (size_t i = 0; i < kStripes; ++i) stripes_[i].Clear();
}

// ---------- MetricsRegistry ----------

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked intentionally: instrumented code may record during static
  // destruction.
  // lint: new-ok(leaked singleton: recordable during static destruction)
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

std::vector<double> MetricsRegistry::DefaultLatencyBounds() {
  // 1us .. ~134s in x4 steps: 14 buckets, fine at the fast end where
  // the pipeline stages live, coarse for slow outliers.
  return FixedHistogram::Exponential(1e-6, 4.0, 14).upper_bounds();
}

MetricsRegistry::Family* MetricsRegistry::GetFamilyLocked(
    const std::string& name, const std::string& help, Type type) {
  auto [it, inserted] = family_index_.try_emplace(name, families_.size());
  if (inserted) {
    auto family = std::make_unique<Family>();
    family->name = name;
    family->help = help;
    family->type = type;
    families_.push_back(std::move(family));
  }
  Family* family = families_[it->second].get();
  NOUS_CHECK(family->type == type)
      << "metric " << name << " re-registered with a different type";
  if (family->help.empty() && !help.empty()) family->help = help;
  return family;
}

MetricsRegistry::Instrument* MetricsRegistry::GetInstrumentLocked(
    Family* family, const MetricLabels& labels) {
  std::string rendered = RenderLabels(labels);
  for (const auto& instrument : family->instruments) {
    if (instrument->rendered_labels == rendered) return instrument.get();
  }
  auto instrument = std::make_unique<Instrument>();
  instrument->rendered_labels = std::move(rendered);
  family->instruments.push_back(std::move(instrument));
  return family->instruments.back().get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     const MetricLabels& labels) {
  MutexLock lock(mutex_);
  Family* family = GetFamilyLocked(name, help, Type::kCounter);
  Instrument* instrument = GetInstrumentLocked(family, labels);
  if (instrument->counter == nullptr) {
    instrument->counter = std::make_unique<Counter>();
  }
  return instrument->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 const MetricLabels& labels) {
  MutexLock lock(mutex_);
  Family* family = GetFamilyLocked(name, help, Type::kGauge);
  Instrument* instrument = GetInstrumentLocked(family, labels);
  if (instrument->gauge == nullptr) {
    instrument->gauge = std::make_unique<Gauge>();
  }
  return instrument->gauge.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(
    const std::string& name, const std::string& help,
    std::vector<double> upper_bounds) {
  MutexLock lock(mutex_);
  Family* family = GetFamilyLocked(name, help, Type::kHistogram);
  Instrument* instrument = GetInstrumentLocked(family, {});
  if (instrument->histogram == nullptr) {
    if (upper_bounds.empty()) upper_bounds = DefaultLatencyBounds();
    instrument->histogram = std::make_unique<LatencyHistogram>(
        FixedHistogram(std::move(upper_bounds)));
  }
  return instrument->histogram.get();
}

std::string MetricsRegistry::RenderPrometheus() const {
  MutexLock lock(mutex_);
  std::string out;
  for (const auto& family : families_) {
    if (!family->help.empty()) {
      out += "# HELP " + family->name + " " + family->help + "\n";
    }
    const char* type_name = family->type == Type::kCounter ? "counter"
                            : family->type == Type::kGauge
                                ? "gauge"
                                : "histogram";
    out += "# TYPE " + family->name + " " + type_name + "\n";
    for (const auto& instrument : family->instruments) {
      switch (family->type) {
        case Type::kCounter:
          out += family->name + instrument->rendered_labels + " " +
                 StrFormat("%llu",
                           static_cast<unsigned long long>(
                               instrument->counter->Value())) +
                 "\n";
          break;
        case Type::kGauge:
          out += family->name + instrument->rendered_labels + " " +
                 StrFormat("%g", instrument->gauge->Value()) + "\n";
          break;
        case Type::kHistogram: {
          FixedHistogram snapshot = instrument->histogram->Snapshot();
          const auto& bounds = snapshot.upper_bounds();
          const auto& counts = snapshot.bucket_counts();
          uint64_t cumulative = 0;
          for (size_t i = 0; i < bounds.size(); ++i) {
            cumulative += counts[i];
            out += family->name + "_bucket{le=\"" +
                   FormatBound(bounds[i]) + "\"} " +
                   StrFormat("%llu",
                             static_cast<unsigned long long>(cumulative)) +
                   "\n";
          }
          out += family->name + "_bucket{le=\"+Inf\"} " +
                 StrFormat("%llu",
                           static_cast<unsigned long long>(
                               snapshot.count())) +
                 "\n";
          out += family->name + "_sum " +
                 StrFormat("%g", snapshot.sum()) + "\n";
          out += family->name + "_count " +
                 StrFormat("%llu",
                           static_cast<unsigned long long>(
                               snapshot.count())) +
                 "\n";
          break;
        }
      }
    }
  }
  return out;
}

std::vector<MetricsRegistry::CounterRow> MetricsRegistry::CounterRows()
    const {
  MutexLock lock(mutex_);
  std::vector<CounterRow> rows;
  for (const auto& family : families_) {
    if (family->type != Type::kCounter) continue;
    for (const auto& instrument : family->instruments) {
      rows.push_back(CounterRow{family->name, instrument->rendered_labels,
                                instrument->counter->Value()});
    }
  }
  return rows;
}

std::vector<MetricsRegistry::GaugeRow> MetricsRegistry::GaugeRows() const {
  MutexLock lock(mutex_);
  std::vector<GaugeRow> rows;
  for (const auto& family : families_) {
    if (family->type != Type::kGauge) continue;
    for (const auto& instrument : family->instruments) {
      rows.push_back(GaugeRow{family->name, instrument->rendered_labels,
                              instrument->gauge->Value()});
    }
  }
  return rows;
}

std::vector<MetricsRegistry::HistogramRow> MetricsRegistry::HistogramRows()
    const {
  MutexLock lock(mutex_);
  std::vector<HistogramRow> rows;
  for (const auto& family : families_) {
    if (family->type != Type::kHistogram) continue;
    for (const auto& instrument : family->instruments) {
      FixedHistogram snapshot = instrument->histogram->Snapshot();
      rows.push_back(HistogramRow{family->name, snapshot.count(),
                                  snapshot.sum(), snapshot.Quantile(0.5),
                                  snapshot.Quantile(0.9),
                                  snapshot.Quantile(0.99),
                                  snapshot.max()});
    }
  }
  return rows;
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(mutex_);
  for (const auto& family : families_) {
    for (const auto& instrument : family->instruments) {
      if (instrument->counter != nullptr) instrument->counter->Reset();
      if (instrument->gauge != nullptr) instrument->gauge->Reset();
      if (instrument->histogram != nullptr) instrument->histogram->Reset();
    }
  }
}

void MetricsRegistry::PrintSummary(std::ostream& os) const {
  auto counters = CounterRows();
  auto gauges = GaugeRows();
  auto histograms = HistogramRows();
  os << "-- metrics summary --\n";
  if (!counters.empty() || !gauges.empty()) {
    TablePrinter table({"metric", "value"});
    for (const auto& row : counters) {
      table.AddRow({row.name + row.labels,
                    TablePrinter::Int(static_cast<long long>(row.value))});
    }
    for (const auto& row : gauges) {
      table.AddRow({row.name + row.labels, TablePrinter::Num(row.value, 3)});
    }
    table.Print(os);
  }
  if (!histograms.empty()) {
    TablePrinter table({"histogram (*_seconds in ms)", "count", "mean",
                        "p50", "p90", "p99", "max"});
    for (const auto& row : histograms) {
      double mean = row.count == 0
                        ? 0
                        : row.sum / static_cast<double>(row.count);
      const double scale = EndsWith(row.name, "_seconds") ? 1e3 : 1.0;
      table.AddRow({row.name,
                    TablePrinter::Int(static_cast<long long>(row.count)),
                    TablePrinter::Num(mean * scale, 4),
                    TablePrinter::Num(row.p50 * scale, 4),
                    TablePrinter::Num(row.p90 * scale, 4),
                    TablePrinter::Num(row.p99 * scale, 4),
                    TablePrinter::Num(row.max * scale, 4)});
    }
    table.Print(os);
  }
}

}  // namespace nous
