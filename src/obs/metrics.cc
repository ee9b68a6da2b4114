#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace prometheus::obs {

#ifndef PROMETHEUS_OBS_DISABLED
namespace internal {
std::atomic<bool> g_metrics_enabled{true};
}  // namespace internal
#endif

// ---------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {}

std::vector<double> Histogram::LogSpacedBounds(double lo, double hi,
                                               int per_decade) {
  std::vector<double> bounds;
  if (!(lo > 0) || !(hi > lo) || per_decade < 1) return bounds;
  const double step = std::log10(hi / lo) * per_decade;
  const int buckets = static_cast<int>(std::ceil(step - 1e-9));
  bounds.reserve(static_cast<std::size_t>(buckets) + 1);
  for (int i = 0; i < buckets; ++i) {
    bounds.push_back(lo * std::pow(10.0, static_cast<double>(i) / per_decade));
  }
  bounds.push_back(hi);  // exact endpoint, never a rounding casualty
  return bounds;
}

const std::vector<double>& Histogram::DefaultLatencyBoundsMicros() {
  // 1µs .. 10s, 5 per decade: 36 bounds, adjacent ratio 10^0.2 ≈ 1.585.
  static const std::vector<double> kBounds = LogSpacedBounds(1.0, 1e7, 5);
  return kBounds;
}

void Histogram::Observe(double value) {
  if (!MetricsEnabled()) return;
  // First bucket whose upper bound contains the value; past-the-end is the
  // overflow bucket.
  const std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.reserve(buckets_.size());
  for (const auto& b : buckets_) {
    snap.counts.push_back(b.load(std::memory_order_relaxed));
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

double Histogram::Snapshot::Percentile(double p) const {
  // Total from the bucket counts themselves: under concurrent mutation the
  // `count` member may be slightly ahead of or behind the buckets, and the
  // estimate must stay within the observed distribution.
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  const double target = (p / 100.0) * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < target) continue;
    const double lo = i == 0 ? 0 : bounds[i - 1];
    if (i >= bounds.size()) return lo;  // overflow bucket: lower bound
    const double hi = bounds[i];
    const double frac =
        counts[i] == 0 ? 0
                       : (target - before) / static_cast<double>(counts[i]);
    return lo + frac * (hi - lo);
  }
  return bounds.empty() ? 0 : bounds.back();
}

// ---------------------------------------------------------------- registry

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = metrics_[name];
  if (entry.counter == nullptr) {
    entry.counter = std::make_unique<Counter>();
    if (entry.help.empty()) entry.help = help;
  }
  return entry.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = metrics_[name];
  if (entry.gauge == nullptr) {
    entry.gauge = std::make_unique<Gauge>();
    if (entry.help.empty()) entry.help = help;
  }
  return entry.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = metrics_[name];
  if (entry.histogram == nullptr) {
    entry.histogram = std::make_unique<Histogram>(
        bounds.empty() ? Histogram::DefaultLatencyBoundsMicros()
                       : std::move(bounds));
    if (entry.help.empty()) entry.help = help;
  }
  return entry.histogram.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, entry] : metrics_) {
    if (entry.counter != nullptr) {
      snap.counters.push_back({name, entry.counter->value(), entry.help});
    }
    if (entry.gauge != nullptr) {
      snap.gauges.push_back({name, entry.gauge->value(), entry.help});
    }
    if (entry.histogram != nullptr) {
      snap.histograms.push_back({name, entry.histogram->snapshot(),
                                 entry.help});
    }
  }
  return snap;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : metrics_) {
    (void)name;
    if (entry.counter != nullptr) entry.counter->Reset();
    if (entry.gauge != nullptr) entry.gauge->Reset();
    if (entry.histogram != nullptr) entry.histogram->Reset();
  }
}

std::size_t MetricsRegistry::metric_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

std::string MetricsRegistry::RenderPrometheusText() const {
  return obs::RenderPrometheusText(Snapshot());
}

std::uint64_t MetricsSnapshot::CounterOr0(const std::string& name) const {
  for (const CounterValue& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// --------------------------------------------------------------- rendering

namespace {

/// `name{label="x"}` -> base `name` + the label block (empty when absent).
void SplitLabels(const std::string& name, std::string* base,
                 std::string* labels) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    labels->clear();
  } else {
    *base = name.substr(0, brace);
    *labels = name.substr(brace);
  }
}

void FormatNumber(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  *out += buf;
}

/// Escapes a # HELP text: the format requires `\\` and `\n` escaping in
/// help lines (a raw newline would start a new, malformed line).
void AppendEscapedHelp(std::string* out, const std::string& help) {
  for (char c : help) {
    switch (c) {
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        *out += c;
    }
  }
}

/// Emits the # HELP / # TYPE preamble once per base metric name.
void Preamble(std::string* out, std::string* last_base,
              const std::string& base, const std::string& help,
              const char* type) {
  if (base == *last_base) return;
  *last_base = base;
  if (!help.empty()) {
    *out += "# HELP " + base + " ";
    AppendEscapedHelp(out, help);
    *out += "\n";
  }
  *out += "# TYPE " + base + " ";
  *out += type;
  *out += "\n";
}

}  // namespace

std::string RenderPrometheusText(const MetricsSnapshot& snap) {
  // The snapshot's vectors are name-ordered (registry map order), so
  // labelled series of one base metric are contiguous and share one
  // # TYPE preamble.
  std::string out;
  std::string last_base;
  std::string base, labels;
  for (const auto& c : snap.counters) {
    SplitLabels(c.name, &base, &labels);
    Preamble(&out, &last_base, base, c.help, "counter");
    out += base + labels + " " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : snap.gauges) {
    SplitLabels(g.name, &base, &labels);
    Preamble(&out, &last_base, base, g.help, "gauge");
    out += base + labels + " " + std::to_string(g.value) + "\n";
  }
  for (const auto& h : snap.histograms) {
    SplitLabels(h.name, &base, &labels);
    Preamble(&out, &last_base, base, h.help, "histogram");
    // Cumulative buckets, as the exposition format requires; an existing
    // label block gains the `le` label.
    const std::string label_prefix =
        labels.empty() ? "{" : labels.substr(0, labels.size() - 1) + ",";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.hist.counts.size(); ++i) {
      cumulative += h.hist.counts[i];
      out += base + "_bucket" + label_prefix + "le=\"";
      if (i < h.hist.bounds.size()) {
        FormatNumber(&out, h.hist.bounds[i]);
      } else {
        out += "+Inf";
      }
      out += "\"} " + std::to_string(cumulative) + "\n";
    }
    out += base + "_sum" + labels + " ";
    FormatNumber(&out, h.hist.sum);
    out += "\n";
    out += base + "_count" + labels + " " + std::to_string(h.hist.count) +
           "\n";
  }
  return out;
}

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

// --------------------------------------------------------- process metrics

namespace {

/// Monotonic anchor for uptime; pinned by the first RegisterProcessMetrics.
std::chrono::steady_clock::time_point& ProcessStart() {
  static std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return start;
}

Gauge*& UptimeGauge() {
  static Gauge* gauge = nullptr;
  return gauge;
}

}  // namespace

const char* BuildVersion() { return "0.5.0"; }

void RegisterProcessMetrics() {
  static std::once_flag once;
  std::call_once(once, [] {
    (void)ProcessStart();
    MetricsRegistry& reg = Registry();
#if defined(__VERSION__)
    const std::string compiler = EscapeLabelValue(__VERSION__);
#else
    const std::string compiler = "unknown";
#endif
    reg.GetGauge("prometheus_build_info{version=\"" +
                     EscapeLabelValue(BuildVersion()) + "\",compiler=\"" +
                     compiler + "\"}",
                 "Build metadata; the value is always 1")
        ->Set(1);
    reg.GetGauge("process_start_time_seconds",
                 "Unix time the process started, for restart detection")
        ->Set(static_cast<std::int64_t>(
            std::chrono::duration_cast<std::chrono::seconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count()));
    UptimeGauge() = reg.GetGauge(
        "process_uptime_seconds",
        "Seconds since process start (refreshed per scrape)");
    UpdateProcessUptime();
  });
}

void UpdateProcessUptime() {
  Gauge* gauge = UptimeGauge();
  if (gauge == nullptr) return;
  gauge->Set(std::chrono::duration_cast<std::chrono::seconds>(
                 std::chrono::steady_clock::now() - ProcessStart())
                 .count());
}

}  // namespace prometheus::obs
