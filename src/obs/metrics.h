#ifndef PROMETHEUS_OBS_METRICS_H_
#define PROMETHEUS_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace prometheus::obs {

// ------------------------------------------------------------- kill switch
//
// Every mutation of a metric first checks the global enabled flag — that
// one relaxed load + branch is the entire cost of a disabled hook, cheap
// enough to leave instrumentation in hot paths permanently. Defining
// PROMETHEUS_OBS_DISABLED at compile time removes even that branch (the
// flag folds to a constant false and the hooks become empty inline calls).

#ifdef PROMETHEUS_OBS_DISABLED
inline constexpr bool MetricsEnabled() { return false; }
inline void SetMetricsEnabled(bool) {}
#else
namespace internal {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace internal

/// True while metric mutations are recorded (the default).
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Runtime kill switch: with metrics disabled, every hook costs exactly
/// one predicted branch and records nothing.
inline void SetMetricsEnabled(bool enabled) {
  internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}
#endif

// ----------------------------------------------------------------- metrics

/// Monotonically increasing event count. Lock-free; safe to mutate from
/// any number of threads while another thread snapshots.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (queue depth, open sessions). Lock-free.
class Gauge {
 public:
  void Set(std::int64_t v) {
    if (!MetricsEnabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(std::int64_t n = 1) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Sub(std::int64_t n = 1) { Add(-n); }

  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram: cumulative-style buckets over caller-supplied
/// upper bounds (an implicit +Inf bucket catches the overflow). Observing
/// is a binary search over a small immutable bound array plus two relaxed
/// atomic adds — cheap enough for per-request latency tracking on the
/// serving hot path. All reads and writes are lock-free, so a snapshot
/// taken mid-mutation sees a consistent-enough view (each bucket value is
/// individually atomic; cross-bucket skew is bounded by in-flight
/// observations).
class Histogram {
 public:
  /// `bounds` must be strictly increasing; each value lands in the first
  /// bucket whose bound is >= the value, or the overflow bucket.
  explicit Histogram(std::vector<double> bounds);

  /// Log-spaced bounds: `per_decade` buckets per factor of 10, spanning
  /// [lo, hi] inclusive (both endpoints are bounds). Auto-ranged: the
  /// caller names the range, the geometric spacing follows, and every
  /// adjacent bound pair has the same ratio 10^(1/per_decade) — so the
  /// worst-case relative error of linear percentile interpolation is the
  /// same in every bucket (bounded by ratio - 1).
  static std::vector<double> LogSpacedBounds(double lo, double hi,
                                             int per_decade);

  /// Default latency bucket bounds in microseconds: log-spaced, 5 buckets
  /// per decade over 1µs .. 10s (adjacent-bound ratio ~1.58, so percentile
  /// interpolation error stays under ~60% of a bucket's width anywhere in
  /// the range — tighter than the old 1-2-5 progression's worst-case 2.5×
  /// steps).
  static const std::vector<double>& DefaultLatencyBoundsMicros();

  void Observe(double value);

  struct Snapshot {
    std::vector<double> bounds;        ///< bucket upper bounds
    std::vector<std::uint64_t> counts; ///< per-bucket (bounds.size()+1)
    std::uint64_t count = 0;
    double sum = 0;

    /// Estimated percentile (0..100) by linear interpolation inside the
    /// containing bucket. The overflow bucket reports its lower bound.
    double Percentile(double p) const;
    double mean() const { return count == 0 ? 0 : sum / count; }
  };
  Snapshot snapshot() const;

  void Reset();

 private:
  const std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  ///< bounds_+1 slots
  std::atomic<std::uint64_t> count_{0};
  /// Sum of observed values, accumulated with a CAS loop (atomic<double>
  /// fetch_add is not universally lock-free; the loop is).
  std::atomic<double> sum_{0.0};
};

/// Measures wall time from construction to destruction into a histogram.
/// With metrics disabled the constructor's single branch is the whole cost
/// (no clock call is made).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist)
      : hist_(MetricsEnabled() ? hist : nullptr) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (hist_ != nullptr) {
      hist_->Observe(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - start_)
                         .count());
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

// ---------------------------------------------------------------- registry

/// A point-in-time copy of every registered metric.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value;
    std::string help;
  };
  struct GaugeValue {
    std::string name;
    std::int64_t value;
    std::string help;
  };
  struct HistogramValue {
    std::string name;
    Histogram::Snapshot hist;
    std::string help;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// The value of a counter by exact name, or 0 when absent.
  std::uint64_t CounterOr0(const std::string& name) const;
};

/// Named metric registry. Registration (GetCounter & co.) takes a mutex
/// and is expected at setup time — callers cache the returned pointer,
/// which stays valid for the registry's lifetime, and mutate it lock-free
/// afterwards. Names follow Prometheus conventions
/// (`subsystem_quantity_unit_total`); a `{label="value"}` suffix is part
/// of the name and flows verbatim into the text exposition.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every engine layer registers into.
  static MetricsRegistry& Default();

  /// Get-or-create by name. The same name always yields the same object;
  /// `help` is recorded on first registration.
  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  /// Empty `bounds` selects `Histogram::DefaultLatencyBoundsMicros()`.
  Histogram* GetHistogram(const std::string& name,
                          const std::string& help = "",
                          std::vector<double> bounds = {});

  MetricsSnapshot Snapshot() const;

  /// Prometheus text exposition format (# HELP / # TYPE lines, cumulative
  /// `_bucket{le="..."}` series, `_sum` and `_count`).
  std::string RenderPrometheusText() const;

  /// Zeroes every registered metric (registrations stay). Tests only.
  void ResetForTest();

  std::size_t metric_count() const;

 private:
  struct Entry {
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;  ///< ordered => stable rendering
};

/// Shorthand for `MetricsRegistry::Default()`.
inline MetricsRegistry& Registry() { return MetricsRegistry::Default(); }

/// Free-standing renderer so an already-taken snapshot can be serialized
/// without holding the registry. (Structured reads go through the
/// `sys.metrics` catalog class instead of a second, JSON rendering.)
std::string RenderPrometheusText(const MetricsSnapshot& snap);

/// Escapes a label *value* for the Prometheus text exposition format:
/// backslash, double quote and newline become \\, \" and \n. Use when
/// composing a `name{label="<runtime value>"}` metric name from data that
/// is not a compile-time literal.
std::string EscapeLabelValue(const std::string& value);

// --------------------------------------------------------- process metrics

/// Registers the process-level gauges a scraper needs to detect restarts
/// and correlate runs against `Default()`:
///   - `prometheus_build_info{version="...",compiler="..."}` = 1
///   - `process_start_time_seconds` — unix time of process start
///   - `process_uptime_seconds` — refreshed by `UpdateProcessUptime()`
/// Idempotent; the first call pins the start time.
void RegisterProcessMetrics();

/// Refreshes `process_uptime_seconds` from the monotonic clock. Exposition
/// endpoints call this right before snapshotting so every scrape carries a
/// current value.
void UpdateProcessUptime();

/// The version string baked into `prometheus_build_info`.
const char* BuildVersion();

}  // namespace prometheus::obs

#endif  // PROMETHEUS_OBS_METRICS_H_
