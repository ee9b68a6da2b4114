// Shared vocabulary of the repository benchmark: clocks, sample digests,
// the metric sheet a run fills in, and the run options.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated percentile (0..100) of an unsorted sample; 0 when
/// empty.
inline double Pct(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= v.size()) return v.back();
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + frac * (v[lo + 1] - v[lo]);
}
inline double Median(const std::vector<double>& v) { return Pct(v, 50); }

inline double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

/// One reported number.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one run reports: the end-to-end and per-layer sheets, the
/// operation accounting and the provenance record.
struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable reasons for every failed check (first few printed).
  std::vector<std::string> failures;
  /// Set when the run is invalid as a measurement (generator fell behind).
  std::string invalid;
  std::map<std::string, std::string> provenance;

  void E2e(const std::string& name, double v, const std::string& unit) {
    end_to_end[name] = Metric{v, unit};
  }
  void Layer(const std::string& name, double v, const std::string& unit) {
    per_layer[name] = Metric{v, unit};
  }
  void Fail(std::string why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(std::move(why));
  }
  void Note(const std::string& key, const std::string& value) {
    provenance[key] = value;
  }
};

/// Command-line options of one run.
struct Options {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny sizes and short phases; every check still runs.
  bool smoke = false;
  /// The part this process runs: OO7 rounds, or the flora server.
  bool oo7_part = false;
  int rounds = 3;  ///< OO7 rounds of an oo7 part
  /// Scratch directory for stores, snapshots and span dumps (inside the
  /// checkout).
  std::string workdir;
  std::string source_digest;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
