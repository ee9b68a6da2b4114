#ifndef PROMETHEUS_BENCH_BENCH_UTIL_H_
#define PROMETHEUS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.h"

namespace prometheus::bench {

// The percentile/digest/JSON helpers started life here and moved to
// common/stats.h when the metrics layer needed them engine-side; the
// benches keep using them under their historical names.
using stats::JsonWriter;
using stats::LatencyStats;
using stats::Percentile;
using stats::SummarizeLatencies;
using stats::WriteTextFile;

/// Milliseconds taken by the median of `reps` runs of `fn`.
template <typename Fn>
double MedianMillis(Fn&& fn, int reps = 3) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// One configuration's spread across `RotatedRounds`' rounds.
struct Spread {
  double median = 0;
  double iqr = 0;  ///< inter-quartile range, p75 - p25
};

/// Runs `configs` configurations for comparison: one untimed warm-up pass
/// over all of them (discarded), then `rounds` rounds that each run every
/// configuration once, round r starting at configuration r mod n, so drift
/// across the run lands on every configuration rather than the first ones.
/// `run(i)` runs configuration i and returns its measurement; the result
/// holds each configuration's median and IQR.
template <typename Fn>
std::vector<Spread> RotatedRounds(std::size_t configs, int rounds, Fn&& run) {
  for (std::size_t i = 0; i < configs; ++i) (void)run(i);
  std::vector<std::vector<double>> samples(configs);
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t k = 0; k < configs; ++k) {
      const std::size_t i = (k + static_cast<std::size_t>(r)) % configs;
      samples[i].push_back(run(i));
    }
  }
  std::vector<Spread> out;
  for (const std::vector<double>& s : samples) {
    out.push_back({Percentile(s, 50), Percentile(s, 75) - Percentile(s, 25)});
  }
  return out;
}

/// Prints the header of a paper-style series table.
inline void PrintTableHeader(const char* title, const char* columns) {
  std::printf("\n=== %s ===\n%s\n", title, columns);
}

}  // namespace prometheus::bench

#endif  // PROMETHEUS_BENCH_BENCH_UTIL_H_
