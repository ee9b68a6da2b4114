// The `oo7` workload: the thesis' own comparison of Prometheus against its
// plain store, as interleaved rounds of T1, T5, S1 and S2 on freshly built
// databases.
#ifndef PERFBENCH_OO7_ROUNDS_H_
#define PERFBENCH_OO7_ROUNDS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "oo7/oo7.h"

namespace perfbench {

struct Oo7Result {
  int rounds = 0;
  /// Per-round best times in milliseconds; index 0 Prometheus, 1 baseline.
  std::vector<double> build[2], t1[2], t5[2], s1[2], s2[2];
  std::uint64_t visits_t1 = 0;        ///< T1 visits (same every round)
  std::uint64_t events_t5 = 0;        ///< bus events of one T5 (traced)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
};

/// S1 inserts and S2 deletes this many composite parts per call.
inline constexpr int kOo7StructuralParts = 5;
/// Calls of each operation per round; the round keeps the best.
inline constexpr int kOo7Repeats = 3;

/// Runs `rounds` rounds (at least three). Every round builds both
/// databases from the run's seed (the build is timed: E1), checks that T1
/// and T5 visit the same atomic parts in both, then times T1, T5, S1 and
/// S2, interleaving the two implementations and alternating which goes
/// first.
///
/// Rebuilding each round works around a harness defect:
/// `PrometheusOo7::DeleteS2` swap-removes from its composite list while
/// `BaselineOo7::DeleteS2` picks from a stable list of live composites, so
/// the same seed deletes different composites and the two states diverge
/// after the first S2.
Oo7Result RunOo7Rounds(const prometheus::oo7::Config& config, int rounds,
                       unsigned seed);

}  // namespace perfbench

#endif  // PERFBENCH_OO7_ROUNDS_H_
