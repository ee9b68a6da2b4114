#include "oo7_rounds.h"

#include <algorithm>
#include <memory>

#include "common.h"
#include "trace.h"

namespace perfbench {

using prometheus::oo7::BaselineOo7;
using prometheus::oo7::Config;
using prometheus::oo7::PrometheusOo7;

namespace {

template <typename Fn>
double TimeMs(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return MillisBetween(t0, Clock::now());
}

void Fail(Oo7Result* r, std::string why) {
  ++r->failed;
  if (r->failures.size() < 10) r->failures.push_back(std::move(why));
}

}  // namespace

Oo7Result RunOo7Rounds(const Config& base, int rounds, unsigned seed) {
  Oo7Result r;
  for (int round = 0; round < std::max(3, rounds); ++round) {
    // Every round rebuilds the same database, so every round does the same
    // work and differences between rounds are timing noise.
    Config config = base;
    config.seed = seed;
    std::unique_ptr<PrometheusOo7> p;
    std::unique_ptr<BaselineOo7> b;
    const bool p_first = round % 2 == 0;
    // Runs `on_p(rep)` and `on_b(rep)` interleaved `repeats` times and
    // keeps each side's best time of the round: a preempted repetition
    // only lengthens the round's slower samples.
    auto both = [&](int repeats, auto&& on_p, auto&& on_b,
                    std::vector<double>* times) {
      double best[2] = {1e300, 1e300};
      for (int rep = 0; rep < repeats; ++rep) {
        const bool p_now = (rep % 2 == 0) == p_first;
        for (int side = 0; side < 2; ++side) {
          const bool run_p = (side == 0) == p_now;
          const double ms = run_p ? TimeMs([&] { on_p(rep); })
                                  : TimeMs([&] { on_b(rep); });
          double& slot = best[run_p ? 0 : 1];
          slot = std::min(slot, ms);
        }
      }
      times[0].push_back(best[0]);
      times[1].push_back(best[1]);
    };
    both(1,
         [&](int) {
           trace::Span span("oo7", "build");
           p = std::make_unique<PrometheusOo7>(config);
         },
         [&](int) { b = std::make_unique<BaselineOo7>(config); }, r.build);

    std::uint64_t visits[2] = {0, 0};
    both(kOo7Repeats,
         [&](int) {
           trace::Span span("oo7", "T1");
           visits[0] = p->TraverseT1();
         },
         [&](int) { visits[1] = b->TraverseT1(); }, r.t1);
    r.attempted += 1;
    if (visits[0] != visits[1] || visits[0] == 0) {
      Fail(&r, "T1 visits differ on equal states: " +
                   std::to_string(visits[0]) + " vs " +
                   std::to_string(visits[1]));
    }
    r.visits_t1 = visits[0];

    std::uint64_t events = 0;
    prometheus::ListenerId listener = 0;
    if (trace::Enabled() && round == 0) {
      listener = p->db().bus().Subscribe([&events](const prometheus::Event&) {
        ++events;
        return prometheus::Status::Ok();
      });
    }
    prometheus::oo7::OpCounts t5[2];
    both(kOo7Repeats,
         [&](int rep) {
           trace::Span span("oo7", "T5");
           t5[0] = p->TraverseT5(round * kOo7Repeats + rep + 1);
           if (listener != 0) {
             p->db().bus().Unsubscribe(listener);
             listener = 0;
             r.events_t5 = events;
           }
         },
         [&](int rep) {
           t5[1] = b->TraverseT5(round * kOo7Repeats + rep + 1);
         },
         r.t5);
    r.attempted += 1;
    if (t5[0].visited != t5[1].visited || t5[0].updated != t5[1].updated) {
      Fail(&r, "T5 work differs on equal states");
    }

    auto checked = [&r](const prometheus::Status& st, const char* op) {
      r.attempted += 1;
      if (!st.ok()) Fail(&r, std::string(op) + ": " + st.ToString());
    };
    both(kOo7Repeats,
         [&](int) {
           trace::Span span("oo7", "S1");
           checked(p->InsertS1(kOo7StructuralParts), "S1");
         },
         [&](int) { checked(b->InsertS1(kOo7StructuralParts), "S1"); },
         r.s1);
    both(kOo7Repeats,
         [&](int) {
           trace::Span span("oo7", "S2");
           checked(p->DeleteS2(kOo7StructuralParts), "S2");
         },
         [&](int) { checked(b->DeleteS2(kOo7StructuralParts), "S2"); },
         r.s2);
    ++r.rounds;
  }
  return r;
}

}  // namespace perfbench
