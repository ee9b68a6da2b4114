// The repository benchmark. One process runs one workload:
//
//   perfbench --workload browse|revise|oo7 --part serve|oo7 [--rounds N]
//             --seed N --seconds S --trace 0|1 --workdir DIR [--out DIR]
//             [--smoke] [--source DIGEST]
//
// and prints, as its last line, {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// too with --trace 1. The `serve` part drives the flora server, the `oo7`
// part runs N OO7 rounds; run.py runs both for every workload and merges
// them. README.md lists every workload and metric.
#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>

#include "cache/query_cache.h"
#include "common.h"
#include "flora_rig.h"
#include "load.h"
#include "obs/metrics.h"
#include "obs/wait_profiler.h"
#include "oo7_rounds.h"
#include "query/parser.h"
#include "query/system_catalog.h"
#include "server/client.h"
#include "storage/snapshot.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using prometheus::Database;
using prometheus::Status;
using prometheus::obs::Histogram;

// ----------------------------------------------------------------- sizes

/// Everything a workload's size depends on, fixed per mode.
struct Sizes {
  FloraSize flora;
  prometheus::oo7::Config oo7;
  int setups = 3;                  ///< set-ups per run (median reported)
  int recoveries = 7;              ///< recoveries per run (median reported)
  int hot_set = 256;               ///< browse: distinct texts
  std::size_t stream_len = 1024;   ///< revise: texts per connection
  double browse_read_rate = 3000;  ///< open-loop reads/s, all connections
  /// Open-loop reads/s beside `revise`'s writer, all connections: low
  /// enough that a range scan rarely delays the next request on its
  /// connection even when the host runs slow, so the p50 is the latency of
  /// a request, not of a queue.
  double revise_read_rate = 80;
  double write_rate = 500;         ///< open-loop revisions/s, writer alone
  /// Open-loop revisions/s beside `revise`'s readers: every commit can send
  /// a concurrent lookup to an extent scan, so the rate stays modest.
  double revise_write_rate = 250;
  /// Closed-loop work per second of a phase's share: the phase does a
  /// fixed count, so every run does the same work.
  double closed_txns_per_s = 4000;
  double closed_reads_per_s = 50000;
  /// Every load phase is cut into windows, open and closed loop
  /// alternating; each metric is the median over its windows.
  int windows = 5;
  /// Writer-only phases get fewer, longer windows: every open-loop window
  /// holds one checkpoint, whose stall must delay only a minority of the
  /// window's revisions, or it would move the median, not just the p99.
  int write_windows = 3;
  int ladder_txns = 400;
  int replay_per_class = 50;
};

Sizes SizesFor(bool smoke) {
  Sizes s;
  s.oo7.composite_parts = 500;  // 10,000 atomic parts
  if (smoke) {
    s.flora = FloraSize{2, 3, 5, 2, 3};
    s.oo7.composite_parts = 20;
    s.setups = 2;
    s.recoveries = 2;
    s.hot_set = 24;
    s.stream_len = 64;
    s.browse_read_rate = 300;
    s.revise_read_rate = 50;
    s.write_rate = 50;
    s.revise_write_rate = 50;
    s.closed_txns_per_s = 500;
    s.closed_reads_per_s = 2000;
    s.windows = 2;
    s.write_windows = 2;
    s.ladder_txns = 20;
    s.replay_per_class = 3;
  }
  return s;
}

/// Reader connections: one core is left for the writer session, and the
/// generator never holds more threads plus connections than cores.
int ReaderConnections(int cores, int wanted_plus_writer) {
  return std::max(1, std::min(wanted_plus_writer, cores) - 1);
}

// ------------------------------------------------------- layer counters

/// Public counters read before and after a span of phases.
struct Counters {
  prometheus::cache::QueryCacheStats cache;
  prometheus::server::Server::Stats server;
  std::uint64_t heat_scans = 0, heat_index_hits = 0, heat_rows = 0;
  std::uint64_t fallbacks = 0;
  Histogram::Snapshot queue, execute;
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;

  static Counters Read(FloraRig& rig) {
    Counters c;
    c.cache = rig.server().query_cache().Stats();
    c.server = rig.server().stats();
    for (const auto& h : prometheus::pool::ExtentHeat::Instance().Snapshot()) {
      c.heat_scans += h.scans;
      c.heat_index_hits += h.index_hits;
      c.heat_rows += h.rows_scanned;
    }
    c.fallbacks = prometheus::obs::Registry().Snapshot().CounterOr0(
        "pool_index_fallbacks_total");
    const auto& wi = prometheus::obs::WaitInstruments::Get();
    c.queue = wi.queue->snapshot();
    c.execute = wi.execute->snapshot();
    c.events = rig.events();
    c.dropped = rig.http().stats().connections_dropped;
    return c;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// -------------------------------------------------------------- helpers

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<double> Latencies(const std::vector<ReadSample>& v) {
  std::vector<double> out;
  for (const auto& s : v) out.push_back(s.latency_ms);
  return out;
}
std::vector<double> Latencies(const std::vector<WriteSample>& v) {
  std::vector<double> out;
  for (const auto& s : v) out.push_back(s.latency_ms);
  return out;
}

/// The hot set: `n` distinct texts, a quarter per query class, in a
/// seeded random rank order.
std::vector<QueryText> HotSet(const FloraCatalog& cat, int n, unsigned seed) {
  std::mt19937 rng(seed * 31u + 7u);
  std::vector<QueryText> hot;
  std::set<std::string> seen;
  for (int tries = 0; static_cast<int>(hot.size()) < n && tries < n * 20;
       ++tries) {
    QueryText q = MakeQuery(cat, static_cast<QClass>(hot.size() % 4), rng);
    if (seen.insert(q.text).second) hot.push_back(std::move(q));
  }
  std::shuffle(hot.begin(), hot.end(), rng);
  return hot;
}

/// Per-connection streams with uniform parameters: every 50th request is
/// a script invariant (an oracle probe), the rest split equally over the
/// four query classes. The equal split is an assumption: no source gives
/// the query mix of taxonomic curation.
std::vector<std::vector<QueryText>> Streams(const FloraCatalog& cat,
                                            int conns, std::size_t len,
                                            unsigned seed) {
  std::vector<std::vector<QueryText>> streams(static_cast<std::size_t>(conns));
  for (int c = 0; c < conns; ++c) {
    std::mt19937 rng(seed * 131u + static_cast<unsigned>(c));
    for (std::size_t i = 0; i < len; ++i) {
      const QClass cls =
          i % 50 == 49 ? QClass::kInvariant : static_cast<QClass>(rng() % 4);
      streams[c].push_back(MakeQuery(cat, cls, rng));
    }
  }
  return streams;
}

// ------------------------------------------------------------------ run

class Run {
 public:
  Run(const Options& opt, Report* rep)
      : opt_(opt),
        rep_(rep),
        sizes_(SizesFor(opt.smoke)),
        primary_(opt.oo7_part == (opt.workload == "oo7")) {
    cores_ = std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
  }

  /// Runs one part. The workload's own part is primary; the other part
  /// measures the paths the workload does not drive (README.md, "Every
  /// metric on every workload").
  void Execute() {
    Provenance();
    if (opt_.oo7_part) {
      Oo7(opt_.rounds);
    } else if (opt_.workload == "browse") {
      BrowseServing(sizes_.setups, true,
                    {"browse", Share(0.35), Share(0.15),
                     sizes_.browse_read_rate, false, Share(0.25),
                     Share(0.10)});
    } else if (opt_.workload == "revise") {
      Revise();
    } else {
      // The oo7 workload's serving metrics: the browse traffic, shorter.
      BrowseServing(1, false,
                    {"oo7", Share(0.15), Share(0.10), sizes_.browse_read_rate,
                     false, Share(0.25), Share(0.10)});
    }
    if (primary_) rep_->E2e("peak_rss_mb", PeakRssMiB(), "MiB");
    if (!opt_.oo7_part) {
      rep_->Layer("gen.lag_p99_ms", Pct(lags_, 99), "ms");
      if (Pct(lags_, 99) > kMaxLagP99Ms) {
        rep_->invalid = "generator fell behind: lag p99 " +
                        std::to_string(Pct(lags_, 99)) + " ms";
      }
    }
  }

 private:
  static constexpr double kMaxLagP99Ms = 10.0;

  double Share(double fraction) const {
    return std::max(0.05, opt_.seconds * fraction);
  }

  void Provenance() {
    rep_->Note("workload", opt_.workload);
    rep_->Note("part", opt_.oo7_part ? "oo7" : "serve");
    rep_->Note("seed", std::to_string(opt_.seed));
    rep_->Note("run_seconds", std::to_string(opt_.seconds));
    rep_->Note("trace", opt_.trace ? "1" : "0");
    rep_->Note("nproc", std::to_string(cores_));
    rep_->Note("build_type", PERFBENCH_BUILD_TYPE);
    rep_->Note("compiler", PERFBENCH_COMPILER);
    rep_->Note("source", opt_.source_digest);
    rep_->Note("flush_policy",
               "one journal append per commit; fsync only at checkpoint "
               "and close");
    const FloraSize& f = sizes_.flora;
    rep_->Note("flora", std::to_string(f.families) + "x" +
                            std::to_string(f.genera_per_family) + "x" +
                            std::to_string(f.species_per_genus) + "x" +
                            std::to_string(f.specimens_per_species) +
                            " + revision of " +
                            std::to_string(f.revision_genera) + " genera");
    rep_->Note("oo7_composite_parts",
               std::to_string(sizes_.oo7.composite_parts));
    rep_->Note("smoke", opt_.smoke ? "1" : "0");
  }

  std::string Dir(const std::string& name) const {
    return opt_.workdir + "/" + name;
  }

  /// Builds `sizes_.setups` rigs, keeping the last; reports the median
  /// set-up time as `setup_s` when `report`.
  std::unique_ptr<FloraRig> SetUp(const FloraSize& size, int readers,
                                  const FloraRig::Config::Warmup& warmup,
                                  int setups, bool report) {
    std::vector<double> times;
    std::unique_ptr<FloraRig> rig;
    for (int i = 0; i < setups; ++i) {
      rig.reset();
      FloraRig::Config c;
      c.size = size;
      c.seed = opt_.seed;
      c.dir = Dir("flora-" + std::to_string(i));
      c.worker_threads = cores_;
      // Every keep-alive connection pins one handler thread for its life;
      // a reader beyond the pool would wait out the idle timeout and fake
      // a tail. One spare serves the warm-up connection.
      c.handler_threads = readers + 1;
      c.warmup = warmup;
      double seconds = 0;
      auto built = FloraRig::Build(c, &seconds);
      if (!built.ok()) {
        Fatal("set-up failed: " + built.status().ToString());
      }
      rig = std::move(built).value();
      times.push_back(seconds);
    }
    if (report) rep_->E2e("setup_s", Median(times), "s");
    rep_->Note("handler_threads", std::to_string(readers + 1));
    rep_->Note("server_workers", std::to_string(cores_));
    return rig;
  }

  [[noreturn]] void Fatal(const std::string& why) {
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    std::exit(1);
  }

  void Absorb(const PhaseResult& r) {
    rep_->attempted += r.read_attempted + r.write_attempted;
    rep_->failed += r.read_failed + r.write_failed;
    for (const auto& f : r.failures) {
      if (rep_->failures.size() < 20) rep_->failures.push_back(f);
    }
    for (const auto& s : r.reads) {
      if (s.lag_ms > 0) lags_.push_back(s.lag_ms);
    }
    for (const auto& s : r.writes) {
      if (s.lag_ms > 0) lags_.push_back(s.lag_ms);
    }
  }

  void Check(bool ok, const std::string& what) {
    ++rep_->attempted;
    if (!ok) rep_->Fail(what);
  }

  void Log(const char* phase, const PhaseResult& r) {
    std::printf(
        "# %-18s %6.2fs reads %7zu (p50 %.3f ms) writes %6zu (p50 %.3f ms) "
        "checkpoints %zu failed %" PRIu64 "\n",
        phase, r.seconds, r.reads.size(), Median(Latencies(r.reads)),
        r.writes.size(), Median(Latencies(r.writes)), r.checkpoint_ms.size(),
        r.read_failed + r.write_failed);
  }

  PhaseResult Phase(LoadGenerator& load, QuerySource* source,
                    const PhaseSpec& spec) {
    PhaseResult r = load.Run(spec, source);
    Absorb(r);
    Log(spec.name, r);
    return r;
  }

  // ------------------------------------------------ end-to-end assembly

  static double ReadRate(const PhaseResult& r) {
    return Ratio(static_cast<double>(r.reads.size()), r.seconds);
  }

  /// Latency p50 and p99 per open-loop window, throughput per closed-loop
  /// window; each metric is the median over the windows, so a burst of
  /// host noise that covers one window does not move it.
  template <typename Sample>
  static void WindowLatencies(const std::vector<PhaseResult>& open,
                              std::vector<Sample> PhaseResult::*samples,
                              std::vector<double>* p50,
                              std::vector<double>* p99, std::size_t* n) {
    for (const PhaseResult& w : open) {
      std::vector<double> lat;
      for (const Sample& s : w.*samples) lat.push_back(s.latency_ms);
      p50->push_back(Median(lat));
      p99->push_back(Pct(lat, 99));
      *n += lat.size();
    }
  }

  void ReadMetrics(const std::vector<PhaseResult>& open,
                   const std::vector<PhaseResult>& closed) {
    std::vector<double> p50, p99, rps;
    std::size_t n = 0;
    WindowLatencies(open, &PhaseResult::reads, &p50, &p99, &n);
    for (const PhaseResult& w : closed) rps.push_back(ReadRate(w));
    rep_->E2e("read_p50_ms", Median(p50), "ms");
    rep_->E2e("read_p99_ms", Median(p99), "ms");
    rep_->E2e("read_max_rps", Median(rps), "req/s");
    rep_->Note("read_samples_open", std::to_string(n));
  }

  void WriteMetrics(const std::vector<PhaseResult>& open,
                    const std::vector<PhaseResult>& closed) {
    std::vector<double> p50, p99, tps;
    std::size_t n = 0;
    WindowLatencies(open, &PhaseResult::writes, &p50, &p99, &n);
    for (const PhaseResult& w : closed) {
      tps.push_back(Ratio(static_cast<double>(w.writes.size()), w.seconds));
    }
    rep_->E2e("write_p50_ms", Median(p50), "ms");
    rep_->E2e("write_p99_ms", Median(p99), "ms");
    rep_->E2e("write_txn_per_s", Median(tps), "txn/s");
    rep_->Note("write_samples_open", std::to_string(n));
    served_write_p50_ms_ = Median(p50);
  }

  void Oo7Metrics(const Oo7Result& r) {
    rep_->attempted += r.attempted;
    rep_->failed += r.failed;
    for (const auto& f : r.failures) {
      if (rep_->failures.size() < 20) rep_->failures.push_back(f);
    }
    const std::vector<double>* ops[4][2] = {{&r.t1[0], &r.t1[1]},
                                            {&r.t5[0], &r.t5[1]},
                                            {&r.s1[0], &r.s1[1]},
                                            {&r.s2[0], &r.s2[1]}};
    const char* names[4] = {"t1", "t5", "s1", "s2"};
    std::vector<double> ratios;
    for (int i = 0; i < 4; ++i) {
      // Each round keeps an op's best of kOo7Repeats calls, and the run
      // reports the median round; the ratio pairs each round's interleaved
      // calls, so host speed cancels out of it.
      const std::vector<double>& p = *ops[i][0];
      const std::vector<double>& b = *ops[i][1];
      std::vector<double> per_round;
      for (std::size_t k = 0; k < p.size() && k < b.size(); ++k) {
        per_round.push_back(Ratio(p[k], b[k]));
      }
      rep_->E2e(std::string("oo7_") + names[i] + "_ms", Median(p), "ms");
      rep_->Layer(std::string("oo7.ratio_") + names[i], Median(per_round),
                  "ratio");
      ratios.push_back(Median(per_round));
    }
    rep_->E2e("oo7_overhead_x", GeoMean(ratios), "ratio");
    rep_->Layer("oo7.visits_t1", static_cast<double>(r.visits_t1), "count");
    rep_->Layer("event.events_per_t5", static_cast<double>(r.events_t5),
                "count");
    rep_->Note("oo7_rounds", std::to_string(r.rounds));
    std::printf("# oo7 %d rounds: median T1 %.3f/%.3f ms, T5 %.3f/%.3f ms\n",
                r.rounds, Median(r.t1[0]), Median(r.t1[1]), Median(r.t5[0]),
                Median(r.t5[1]));
  }

  /// Closes the rig, reopens its store `sizes_.recoveries` times and
  /// checks the last recovery against the revision ledger.
  void Recover(FloraRig& rig, const RevisionScript& script) {
    const std::string dir = rig.store_dir();
    const FloraCatalog catalog = rig.catalog();
    rig.Close();
    std::vector<double> times;
    std::uint64_t replayed = 0;
    for (int i = 0; i < sizes_.recoveries; ++i) {
      const Clock::time_point t0 = Clock::now();
      auto store = prometheus::storage::DurableStore::Open(dir);
      times.push_back(SecondsBetween(t0, Clock::now()));
      if (!store.ok()) {
        Check(false, "recovery failed: " + store.status().ToString());
        return;
      }
      replayed = store.value()->recovery_info().replayed_records;
      if (i + 1 < sizes_.recoveries) {
        store.value().reset();
      } else {
        std::vector<std::string> problems;
        VerifyLedger(store.value()->db(), catalog, script, &problems);
        Check(problems.empty(),
              problems.empty() ? "" : "ledger: " + problems.front());
        std::printf("# recovery: %zu revisions acknowledged, %zu problems\n",
                    script.ledger().size(), problems.size());
      }
    }
    // Recovery replays the same records every time.
    rep_->E2e("recover_s", Median(times), "s");
    rep_->Layer("storage.replay_records_per_s",
                Ratio(static_cast<double>(replayed), Median(times)), "1/s");
  }

  // ------------------------------------------------- per-layer assembly

  void ServeLayers(const Counters& before, const Counters& after,
                   const std::vector<const PhaseResult*>& reads) {
    std::vector<double> rt;
    double rows = 0, hits = 0;
    for (const PhaseResult* p : reads) {
      for (const auto& s : p->reads) {
        rt.push_back(s.roundtrip_us);
        rows += s.rows;
        hits += s.cache_hit ? 1 : 0;
      }
    }
    rep_->Layer("net.roundtrip_us", Median(rt), "us");
    rep_->Layer("net.dropped_connections",
                static_cast<double>(after.dropped), "count");
    Check(after.dropped == 0,
          "keep-alive connections dropped by the front-end: " +
              std::to_string(after.dropped));

    const Histogram::Snapshot queue =
        prometheus::obs::SnapshotDelta(after.queue, before.queue);
    const Histogram::Snapshot execute =
        prometheus::obs::SnapshotDelta(after.execute, before.execute);
    rep_->Layer("server.queue_us_p50", queue.Percentile(50), "us");
    rep_->Layer("server.queue_us_p99", queue.Percentile(99), "us");
    rep_->Layer("server.execute_us", execute.Percentile(50), "us");
    rep_->Layer("server.rejected",
                static_cast<double>(after.server.rejected - before.server.rejected),
                "count");
    rep_->Layer("server.timed_out",
                static_cast<double>(after.server.timed_out -
                                    before.server.timed_out),
                "count");

    const auto& rb = before.cache.result;
    const auto& ra = after.cache.result;
    const auto& pb = before.cache.plan;  // base: plan-tier lookups
    const auto& pa = after.cache.plan;
    // Base: the phases' HTTP reads, by their X-Cache header.
    rep_->Layer("cache.result_hit_ratio",
                Ratio(hits, static_cast<double>(rt.size())), "ratio");
    rep_->Layer("cache.plan_hit_ratio",
                Ratio(static_cast<double>(pa.hits - pb.hits),
                      static_cast<double>(pa.hits - pb.hits + pa.misses -
                                          pb.misses)),
                "ratio");
    rep_->Layer("cache.result_evictions",
                static_cast<double>(ra.evictions - rb.evictions), "count");

    // Base: extent resolutions (index hits plus full scans) in the phases.
    const double scans =
        static_cast<double>(after.heat_scans - before.heat_scans);
    const double index_hits =
        static_cast<double>(after.heat_index_hits - before.heat_index_hits);
    rep_->Layer("query.rows_scanned_per_row",
                Ratio(static_cast<double>(after.heat_rows - before.heat_rows),
                      rows),
                "ratio");
    rep_->Layer("query.index_hit_ratio",
                Ratio(index_hits, index_hits + scans), "ratio");
    rep_->Layer("query.index_fallbacks",
                static_cast<double>(after.fallbacks - before.fallbacks),
                "count");
  }

  /// Replays a sample of the phase's texts embedded: parse, snapshot pin
  /// and execution per class, each in its own span.
  void QueryLayers(FloraRig& rig, const std::vector<QueryText>& texts) {
    prometheus::pool::QueryEngine engine(&rig.db(), &rig.indexes());
    std::vector<double> parse, pin, exec[kQueryClasses];
    int per_class[kQueryClasses] = {};
    for (const QueryText& q : texts) {
      const int c = static_cast<int>(q.cls);
      if (per_class[c]++ >= sizes_.replay_per_class) continue;
      Clock::time_point t0 = Clock::now();
      {
        trace::Span span("query", "ParseQuery");
        auto parsed = prometheus::pool::ParseQuery(q.text);
        Check(parsed.ok(), "replay parse: " + q.text);
      }
      parse.push_back(MicrosBetween(t0, Clock::now()));
      t0 = Clock::now();
      prometheus::SnapshotHandle snap = [&] {
        trace::Span span("core", "AcquireSnapshot");
        return rig.db().AcquireSnapshot();
      }();
      pin.push_back(MicrosBetween(t0, Clock::now()));
      t0 = Clock::now();
      {
        trace::Span span("query", "Execute");
        auto rs = engine.Execute(q.text, *snap);
        Check(rs.ok(), "replay execute: " + q.text);
      }
      exec[c].push_back(MicrosBetween(t0, Clock::now()));
    }
    rep_->Layer("query.parse_us", Median(parse), "us");
    rep_->Layer("core.snapshot_pin_us", Median(pin), "us");
    for (int c = 0; c < 4; ++c) {
      rep_->Layer(std::string("query.execute_us.") +
                      QClassName(static_cast<QClass>(c)),
                  Median(exec[c]), "us");
    }
  }

  /// HTTP round trip minus an in-process call of the same text, back to
  /// back on a warmed text (both answered by the same cache state).
  void NetOverhead(FloraRig& rig, LoadGenerator& load,
                   const std::vector<QueryText>& texts) {
    prometheus::server::Client client(&rig.server());
    std::vector<double> diff;
    const std::size_t n = std::min<std::size_t>(texts.size(), 200);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& text = texts[i].text;
      (void)client.Call(prometheus::server::Request::Query(text));
      Clock::time_point t0 = Clock::now();
      auto http = load.connection(0).RoundTrip("POST", "/query", text);
      const double http_us = MicrosBetween(t0, Clock::now());
      t0 = Clock::now();
      auto local = client.Call(prometheus::server::Request::Query(text));
      const double local_us = MicrosBetween(t0, Clock::now());
      Check(http.ok() && http.value().status_code == 200 && local.ok(),
            "net overhead probe: " + text);
      diff.push_back(http_us - local_us);
    }
    rep_->Layer("net.overhead_us", Median(diff), "us");
  }

  /// `txns`: revisions committed between `before` and `after`.
  void WriteLayers(const Counters& before, const Counters& after,
                   const std::vector<const PhaseResult*>& writes,
                   std::size_t txns) {
    std::vector<double> guard, journal, publish;
    std::vector<double> checkpoints;
    double bytes = 0, syncs = 0, n = 0;
    std::int64_t retained = 0, live = 0;
    for (const PhaseResult* p : writes) {
      for (const auto& s : p->writes) {
        guard.push_back(s.guard_us);
        journal.push_back(s.journal_us);
        publish.push_back(std::max(0.0, s.execute_us - s.body_us));
        ++n;
      }
      checkpoints.insert(checkpoints.end(), p->checkpoint_ms.begin(),
                         p->checkpoint_ms.end());
      bytes += static_cast<double>(p->journal_bytes);
      syncs += static_cast<double>(p->journal_syncs);
      retained = std::max(retained, p->retained_versions_max);
      live = std::max(live, p->live_snapshots_max);
    }
    rep_->Layer("server.guard_wait_us", Median(guard), "us");
    rep_->Layer("core.publish_us", Median(publish), "us");
    rep_->Layer("core.retained_versions_max", static_cast<double>(retained),
                "count");
    rep_->Layer("core.live_snapshots_max", static_cast<double>(live), "count");
    rep_->Layer("event.events_per_txn",
                Ratio(static_cast<double>(after.events - before.events),
                      static_cast<double>(txns)),
                "count");
    rep_->Layer("storage.journal_append_us", Median(journal), "us");
    rep_->Layer("storage.journal_bytes_per_txn", Ratio(bytes, n), "bytes");
    rep_->Layer("storage.journal_syncs", syncs, "count");
    rep_->Layer("storage.checkpoint_ms", Median(checkpoints), "ms");
  }

  /// Core mutation spans recorded inside the writer's transactions.
  void CoreSpans() {
    const auto spans = trace::Collect();
    for (const char* op :
         {"create_object", "create_link", "delete_link", "set_attribute"}) {
      rep_->Layer(std::string("core.") + op + "_us",
                  Median(trace::Durations(spans, "core", op)), "us");
    }
  }

  /// The write ladder: the revision script replayed single-threaded on a
  /// fresh copy of the flora, adding one layer per step.
  void Ladder(const std::string& snapshot_path) {
    std::vector<double> step_us[4];
    for (int step = 0; step < 4; ++step) {
      std::unique_ptr<Database> bare;
      std::unique_ptr<prometheus::storage::DurableStore> store;
      Database* db = nullptr;
      if (step < 3) {
        bare = std::make_unique<Database>();
        Check(prometheus::storage::LoadSnapshot(bare.get(), snapshot_path).ok(),
              "ladder: load snapshot");
        db = bare.get();
      } else {
        prometheus::storage::DurableStore::Options so;
        so.bootstrap = [&snapshot_path](Database* d) {
          return prometheus::storage::LoadSnapshot(d, snapshot_path);
        };
        auto opened =
            prometheus::storage::DurableStore::Open(Dir("ladder-store"), so);
        if (!opened.ok()) {
          Check(false, "ladder: open store " + opened.status().ToString());
          return;
        }
        store = std::move(opened).value();
        Check(store->Checkpoint().ok(), "ladder: checkpoint");
        db = &store->db();
      }
      std::unique_ptr<prometheus::IndexManager> indexes;
      std::unique_ptr<prometheus::RuleEngine> rules;
      if (step >= 1) {
        indexes = std::make_unique<prometheus::IndexManager>(db);
        Check(InstallIndexes(indexes.get()).ok(), "ladder: indexes");
      }
      if (step >= 2) {
        rules = std::make_unique<prometheus::RuleEngine>(db);
        Check(InstallRules(rules.get()).ok(), "ladder: rules");
      }
      const FloraCatalog cat = ReadCatalog(*db);
      RevisionScript script(&cat, opt_.seed);
      for (int i = 0; i < sizes_.ladder_txns; ++i) {
        Revision rev = script.Next();
        const Clock::time_point t0 = Clock::now();
        const Status st = script.Apply(*db, &rev, nullptr);
        step_us[step].push_back(MicrosBetween(t0, Clock::now()));
        Check(st.ok(), "ladder txn: " + st.ToString());
        script.Acknowledge(rev);
      }
    }
    const double bare = Median(step_us[0]);
    const double indexed = Median(step_us[1]);
    const double ruled = Median(step_us[2]);
    const double durable = Median(step_us[3]);
    rep_->Layer("ladder.core_us", bare, "us");
    rep_->Layer("ladder.index_us", indexed - bare, "us");
    rep_->Layer("ladder.rules_us", ruled - indexed, "us");
    rep_->Layer("ladder.journal_us", durable - ruled, "us");
    const double served_us = served_write_p50_ms_ * 1000.0;
    rep_->Layer("ladder.unexplained_frac",
                Ratio(served_us - durable, served_us), "fraction");
  }

  // ------------------------------------------------------- workloads

  /// Serving phases shared by every workload that drives a flora rig.
  /// Every load phase is cut into `sizes_.windows` windows.
  struct ServePlan {
    const char* name;
    double read_open_s, read_closed_s, read_rate;
    bool writer_with_reads;  ///< revise: the writer runs alongside readers
    double write_open_s, write_closed_s;  ///< writer-only phases
  };

  /// An open-loop writer window: what falls due in `seconds`, with one
  /// operator checkpoint half way through.
  void SizeOpenWriter(PhaseSpec* spec, double seconds, double rate) const {
    spec->seconds = seconds;
    spec->writer = PhaseSpec::kOpen;
    spec->write_rate = rate;
    spec->checkpoint_every = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(seconds * rate) / 2));
  }

  /// A closed-loop writer window sized by work: `seconds` of nominal
  /// throughput, with a generous time cap. It holds no checkpoint: those
  /// fall in the open-loop windows that alternate with it.
  void SizeClosedWriter(PhaseSpec* spec, double seconds) const {
    spec->writer = PhaseSpec::kClosed;
    spec->writer_txns = static_cast<std::uint64_t>(
        std::max(1.0, seconds * sizes_.closed_txns_per_s));
    spec->seconds = seconds * 4;
  }

  /// Runs the closed-loop window `spec`. In the traced run it runs twice,
  /// untraced and traced in an order that alternates with `window`, so
  /// host drift cancels out of the tracing cost appended to `*overhead`;
  /// the traced twin is returned and the untraced one appended to
  /// `*untraced`.
  PhaseResult ClosedWindow(LoadGenerator& load, QuerySource* source,
                           const PhaseSpec& spec, int window,
                           std::vector<double>* overhead,
                           std::vector<PhaseResult>* untraced) {
    if (!trace::Enabled()) return Phase(load, source, spec);
    PhaseResult twin[2];  // [0] untraced, [1] traced
    for (int i = 0; i < 2; ++i) {
      const bool on = (i == 0) == (window % 2 == 1);
      trace::SetEnabled(on);
      twin[on ? 1 : 0] = Phase(load, source, spec);
    }
    trace::SetEnabled(true);
    // Extra cost per request with tracing on.
    overhead->push_back(Ratio(ReadRate(twin[0]), ReadRate(twin[1])) - 1);
    untraced->push_back(std::move(twin[0]));
    return std::move(twin[1]);
  }

  void Serve(FloraRig& rig, int readers, QuerySource* source,
             const std::vector<QueryText>& replay, const Oracle* oracle,
             const ServePlan& plan) {
    RevisionScript script(&rig.catalog(), opt_.seed);
    auto opened = LoadGenerator::Open(&rig, readers, oracle, &script);
    if (!opened.ok()) Fatal("connect: " + opened.status().ToString());
    LoadGenerator& load = *opened.value();
    const bool traced = trace::Enabled();
    const int windows = sizes_.windows;

    PhaseSpec open{"read.open", plan.read_open_s / windows, readers,
                   plan.read_rate};
    PhaseSpec closed{"read.closed", plan.read_closed_s / windows * 4,
                     readers, 0};
    if (plan.writer_with_reads) {
      open.name = "mixed.open";
      closed.name = "mixed.closed";
      SizeOpenWriter(&open, open.seconds, sizes_.revise_write_rate);
      // The readers run while the writer commits its fixed count.
      SizeClosedWriter(&closed, plan.read_closed_s / windows);
    } else {
      closed.reads = static_cast<std::uint64_t>(std::max(
          1.0, plan.read_closed_s / windows * sizes_.closed_reads_per_s));
    }

    const Counters c0 = Counters::Read(rig);
    const std::uint64_t epoch0 = rig.db().epoch();
    const std::uint64_t journal0 = rig.store().stats().journal_records;
    std::vector<PhaseResult> r_open, r_closed, untraced;
    std::vector<double> overhead;
    for (int w = 0; w < windows; ++w) {
      r_open.push_back(Phase(load, source, open));
      r_closed.push_back(
          ClosedWindow(load, source, closed, w, &overhead, &untraced));
    }
    const std::size_t txns_reads = script.ledger().size();
    const Counters c1 = Counters::Read(rig);
    ReadMetrics(r_open, r_closed);
    if (traced && primary_) {
      // The oo7 workload reports its own loop's instead.
      rep_->Layer("obs.trace_overhead_frac", Median(overhead), "fraction");
    }
    if (!plan.writer_with_reads) {
      // Read-only phases leave the database and its journal as they were.
      const std::uint64_t epochs = rig.db().epoch() - epoch0;
      const std::uint64_t records =
          rig.store().stats().journal_records - journal0;
      Check(epochs == 0 && records == 0,
            "read phases advanced the epoch by " + std::to_string(epochs) +
                " and journalled " + std::to_string(records) + " records");
      rep_->Note(std::string(plan.name) + "_read_phase_commits",
                 std::to_string(epochs));
    }

    // The counter deltas span the untraced twins too, so their samples
    // join the bases.
    std::vector<const PhaseResult*> reads;
    for (const auto* v : {&r_open, &r_closed, &untraced}) {
      for (const PhaseResult& r : *v) reads.push_back(&r);
    }
    if (traced) {
      ServeLayers(c0, c1, reads);
      QueryLayers(rig, replay);
      NetOverhead(rig, load, replay);
    }

    std::vector<PhaseResult> w_open, w_closed;
    Counters w0 = c0, w1 = c1;
    std::size_t txns = txns_reads;
    if (!plan.writer_with_reads) {
      w0 = Counters::Read(rig);
      const std::size_t txns0 = script.ledger().size();
      PhaseSpec wo{"write.open"};
      const int ww = sizes_.write_windows;
      SizeOpenWriter(&wo, plan.write_open_s / ww, sizes_.write_rate);
      PhaseSpec wc{"write.closed"};
      SizeClosedWriter(&wc, plan.write_closed_s / ww);
      for (int w = 0; w < ww; ++w) {
        w_open.push_back(Phase(load, source, wo));
        w_closed.push_back(Phase(load, source, wc));
      }
      w1 = Counters::Read(rig);
      txns = script.ledger().size() - txns0;
    }
    const std::vector<PhaseResult>& wo_all =
        plan.writer_with_reads ? r_open : w_open;
    const std::vector<PhaseResult>& wc_all =
        plan.writer_with_reads ? r_closed : w_closed;
    WriteMetrics(wo_all, wc_all);
    if (traced) {
      std::vector<const PhaseResult*> writes;
      for (const auto* v : {&wo_all, &wc_all}) {
        for (const PhaseResult& r : *v) writes.push_back(&r);
      }
      if (plan.writer_with_reads) {
        for (const PhaseResult& r : untraced) writes.push_back(&r);
      }
      WriteLayers(w0, w1, writes, txns);
      CoreSpans();
    }
    opened.value().reset();
    const std::string snapshot = fs::path(rig.store_dir()).parent_path() /
                                 "flora.pdb";
    Recover(rig, script);
    if (traced) Ladder(snapshot);
  }

  Oracle BuildOracle(FloraRig& rig, const std::vector<std::string>& texts) {
    auto oracle = Oracle::Build(&rig.db(), &rig.indexes(), texts);
    if (!oracle.ok()) Fatal(oracle.status().ToString());
    return std::move(oracle).value();
  }

  /// The browse traffic (Zipf reads of the hot set, then the writer on its
  /// own) on a freshly set-up flora.
  void BrowseServing(int setups, bool report_setup, const ServePlan& plan) {
    const int readers = ReaderConnections(cores_, 4);
    rep_->Note("connections", std::to_string(readers) +
                                  " HTTP readers, then 1 writer session");
    const unsigned seed = opt_.seed;
    const int hot_n = sizes_.hot_set;
    auto rig = SetUp(
        sizes_.flora, readers,
        [seed, hot_n](const FloraCatalog& cat) {
          std::vector<std::string> texts;
          for (const auto& q : HotSet(cat, hot_n, seed)) texts.push_back(q.text);
          return texts;
        },
        setups, report_setup);
    ZipfSource source(HotSet(rig->catalog(), hot_n, seed), readers, seed);
    std::vector<std::string> texts;
    for (const QueryText& q : source.texts()) texts.push_back(q.text);
    const Oracle oracle = BuildOracle(*rig, texts);
    rep_->Note("distinct_texts", std::to_string(source.texts().size()));
    Serve(*rig, readers, &source, source.texts(), &oracle, plan);
  }

  /// Warm-up for the stream workloads: the first 64 texts of every
  /// connection's stream.
  FloraRig::Config::Warmup StreamWarmup(int readers) const {
    const unsigned seed = opt_.seed;
    const std::size_t len = sizes_.stream_len;
    return [seed, readers, len](const FloraCatalog& cat) {
      std::vector<std::string> texts;
      for (const auto& s : Streams(cat, readers, len, seed)) {
        for (std::size_t i = 0; i < 64 && i < s.size(); ++i) {
          texts.push_back(s[i].text);
        }
      }
      return texts;
    };
  }

  void Revise() {
    const int readers = ReaderConnections(cores_, 3);
    rep_->Note("connections",
               std::to_string(readers) + " HTTP readers + 1 writer session");
    const unsigned seed = opt_.seed;
    const std::size_t len = sizes_.stream_len;
    auto rig = SetUp(sizes_.flora, readers, StreamWarmup(readers),
                     sizes_.setups, true);
    StreamSource source(Streams(rig->catalog(), readers, len, seed));
    std::vector<QueryText> replay;
    std::vector<std::string> stable;
    std::set<std::string> distinct;
    for (const auto& stream : source.streams()) {
      for (const QueryText& q : stream) {
        distinct.insert(q.text);
        replay.push_back(q);
        if (q.stable) stable.push_back(q.text);
      }
    }
    const Oracle oracle = BuildOracle(*rig, stable);
    rep_->Note("distinct_texts", std::to_string(distinct.size()));
    Serve(*rig, readers, &source, replay, &oracle,
          {"revise", Share(0.45), Share(0.40), sizes_.revise_read_rate, true,
           0, 0});
  }

  /// `rounds` OO7 rounds, a fixed count so a faster build does the same
  /// work, not more rounds. For the oo7 workload also its set-up (E1) and,
  /// in the traced run, the tracing cost.
  void Oo7(int rounds) {
    const Oo7Result r = RunOo7Rounds(sizes_.oo7, rounds, opt_.seed);
    Oo7Metrics(r);
    if (!primary_) return;
    // E1: building the Prometheus OO7 database is this workload's set-up.
    rep_->E2e("setup_s", Median(r.build[0]) / 1000.0, "s");
    if (trace::Enabled()) {
      // Untraced and traced rounds in ABBA order, so a drift of host speed
      // cancels out of the tracing cost.
      double ms[2] = {0, 0};  // [0] untraced, [1] traced
      for (int i = 0; i < 4; ++i) {
        const bool on = i == 1 || i == 2;
        trace::SetEnabled(on);
        const Oo7Result t =
            RunOo7Rounds(sizes_.oo7, std::max(3, rounds / 4), opt_.seed);
        ms[on ? 1 : 0] += Median(t.t1[0]) + Median(t.t5[0]);
      }
      trace::SetEnabled(true);
      rep_->Layer("obs.trace_overhead_frac", Ratio(ms[1], ms[0]) - 1,
                  "fraction");
    }
  }

  const Options& opt_;
  Report* rep_;
  Sizes sizes_;
  const bool primary_;  ///< this part runs the workload's own path
  int cores_ = 1;
  std::vector<double> lags_;
  double served_write_p50_ms_ = 0;
};

// ---------------------------------------------------------------- output

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string MetricsJson(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + Num(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

std::string ObjectJson(const std::map<std::string, std::string>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + Escape(k) + "\": \"" + Escape(v) + "\"";
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload browse|revise|oo7 --part serve|oo7 "
               "[--rounds N] --seed N --seconds S --trace 0|1 --workdir DIR "
               "[--out DIR] [--smoke] [--source DIGEST]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Options opt;
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) std::exit(Usage());
      return argv[++i];
    };
    if (a == "--workload") opt.workload = next();
    else if (a == "--seed") opt.seed = static_cast<unsigned>(std::stoul(next()));
    else if (a == "--seconds") opt.seconds = std::stod(next());
    else if (a == "--trace") opt.trace = next() == "1";
    else if (a == "--workdir") opt.workdir = next();
    else if (a == "--out") out_dir = next();
    else if (a == "--source") opt.source_digest = next();
    else if (a == "--smoke") opt.smoke = true;
    else if (a == "--part") opt.oo7_part = next() == "oo7";
    else if (a == "--rounds") opt.rounds = std::stoi(next());
    else return Usage();
  }
  if ((opt.workload != "browse" && opt.workload != "revise" &&
       opt.workload != "oo7") ||
      opt.workdir.empty() || !(opt.seconds > 0)) {
    return Usage();
  }
  std::error_code ec;
  opt.workdir += "/" + opt.workload + "-" + std::to_string(opt.seed) + "-" +
                 std::to_string(getpid());
  std::filesystem::remove_all(opt.workdir, ec);
  std::filesystem::create_directories(opt.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", opt.workdir.c_str());
    return 1;
  }

  trace::SetEnabled(opt.trace);
  Report rep;
  Run(opt, &rep).Execute();

  if (opt.trace) {
    const auto spans = trace::Collect();
    std::map<std::string, std::string> self;
    for (const auto& [layer, us] : trace::SelfTimeByLayer(spans)) {
      self[layer] = Num(us / 1000.0) + " ms";
    }
    std::printf("selftime %s\n", ObjectJson(self).c_str());
    if (!out_dir.empty()) {
      std::filesystem::create_directories(out_dir, ec);
      // One file per workload and part, replaced by the next process.
      const std::string path = out_dir + "/spans-" + opt.workload +
                               (opt.oo7_part ? "-oo7" : "-serve") + ".jsonl";
      if (!trace::WriteJsonLines(spans, path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      }
    }
  }
  std::filesystem::remove_all(opt.workdir, ec);

  const double fail_frac =
      rep.attempted == 0 ? 1.0
                         : static_cast<double>(rep.failed) /
                               static_cast<double>(rep.attempted);
  rep.Note("fail_frac", Num(fail_frac));
  if (!rep.invalid.empty()) rep.Note("invalid", rep.invalid);
  for (const auto& f : rep.failures) {
    std::printf("failure %s\n", f.c_str());
  }
  std::printf("provenance %s\n", ObjectJson(rep.provenance).c_str());
  const bool correct = rep.failed == 0 && rep.invalid.empty();
  // The traced run reports the end-to-end sheet too, measured with tracing
  // on; run.py keeps the names BENCHMARK.json lists for the mode.
  std::map<std::string, Metric> metrics = rep.end_to_end;
  if (opt.trace) {
    for (const auto& [name, m] : rep.per_layer) metrics[name] = m;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": %s}\n",
      correct ? "true" : "false", std::max<std::uint64_t>(rep.attempted, 1),
      rep.failed,
      MetricsJson(metrics).c_str());
  return 0;
}
