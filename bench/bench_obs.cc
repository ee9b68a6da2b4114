// E15 — instrumentation overhead. The observability hooks stay compiled
// into every hot path (query engine, event bus, journal), so their cost
// must be provably negligible. Three modes over identical work:
//
//   off       runtime kill switch engaged (each hook = one branch)
//   on        metrics recording (counters + histograms, the default)
//   profiled  metrics on + span tracing (PROFILE path; queries only)
//
// Workloads: OO7 T1 (read traversal through the object graph), OO7 T5
// (update traversal — publishes events, exercising the event-bus and rule
// hooks) and a POOL range query (the instrumented parse/plan/execute
// pipeline). Reports median wall time per mode and the on-vs-off overhead
// percentage; writes BENCH_obs.json.
//
// E20 — reader time lost to churn. The same 4-reader/1-writer churn that
// produced `scaling_4v1` in BENCH_server.json, measured twice: readers
// alone (baseline), then readers racing a writer that takes chunky
// exclusive holds. Reports the reader wall-clock the churn costs. Readers
// pin MVCC snapshots and take no lock, so no wait state names that time
// yet; attributing it is open work.
//
// E22 — system-catalog overhead. A monitoring poller cycling POOL queries
// over sys.metrics / sys.storage / sys.requests (the dashboards-over-POOL
// workload the catalog exists for) races the same 4-reader fleet issuing
// real queries. Alternating baseline/polled rounds measure what the
// poller costs the readers in throughput; the catalog materializes
// per-query snapshots outside every lock, so the tax must stay <= 5%.
//
// Usage: bench_obs [reps] [e20_requests_per_reader]   (defaults 7, 200)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "oo7/oo7.h"
#include "query/query_engine.h"
#include "server/client.h"
#include "server/server.h"

namespace {

using prometheus::Database;
using prometheus::Oid;
using prometheus::Status;
using prometheus::Value;
using prometheus::bench::JsonWriter;
using prometheus::bench::MedianMillis;
using prometheus::obs::SetMetricsEnabled;
using prometheus::oo7::Config;
using prometheus::oo7::PrometheusOo7;
using prometheus::pool::QueryEngine;
using prometheus::server::Client;
using prometheus::server::Server;

constexpr char kQuery[] =
    "select a.id from AtomicPart a "
    "where a.build_date >= 500 and a.build_date <= 900";

double OverheadPercent(double off_ms, double on_ms) {
  return off_ms <= 0 ? 0 : (on_ms - off_ms) / off_ms * 100.0;
}

void PrintRow(const char* workload, double off_ms, double on_ms,
              double profiled_ms) {
  std::printf("  %-12s %9.3f  %9.3f  %+7.2f%%", workload, off_ms, on_ms,
              OverheadPercent(off_ms, on_ms));
  if (profiled_ms > 0) {
    std::printf("  %9.3f  %+7.2f%%", profiled_ms,
                OverheadPercent(off_ms, profiled_ms));
  }
  std::printf("\n");
}

void EmitWorkload(JsonWriter& json, const char* name, double off_ms,
                  double on_ms, double profiled_ms) {
  json.BeginObject();
  json.Key("workload").String(name);
  json.Key("off_ms").Number(off_ms);
  json.Key("on_ms").Number(on_ms);
  json.Key("overhead_on_pct").Number(OverheadPercent(off_ms, on_ms));
  if (profiled_ms > 0) {
    json.Key("profiled_ms").Number(profiled_ms);
    json.Key("overhead_profiled_pct")
        .Number(OverheadPercent(off_ms, profiled_ms));
  }
  json.EndObject();
}

// ------------------------------------------------------------------- E20

/// Reader-side cost of one churn phase: 4 reader clients each issue
/// `requests_per_reader` queries and sum their client-observed latency.
/// With a writer, a churn thread interleaves chunky Custom mutations
/// (hundreds of attribute writes per exclusive hold) until the readers
/// finish.
struct PhaseResult {
  double reader_busy_ms = 0;       ///< summed client-side reader latency
  std::size_t reader_requests = 0;
  std::uint64_t writer_mutations = 0;
};

constexpr int kE20Readers = 4;
constexpr int kE20WritesPerHold = 400;  ///< attribute writes per exclusive hold

PhaseResult RunChurnPhase(Server& server, const std::vector<Oid>& parts,
                          int requests_per_reader, bool with_writer) {
  using Clock = std::chrono::steady_clock;
  PhaseResult result;
  std::atomic<bool> readers_done{false};
  std::vector<double> reader_micros(kE20Readers, 0);

  std::vector<std::thread> threads;
  threads.reserve(kE20Readers + 1);
  for (int r = 0; r < kE20Readers; ++r) {
    threads.emplace_back([&, r] {
      Client client(&server);
      double sum = 0;
      for (int i = 0; i < requests_per_reader; ++i) {
        const Clock::time_point t0 = Clock::now();
        (void)client.Query(kQuery);
        sum += std::chrono::duration<double, std::micro>(Clock::now() - t0)
                   .count();
      }
      reader_micros[static_cast<std::size_t>(r)] = sum;
    });
  }

  std::thread writer;
  std::uint64_t mutations = 0;
  if (with_writer) {
    writer = std::thread([&] {
      Client client(&server);
      std::size_t cursor = 0;
      std::int64_t stamp = 0;
      while (!readers_done.load(std::memory_order_relaxed)) {
        // One chunky exclusive hold: several hundred attribute writes, so
        // the guard stays held for a writer-scale interval (~ms) the way a
        // bulk import or rule cascade would hold it.
        const std::int64_t s = ++stamp;
        (void)client.Mutate([&parts, &cursor, s](Database& db) {
          for (int i = 0; i < kE20WritesPerHold; ++i) {
            const Oid oid = parts[cursor++ % parts.size()];
            PROMETHEUS_RETURN_IF_ERROR(
                db.SetAttribute(oid, "x", Value::Int(s)));
          }
          return Status::Ok();
        });
        ++mutations;
        // Let a convoy of blocked readers drain before the next hold.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  for (int r = 0; r < kE20Readers; ++r) {
    threads[static_cast<std::size_t>(r)].join();
  }
  readers_done.store(true, std::memory_order_relaxed);
  if (writer.joinable()) writer.join();

  for (double m : reader_micros) result.reader_busy_ms += m / 1000.0;
  result.reader_requests =
      static_cast<std::size_t>(kE20Readers) *
      static_cast<std::size_t>(requests_per_reader);
  result.writer_mutations = mutations;
  return result;
}

// ------------------------------------------------------------------- E22

/// Reader throughput for one phase: the 4-reader fleet issues
/// `requests_per_reader` real queries each; with the poller, a monitoring
/// thread cycles catalog queries at ~1 kHz until the readers finish.
/// Returns requests per second over the phase's wall clock.
double RunCatalogPhase(Server& server, int requests_per_reader,
                       bool with_poller, std::uint64_t* polls_out) {
  using Clock = std::chrono::steady_clock;
  std::atomic<bool> readers_done{false};
  const Clock::time_point t0 = Clock::now();

  std::vector<std::thread> readers;
  readers.reserve(kE20Readers);
  for (int r = 0; r < kE20Readers; ++r) {
    readers.emplace_back([&] {
      Client client(&server);
      for (int i = 0; i < requests_per_reader; ++i) {
        (void)client.Query(kQuery);
      }
    });
  }

  std::thread poller;
  std::uint64_t polls = 0;
  if (with_poller) {
    poller = std::thread([&] {
      Client client(&server);
      const char* catalog_queries[] = {
          "select m.name, m.value from sys.metrics m "
          "where m.kind = 'counter'",
          "select s.class, s.rows, s.scans from sys.storage s",
          "select q.request_id, q.total_micros from sys.requests q",
      };
      while (!readers_done.load(std::memory_order_relaxed)) {
        (void)client.Query(catalog_queries[polls % 3]);
        ++polls;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  for (std::thread& t : readers) t.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  readers_done.store(true, std::memory_order_relaxed);
  if (poller.joinable()) poller.join();

  if (polls_out != nullptr) *polls_out += polls;
  const double requests = static_cast<double>(kE20Readers) *
                          static_cast<double>(requests_per_reader);
  return wall_s > 0 ? requests / wall_s : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::atoi(argv[1]) : 7;
  const int e20_requests = argc > 2 ? std::atoi(argv[2]) : 200;

  Config config;  // OO7 small
  PrometheusOo7 oo7(config);
  QueryEngine engine(&oo7.db());

  prometheus::bench::PrintTableHeader(
      "E15: instrumentation overhead (median ms; off = kill switch)",
      "  workload       off(ms)     on(ms)  overhead  prof(ms)  overhead");

  // Warm-up: touch every lazily-registered metric so registration cost
  // (a one-time mutex acquisition) doesn't land in a timed region.
  (void)oo7.TraverseT1();
  (void)oo7.TraverseT5(1);
  (void)engine.Execute(kQuery);
  (void)engine.ExecuteProfiled(kQuery);

  // --- T1: read traversal ------------------------------------------------
  SetMetricsEnabled(false);
  const double t1_off = MedianMillis([&] { (void)oo7.TraverseT1(); }, reps);
  SetMetricsEnabled(true);
  const double t1_on = MedianMillis([&] { (void)oo7.TraverseT1(); }, reps);
  PrintRow("oo7_t1", t1_off, t1_on, 0);

  // --- T5: update traversal (events, rules, index maintenance hooks) -----
  std::int64_t stamp = 1;
  SetMetricsEnabled(false);
  const double t5_off =
      MedianMillis([&] { (void)oo7.TraverseT5(stamp++); }, reps);
  SetMetricsEnabled(true);
  const double t5_on =
      MedianMillis([&] { (void)oo7.TraverseT5(stamp++); }, reps);
  PrintRow("oo7_t5", t5_off, t5_on, 0);

  // --- POOL query: parse/plan/execute pipeline ---------------------------
  SetMetricsEnabled(false);
  const double q_off = MedianMillis([&] { (void)engine.Execute(kQuery); }, reps);
  SetMetricsEnabled(true);
  const double q_on = MedianMillis([&] { (void)engine.Execute(kQuery); }, reps);
  const double q_profiled =
      MedianMillis([&] { (void)engine.ExecuteProfiled(kQuery); }, reps);
  PrintRow("pool_query", q_off, q_on, q_profiled);

  const double worst_overhead =
      std::max({OverheadPercent(t1_off, t1_on), OverheadPercent(t5_off, t5_on),
                OverheadPercent(q_off, q_on)});
  std::printf("  worst metrics-on overhead: %+.2f%% (target <= 5%%)\n",
              worst_overhead);

  // --- E20: reader time lost to 4-reader/1-writer churn -----------------
  prometheus::bench::PrintTableHeader(
      "E20: reader time lost to churn (4 readers, 1 chunky writer)",
      "  phase        reader_busy(ms)  requests  writer_holds");
  SetMetricsEnabled(true);
  PrometheusOo7 churn_oo7(config);
  const std::vector<Oid> parts = churn_oo7.db().Extent("AtomicPart");
  Server::Options churn_options;
  churn_options.worker_threads = 8;   // readers+writer never queue-wait
  churn_options.queue_capacity = 4096;
  churn_options.cache.enabled = false;  // every read executes
  Server churn_server(&churn_oo7.db(), churn_options);

  // Warm-up, then alternating baseline/churn rounds. Pairing each churn
  // phase with an adjacent baseline cancels slow drift (allocator warm-up,
  // frequency scaling) that a single before/after comparison would absorb
  // into the "lost" time.
  RunChurnPhase(churn_server, parts, std::max(8, e20_requests / 4),
                /*with_writer=*/false);
  constexpr int kE20Rounds = 3;
  PhaseResult base{};
  PhaseResult churn{};
  double lost_ms_signed = 0;
  for (int round = 0; round < kE20Rounds; ++round) {
    const PhaseResult b =
        RunChurnPhase(churn_server, parts, e20_requests, /*with_writer=*/false);
    const PhaseResult c =
        RunChurnPhase(churn_server, parts, e20_requests, /*with_writer=*/true);
    base.reader_busy_ms += b.reader_busy_ms;
    base.reader_requests += b.reader_requests;
    churn.reader_busy_ms += c.reader_busy_ms;
    churn.reader_requests += c.reader_requests;
    churn.writer_mutations += c.writer_mutations;
    lost_ms_signed += c.reader_busy_ms - b.reader_busy_ms;
  }
  const double lost_ms = std::max(0.0, lost_ms_signed);
  std::printf("  %-12s %15.3f  %8zu  %12s\n", "baseline", base.reader_busy_ms,
              base.reader_requests, "-");
  std::printf("  %-12s %15.3f  %8zu  %12llu\n", "churn", churn.reader_busy_ms,
              churn.reader_requests,
              static_cast<unsigned long long>(churn.writer_mutations));
  std::printf("  lost reader wall-clock: %.3f ms", lost_ms);
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < kE20Readers + 2) {
    // With fewer cores than threads, the readers and the writer timeshare,
    // so the lost time measures the host as much as the churn — same host
    // caveat bench_server prints for scaling_4v1.
    std::printf("  (only %u hardware thread%s — bounded by the host)", cores,
                cores == 1 ? "" : "s");
  }
  std::printf("\n");

  // --- E22: catalog-poller tax on real-query throughput -----------------
  // Reuses the churn server (quiescent again after E20's writer stopped):
  // same 4 readers, but the contender is a monitoring poller cycling
  // sys.metrics / sys.storage / sys.requests queries instead of a writer.
  prometheus::bench::PrintTableHeader(
      "E22: system-catalog overhead (4 readers vs 1 catalog poller)",
      "  phase        reader_qps  catalog_polls");
  RunCatalogPhase(churn_server, std::max(8, e20_requests / 4),
                  /*with_poller=*/false, nullptr);  // warm-up
  constexpr int kE22Rounds = 3;
  double base_qps_sum = 0;
  double polled_qps_sum = 0;
  std::uint64_t catalog_polls = 0;
  for (int round = 0; round < kE22Rounds; ++round) {
    base_qps_sum += RunCatalogPhase(churn_server, e20_requests,
                                    /*with_poller=*/false, nullptr);
    polled_qps_sum += RunCatalogPhase(churn_server, e20_requests,
                                      /*with_poller=*/true, &catalog_polls);
  }
  const double base_qps = base_qps_sum / kE22Rounds;
  const double polled_qps = polled_qps_sum / kE22Rounds;
  const double catalog_tax_pct =
      base_qps > 0 ? (base_qps - polled_qps) / base_qps * 100.0 : 0;
  std::printf("  %-12s %10.1f  %13s\n", "baseline", base_qps, "-");
  std::printf("  %-12s %10.1f  %13llu\n", "polled", polled_qps,
              static_cast<unsigned long long>(catalog_polls));
  std::printf("  catalog-poller throughput tax: %+.2f%% (target <= 5%%)\n",
              catalog_tax_pct);

  churn_server.Shutdown();

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("obs");
  json.Key("reps").Int(reps);
  json.Key("atomic_parts").Int(config.total_atomic_parts());
  json.Key("workloads").BeginArray();
  EmitWorkload(json, "oo7_t1", t1_off, t1_on, 0);
  EmitWorkload(json, "oo7_t5", t5_off, t5_on, 0);
  EmitWorkload(json, "pool_query", q_off, q_on, q_profiled);
  json.EndArray();
  json.Key("worst_overhead_on_pct").Number(worst_overhead);
  json.Key("target_overhead_pct").Number(5.0);
  json.Key("e20_contention").BeginObject();
  json.Key("hardware_concurrency").Int(cores);
  json.Key("rounds").Int(kE20Rounds);
  json.Key("readers").Int(kE20Readers);
  json.Key("requests_per_reader").Int(e20_requests);
  json.Key("writes_per_hold").Int(kE20WritesPerHold);
  json.Key("writer_holds").Int(static_cast<int>(churn.writer_mutations));
  json.Key("baseline_reader_busy_ms").Number(base.reader_busy_ms);
  json.Key("churn_reader_busy_ms").Number(churn.reader_busy_ms);
  json.Key("lost_reader_ms").Number(lost_ms);
  // The lost time is only meaningful when the reader fleet and the writer
  // can actually run in parallel.
  json.Key("host_bounded").Bool(cores < kE20Readers + 2);
  json.EndObject();
  json.Key("e22_catalog").BeginObject();
  json.Key("rounds").Int(kE22Rounds);
  json.Key("readers").Int(kE20Readers);
  json.Key("requests_per_reader").Int(e20_requests);
  json.Key("baseline_reader_qps").Number(base_qps);
  json.Key("polled_reader_qps").Number(polled_qps);
  json.Key("catalog_polls").Int(static_cast<int>(catalog_polls));
  json.Key("throughput_tax_pct").Number(catalog_tax_pct);
  json.Key("target_tax_pct").Number(5.0);
  json.EndObject();
  json.EndObject();

  const std::string out = "BENCH_obs.json";
  if (!prometheus::bench::WriteTextFile(out, json.str() + "\n")) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
