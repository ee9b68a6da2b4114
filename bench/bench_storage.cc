// Ablation — storage substrate throughput: snapshot save/load and journal
// write/replay over OO7-shaped databases, plus the record-codec stages of a
// flora-scale store set-up. Expected shape: snapshot cost is linear in
// database size; journal appends add a small constant per mutation; replay
// costs roughly one Create* call per record.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "bench_util.h"
#include "oo7/oo7.h"
#include "storage/journal.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "taxonomy/synthetic.h"

namespace {

using prometheus::Database;
using prometheus::oo7::Config;
using prometheus::oo7::PrometheusOo7;

Config MakeConfig(int composites) {
  Config config;
  config.composite_parts = composites;
  config.assembly_levels = 4;
  return config;
}

void PrintSeries() {
  prometheus::bench::PrintTableHeader(
      "Ablation: storage substrate (snapshot & journal)",
      "  comps  objects  links   save_ms   load_ms   journal_ms  replay_ms");
  for (int comps : {10, 40}) {
    Config config = MakeConfig(comps);
    PrometheusOo7 prom(config);
    Database& db = prom.db();

    std::string snapshot_text;
    double save_ms = prometheus::bench::MedianMillis(
        [&] {
          std::ostringstream out;
          benchmark::DoNotOptimize(
              prometheus::storage::SaveSnapshot(db, out).ok());
          snapshot_text = out.str();
        },
        3);
    double load_ms = prometheus::bench::MedianMillis(
        [&] {
          Database fresh;
          std::istringstream in(snapshot_text);
          benchmark::DoNotOptimize(
              prometheus::storage::LoadSnapshot(&fresh, in).ok());
        },
        3);
    // Journal: time only the journalled S1 workload (database build and
    // journal open are outside the timed region).
    const std::string journal_path = "/tmp/prometheus_bench_journal.log";
    double journal_ms;
    {
      std::vector<double> samples;
      for (int rep = 0; rep < 3; ++rep) {
        PrometheusOo7 tmp(config);
        auto journal = prometheus::storage::Journal::Open(
            &tmp.db(), journal_path,
            prometheus::storage::Journal::OpenMode::kTruncate);
        samples.push_back(prometheus::bench::MedianMillis(
            [&] { benchmark::DoNotOptimize(tmp.InsertS1(5).ok()); }, 1));
      }
      std::sort(samples.begin(), samples.end());
      journal_ms = samples[samples.size() / 2];
    }
    double replay_ms = prometheus::bench::MedianMillis(
        [&] {
          Database fresh;
          benchmark::DoNotOptimize(
              prometheus::storage::Journal::Replay(&fresh, journal_path)
                  .ok());
        },
        3);
    std::printf("  %5d  %7zu  %5zu   %7.3f   %7.3f   %9.3f  %8.3f\n", comps,
                db.object_count(), db.link_count(), save_ms, load_ms,
                journal_ms, replay_ms);
  }
}

/// Checkpoint + crash-recovery cost over a `DurableStore`: populate N
/// journalled objects, time `Checkpoint()` (atomic snapshot + journal
/// rotation) and then time a cold `Open()` of the same directory (snapshot
/// load + journal tail replay).
void PrintDurableSeries() {
  prometheus::bench::PrintTableHeader(
      "Durability: checkpoint & recovery (DurableStore)",
      "  objects   checkpoint_ms   recover_ms   recover_tail_ms");
  namespace st = prometheus::storage;
  for (int objects : {1000, 5000}) {
    const std::string dir = "/tmp/prometheus_bench_store";
    st::DurableStore::Options options;
    options.bootstrap = [](Database* db) {
      prometheus::AttributeDef attr;
      attr.name = "n";
      attr.type = prometheus::ValueType::kInt;
      return db->DefineClass("Node", {}, {attr}).status();
    };
    double checkpoint_ms = 0, recover_ms = 0, tail_ms = 0;
    std::filesystem::remove_all(dir);
    {
      auto store = st::DurableStore::Open(dir, options);
      if (!store.ok()) continue;
      for (int i = 0; i < objects; ++i) {
        (void)store.value()->db().CreateObject(
            "Node", {{"n", prometheus::Value::Int(i)}});
      }
      checkpoint_ms = prometheus::bench::MedianMillis(
          [&] { benchmark::DoNotOptimize(store.value()->Checkpoint().ok()); },
          3);
      // Leave a journal tail behind the last snapshot so recovery pays for
      // both the snapshot load and a replay.
      for (int i = 0; i < objects / 10; ++i) {
        (void)store.value()->db().CreateObject(
            "Node", {{"n", prometheus::Value::Int(-i)}});
      }
    }
    recover_ms = prometheus::bench::MedianMillis(
        [&] {
          auto reopened = st::DurableStore::Open(dir, options);
          benchmark::DoNotOptimize(reopened.ok());
        },
        3);
    // Tail-only recovery: a fresh store that never checkpointed.
    std::filesystem::remove_all(dir);
    {
      auto store = st::DurableStore::Open(dir, options);
      if (!store.ok()) continue;
      for (int i = 0; i < objects; ++i) {
        (void)store.value()->db().CreateObject(
            "Node", {{"n", prometheus::Value::Int(i)}});
      }
    }
    tail_ms = prometheus::bench::MedianMillis(
        [&] {
          auto reopened = st::DurableStore::Open(dir, options);
          benchmark::DoNotOptimize(reopened.ok());
        },
        3);
    std::printf("  %7d   %13.3f   %10.3f   %15.3f\n", objects, checkpoint_ms,
                recover_ms, tail_ms);
    std::filesystem::remove_all(dir);
  }
}

/// The record-codec stages of a flora-scale store set-up (GenerateFlora
/// 16x10x25x4 plus a 160-genus revision, the repository benchmark's flora):
/// snapshot save to a file, snapshot load, a bootstrap open of a fresh
/// `DurableStore` that loads that snapshot (load plus the journal
/// prologue) and its first checkpoint. Medians of three.
void PrintFloraSeries() {
  prometheus::bench::PrintTableHeader(
      "Flora set-up: snapshot, bootstrap open and checkpoint",
      "  objects   links   image_mb   save_ms   load_ms   open_ms   "
      "checkpoint_ms");
  namespace st = prometheus::storage;
  namespace tx = prometheus::taxonomy;
  tx::TaxonomyDatabase tdb;
  tx::FloraConfig fc;
  fc.families = 16;
  fc.genera_per_family = 10;
  fc.species_per_genus = 25;
  fc.specimens_per_species = 4;
  auto flora = tx::GenerateFlora(&tdb, fc);
  if (!flora.ok() || !tx::GenerateRevision(&tdb, flora.value(), 160, 2).ok()) {
    std::printf("  flora generation failed\n");
    return;
  }
  const std::string path = "/tmp/prometheus_bench_flora.pdb";
  const std::string dir = "/tmp/prometheus_bench_flora_store";
  const double save_ms = prometheus::bench::MedianMillis([&] {
    benchmark::DoNotOptimize(st::SaveSnapshot(tdb.db(), path).ok());
  });
  const double load_ms = prometheus::bench::MedianMillis([&] {
    Database fresh;
    benchmark::DoNotOptimize(st::LoadSnapshot(&fresh, path).ok());
  });
  st::DurableStore::Options options;
  options.bootstrap = [&path](Database* db) {
    return st::LoadSnapshot(db, path);
  };
  std::vector<double> open_ms, checkpoint_ms;
  for (int rep = 0; rep < 3; ++rep) {
    std::filesystem::remove_all(dir);
    std::unique_ptr<st::DurableStore> store;
    open_ms.push_back(prometheus::bench::MedianMillis(
        [&] {
          auto opened = st::DurableStore::Open(dir, options);
          if (opened.ok()) store = std::move(opened).value();
        },
        1));
    if (store == nullptr) return;
    checkpoint_ms.push_back(prometheus::bench::MedianMillis(
        [&] { benchmark::DoNotOptimize(store->Checkpoint().ok()); }, 1));
  }
  std::sort(open_ms.begin(), open_ms.end());
  std::sort(checkpoint_ms.begin(), checkpoint_ms.end());
  std::printf("  %7zu  %6zu   %8.2f   %7.1f   %7.1f   %7.1f   %13.1f\n",
              tdb.db().object_count(), tdb.db().link_count(),
              static_cast<double>(std::filesystem::file_size(path)) / 1048576.0,
              save_ms, load_ms, open_ms[1], checkpoint_ms[1]);
  std::filesystem::remove_all(dir);
  std::filesystem::remove(path);
}

void BM_SnapshotSave(benchmark::State& state) {
  PrometheusOo7 prom(MakeConfig(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    std::ostringstream out;
    benchmark::DoNotOptimize(
        prometheus::storage::SaveSnapshot(prom.db(), out).ok());
  }
}
BENCHMARK(BM_SnapshotSave)->Arg(10)->Arg(40)->Unit(benchmark::kMillisecond);

void BM_SnapshotLoad(benchmark::State& state) {
  PrometheusOo7 prom(MakeConfig(static_cast<int>(state.range(0))));
  std::ostringstream out;
  (void)prometheus::storage::SaveSnapshot(prom.db(), out);
  std::string text = out.str();
  for (auto _ : state) {
    Database fresh;
    std::istringstream in(text);
    benchmark::DoNotOptimize(
        prometheus::storage::LoadSnapshot(&fresh, in).ok());
  }
}
BENCHMARK(BM_SnapshotLoad)->Arg(10)->Arg(40)->Unit(benchmark::kMillisecond);

void BM_JournalledCreate(benchmark::State& state) {
  // Per-object creation cost with (1) / without (0) a journal attached.
  Database db;
  prometheus::AttributeDef attr;
  attr.name = "n";
  attr.type = prometheus::ValueType::kInt;
  (void)db.DefineClass("Node", {}, {attr});
  std::unique_ptr<prometheus::storage::Journal> journal;
  if (state.range(0) == 1) {
    auto opened = prometheus::storage::Journal::Open(
        &db, "/tmp/prometheus_bench_journal2.log",
        prometheus::storage::Journal::OpenMode::kTruncate);
    if (opened.ok()) journal = std::move(opened).value();
  }
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db.CreateObject("Node", {{"n", prometheus::Value::Int(i++)}}).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JournalledCreate)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  PrintSeries();
  PrintDurableSeries();
  PrintFloraSeries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
