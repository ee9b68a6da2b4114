// MVCC snapshot reads (src/core/oid_table.h, snapshot.h, database.h and the
// server read path built on them):
//
//  - the persistent OidTable record store: copy-on-write pages and
//    records, directory growth, structural sharing between a table and its
//    copies;
//  - snapshot semantics: a pinned `DbSnapshot` is a frozen consistent cut —
//    later commits, in-flight write sections, DDL and aborted transactions
//    are all invisible to it, and a fresh acquire sees exactly the live
//    state at the current epoch;
//  - GC: superseded versions are freed the moment the last snapshot
//    reaching them is released (`mvcc::RetainedVersions`), and the pin
//    registry watermark (`oldest_pinned_epoch`) follows the handles;
//  - the result-cache epoch contract (the insert-race regression): entries
//    are stamped with the epoch the rows were *computed* at, so a writer
//    committing between execution and insertion can never launder stale
//    rows as fresh;
//  - a reader-pinning GC soak under writer churn, wall-clock-scaled by
//    PROMETHEUS_MVCC_SOAK_SECONDS (default 1; CI runs 30 under ASan).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/result_cache.h"
#include "core/database.h"
#include "core/oid_table.h"
#include "core/snapshot.h"
#include "core/sorted_runs.h"
#include "index/index_manager.h"
#include "obs/trace.h"
#include "query/query_engine.h"
#include "server/client.h"
#include "server/server.h"

namespace {

using prometheus::AttributeDef;
using prometheus::ClassDef;
using prometheus::Database;
using prometheus::DbSnapshot;
using prometheus::MethodDef;
using prometheus::Oid;
using prometheus::OidTable;
using prometheus::SnapshotHandle;
using prometheus::SortedRuns;
using prometheus::Status;
using prometheus::Value;
using prometheus::ValueType;
using prometheus::cache::ResultCache;
using prometheus::server::Client;
using prometheus::server::Request;
using prometheus::server::Response;
using prometheus::server::Server;

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef def;
  def.name = std::move(name);
  def.type = type;
  return def;
}

int SoakSeconds() {
  const char* env = std::getenv("PROMETHEUS_MVCC_SOAK_SECONDS");
  if (env == nullptr) return 1;
  const int parsed = std::atoi(env);
  return parsed > 0 ? parsed : 1;
}

// ---------------------------------------------------------------- OidTable

TEST(OidTableTest, SetFindEraseAcrossDirectoryGrowth) {
  OidTable<int> table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(1), nullptr);

  // Keys straddling several page boundaries, including ones that force the
  // page directory to grow (4096 = page 4, 262144 + 5 = page 256).
  const Oid keys[] = {1, 63, 64, 65, 4095, 4096, 262144 + 5};
  for (Oid k : keys) {
    table.Put(k, std::make_shared<int>(static_cast<int>(k * 10)));
  }
  for (Oid k : keys) {
    ASSERT_NE(table.Find(k), nullptr) << "key " << k;
    EXPECT_EQ(*table.Find(k), static_cast<int>(k * 10));
  }
  EXPECT_EQ(table.Find(2), nullptr);
  EXPECT_EQ(table.Find(262144 + 6), nullptr);

  table.Take(64);
  EXPECT_EQ(table.Find(64), nullptr);
  EXPECT_NE(table.Find(63), nullptr);
  EXPECT_NE(table.Find(65), nullptr);
  table.Take(64);  // idempotent
  EXPECT_EQ(table.Find(64), nullptr);

  // Overwrite keeps the latest version only; with no copy sharing the
  // table, the write is in place.
  const int* before = table.Find(1);
  *table.Mutable(1) = 999;
  EXPECT_EQ(*table.Find(1), 999);
  EXPECT_EQ(table.Find(1), before);
}

TEST(OidTableTest, CopiesAreImmutableAndStructurallyShared) {
  OidTable<int> table;
  for (Oid k = 1; k <= 200; ++k) {
    table.Put(k, std::make_shared<int>(static_cast<int>(k)));
  }

  OidTable<int> snapshot = table;  // one pointer per page
  // The untouched entries are literally the same version objects.
  EXPECT_EQ(snapshot.Find(7), table.Find(7));

  // Writing the table clones around the shared structure: the snapshot
  // keeps the old version, untouched keys stay shared.
  *table.Mutable(7) = -7;
  table.Take(100);
  table.Put(500, std::make_shared<int>(500));

  EXPECT_EQ(*table.Find(7), -7);
  ASSERT_NE(snapshot.Find(7), nullptr);
  EXPECT_EQ(*snapshot.Find(7), 7);
  EXPECT_EQ(table.Find(100), nullptr);
  ASSERT_NE(snapshot.Find(100), nullptr);
  EXPECT_EQ(*snapshot.Find(100), 100);
  EXPECT_EQ(snapshot.Find(500), nullptr);
  EXPECT_NE(table.Find(500), nullptr);
  // A key no write touched is still the shared version.
  EXPECT_EQ(snapshot.Find(3), table.Find(3));
  // Once cloned, the table's own version is written in place.
  int* own = table.Mutable(7);
  EXPECT_EQ(own, table.Find(7));
  EXPECT_EQ(table.Mutable(7), own);
}

// -------------------------------------------------------------- SortedRuns

std::vector<int> Contents(const SortedRuns<int>& set) {
  std::vector<int> out;
  set.ScanFrom(nullptr, [&out](int v) {
    out.push_back(v);
    return true;
  });
  return out;
}

TEST(SortedRunsTest, CopiesAreImmutableAcrossSplitsAndErases) {
  std::vector<int> evens;
  for (int i = 0; i < 1000; ++i) evens.push_back(2 * (999 - i));
  SortedRuns<int> set(evens);  // bulk build sorts
  std::sort(evens.begin(), evens.end());
  EXPECT_EQ(Contents(set), evens);

  const SortedRuns<int> copy = set;  // one pointer
  // Odd inserts into one region split its run more than once.
  for (int i = 1; i < 1200; i += 2) set.Insert(i % 600);
  EXPECT_TRUE(set.Erase(0));
  EXPECT_FALSE(set.Erase(-1));
  EXPECT_EQ(Contents(copy), evens);
  EXPECT_EQ(copy.size(), 1000u);
  EXPECT_EQ(set.size(), 1000u + 600u - 1u);
  const std::vector<int> now = Contents(set);
  EXPECT_TRUE(std::is_sorted(now.begin(), now.end()));
  ASSERT_NE(set.Find(599), nullptr);
  EXPECT_EQ(set.Find(0), nullptr);
  ASSERT_NE(copy.Find(0), nullptr);

  // Scanning from a bound starts at the first entry not less than it.
  std::vector<int> from;
  const int lo = 1995;
  set.ScanFrom(&lo, [&from](int v) {
    from.push_back(v);
    return true;
  });
  EXPECT_EQ(from, (std::vector<int>{1996, 1998}));
}

// ---------------------------------------------------------------- fixture

class MvccSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.DefineClass("Rec", {},
                                {Attr("name", ValueType::kString),
                                 Attr("a", ValueType::kInt),
                                 Attr("b", ValueType::kInt)})
                    .ok());
    ASSERT_TRUE(db_.DefineRelationship("refs", "Rec", "Rec").ok());
    for (int i = 0; i < 4; ++i) {
      auto oid = db_.CreateObject(
          "Rec", {{"name", Value::String("r" + std::to_string(i))},
                  {"a", Value::Int(i)},
                  {"b", Value::Int(i)}});
      ASSERT_TRUE(oid.ok());
      recs_.push_back(oid.value());
    }
    ASSERT_TRUE(db_.CreateLink("refs", recs_[0], recs_[1]).ok());
  }

  Database db_;
  std::vector<Oid> recs_;
};

TEST_F(MvccSnapshotTest, SnapshotMatchesLiveCutExactly) {
  SnapshotHandle snap = db_.AcquireSnapshot();
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap->epoch(), db_.epoch());
  EXPECT_EQ(snap->object_count(), db_.object_count());
  EXPECT_EQ(snap->link_count(), db_.link_count());
  EXPECT_EQ(snap->Extent("Rec"), db_.Extent("Rec"));
  EXPECT_NE(snap->FindClass("Rec"), nullptr);
  EXPECT_NE(snap->FindRelationship("refs"), nullptr);
  for (Oid oid : recs_) {
    EXPECT_TRUE(snap->IsInstanceOf(oid, "Rec"));
    auto live = db_.GetAttribute(oid, "a");
    auto seen = snap->GetAttribute(oid, "a");
    ASSERT_TRUE(live.ok() && seen.ok());
    EXPECT_TRUE(live.value().Equals(seen.value()));
  }
  EXPECT_EQ(snap->Neighbors(recs_[0], "refs"), db_.Neighbors(recs_[0], "refs"));
}

TEST_F(MvccSnapshotTest, PinnedSnapshotIgnoresLaterCommits) {
  SnapshotHandle snap = db_.AcquireSnapshot();
  const std::uint64_t pinned_epoch = snap->epoch();

  // Three committed write sections: update, create, delete.
  {
    Database::WriteGuard g(db_);
    ASSERT_TRUE(db_.SetAttribute(recs_[0], "a", Value::Int(100)).ok());
    ASSERT_TRUE(db_.SetAttribute(recs_[0], "b", Value::Int(100)).ok());
  }
  Oid fresh = prometheus::kNullOid;
  {
    Database::WriteGuard g(db_);
    auto oid = db_.CreateObject("Rec", {{"name", Value::String("late")},
                                        {"a", Value::Int(9)},
                                        {"b", Value::Int(9)}});
    ASSERT_TRUE(oid.ok());
    fresh = oid.value();
  }
  {
    Database::WriteGuard g(db_);
    ASSERT_TRUE(db_.DeleteObject(recs_[3]).ok());
  }

  // The pinned cut is frozen at its epoch.
  EXPECT_EQ(snap->epoch(), pinned_epoch);
  EXPECT_EQ(db_.epoch(), pinned_epoch + 3);
  EXPECT_EQ(snap->GetAttribute(recs_[0], "a").value().AsInt(), 0);
  EXPECT_EQ(snap->GetObject(fresh), nullptr);
  EXPECT_NE(snap->GetObject(recs_[3]), nullptr);
  EXPECT_EQ(snap->Extent("Rec").size(), 4u);

  // A fresh acquire sees all three commits at the bumped epoch.
  SnapshotHandle now = db_.AcquireSnapshot();
  EXPECT_EQ(now->epoch(), pinned_epoch + 3);
  EXPECT_EQ(now->GetAttribute(recs_[0], "a").value().AsInt(), 100);
  EXPECT_NE(now->GetObject(fresh), nullptr);
  EXPECT_EQ(now->GetObject(recs_[3]), nullptr);
  EXPECT_EQ(now->Extent("Rec").size(), 4u);  // +1 created, -1 deleted
}

TEST_F(MvccSnapshotTest, HalfAppliedWriteSectionInvisibleToNewReaders) {
  // Engage MVCC before the writer starts so the acquire below stays on the
  // lock-free fast path (it must not need the guard the writer holds).
  (void)db_.AcquireSnapshot();
  const std::uint64_t before = db_.epoch();

  std::atomic<bool> half_applied{false};
  std::atomic<bool> release_writer{false};
  std::thread writer([&] {
    Database::WriteGuard g(db_);
    ASSERT_TRUE(db_.SetAttribute(recs_[1], "a", Value::Int(77)).ok());
    half_applied.store(true, std::memory_order_release);
    while (!release_writer.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(db_.SetAttribute(recs_[1], "b", Value::Int(77)).ok());
  });

  while (!half_applied.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // The writer sits mid-section with a torn pair in the live store. A
  // reader admitted now still gets the last *published* cut: consistent,
  // pre-section, and acquired without blocking on the held guard.
  SnapshotHandle mid = db_.AcquireSnapshot();
  EXPECT_EQ(mid->epoch(), before);
  EXPECT_EQ(mid->GetAttribute(recs_[1], "a").value().AsInt(), 1);
  EXPECT_EQ(mid->GetAttribute(recs_[1], "b").value().AsInt(), 1);

  release_writer.store(true, std::memory_order_release);
  writer.join();

  SnapshotHandle after = db_.AcquireSnapshot();
  EXPECT_EQ(after->epoch(), before + 1);
  EXPECT_EQ(after->GetAttribute(recs_[1], "a").value().AsInt(), 77);
  EXPECT_EQ(after->GetAttribute(recs_[1], "b").value().AsInt(), 77);
}

TEST_F(MvccSnapshotTest, DdlCommitsAtomicallyForSnapshots) {
  SnapshotHandle pinned = db_.AcquireSnapshot();

  // One write section defines a subclass and populates it.
  {
    Database::WriteGuard g(db_);
    ASSERT_TRUE(db_.DefineClass("SubRec", {"Rec"}, {}).ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(db_.CreateObject(
                         "SubRec",
                         {{"name", Value::String("s" + std::to_string(i))},
                          {"a", Value::Int(0)},
                          {"b", Value::Int(0)}})
                      .ok());
    }
  }

  // The pinned snapshot predates the DDL entirely: no class, no instances,
  // and the deep extent of the base class is untouched.
  EXPECT_EQ(pinned->FindClass("SubRec"), nullptr);
  EXPECT_EQ(pinned->Extent("Rec").size(), 4u);

  // A fresh snapshot sees the class *and* all of its instances — never a
  // cut between the two.
  SnapshotHandle now = db_.AcquireSnapshot();
  ASSERT_NE(now->FindClass("SubRec"), nullptr);
  EXPECT_EQ(now->Extent("SubRec").size(), 3u);
  EXPECT_EQ(now->Extent("Rec").size(), 7u);
}

TEST_F(MvccSnapshotTest, AbortedTransactionNeverVisibleInAnySnapshot) {
  (void)db_.AcquireSnapshot();  // engage
  const std::uint64_t before = db_.epoch();
  {
    Database::WriteGuard g(db_);
    ASSERT_TRUE(db_.Begin().ok());
    ASSERT_TRUE(db_.SetAttribute(recs_[2], "a", Value::Int(500)).ok());
    ASSERT_TRUE(db_.CreateObject("Rec", {{"name", Value::String("ghost")},
                                         {"a", Value::Int(0)},
                                         {"b", Value::Int(0)}})
                    .ok());
    ASSERT_TRUE(db_.Abort().ok());
  }
  // The section committed nothing, but it still closes with a (restamped)
  // publish: the epoch advances, the state does not.
  SnapshotHandle snap = db_.AcquireSnapshot();
  EXPECT_EQ(snap->epoch(), before + 1);
  EXPECT_EQ(snap->GetAttribute(recs_[2], "a").value().AsInt(), 2);
  EXPECT_EQ(snap->Extent("Rec").size(), 4u);
  EXPECT_EQ(snap->object_count(), db_.object_count());
}

// The one protocol: before the first AcquireSnapshot the database is the
// single-threaded embedded store and needs no guard; after it, every
// mutation runs inside a WriteGuard, and one outside trips the debug
// assertion (Release builds compile the check out).
using MvccSnapshotDeathTest = MvccSnapshotTest;

TEST_F(MvccSnapshotDeathTest, MutationOutsideWriteGuardAfterEngagementAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Guard-less mutations before engagement: update, create, link, synonym
  // and delete.
  ASSERT_TRUE(db_.SetAttribute(recs_[0], "a", Value::Int(100)).ok());
  auto fresh = db_.CreateObject("Rec", {{"name", Value::String("late")},
                                        {"a", Value::Int(9)},
                                        {"b", Value::Int(9)}});
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(db_.CreateLink("refs", recs_[2], fresh.value()).ok());
  ASSERT_TRUE(db_.DeclareSynonym(recs_[1], recs_[2]).ok());
  ASSERT_TRUE(db_.DeleteObject(recs_[3]).ok());
  EXPECT_EQ(db_.epoch(), 0u);

  // Engagement publishes all of them, at the current epoch.
  SnapshotHandle pinned = db_.AcquireSnapshot();
  EXPECT_EQ(pinned->epoch(), 0u);
  EXPECT_EQ(pinned->GetAttribute(recs_[0], "a").value().AsInt(), 100);
  EXPECT_NE(pinned->GetObject(fresh.value()), nullptr);
  EXPECT_EQ(pinned->GetObject(recs_[3]), nullptr);
  EXPECT_EQ(pinned->Neighbors(recs_[2], "refs"),
            std::vector<Oid>{fresh.value()});
  EXPECT_TRUE(pinned->AreSynonyms(recs_[1], recs_[2]));

  EXPECT_DEBUG_DEATH(
      (void)db_.SetAttribute(recs_[0], "a", Value::Int(200)),
      "outside a WriteGuard");

  // The same mutation inside a write section is legal and published under
  // the next epoch; the pinned cut keeps its value.
  {
    Database::WriteGuard guard(db_);
    ASSERT_TRUE(db_.SetAttribute(recs_[0], "a", Value::Int(300)).ok());
  }
  SnapshotHandle now = db_.AcquireSnapshot();
  EXPECT_EQ(now->epoch(), 1u);
  EXPECT_EQ(now->GetAttribute(recs_[0], "a").value().AsInt(), 300);
  EXPECT_EQ(pinned->GetAttribute(recs_[0], "a").value().AsInt(), 100);
}

// --------------------------------------------------------------------- GC

TEST(MvccGcTest, SupersededVersionsFreeWhenLastPinReleases) {
  Database db;
  ASSERT_TRUE(
      db.DefineClass("Rec", {}, {Attr("v", ValueType::kInt)}).ok());
  std::vector<Oid> recs;
  for (int i = 0; i < 8; ++i) {
    auto oid = db.CreateObject("Rec", {{"v", Value::Int(0)}});
    ASSERT_TRUE(oid.ok());
    recs.push_back(oid.value());
  }

  SnapshotHandle old_pin = db.AcquireSnapshot();
  const std::uint64_t baseline = prometheus::mvcc::RetainedVersions();
  EXPECT_EQ(db.pinned_snapshots(), 1u);
  EXPECT_EQ(db.oldest_pinned_epoch(), old_pin->epoch());

  // Rewrite one record many times. Intermediate versions are dropped as
  // each publish supersedes the last; only the version `old_pin` reaches
  // and the current one stay alive.
  for (int i = 1; i <= 50; ++i) {
    Database::WriteGuard g(db);
    ASSERT_TRUE(db.SetAttribute(recs[0], "v", Value::Int(i)).ok());
  }
  const std::uint64_t churned = prometheus::mvcc::RetainedVersions();
  EXPECT_GT(churned, baseline);       // the pinned old version is retained
  EXPECT_LT(churned, baseline + 10);  // ...but not one per rewrite

  SnapshotHandle new_pin = db.AcquireSnapshot();
  EXPECT_EQ(db.pinned_snapshots(), 2u);
  EXPECT_EQ(db.oldest_pinned_epoch(), old_pin->epoch());

  // Releasing the old pin frees every version only it reached, on the
  // spot — refcount reclamation, no GC thread to wait for.
  old_pin = SnapshotHandle();
  EXPECT_EQ(db.pinned_snapshots(), 1u);
  EXPECT_EQ(db.oldest_pinned_epoch(), new_pin->epoch());
  EXPECT_LE(prometheus::mvcc::RetainedVersions(), baseline);

  new_pin = SnapshotHandle();
  EXPECT_EQ(db.pinned_snapshots(), 0u);
  EXPECT_EQ(db.oldest_pinned_epoch(), db.epoch());
}

// ------------------------------------------------------------ DDL race

// Definitions are shared by every published snapshot, so DDL must never
// write one. A reader walks a pinned snapshot's schema — sys.classes, the
// subclass list, method lookup — while write sections define sub-classes
// of the same class and methods on it. Under TSan any write to a shared
// definition is a reported race; in every build the pinned lists must
// match the pinned class count.
TEST(MvccSchemaTest, PinnedSchemaReadsNeverRaceDdl) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Root").ok());
  MethodDef size;
  size.name = "size";
  size.return_type = "int";
  ASSERT_TRUE(db.DefineMethod("Root", size).ok());
  Server server(&db);  // engages MVCC
  Client client(&server);

  std::atomic<bool> done{false};
  std::atomic<int> passes{0};
  std::atomic<int> mismatches{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      SnapshotHandle snap = db.AcquireSnapshot();
      const std::vector<const ClassDef*> classes = snap->classes();
      const ClassDef* root = snap->FindClass("Root");
      // Each write section adds one sub-class of Root and one method on it.
      if (snap->Subclasses(root).size() + 1 != classes.size() ||
          snap->Methods(root).size() != classes.size()) {
        mismatches.fetch_add(1);
      }
      for (const ClassDef* cls : classes) {
        if (snap->FindMethod(cls, "size") == nullptr) mismatches.fetch_add(1);
      }
      Response rows = server.QueryCatalog(
          "select c.name, c.subclasses from sys.classes c");
      if (!rows.ok() || rows.result.rows.size() < classes.size()) {
        mismatches.fetch_add(1);
      }
      passes.fetch_add(1, std::memory_order_release);
    }
  });
  while (passes.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client
                    .Mutate([i](Database& d) {
                      const std::string name = "Sub" + std::to_string(i);
                      PROMETHEUS_RETURN_IF_ERROR(
                          d.DefineClass(name, {"Root"}).status());
                      MethodDef method;
                      method.name = "m" + std::to_string(i);
                      return d.DefineMethod("Root", std::move(method));
                    })
                    .ok());
  }
  const int seen = passes.load(std::memory_order_acquire);
  while (passes.load(std::memory_order_acquire) < seen + 2) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  server.Shutdown();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(db.Subclasses(db.FindClass("Root")).size(), 100u);
}

// ------------------------------------------------------- writer churn race

TEST(MvccConcurrencyTest, ReadersNeverSeeTornPairsUnderWriterChurn) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Rec", {},
                             {Attr("a", ValueType::kInt),
                              Attr("b", ValueType::kInt)})
                  .ok());
  std::vector<Oid> recs;
  for (int i = 0; i < 4; ++i) {
    auto oid =
        db.CreateObject("Rec", {{"a", Value::Int(0)}, {"b", Value::Int(0)}});
    ASSERT_TRUE(oid.ok());
    recs.push_back(oid.value());
  }
  (void)db.AcquireSnapshot();  // engage before the threads start

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> epoch_regressions{0};
  std::atomic<std::uint64_t> reads{0};

  std::thread writer([&] {
    std::int64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ++i;
      Database::WriteGuard g(db);
      for (Oid oid : recs) {
        ASSERT_TRUE(db.SetAttribute(oid, "a", Value::Int(i)).ok());
        ASSERT_TRUE(db.SetAttribute(oid, "b", Value::Int(i)).ok());
      }
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        SnapshotHandle snap = db.AcquireSnapshot();
        if (snap->epoch() < last_epoch) epoch_regressions.fetch_add(1);
        last_epoch = snap->epoch();
        for (Oid oid : recs) {
          auto a = snap->GetAttribute(oid, "a");
          auto b = snap->GetAttribute(oid, "b");
          if (!a.ok() || !b.ok() || !a.value().Equals(b.value())) {
            torn.fetch_add(1);
          }
        }
        reads.fetch_add(1);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop.store(true, std::memory_order_release);
  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(epoch_regressions.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(db.pinned_snapshots(), 0u);
}

// ------------------------------------------------------ indexes in the cut

std::vector<Oid> Refs(const prometheus::pool::ResultSet& rs) {
  std::vector<Oid> out;
  for (const Value& v : rs.Column(0)) out.push_back(v.AsRef());
  std::sort(out.begin(), out.end());
  return out;
}

// A snapshot carries the index state of its own epoch: a pinned snapshot
// still answers an equality query through the index after a later write
// section changed the indexed attribute, with the rows a scan of it gives.
TEST_F(MvccSnapshotTest, PinnedSnapshotAnswersThroughItsOwnIndex) {
  prometheus::IndexManager indexes(&db_);
  ASSERT_TRUE(indexes.CreateIndex("Rec", "a").ok());
  SnapshotHandle snap = db_.AcquireSnapshot();
  {
    Database::WriteGuard g(db_);
    ASSERT_TRUE(db_.SetAttribute(recs_[1], "a", Value::Int(2)).ok());
    ASSERT_TRUE(db_.SetAttribute(recs_[2], "a", Value::Int(7)).ok());
  }
  const prometheus::pool::QueryEngine indexed(&db_, &indexes);
  const prometheus::pool::QueryEngine scan(&db_);
  const std::string q = "select r from Rec r where r.a = 2";

  auto pinned = indexed.ExecuteProfiled(q, *snap);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_NE(prometheus::obs::RenderTree(pinned.value().trace)
                .find("index lookup on Rec.a"),
            std::string::npos)
      << prometheus::obs::RenderTree(pinned.value().trace);
  auto scanned = scan.Execute(q, *snap);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(Refs(pinned.value().rows), Refs(scanned.value()));
  EXPECT_EQ(Refs(pinned.value().rows), std::vector<Oid>{recs_[2]});

  SnapshotHandle now = db_.AcquireSnapshot();
  auto current = indexed.Execute(q, *now);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(Refs(current.value()), std::vector<Oid>{recs_[1]});
}

// Readers look up pinned snapshots' indexes while a writer churns the
// indexed attributes (updates, creates, deletes, run splits): every lookup
// must equal the filtered extent of the same snapshot — no lost and no
// phantom oid. Under TSan this also shows the lock-free reads race nothing.
TEST(MvccConcurrencyTest, IndexLookupsOnPinnedSnapshotsMatchTheirExtents) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Rec", {},
                             {Attr("a", ValueType::kInt),
                              Attr("b", ValueType::kInt)})
                  .ok());
  std::vector<Oid> recs;
  for (int i = 0; i < 600; ++i) {
    auto oid = db.CreateObject(
        "Rec", {{"a", Value::Int(i % 8)}, {"b", Value::Int(i)}});
    ASSERT_TRUE(oid.ok());
    recs.push_back(oid.value());
  }
  prometheus::IndexManager indexes(&db);
  ASSERT_TRUE(indexes.CreateIndex("Rec", "a").ok());
  ASSERT_TRUE(indexes.CreateIndex("Rec", "b", /*ordered=*/true).ok());
  (void)db.AcquireSnapshot();  // engage before the threads start

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> checks{0};
  std::thread writer([&] {
    std::uint32_t x = 12345;
    auto next = [&x] {
      x = x * 1103515245u + 12345u;
      return (x >> 8) % 100000;
    };
    while (!stop.load(std::memory_order_acquire)) {
      Database::WriteGuard g(db);
      for (int k = 0; k < 4; ++k) {
        const Oid oid = recs[next() % recs.size()];
        EXPECT_TRUE(
            db.SetAttribute(oid, "a", Value::Int(next() % 8)).ok());
        EXPECT_TRUE(db.SetAttribute(oid, "b", Value::Int(next() % 1000)).ok());
      }
      if (next() % 2 == 0) {
        auto oid = db.CreateObject("Rec", {{"a", Value::Int(next() % 8)},
                                           {"b", Value::Int(next() % 1000)}});
        EXPECT_TRUE(oid.ok());
        recs.push_back(oid.value());
      }
      if (next() % 2 == 0 && recs.size() > 500) {
        const std::size_t victim = next() % recs.size();
        EXPECT_TRUE(db.DeleteObject(recs[victim]).ok());
        recs[victim] = recs.back();
        recs.pop_back();
      }
    }
  });
  auto filtered = [](const DbSnapshot& snap, const char* attr, auto keep) {
    std::vector<Oid> out;
    for (Oid oid : snap.Extent("Rec")) {
      if (keep(snap.GetAttribute(oid, attr).value().AsInt())) {
        out.push_back(oid);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        SnapshotHandle snap = db.AcquireSnapshot();
        for (std::int64_t key = 0; key < 8; ++key) {
          std::vector<Oid> got =
              snap->Lookup("Rec", "a", Value::Int(key)).value();
          std::sort(got.begin(), got.end());
          if (got != filtered(*snap, "a",
                              [key](std::int64_t v) { return v == key; })) {
            mismatches.fetch_add(1);
          }
        }
        std::vector<Oid> got =
            snap->RangeLookup("Rec", "b", Value::Int(250), Value::Int(500))
                .value();
        std::sort(got.begin(), got.end());
        if (got != filtered(*snap, "b", [](std::int64_t v) {
              return v >= 250 && v <= 500;
            })) {
          mismatches.fetch_add(1);
        }
        checks.fetch_add(1);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop.store(true, std::memory_order_release);
  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(checks.load(), 0u);
}

// ---------------------------------------------------- cache epoch contract

// The insert-race regression, deterministically: a query executes against
// a pinned snapshot at epoch E; a writer commits (epoch E+1) *before* the
// result is inserted. The server stamps the entry with the snapshot's
// epoch (E) — the epoch the rows were computed at — so the next lookup
// (validating against the current epoch E+1) must miss. Stamping the
// insert-time epoch instead (the old protocol, where insertion happened
// under the same read guard that computed the rows) would serve the stale
// rows as fresh.
TEST(MvccCacheTest, RanAtEpochStampNeverServesStaleRowsAfterLaterCommit) {
  Database db;
  ASSERT_TRUE(
      db.DefineClass("Rec", {}, {Attr("v", ValueType::kInt)}).ok());
  auto oid = db.CreateObject("Rec", {{"v", Value::Int(1)}});
  ASSERT_TRUE(oid.ok());

  ResultCache cache{ResultCache::Config{}};
  const std::string key = "select r.v from Rec r";

  SnapshotHandle snap = db.AcquireSnapshot();
  auto rows = std::make_shared<prometheus::pool::ResultSet>();
  rows->columns = {"v"};
  rows->rows = {{snap->GetAttribute(oid.value(), "v").value()}};

  // The racing writer lands between execution and insertion.
  {
    Database::WriteGuard g(db);
    ASSERT_TRUE(db.SetAttribute(oid.value(), "v", Value::Int(2)).ok());
  }
  ASSERT_NE(snap->epoch(), db.epoch());

  cache.Insert(key, snap->epoch(), rows, 64);

  // The entry is present and serves at the epoch it was computed at — but
  // a current-epoch lookup must miss (and lazily erases the stale entry).
  EXPECT_NE(cache.Lookup(key, snap->epoch()), nullptr);
  EXPECT_EQ(cache.Lookup(key, db.epoch()), nullptr);
}

// The same contract end-to-end through the server under a real race:
// readers hammer one query text (constantly re-warming the cache) while a
// churn writer bumps the epoch on an unrelated object. After every write
// to the checked object, a read of the same text must observe it —
// whether served from cache or re-executed. A current-epoch stamp would
// let a reader that executed before the write but inserted after it
// poison the cache with the old value.
TEST(MvccCacheTest, CacheHitsNeverServeStaleRowsUnderConcurrentWriters) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Rec", {},
                             {Attr("name", ValueType::kString),
                              Attr("v", ValueType::kInt)})
                  .ok());
  auto checked = db.CreateObject(
      "Rec", {{"name", Value::String("checked")}, {"v", Value::Int(0)}});
  auto churned = db.CreateObject(
      "Rec", {{"name", Value::String("churn")}, {"v", Value::Int(0)}});
  ASSERT_TRUE(checked.ok() && churned.ok());

  Server::Options options;
  options.worker_threads = 4;
  options.queue_capacity = 4096;
  Server server(&db, options);

  const std::string q = "select r.v from Rec r where r.name = 'checked'";
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    Client churner(&server);
    std::int64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      (void)churner.SetAttribute(churned.value(), "v", Value::Int(++i));
    }
  });
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      Client reader(&server);
      while (!stop.load(std::memory_order_acquire)) {
        (void)reader.Query(q);
      }
    });
  }

  Client checker(&server);
  for (std::int64_t i = 1; i <= 200; ++i) {
    ASSERT_TRUE(checker.SetAttribute(checked.value(), "v", Value::Int(i)).ok());
    auto rs = checker.Query(q);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ASSERT_EQ(rs.value().rows.size(), 1u);
    EXPECT_EQ(rs.value().rows[0][0].AsInt(), i) << "stale read at round " << i;
  }

  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  server.Shutdown();
}

// -------------------------------------------------------------------- soak

// Reader-pinning GC soak: staggered snapshot lifetimes under constant
// writer churn. Throughout, retention must track the *oldest pin*, not the
// churn volume; at the end, with every handle released, exactly one
// published snapshot's worth of versions remains.
TEST(MvccSoakTest, ReaderPinningGcSoakReclaimsEverything) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Rec", {},
                             {Attr("a", ValueType::kInt),
                              Attr("b", ValueType::kInt)})
                  .ok());
  std::vector<Oid> recs;
  for (int i = 0; i < 16; ++i) {
    auto oid =
        db.CreateObject("Rec", {{"a", Value::Int(0)}, {"b", Value::Int(0)}});
    ASSERT_TRUE(oid.ok());
    recs.push_back(oid.value());
  }
  (void)db.AcquireSnapshot();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> acquired{0};

  std::thread writer([&] {
    std::int64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ++i;
      Database::WriteGuard g(db);
      const Oid oid = recs[static_cast<std::size_t>(i) % recs.size()];
      ASSERT_TRUE(db.SetAttribute(oid, "a", Value::Int(i)).ok());
      ASSERT_TRUE(db.SetAttribute(oid, "b", Value::Int(i)).ok());
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      // Each reader keeps a small ladder of pinned snapshots with
      // staggered lifetimes: the oldest rung can pin versions dozens of
      // write sections old before it rotates out.
      std::vector<SnapshotHandle> ladder;
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        ladder.push_back(db.AcquireSnapshot());
        acquired.fetch_add(1);
        const SnapshotHandle& snap = ladder.back();
        for (Oid oid : recs) {
          auto a = snap->GetAttribute(oid, "a");
          auto b = snap->GetAttribute(oid, "b");
          if (!a.ok() || !b.ok() || !a.value().Equals(b.value())) {
            torn.fetch_add(1);
          }
        }
        if (ladder.size() > static_cast<std::size_t>(2 + r)) {
          ladder.erase(ladder.begin());  // release the oldest pin
        }
        if (++i % 64 == 0) std::this_thread::yield();
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::seconds(SoakSeconds()));
  stop.store(true, std::memory_order_release);
  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(acquired.load(), 0u);
  // Every pin is gone: the registry is empty, the watermark is current,
  // and retention has collapsed to the one published snapshot (a version
  // per live object plus one per live link — here there are no links).
  EXPECT_EQ(db.pinned_snapshots(), 0u);
  EXPECT_EQ(db.oldest_pinned_epoch(), db.epoch());
  EXPECT_EQ(prometheus::mvcc::RetainedVersions(),
            db.object_count() + db.link_count());
}

}  // namespace
