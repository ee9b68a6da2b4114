#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "index/index_manager.h"

namespace prometheus {
namespace {

bool Contains(const std::vector<Oid>& v, Oid x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

class IndexFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    AttributeDef name;
    name.name = "name";
    name.type = ValueType::kString;
    AttributeDef year;
    year.name = "year";
    year.type = ValueType::kInt;
    ASSERT_TRUE(db.DefineClass("Taxon", {}, {name, year}).ok());
    ASSERT_TRUE(db.DefineClass("Genus", {"Taxon"}).ok());
    idx = std::make_unique<IndexManager>(&db);
  }

  Oid NewTaxon(const std::string& name, std::int64_t year,
               const std::string& cls = "Taxon") {
    return db.CreateObject(cls, {{"name", Value::String(name)},
                                 {"year", Value::Int(year)}})
        .value();
  }

  Database db;
  std::unique_ptr<IndexManager> idx;
};

/// A snapshot's name index equals its extent, filtered, for every name.
void ExpectNameIndexMatchesExtent(const DbSnapshot& snap) {
  std::map<std::string, std::vector<Oid>> expected;
  for (Oid oid : snap.Extent("Taxon")) {
    expected[snap.GetAttribute(oid, "name").value().AsString()].push_back(oid);
  }
  for (const char* name : {"Apium", "Helio", "Renamed", "Late"}) {
    std::vector<Oid> got = snap.Lookup("Taxon", "name", Value::String(name))
                               .value();
    std::vector<Oid>& want = expected[name];
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << name << " at epoch " << snap.epoch();
  }
}

TEST_F(IndexFixture, BackfillsExistingObjects) {
  Oid a = NewTaxon("Apium", 1753);
  NewTaxon("Helio", 1824);
  ASSERT_TRUE(idx->CreateIndex("Taxon", "name").ok());
  auto r = db.Lookup("Taxon", "name", Value::String("Apium"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), std::vector<Oid>{a});
}

TEST_F(IndexFixture, TracksCreateUpdateDelete) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "name").ok());
  Oid a = NewTaxon("Apium", 1753);
  EXPECT_EQ(db.Lookup("Taxon", "name", Value::String("Apium")).value(),
            std::vector<Oid>{a});
  ASSERT_TRUE(db.SetAttribute(a, "name", Value::String("Helio")).ok());
  EXPECT_TRUE(
      db.Lookup("Taxon", "name", Value::String("Apium")).value().empty());
  EXPECT_EQ(db.Lookup("Taxon", "name", Value::String("Helio")).value(),
            std::vector<Oid>{a});
  ASSERT_TRUE(db.DeleteObject(a).ok());
  EXPECT_TRUE(
      db.Lookup("Taxon", "name", Value::String("Helio")).value().empty());
  EXPECT_EQ(db.indexes().front().entries.size(), 0u);
}

TEST_F(IndexFixture, CoversSubclasses) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "name").ok());
  Oid g = NewTaxon("Apium", 1753, "Genus");
  EXPECT_EQ(db.Lookup("Taxon", "name", Value::String("Apium")).value(),
            std::vector<Oid>{g});
}

TEST_F(IndexFixture, OrderedRangeLookup) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year", /*ordered=*/true).ok());
  Oid a = NewTaxon("a", 1753);
  Oid b = NewTaxon("b", 1800);
  Oid c = NewTaxon("c", 1824);
  auto r = db.RangeLookup("Taxon", "year", Value::Int(1760),
                            Value::Int(1824));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 2u);
  EXPECT_TRUE(Contains(r.value(), b));
  EXPECT_TRUE(Contains(r.value(), c));
  // Open bounds.
  auto all = db.RangeLookup("Taxon", "year", Value::Null(), Value::Null());
  EXPECT_EQ(all.value().size(), 3u);
  auto upto = db.RangeLookup("Taxon", "year", Value::Null(),
                               Value::Int(1753));
  EXPECT_EQ(upto.value(), std::vector<Oid>{a});
}

TEST_F(IndexFixture, RangeOnHashIndexRejected) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year").ok());
  EXPECT_EQ(db.RangeLookup("Taxon", "year", Value::Int(0), Value::Int(9999))
                .status()
                .code(),
            Status::Code::kFailedPrecondition);
}

TEST_F(IndexFixture, ErrorsOnUnknownTargets) {
  EXPECT_EQ(idx->CreateIndex("Nope", "x").code(), Status::Code::kNotFound);
  EXPECT_EQ(idx->CreateIndex("Taxon", "nope").code(),
            Status::Code::kNotFound);
  EXPECT_EQ(db.Lookup("Taxon", "name", Value::String("x")).status().code(),
            Status::Code::kNotFound);
  ASSERT_TRUE(idx->CreateIndex("Taxon", "name").ok());
  EXPECT_EQ(idx->CreateIndex("Taxon", "name").code(),
            Status::Code::kInvalidArgument);
  EXPECT_TRUE(idx->DropIndex("Taxon", "name").ok());
  EXPECT_EQ(idx->DropIndex("Taxon", "name").code(), Status::Code::kNotFound);
}

TEST_F(IndexFixture, StaysConsistentAcrossAbort) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "name").ok());
  Oid a = NewTaxon("Apium", 1753);
  ASSERT_TRUE(db.Begin().ok());
  Oid b = NewTaxon("Helio", 1824);
  ASSERT_TRUE(db.SetAttribute(a, "name", Value::String("Renamed")).ok());
  ASSERT_TRUE(db.DeleteObject(a).ok());
  ASSERT_TRUE(db.Abort().ok());
  // Rollback published compensating events; the index reflects pre-txn state.
  EXPECT_EQ(db.Lookup("Taxon", "name", Value::String("Apium")).value(),
            std::vector<Oid>{a});
  EXPECT_TRUE(
      db.Lookup("Taxon", "name", Value::String("Helio")).value().empty());
  EXPECT_TRUE(
      db.Lookup("Taxon", "name", Value::String("Renamed")).value().empty());
  (void)b;

  // Rolled back inside a write section after MVCC is engaged: the snapshot
  // pinned before and the one published after both index their extents.
  SnapshotHandle pinned = db.AcquireSnapshot();
  {
    Database::WriteGuard guard(db);
    ASSERT_TRUE(db.Begin().ok());
    NewTaxon("Late", 1900);
    ASSERT_TRUE(db.SetAttribute(a, "name", Value::String("Renamed")).ok());
    ASSERT_TRUE(db.Abort().ok());
  }
  SnapshotHandle after = db.AcquireSnapshot();
  ExpectNameIndexMatchesExtent(*pinned);
  ExpectNameIndexMatchesExtent(*after);
  EXPECT_EQ(after->Lookup("Taxon", "name", Value::String("Apium")).value(),
            std::vector<Oid>{a});
}

TEST_F(IndexFixture, DestroyingTheManagerDropsItsIndexes) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "name").ok());
  EXPECT_TRUE(db.HasIndex("Taxon", "name"));
  idx.reset();
  EXPECT_FALSE(db.HasIndex("Taxon", "name"));
  EXPECT_EQ(db.Lookup("Taxon", "name", Value::String("x")).status().code(),
            Status::Code::kNotFound);

  IndexManager second(&db);
  ASSERT_TRUE(second.CreateIndex("Taxon", "name").ok());
  Oid a = NewTaxon("Apium", 1753);
  EXPECT_EQ(db.Lookup("Taxon", "name", Value::String("Apium")).value(),
            std::vector<Oid>{a});
}

TEST_F(IndexFixture, DuplicateKeysReturnAllMatches) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year", /*ordered=*/true).ok());
  Oid a = NewTaxon("a", 1753);
  Oid b = NewTaxon("b", 1753);
  auto r = db.Lookup("Taxon", "year", Value::Int(1753));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 2u);
  EXPECT_TRUE(Contains(r.value(), a));
  EXPECT_TRUE(Contains(r.value(), b));
}

TEST_F(IndexFixture, NumericKeysUnifyIntAndDouble) {
  ASSERT_TRUE(idx->CreateIndex("Taxon", "year").ok());
  Oid a = NewTaxon("a", 1753);
  EXPECT_EQ(db.Lookup("Taxon", "year", Value::Double(1753.0)).value(),
            std::vector<Oid>{a});
}

}  // namespace
}  // namespace prometheus
