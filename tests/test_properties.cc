// Property-based tests: randomized operation sequences checked against
// system-wide invariants — rollback equivalence, snapshot/journal
// round-trip fidelity, traversal laws, synonym equivalence laws, and MVCC
// snapshots that stay frozen while the writer runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "core/database.h"
#include "index/index_manager.h"
#include "storage/journal.h"
#include "storage/snapshot.h"

namespace prometheus {
namespace {

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  return a;
}

/// Deterministically seeds a schema exercising the interesting semantics.
void DefineFuzzSchema(Database* db) {
  ASSERT_TRUE(db->DefineClass("Node", {},
                              {Attr("tag", ValueType::kString),
                               Attr("n", ValueType::kInt)})
                  .ok());
  ASSERT_TRUE(db->DefineClass("Leaf", {"Node"}).ok());
  ASSERT_TRUE(db->DefineRelationship("edge", "Node", "Node", {},
                                     {Attr("w", ValueType::kInt)})
                  .ok());
  RelationshipSemantics owning;
  owning.kind = RelationshipKind::kAggregation;
  owning.lifetime_dependent = true;
  ASSERT_TRUE(db->DefineRelationship("owns", "Node", "Leaf", owning).ok());
}

/// One random mutation; returns false when it chose an op that could not
/// apply (e.g. no objects yet).
bool RandomOp(Database* db, std::mt19937* rng, std::vector<Oid>* pool) {
  auto pick = [&](const std::vector<Oid>& v) {
    return v[(*rng)() % v.size()];
  };
  // Refresh the pool of live oids occasionally.
  if (pool->empty() || (*rng)() % 16 == 0) {
    *pool = db->Extent("Node");
  }
  switch ((*rng)() % 8) {
    case 0:
    case 1: {
      const char* cls = (*rng)() % 4 == 0 ? "Leaf" : "Node";
      auto r = db->CreateObject(
          cls, {{"n", Value::Int(static_cast<std::int64_t>((*rng)() % 100))}});
      if (r.ok()) pool->push_back(r.value());
      return r.ok();
    }
    case 2: {
      if (pool->empty()) return false;
      Oid oid = pick(*pool);
      if (db->GetObject(oid) == nullptr) return false;
      return db
          ->SetAttribute(oid, "tag",
                         Value::String("t" + std::to_string((*rng)() % 10)))
          .ok();
    }
    case 3:
    case 4: {
      if (pool->size() < 2) return false;
      Oid a = pick(*pool);
      Oid b = pick(*pool);
      if (db->GetObject(a) == nullptr || db->GetObject(b) == nullptr) {
        return false;
      }
      const bool owning = db->IsInstanceOf(b, "Leaf") && (*rng)() % 2 == 0;
      return db
          ->CreateLink(owning ? "owns" : "edge", a, b, kNullOid,
                       owning ? std::vector<AttrInit>{}
                              : std::vector<AttrInit>{
                                    {"w", Value::Int(static_cast<std::int64_t>(
                                         (*rng)() % 50))}})
          .ok();
    }
    case 5: {
      if (pool->empty()) return false;
      Oid oid = pick(*pool);
      if (db->GetObject(oid) == nullptr) return false;
      std::vector<Oid> links = db->IncidentLinks(oid, Direction::kOut);
      if (links.empty()) return false;
      return db->DeleteLink(links[(*rng)() % links.size()]).ok();
    }
    case 6: {
      if (pool->empty()) return false;
      Oid oid = pick(*pool);
      if (db->GetObject(oid) == nullptr) return false;
      return db->DeleteObject(oid).ok();
    }
    case 7: {
      if (pool->size() < 2) return false;
      Oid a = pick(*pool);
      Oid b = pick(*pool);
      if (db->GetObject(a) == nullptr || db->GetObject(b) == nullptr) {
        return false;
      }
      return db->DeclareSynonym(a, b).ok();
    }
  }
  return false;
}

/// Structural equivalence: same live objects (attrs), links (endpoints,
/// contexts, attrs) and synonym partition — independent of extent order.
void ExpectEquivalent(const Database& a, const Database& b) {
  ASSERT_EQ(a.object_count(), b.object_count());
  ASSERT_EQ(a.link_count(), b.link_count());
  for (Oid oid : a.Extent("Node")) {
    const Object* oa = a.GetObject(oid);
    const Object* ob = b.GetObject(oid);
    ASSERT_NE(ob, nullptr) << "missing object @" << oid;
    EXPECT_EQ(oa->cls->name(), ob->cls->name());
    ForEachAttribute(*oa, [&](const std::string& name, const Value& value) {
      ASSERT_NE(ob->Attr(name), nullptr) << "@" << oid << "." << name;
      EXPECT_TRUE(ob->Attr(name)->Equals(value)) << "@" << oid << "."
                                                 << name;
    });
    // Same incident link multiset (by oid).
    std::vector<Oid> la = oa->out_links;
    std::vector<Oid> lb = ob->out_links;
    std::sort(la.begin(), la.end());
    std::sort(lb.begin(), lb.end());
    EXPECT_EQ(la, lb) << "@" << oid;
  }
  for (Oid oid : a.Extent("Node")) {
    for (Oid other : a.Extent("Node")) {
      EXPECT_EQ(a.AreSynonyms(oid, other), b.AreSynonyms(oid, other));
    }
  }
}

class FuzzSeeds : public ::testing::TestWithParam<unsigned> {};

TEST_P(FuzzSeeds, AbortRestoresExactState) {
  std::mt19937 rng(GetParam());
  Database db;
  DefineFuzzSchema(&db);
  std::vector<Oid> pool;
  for (int i = 0; i < 120; ++i) RandomOp(&db, &rng, &pool);

  // Snapshot of the pre-transaction state (semantic reference).
  Database reference;
  {
    std::stringstream buffer;
    ASSERT_TRUE(storage::SaveSnapshot(db, buffer).ok());
    ASSERT_TRUE(storage::LoadSnapshot(&reference, buffer).ok());
  }

  ASSERT_TRUE(db.Begin().ok());
  for (int i = 0; i < 80; ++i) RandomOp(&db, &rng, &pool);
  ASSERT_TRUE(db.Abort().ok());

  ExpectEquivalent(reference, db);
}

TEST_P(FuzzSeeds, SnapshotRoundTripIsFaithful) {
  std::mt19937 rng(GetParam() + 1000);
  Database db;
  DefineFuzzSchema(&db);
  std::vector<Oid> pool;
  for (int i = 0; i < 150; ++i) RandomOp(&db, &rng, &pool);

  std::stringstream buffer;
  ASSERT_TRUE(storage::SaveSnapshot(db, buffer).ok());
  Database loaded;
  ASSERT_TRUE(storage::LoadSnapshot(&loaded, buffer).ok());
  ExpectEquivalent(db, loaded);

  // Idempotence: a second save of the loaded database re-loads to the
  // same state again.
  std::stringstream buffer2;
  ASSERT_TRUE(storage::SaveSnapshot(loaded, buffer2).ok());
  Database loaded2;
  ASSERT_TRUE(storage::LoadSnapshot(&loaded2, buffer2).ok());
  ExpectEquivalent(loaded, loaded2);
}

TEST_P(FuzzSeeds, JournalReplayMatchesLiveDatabase) {
  std::mt19937 rng(GetParam() + 2000);
  Database db;
  DefineFuzzSchema(&db);
  const std::string path = ::testing::TempDir() + "/fuzz_journal_" +
                           std::to_string(GetParam()) + ".log";
  auto journal = storage::Journal::Open(&db, path,
                                        storage::Journal::OpenMode::kTruncate);
  ASSERT_TRUE(journal.ok());
  std::vector<Oid> pool;
  for (int i = 0; i < 100; ++i) RandomOp(&db, &rng, &pool);
  // A transaction that commits and one that aborts.
  ASSERT_TRUE(db.Begin().ok());
  for (int i = 0; i < 30; ++i) RandomOp(&db, &rng, &pool);
  ASSERT_TRUE(db.Commit().ok());
  ASSERT_TRUE(db.Begin().ok());
  for (int i = 0; i < 30; ++i) RandomOp(&db, &rng, &pool);
  ASSERT_TRUE(db.Abort().ok());
  journal.value().reset();  // close

  Database replayed;
  ASSERT_TRUE(storage::Journal::Replay(&replayed, path).ok());
  ExpectEquivalent(db, replayed);
}

TEST_P(FuzzSeeds, TraversalLaws) {
  std::mt19937 rng(GetParam() + 3000);
  Database db;
  DefineFuzzSchema(&db);
  std::vector<Oid> pool;
  for (int i = 0; i < 120; ++i) RandomOp(&db, &rng, &pool);
  std::vector<Oid> nodes = db.Extent("Node");
  if (nodes.empty()) return;
  Oid start = nodes[rng() % nodes.size()];

  auto unbounded = db.Traverse(start, "edge", 1, 0);
  ASSERT_TRUE(unbounded.ok());
  // Uniqueness.
  std::vector<Oid> sorted = unbounded.value();
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
  // Depth-window results are subsets of the unbounded closure.
  for (std::uint32_t lo = 1; lo <= 3; ++lo) {
    auto window = db.Traverse(start, "edge", lo, lo + 1);
    ASSERT_TRUE(window.ok());
    for (Oid oid : window.value()) {
      EXPECT_TRUE(std::binary_search(sorted.begin(), sorted.end(), oid));
    }
  }
  // Every reported node is reachable: its parents chain back via kIn
  // traversal from it containing start... verified cheaply: the reverse
  // closure from each reported node contains the start.
  for (std::size_t i = 0; i < std::min<std::size_t>(3, sorted.size()); ++i) {
    auto back = db.Traverse(sorted[i], "edge", 0, 0, Direction::kIn);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(std::find(back.value().begin(), back.value().end(), start) !=
                back.value().end());
  }
}

TEST_P(FuzzSeeds, SynonymEquivalenceLaws) {
  std::mt19937 rng(GetParam() + 4000);
  Database db;
  DefineFuzzSchema(&db);
  std::vector<Oid> pool;
  for (int i = 0; i < 100; ++i) RandomOp(&db, &rng, &pool);
  std::vector<Oid> nodes = db.Extent("Node");
  if (nodes.size() < 3) return;
  for (int i = 0; i < 20; ++i) {
    Oid a = nodes[rng() % nodes.size()];
    Oid b = nodes[rng() % nodes.size()];
    Oid c = nodes[rng() % nodes.size()];
    // Reflexive, symmetric, transitive.
    EXPECT_TRUE(db.AreSynonyms(a, a));
    EXPECT_EQ(db.AreSynonyms(a, b), db.AreSynonyms(b, a));
    if (db.AreSynonyms(a, b) && db.AreSynonyms(b, c)) {
      EXPECT_TRUE(db.AreSynonyms(a, c));
    }
    // The canonical representative is itself canonical and shared.
    EXPECT_EQ(db.CanonicalOf(db.CanonicalOf(a)), db.CanonicalOf(a));
    if (db.AreSynonyms(a, b)) {
      EXPECT_EQ(db.CanonicalOf(a), db.CanonicalOf(b));
    }
  }
  // Synonym sets partition: sizes of distinct sets sum to the universe.
  std::unordered_map<Oid, std::size_t> set_sizes;
  for (Oid oid : nodes) {
    set_sizes[db.CanonicalOf(oid)] += 1;
  }
  std::size_t total = 0;
  for (const auto& [root, size] : set_sizes) {
    EXPECT_EQ(db.SynonymSet(root).size(), size) << "root @" << root;
    total += size;
  }
  EXPECT_EQ(total, nodes.size());
}

/// A graph schema for the traversal differential: a relationship with a
/// sub-relationship, an undirected one, and classification-like context
/// objects the links may belong to.
void DefineGraphSchema(Database* db) {
  ASSERT_TRUE(db->DefineClass("Node").ok());
  ASSERT_TRUE(db->DefineClass("Leaf", {"Node"}).ok());
  ASSERT_TRUE(db->DefineClass("Ctx").ok());
  ASSERT_TRUE(db->DefineRelationship("edge", "Node", "Node").ok());
  ASSERT_TRUE(
      db->DefineRelationship("sub_edge", "Node", "Leaf", {}, {}, {"edge"})
          .ok());
  RelationshipSemantics undirected;
  undirected.directed = false;
  ASSERT_TRUE(
      db->DefineRelationship("peer", "Node", "Node", undirected).ok());
}

/// One random graph mutation: object or link creation (self-loops and
/// contexts included), link deletion or object deletion.
void RandomGraphOp(Database* db, std::mt19937* rng,
                   const std::vector<Oid>& contexts) {
  const std::vector<Oid> nodes = db->Extent("Node");
  const unsigned op = (*rng)() % 10;
  if (nodes.size() < 2 || op < 3) {
    ASSERT_TRUE(db->CreateObject((*rng)() % 3 == 0 ? "Leaf" : "Node").ok());
    return;
  }
  const Oid a = nodes[(*rng)() % nodes.size()];
  const Oid b = nodes[(*rng)() % nodes.size()];
  if (op < 8) {
    const char* rels[] = {"edge", "sub_edge", "peer"};
    const char* rel = rels[(*rng)() % 3];
    if (std::string(rel) == "sub_edge" && !db->IsInstanceOf(b, "Leaf")) {
      rel = "edge";
    }
    const Oid ctx = (*rng)() % 2 == 0
                        ? kNullOid
                        : contexts[(*rng)() % contexts.size()];
    ASSERT_TRUE(db->CreateLink(rel, a, b, ctx).ok());
  } else if (op == 8) {
    const std::vector<Oid> links = db->IncidentLinks(a, Direction::kBoth);
    if (!links.empty()) {
      ASSERT_TRUE(db->DeleteLink(links[(*rng)() % links.size()]).ok());
    }
  } else {
    ASSERT_TRUE(db->DeleteObject(a).ok());
  }
}

/// Neighbors computed the slow way, from the link extents: the reference
/// for the filter semantics (sub-relationships, undirected classes,
/// contexts). Compared as a multiset.
std::vector<Oid> ReferenceNeighbors(const Database& db, Oid oid,
                                    const std::string& rel, Direction dir,
                                    Oid ctx) {
  const RelationshipDef* def = db.FindRelationship(rel);
  bool want_out = dir != Direction::kIn;
  bool want_in = dir != Direction::kOut;
  if (!def->semantics().directed) want_out = want_in = true;
  std::vector<Oid> out;
  if (db.GetObject(oid) == nullptr) return out;
  for (Oid lid : db.LinkExtent(rel)) {
    const Link* l = db.GetLink(lid);
    if (ctx != kNullOid && l->context != ctx) continue;
    if (want_out && l->source == oid) out.push_back(l->target);
    if (want_in && l->target == oid) out.push_back(l->source);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Asserts that `Neighbors`, `IncidentLinks` and `Traverse` give the same
/// answers on the live database and on `snap`, for every direction,
/// relationship filter and context, and that `Neighbors` matches the
/// reference.
void ExpectTraversalsAgree(const Database& db, const DbSnapshot& snap,
                           const std::vector<Oid>& probes,
                           const std::vector<Oid>& contexts) {
  std::vector<Oid> ctxs = contexts;
  ctxs.push_back(kNullOid);
  for (Oid oid : probes) {
    for (Direction dir : {Direction::kOut, Direction::kIn, Direction::kBoth}) {
      for (Oid ctx : ctxs) {
        EXPECT_EQ(db.IncidentLinks(oid, dir, nullptr, ctx),
                  snap.IncidentLinks(oid, dir, nullptr, ctx))
            << "@" << oid;
        for (const char* rel : {"edge", "sub_edge", "peer"}) {
          const std::string where = "@" + std::to_string(oid) + " " + rel +
                                    " dir " +
                                    std::to_string(static_cast<int>(dir)) +
                                    " ctx " + std::to_string(ctx);
          EXPECT_EQ(db.IncidentLinks(oid, dir, db.FindRelationship(rel), ctx),
                    snap.IncidentLinks(oid, dir, snap.FindRelationship(rel),
                                       ctx))
              << where;
          const std::vector<Oid> live = db.Neighbors(oid, rel, dir, ctx);
          EXPECT_EQ(live, snap.Neighbors(oid, rel, dir, ctx)) << where;
          std::vector<Oid> sorted = live;
          std::sort(sorted.begin(), sorted.end());
          EXPECT_EQ(sorted, ReferenceNeighbors(db, oid, rel, dir, ctx))
              << where;
          for (std::uint32_t lo = 0; lo <= 1; ++lo) {
            for (std::uint32_t hi : {0u, 1u, 3u}) {
              auto a = db.Traverse(oid, rel, lo, hi, dir, ctx);
              auto b = snap.Traverse(oid, rel, lo, hi, dir, ctx);
              ASSERT_EQ(a.ok(), b.ok()) << where;
              if (a.ok()) {
                EXPECT_EQ(a.value(), b.value()) << where;
              }
            }
          }
        }
      }
    }
  }
}

TEST_P(FuzzSeeds, LiveAndSnapshotTraversalsAgree) {
  std::mt19937 rng(GetParam() + 5000);
  Database db;
  DefineGraphSchema(&db);
  std::vector<Oid> contexts;
  for (int i = 0; i < 2; ++i) {
    contexts.push_back(db.CreateObject("Ctx").value());
  }
  for (int i = 0; i < 120; ++i) RandomGraphOp(&db, &rng, contexts);
  ASSERT_GT(db.link_count(), 20u);
  // Probe live objects plus oids that were deleted or never existed.
  auto probes = [&db] {
    std::vector<Oid> out = db.Extent("Node");
    for (Oid oid = 1; oid < 40; oid += 7) out.push_back(oid);
    out.push_back(1u << 20);
    return out;
  };
  {
    // The first publish, at engagement.
    SnapshotHandle snap = db.AcquireSnapshot();
    ExpectTraversalsAgree(db, *snap, probes(), contexts);
  }
  // Later publishes: mutations in write sections, each cloning what the
  // previous snapshot shares before writing it.
  for (int i = 0; i < 60; ++i) {
    Database::WriteGuard guard(db);
    RandomGraphOp(&db, &rng, contexts);
  }
  SnapshotHandle snap = db.AcquireSnapshot();
  ExpectTraversalsAgree(db, *snap, probes(), contexts);
}

// ------------------------------------------------------ frozen snapshots

/// Tags the random scripts write (`RandomOp` case 2), plus unset (null).
std::vector<Value> SampleTags() {
  std::vector<Value> tags{Value::Null()};
  for (int t = 0; t < 10; ++t) {
    tags.push_back(Value::String("t" + std::to_string(t)));
  }
  return tags;
}

/// Everything a reader can observe of `view`, as text: every record
/// (class, attributes, adjacency, extent and context positions), every
/// extent and link extent in order, every object's context bucket and the
/// synonym partition, and the indexes the frozen-snapshot test installs.
std::string Fingerprint(const ReadView& view) {
  std::ostringstream out;
  auto oids = [&out](const char* tag, const std::vector<Oid>& v) {
    out << tag;
    for (Oid o : v) out << ' ' << o;
    out << '\n';
  };
  out << "epoch " << view.epoch() << " objects " << view.object_count()
      << " links " << view.link_count() << '\n';
  std::vector<Oid> objects;
  for (const ClassDef* cls : view.classes()) {
    const std::vector<Oid> extent = view.Extent(cls->name(), false);
    out << "class " << cls->name();
    oids("", extent);
    objects.insert(objects.end(), extent.begin(), extent.end());
  }
  for (Oid oid : objects) {
    const Object* obj = view.GetObject(oid);
    if (obj == nullptr) {  // an extent naming a dead record
      out << '@' << oid << " missing\n";
      continue;
    }
    out << '@' << oid << ' ' << obj->cls->name() << " pos " << obj->extent_pos
        << " canonical " << view.CanonicalOf(oid);
    ForEachAttribute(*obj, [&out](const std::string& name, const Value& v) {
      out << ' ' << name << '=' << v.ToString();
    });
    oids("\n out", obj->out_links);
    oids(" in", obj->in_links);
    oids(" ctx", view.LinksInContext(oid));
  }
  for (const RelationshipDef* rel : view.relationships()) {
    const std::vector<Oid> extent = view.LinkExtent(rel->name(), false);
    out << "rel " << rel->name();
    oids("", extent);
    for (Oid lid : extent) {
      const Link* link = view.GetLink(lid);
      if (link == nullptr) {
        out << '#' << lid << " missing\n";
        continue;
      }
      out << '#' << lid << ' ' << link->source << "->" << link->target
          << " ctx " << link->context << " pos " << link->extent_pos << '/'
          << link->ctx_pos;
      ForEachAttribute(*link, [&out](const std::string& name, const Value& v) {
        out << ' ' << name << '=' << v.ToString();
      });
      out << '\n';
    }
  }
  // The indexes the frozen-snapshot test installs (absent elsewhere).
  for (const Value& tag : SampleTags()) {
    if (auto hit = view.Lookup("Node", "tag", tag); hit.ok()) {
      oids("index Node.tag", hit.value());
    }
  }
  for (const char* cls : {"Leaf", "Node"}) {
    const char* attr = cls[0] == 'L' ? "tag" : "n";
    if (auto all = view.RangeLookup(cls, attr, Value::Null(), Value::Null());
        all.ok()) {
      oids("index ordered", all.value());
    }
  }
  return out.str();
}

/// The index oracle for the indexes `PinnedSnapshotsStayFrozen...` installs
/// (hash on Node.tag, ordered on Leaf.tag and Node.n): on `view`, every
/// sampled key's lookup, and every sampled range, equals the multiset from
/// filtering the view's extent.
void ExpectIndexesMatchExtents(const ReadView& view) {
  auto sorted = [](std::vector<Oid> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  auto filtered = [&](const char* cls, const char* attr, auto keep) {
    std::vector<Oid> out;
    for (Oid oid : view.Extent(cls)) {
      if (keep(view.GetAttribute(oid, attr).value())) out.push_back(oid);
    }
    return sorted(out);
  };
  for (const Value& tag : SampleTags()) {
    for (const char* cls : {"Node", "Leaf"}) {
      EXPECT_EQ(sorted(view.Lookup(cls, "tag", tag).value()),
                filtered(cls, "tag", [&tag](const Value& v) {
                  return v.IndexKey() == tag.IndexKey();
                }))
          << cls << ".tag = " << tag.ToString();
    }
  }
  // Ordered ranges; a null tag orders as the empty string.
  auto tag_in = [](const char* lo, const char* hi) {
    return [lo, hi](const Value& v) {
      const std::string s = v.is_null() ? "" : v.AsString();
      return (lo == nullptr || s >= lo) && s <= hi;
    };
  };
  EXPECT_EQ(sorted(view.RangeLookup("Leaf", "tag", Value::String("t2"),
                                    Value::String("t6"))
                       .value()),
            filtered("Leaf", "tag", tag_in("t2", "t6")));
  EXPECT_EQ(sorted(view.RangeLookup("Leaf", "tag", Value::Null(),
                                    Value::String("t4"))
                       .value()),
            filtered("Leaf", "tag", tag_in(nullptr, "t4")));
  EXPECT_EQ(
      sorted(view.RangeLookup("Leaf", "tag", Value::Null(), Value::Null())
                 .value()),
      sorted(view.Extent("Leaf")));
  for (std::int64_t n : {0, 5, 42, 99}) {
    EXPECT_EQ(sorted(view.Lookup("Node", "n", Value::Int(n)).value()),
              filtered("Node", "n", [n](const Value& v) {
                return v.type() == ValueType::kInt && v.AsInt() == n;
              }))
        << "Node.n = " << n;
  }
  EXPECT_EQ(sorted(view.RangeLookup("Node", "n", Value::Int(10),
                                    Value::Int(60))
                       .value()),
            filtered("Node", "n", [](const Value& v) {
              return v.type() == ValueType::kInt && v.AsInt() >= 10 &&
                     v.AsInt() <= 60;
            }));
}

/// Random scripts of write sections, aborted transactions, DDL and Clear,
/// with snapshots pinned at random points: a pinned snapshot must read
/// exactly as it did when pinned, both at the end and, from a second
/// thread, while the writer runs; and two pins at one epoch must read the
/// same cut (the result cache keys on that epoch). The cut's indexes are
/// part of what is frozen, and at every pin they must equal the pinned
/// extents (`ExpectIndexesMatchExtents`).
TEST_P(FuzzSeeds, PinnedSnapshotsStayFrozenUnderRandomScripts) {
  std::mt19937 rng(GetParam() + 9000);
  Database db;
  IndexManager indexes(&db);
  std::vector<Oid> pool;
  std::vector<Oid> contexts;
  auto define = [&] {
    DefineFuzzSchema(&db);
    ASSERT_TRUE(db.DefineClass("Ctx").ok());
    ASSERT_TRUE(
        db.DefineRelationship("sub_edge", "Node", "Leaf", {}, {}, {"edge"})
            .ok());
    RelationshipSemantics undirected;
    undirected.directed = false;
    ASSERT_TRUE(
        db.DefineRelationship("peer", "Node", "Node", undirected).ok());
    // Clear drops the indexes with the schema; they are rebuilt with it.
    ASSERT_TRUE(indexes.CreateIndex("Node", "tag").ok());
    ASSERT_TRUE(indexes.CreateIndex("Leaf", "tag", /*ordered=*/true).ok());
    ASSERT_TRUE(indexes.CreateIndex("Node", "n", /*ordered=*/true).ok());
    pool.clear();
    contexts = {db.CreateObject("Ctx").value(), db.CreateObject("Ctx").value()};
  };
  auto mutate = [&] {
    const unsigned n = 1 + rng() % 4;
    for (unsigned i = 0; i < n; ++i) {
      if (rng() % 2 == 0) {
        RandomOp(&db, &rng, &pool);
      } else {
        RandomGraphOp(&db, &rng, contexts);
      }
    }
  };
  define();

  // Pins are owned by this (the writer's) thread; the reader gets shared
  // copies of the same snapshots with their fingerprints.
  std::vector<std::pair<SnapshotHandle, std::string>> pins;
  std::mutex mu;
  std::vector<std::pair<std::shared_ptr<const DbSnapshot>, std::string>>
      published;
  std::atomic<bool> done{false};
  std::atomic<int> passes{0};
  std::atomic<int> mismatches{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::vector<std::pair<std::shared_ptr<const DbSnapshot>, std::string>>
          check;
      {
        std::lock_guard<std::mutex> lk(mu);
        check = published;
      }
      for (const auto& [snap, fingerprint] : check) {
        if (Fingerprint(*snap) != fingerprint) mismatches.fetch_add(1);
      }
      passes.fetch_add(1, std::memory_order_release);
      std::this_thread::yield();
    }
  });
  std::map<std::uint64_t, std::string> cut_at_epoch;  // every pin, ever
  auto pin = [&] {
    SnapshotHandle snap = db.AcquireSnapshot();
    ExpectIndexesMatchExtents(*snap);
    std::string fingerprint = Fingerprint(*snap);
    EXPECT_EQ(fingerprint, Fingerprint(db)) << "pinned cut differs from live";
    const auto first = cut_at_epoch.emplace(snap->epoch(), fingerprint).first;
    EXPECT_EQ(first->second, fingerprint)
        << "two different cuts published at epoch " << snap->epoch();
    std::lock_guard<std::mutex> lk(mu);
    published.emplace_back(snap.shared(), fingerprint);
    pins.emplace_back(std::move(snap), std::move(fingerprint));
  };

  pin();
  int extra_classes = 0;
  for (int step = 0; step < 150; ++step) {
    switch (rng() % 10) {
      case 0:
      case 1:
      case 2:
      case 3: {
        Database::WriteGuard guard(db);
        mutate();
        break;
      }
      case 4: {
        Database::WriteGuard guard(db);
        ASSERT_TRUE(db.Begin().ok());
        mutate();
        ASSERT_TRUE(db.Abort().ok());
        break;
      }
      case 5: {
        Database::WriteGuard guard(db);
        const std::string name = "Extra" + std::to_string(extra_classes++);
        ASSERT_TRUE(
            db.DefineClass(name, {"Node"}, {Attr("x", ValueType::kInt)}).ok());
        ASSERT_TRUE(db.CreateObject(name, {{"x", Value::Int(step)}}).ok());
        break;
      }
      case 6:
        if (rng() % 4 == 0) {
          Database::WriteGuard guard(db);
          ASSERT_TRUE(db.Clear().ok());
          define();
        }
        break;
      case 7:
      case 8:
        pin();
        break;
      case 9:
        if (pins.size() > 8) {  // release one, keeping the rest checked
          const std::size_t victim = rng() % pins.size();
          std::lock_guard<std::mutex> lk(mu);
          published.erase(published.begin() + victim);
          pins.erase(pins.begin() + victim);
        }
        break;
    }
  }
  // Let the reader finish at least one pass over the final pin set.
  const int seen = passes.load(std::memory_order_acquire);
  while (passes.load(std::memory_order_acquire) < seen + 2) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(mismatches.load(), 0);
  ASSERT_GT(pins.size(), 1u);
  for (const auto& [snap, fingerprint] : pins) {
    EXPECT_EQ(Fingerprint(*snap), fingerprint) << "pinned at " << snap->epoch();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

}  // namespace
}  // namespace prometheus
