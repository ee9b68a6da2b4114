#include <gtest/gtest.h>

#include <sstream>

#include "classification/classification.h"
#include "storage/import.h"
#include "storage/snapshot.h"

namespace prometheus::storage {
namespace {

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  return a;
}

/// A small herbarium database: taxa classified in one classification with
/// a ref attribute, a synonym pair, and a context-free link.
void BuildHerbarium(Database* db, const std::string& tag) {
  ASSERT_TRUE(db->DefineClass("Taxon", {},
                              {Attr("name", ValueType::kString),
                               Attr("accepted", ValueType::kRef)})
                  .ok());
  ASSERT_TRUE(db->DefineClass("Specimen", {},
                              {Attr("sheet", ValueType::kString)})
                  .ok());
  ASSERT_TRUE(db->DefineRelationship("classified_in", "Taxon", "Specimen",
                                     {},
                                     {Attr("motivation", ValueType::kString)})
                  .ok());
  ClassificationManager mgr(db);
  Oid c = mgr.Create("flora " + tag, "curator " + tag, 1990).value();
  Oid taxon =
      db->CreateObject("Taxon", {{"name", Value::String("Apium-" + tag)}})
          .value();
  Oid other =
      db->CreateObject("Taxon", {{"name", Value::String("Helio-" + tag)}})
          .value();
  ASSERT_TRUE(db->SetAttribute(other, "accepted", Value::Ref(taxon)).ok());
  Oid s1 = db->CreateObject(
                 "Specimen", {{"sheet", Value::String(tag + "-1")}})
               .value();
  Oid s2 = db->CreateObject(
                 "Specimen", {{"sheet", Value::String(tag + "-2")}})
               .value();
  ASSERT_TRUE(
      mgr.AddEdge(c, "classified_in", taxon, s1, "matches " + tag).ok());
  ASSERT_TRUE(mgr.AddEdge(c, "classified_in", taxon, s2).ok());
  ASSERT_TRUE(db->DeclareSynonym(s1, s2).ok());
}

TEST(ImportTest, MergesTwoHerbaria) {
  Database a;
  BuildHerbarium(&a, "edinburgh");
  Database b;
  BuildHerbarium(&b, "kew");

  std::stringstream snapshot;
  ASSERT_TRUE(SaveSnapshot(b, snapshot).ok());

  std::size_t objects_before = a.object_count();
  std::size_t links_before = a.link_count();
  auto report = ImportSnapshot(&a, snapshot);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().objects_imported, b.object_count());
  EXPECT_EQ(report.value().links_imported, b.link_count());
  EXPECT_EQ(report.value().classes_defined, 0u);  // schemas identical
  EXPECT_EQ(a.object_count(),
            objects_before + report.value().objects_imported);
  EXPECT_EQ(a.link_count(), links_before + report.value().links_imported);

  // Both floras now coexist as overlapping classifications.
  ClassificationManager mgr(&a);
  EXPECT_EQ(mgr.All().size(), 2u);

  // Imported synonymy survived under new oids.
  EXPECT_EQ(report.value().synonyms_imported, 1u);
}

TEST(ImportTest, RemapsEveryKindOfReference) {
  Database b;
  BuildHerbarium(&b, "kew");
  std::stringstream snapshot;
  ASSERT_TRUE(SaveSnapshot(b, snapshot).ok());

  Database a;
  BuildHerbarium(&a, "edinburgh");
  auto report = ImportSnapshot(&a, snapshot);
  ASSERT_TRUE(report.ok());
  const auto& map = report.value().oid_map;

  for (Oid old_oid : b.Extent("Taxon")) {
    Oid fresh = map.at(old_oid);
    ASSERT_NE(a.GetObject(fresh), nullptr);
    // No imported oid collides with a pre-existing object's identity:
    // fresh oids were allocated by the target database.
    EXPECT_NE(fresh, old_oid);
    // Ref attribute remapped.
    auto accepted = b.GetAttribute(old_oid, "accepted");
    if (accepted.ok() && accepted.value().type() == ValueType::kRef) {
      auto remapped = a.GetAttribute(fresh, "accepted");
      ASSERT_TRUE(remapped.ok());
      EXPECT_EQ(remapped.value().AsRef(),
                map.at(accepted.value().AsRef()));
    }
  }
  // Links: endpoints, context and attributes all remapped.
  for (Oid lid : b.LinkExtent("classified_in")) {
    const Link* old_link = b.GetLink(lid);
    Oid fresh_src = map.at(old_link->source);
    bool found = false;
    for (Oid flid : a.IncidentLinks(fresh_src, Direction::kOut,
                                    a.FindRelationship("classified_in"))) {
      const Link* fresh_link = a.GetLink(flid);
      if (fresh_link->target != map.at(old_link->target)) continue;
      found = true;
      EXPECT_EQ(fresh_link->context, map.at(old_link->context));
      EXPECT_TRUE(fresh_link->Attr("motivation")
                      ->Equals(*old_link->Attr("motivation")));
    }
    EXPECT_TRUE(found);
  }
  // Synonymy between the two imported duplicates.
  std::vector<Oid> specimens = b.Extent("Specimen");
  EXPECT_TRUE(a.AreSynonyms(map.at(specimens[0]), map.at(specimens[1])));
  // ...and no accidental synonymy with the pre-existing specimens.
  for (Oid local : a.Extent("Specimen")) {
    bool imported = false;
    for (const auto& [o, f] : map) {
      (void)o;
      if (f == local) imported = true;
    }
    if (!imported) {
      EXPECT_FALSE(a.AreSynonyms(local, map.at(specimens[0])));
    }
  }
}

TEST(ImportTest, DefinesMissingSchema) {
  Database b;
  BuildHerbarium(&b, "kew");
  std::stringstream snapshot;
  ASSERT_TRUE(SaveSnapshot(b, snapshot).ok());

  Database empty_but_used;  // has unrelated schema, not the herbarium one
  ASSERT_TRUE(empty_but_used.DefineClass("Unrelated").ok());
  auto report = ImportSnapshot(&empty_but_used, snapshot);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report.value().classes_defined, 3u);  // Classification, Taxon, Specimen
  EXPECT_EQ(report.value().relationships_defined, 1u);
  EXPECT_EQ(empty_but_used.object_count(), b.object_count());
}

TEST(ImportTest, RejectsConflictingSchema) {
  Database b;
  ASSERT_TRUE(
      b.DefineClass("Taxon", {}, {Attr("name", ValueType::kString)}).ok());
  ASSERT_TRUE(b.CreateObject("Taxon").ok());
  std::stringstream snapshot;
  ASSERT_TRUE(SaveSnapshot(b, snapshot).ok());

  // The target's Taxon.name has a different type.
  Database a;
  ASSERT_TRUE(
      a.DefineClass("Taxon", {}, {Attr("name", ValueType::kInt)}).ok());
  EXPECT_EQ(ImportSnapshot(&a, snapshot).status().code(),
            Status::Code::kInvalidArgument);

  // A relationship relating different classes also conflicts.
  Database c;
  ASSERT_TRUE(c.DefineClass("Taxon", {},
                            {Attr("name", ValueType::kString)})
                  .ok());
  ASSERT_TRUE(c.DefineClass("Other").ok());
  ASSERT_TRUE(c.DefineRelationship("classified_in", "Other", "Taxon").ok());
  Database d;
  BuildHerbarium(&d, "x");
  std::stringstream snap2;
  ASSERT_TRUE(SaveSnapshot(d, snap2).ok());
  EXPECT_EQ(ImportSnapshot(&c, snap2).status().code(),
            Status::Code::kInvalidArgument);
}

TEST(ImportTest, CrossSourceSynonymDetectionAfterMerge) {
  // The chapter-1 scenario: two institutions classified overlapping
  // material; after merging and declaring the duplicate specimens
  // synonymous, specimen-based comparison finds the synonymy.
  Database a;
  BuildHerbarium(&a, "edinburgh");
  Database b;
  BuildHerbarium(&b, "kew");
  std::stringstream snapshot;
  ASSERT_TRUE(SaveSnapshot(b, snapshot).ok());
  auto report = ImportSnapshot(&a, snapshot);
  ASSERT_TRUE(report.ok());

  // Curators recognise the first sheets of both herbaria as duplicates of
  // the same gathering.
  Oid local_s1 = kNullOid;
  for (Oid s : a.Extent("Specimen")) {
    auto sheet = a.GetAttribute(s, "sheet");
    if (sheet.ok() && sheet.value().Equals(Value::String("edinburgh-1"))) {
      local_s1 = s;
    }
  }
  Oid imported_s1 = report.value().oid_map.at(b.Extent("Specimen")[0]);
  ASSERT_TRUE(a.DeclareSynonym(local_s1, imported_s1).ok());

  ClassificationManager mgr(&a);
  std::vector<Oid> classifications = mgr.All();
  ASSERT_EQ(classifications.size(), 2u);
  auto alignment = mgr.Align(classifications[0], classifications[1]);
  bool overlap_found = false;
  for (const auto& entry : alignment) {
    if (entry.kind != SynonymyKind::kNone) overlap_found = true;
  }
  EXPECT_TRUE(overlap_found);
}

}  // namespace
}  // namespace prometheus::storage
