// Whole-stack integration: one revision scenario driven through the
// taxonomy API with every layer attached at once — ICBN rules, an
// attribute index, a materialised view, and a journal — verifying that
// they stay mutually consistent through transactions, aborts and replay.

#include <gtest/gtest.h>

#include "index/index_manager.h"
#include "storage/journal.h"
#include "taxonomy/taxonomy_db.h"
#include "views/view_manager.h"

namespace prometheus {
namespace {

using taxonomy::Rank;
using taxonomy::TaxonomyDatabase;
using taxonomy::TypeKind;

class FullStackFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(tdb.InstallIcbnRules().ok());
    indexes = std::make_unique<IndexManager>(&tdb.db());
    ASSERT_TRUE(
        indexes->CreateIndex(taxonomy::kNameClass, "name_element").ok());
    views = std::make_unique<ViewManager>(&tdb.db());
    ViewDef def;
    def.name = "genera_names";
    def.class_name = taxonomy::kNameClass;
    def.predicate = "self.rank = 'Genus'";
    ASSERT_TRUE(views->DefineMaterialized(def).ok());
    journal_path = ::testing::TempDir() + "/integration_journal.log";
    auto opened = storage::Journal::Open(&tdb.db(), journal_path,
                                         storage::Journal::OpenMode::kTruncate);
    ASSERT_TRUE(opened.ok());
    journal = std::move(opened).value();
  }

  TaxonomyDatabase tdb;
  std::unique_ptr<IndexManager> indexes;
  std::unique_ptr<ViewManager> views;
  std::unique_ptr<storage::Journal> journal;
  std::string journal_path;
};

TEST_F(FullStackFixture, RevisionScenarioKeepsEveryLayerConsistent) {
  // --- Published nomenclature (journalled, indexed, viewed, checked). ---
  Oid apium =
      tdb.PublishName("Apium", Rank::kGenus, "L.", 1753).value();
  Oid graveolens =
      tdb.PublishName("graveolens", Rank::kSpecies, "L.", 1753).value();
  ASSERT_TRUE(tdb.RecordPlacement(graveolens, apium).ok());
  Oid type_specimen =
      tdb.AddSpecimen("Linnaeus", "BM", "Herb.Cliff.107").value();
  ASSERT_TRUE(
      tdb.Typify(graveolens, type_specimen, TypeKind::kLectotype).ok());
  ASSERT_TRUE(tdb.Typify(apium, graveolens, TypeKind::kHolotype).ok());

  // ICBN rules are live: a lowercase genus is vetoed everywhere at once.
  EXPECT_FALSE(tdb.PublishName("broken", Rank::kGenus, "X.", 1800).ok());
  // The veto left no trace in index or view.
  EXPECT_TRUE(tdb.db()
                  .Lookup(taxonomy::kNameClass, "name_element",
                           Value::String("broken"))
                  .value()
                  .empty());
  EXPECT_EQ(views->Evaluate("genera_names").value(),
            std::vector<Oid>{apium});

  // --- A speculative revision that is abandoned. It classifies a fresh,
  // never-typified specimen, so derivation must publish a brand-new genus
  // name ("Draftia").
  ASSERT_TRUE(tdb.db().Begin().ok());
  Oid fresh_specimen = tdb.AddSpecimen("Me", "E", "draft-1").value();
  Oid draft = tdb.NewClassification("draft", "me", 2001).value();
  Oid g = tdb.NewTaxon(draft, Rank::kGenus, "Draftia").value();
  ASSERT_TRUE(tdb.Circumscribe(draft, g, fresh_specimen).ok());
  ASSERT_TRUE(tdb.DeriveAllNames(draft, "me", 2001).ok());
  // The speculative genus name is visible mid-transaction...
  EXPECT_EQ(views->Evaluate("genera_names").value().size(), 2u);
  ASSERT_TRUE(tdb.db().Abort().ok());
  // ...and fully retracted afterwards, in the view AND the index.
  EXPECT_EQ(views->Evaluate("genera_names").value(),
            std::vector<Oid>{apium});
  EXPECT_TRUE(tdb.db()
                  .Lookup(taxonomy::kNameClass, "name_element",
                           Value::String("Draftia"))
                  .value()
                  .empty());

  // --- The committed revision. ---
  ASSERT_TRUE(tdb.db().Begin().ok());
  Oid revision = tdb.NewClassification("revision", "me", 2002).value();
  Oid genus_taxon = tdb.NewTaxon(revision, Rank::kGenus, "Taxon A").value();
  Oid species_taxon =
      tdb.NewTaxon(revision, Rank::kSpecies, "Taxon B").value();
  ASSERT_TRUE(tdb.PlaceTaxon(revision, genus_taxon, species_taxon,
                             "umbel form")
                  .ok());
  ASSERT_TRUE(tdb.Circumscribe(revision, species_taxon, type_specimen).ok());
  ASSERT_TRUE(tdb.DeriveAllNames(revision, "me", 2002).ok());
  ASSERT_TRUE(tdb.db().Commit().ok());

  // Derivation reused the published names via the type hierarchy.
  EXPECT_EQ(tdb.CalculatedNameOf(genus_taxon), apium);
  EXPECT_EQ(tdb.CalculatedNameOf(species_taxon), graveolens);

  // POOL sees a consistent picture through the index.
  pool::QueryEngine engine(&tdb.db(), indexes.get());
  auto rs = engine.Execute(
      "select n from NomenclaturalTaxon n where n.name_element = 'Apium'");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().rows.size(), 1u);

  // --- Journal replay reproduces the committed state exactly. ---
  journal.reset();  // close
  Database replica;
  ASSERT_TRUE(storage::Journal::Replay(&replica, journal_path).ok());
  EXPECT_EQ(replica.object_count(), tdb.db().object_count());
  EXPECT_EQ(replica.link_count(), tdb.db().link_count());
  // The abandoned draft left nothing in the journal either.
  for (Oid name : replica.Extent(taxonomy::kNameClass)) {
    auto element = replica.GetAttribute(name, "name_element");
    ASSERT_TRUE(element.ok());
    EXPECT_FALSE(element.value().Equals(Value::String("Draftia")));
  }
}

}  // namespace
}  // namespace prometheus
