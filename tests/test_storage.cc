#include <gtest/gtest.h>

#include <sstream>

#include "classification/classification.h"
#include "storage/snapshot.h"
#include "taxonomy/synthetic.h"

namespace prometheus::storage {
namespace {

AttributeDef Attr(std::string name, ValueType type,
                  Value def = Value::Null()) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  a.default_value = std::move(def);
  return a;
}

TEST(ValueCodecTest, RoundTripsEveryType) {
  std::vector<Value> cases = {
      Value::Null(),
      Value::Bool(true),
      Value::Bool(false),
      Value::Int(-42),
      Value::Double(3.25),
      Value::String(""),
      Value::String("with spaces and \n newline and 5:prefix"),
      Value::Ref(123456789),
      Value::MakeList({Value::Int(1), Value::String("x"),
                       Value::MakeList({Value::Null(), Value::Ref(7)})}),
  };
  for (const Value& v : cases) {
    std::string encoded = EncodeValue(v);
    std::size_t pos = 0;
    auto decoded = DecodeValue(encoded, &pos);
    ASSERT_TRUE(decoded.ok()) << encoded;
    EXPECT_TRUE(decoded.value().Equals(v)) << encoded;
    EXPECT_EQ(pos, encoded.size());
  }
}

TEST(ValueCodecTest, RejectsCorruptInput) {
  std::size_t pos = 0;
  EXPECT_FALSE(DecodeValue("", &pos).ok());
  pos = 0;
  EXPECT_FALSE(DecodeValue("s9999:hi", &pos).ok());
  pos = 0;
  EXPECT_FALSE(DecodeValue("q", &pos).ok());
  pos = 0;
  EXPECT_FALSE(DecodeValue("sZZ:x", &pos).ok());
}

/// Builds a database exercising every persisted feature: inheritance,
/// relationship semantics, link attributes, contexts, synonyms.
void BuildSample(Database* db, ClassificationManager* mgr, Oid* out_ctx) {
  ASSERT_TRUE(db->DefineClass("Taxon", {},
                              {Attr("name", ValueType::kString),
                               Attr("year", ValueType::kInt, Value::Int(0))})
                  .ok());
  ASSERT_TRUE(db->DefineClass("Genus", {"Taxon"}).ok());
  ASSERT_TRUE(db->DefineClass("Specimen", {},
                              {Attr("tags", ValueType::kList)})
                  .ok());
  RelationshipSemantics agg;
  agg.kind = RelationshipKind::kAggregation;
  agg.exclusive = true;
  agg.lifetime_dependent = true;
  agg.max_in = 1;
  ASSERT_TRUE(db->DefineRelationship("circumscribes", "Taxon", "Specimen",
                                     agg,
                                     {Attr("motivation", ValueType::kString)})
                  .ok());
  ASSERT_TRUE(db->DefineRelationship("linked", "Taxon", "Taxon").ok());
  ASSERT_TRUE(db->DefineRelationship("placed_in", "Genus", "Genus", {}, {},
                                     {"linked"})
                  .ok());

  Oid g = db->CreateObject("Genus", {{"name", Value::String("Apium")},
                                     {"year", Value::Int(1753)}})
              .value();
  Oid s1 = db->CreateObject(
                 "Specimen",
                 {{"tags", Value::MakeList({Value::String("holotype")})}})
               .value();
  Oid s2 = db->CreateObject("Specimen").value();
  Oid ctx = mgr->Create("C1", "Linnaeus", 1753, "Sp. Pl.").value();
  ASSERT_TRUE(
      mgr->AddEdge(ctx, "circumscribes", g, s1, "typical leaf").ok());
  ASSERT_TRUE(db->CreateLink("circumscribes", g, s2).ok());
  ASSERT_TRUE(db->DeclareSynonym(s1, s2).ok());
  *out_ctx = ctx;
}

TEST(SnapshotTest, RoundTripPreservesEverything) {
  Database db;
  ClassificationManager mgr(&db);
  Oid ctx = kNullOid;
  BuildSample(&db, &mgr, &ctx);

  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(db, buffer).ok());

  Database loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, buffer).ok());

  // Schema survived.
  ASSERT_NE(loaded.FindClass("Genus"), nullptr);
  EXPECT_TRUE(loaded.FindClass("Genus")->IsSubclassOf(
      loaded.FindClass("Taxon")));
  const RelationshipDef* circ = loaded.FindRelationship("circumscribes");
  ASSERT_NE(circ, nullptr);
  EXPECT_TRUE(circ->semantics().exclusive);
  EXPECT_TRUE(circ->semantics().lifetime_dependent);
  EXPECT_EQ(circ->semantics().max_in, 1u);
  EXPECT_TRUE(loaded.FindRelationship("placed_in")
                  ->IsSubrelationshipOf(loaded.FindRelationship("linked")));

  // Same object/link population, same oids.
  EXPECT_EQ(loaded.object_count(), db.object_count());
  EXPECT_EQ(loaded.link_count(), db.link_count());
  for (Oid oid : db.Extent("Taxon")) {
    ASSERT_NE(loaded.GetObject(oid), nullptr);
    EXPECT_TRUE(loaded.GetAttribute(oid, "name").value().Equals(
        db.GetAttribute(oid, "name").value()));
  }
  // List attribute round-tripped.
  Oid s1 = db.Extent("Specimen")[0];
  EXPECT_TRUE(loaded.GetAttribute(s1, "tags").value().Equals(
      db.GetAttribute(s1, "tags").value()));
  // Contexts and link attributes.
  EXPECT_EQ(loaded.LinksInContext(ctx).size(), 1u);
  Oid lid = loaded.LinksInContext(ctx)[0];
  EXPECT_TRUE(loaded.GetLinkAttribute(lid, "motivation")
                  .value()
                  .Equals(Value::String("typical leaf")));
  // Synonyms.
  std::vector<Oid> specimens = db.Extent("Specimen");
  EXPECT_TRUE(loaded.AreSynonyms(specimens[0], specimens[1]));
  // Oid allocation resumes above the snapshot.
  Oid fresh = loaded.CreateObject("Taxon").value();
  EXPECT_EQ(loaded.GetObject(fresh)->oid, fresh);
  EXPECT_GT(fresh, s1);
}

TEST(SnapshotTest, SemanticsStillEnforcedAfterLoad) {
  Database db;
  ClassificationManager mgr(&db);
  Oid ctx = kNullOid;
  BuildSample(&db, &mgr, &ctx);
  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(db, buffer).ok());
  Database loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, buffer).ok());
  // The exclusive circumscription still rejects a second owner.
  Oid g2 = loaded.CreateObject("Genus").value();
  Oid s1 = loaded.Extent("Specimen")[0];
  EXPECT_EQ(loaded.CreateLink("circumscribes", g2, s1).status().code(),
            Status::Code::kConstraintViolation);
}

TEST(SnapshotTest, FileRoundTrip) {
  Database db;
  ClassificationManager mgr(&db);
  Oid ctx = kNullOid;
  BuildSample(&db, &mgr, &ctx);
  const std::string path = ::testing::TempDir() + "/prometheus_snapshot.pdb";
  ASSERT_TRUE(SaveSnapshot(db, path).ok());
  Database loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, path).ok());
  EXPECT_EQ(loaded.object_count(), db.object_count());
  EXPECT_EQ(loaded.link_count(), db.link_count());
}

TEST(SnapshotTest, LoadRequiresEmptyDatabase) {
  Database db;
  ASSERT_TRUE(db.DefineClass("X").ok());
  std::stringstream buffer;
  buffer << "PROMETHEUS-SNAPSHOT-1\nEND\n";
  EXPECT_EQ(LoadSnapshot(&db, buffer).code(),
            Status::Code::kFailedPrecondition);
}

TEST(SnapshotTest, RejectsCorruptStreams) {
  {
    Database db;
    std::stringstream buffer;
    buffer << "NOT-A-SNAPSHOT\n";
    EXPECT_EQ(LoadSnapshot(&db, buffer).code(), Status::Code::kIoError);
  }
  {
    Database db;
    std::stringstream buffer;
    buffer << "PROMETHEUS-SNAPSHOT-1\nBOGUS record\n";
    EXPECT_EQ(LoadSnapshot(&db, buffer).code(), Status::Code::kIoError);
  }
  {
    // Missing END (truncated file).
    Database db;
    std::stringstream buffer;
    buffer << "PROMETHEUS-SNAPSHOT-1\n";
    EXPECT_EQ(LoadSnapshot(&db, buffer).code(), Status::Code::kIoError);
  }
  {
    Database db;
    EXPECT_EQ(LoadSnapshot(&db, "/nonexistent/path/x.pdb").code(),
              Status::Code::kIoError);
  }
}

TEST(SnapshotTest, MethodsAndTemplatesSurvive) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Taxon").ok());
  MethodDef method;
  method.name = "full_name";
  method.return_type = "string";
  method.parameters = {{"bool", "with_author"}};
  ASSERT_TRUE(db.DefineMethod("Taxon", method).ok());
  RelationshipSemantics sem;
  sem.exclusive = true;
  sem.exclusivity_group = "grp";
  AttributeDef why;
  why.name = "why";
  why.type = ValueType::kString;
  ASSERT_TRUE(db.DefineRelationshipTemplate("tpl", sem, {why}).ok());

  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(db, buffer).ok());
  Database loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, buffer).ok());

  const MethodDef* m = loaded.FindClass("Taxon")->FindMethod("full_name");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->return_type, "string");
  ASSERT_EQ(m->parameters.size(), 1u);
  EXPECT_EQ(m->parameters[0].first, "bool");
  const RelationshipSemantics* tsem = loaded.FindTemplateSemantics("tpl");
  ASSERT_NE(tsem, nullptr);
  EXPECT_TRUE(tsem->exclusive);
  EXPECT_EQ(tsem->exclusivity_group, "grp");
  const std::vector<AttributeDef>* tattrs =
      loaded.FindTemplateAttributes("tpl");
  ASSERT_NE(tattrs, nullptr);
  ASSERT_EQ(tattrs->size(), 1u);
  EXPECT_EQ((*tattrs)[0].name, "why");
}

TEST(SnapshotTest, EmptyDatabaseRoundTrips) {
  Database db;
  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(db, buffer).ok());
  Database loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, buffer).ok());
  EXPECT_EQ(loaded.object_count(), 0u);
  EXPECT_TRUE(loaded.classes().empty());
}

TEST(SnapshotTest, GeneratedFloraResavesByteIdentical) {
  taxonomy::TaxonomyDatabase tdb;
  taxonomy::FloraConfig config;
  config.families = 2;
  config.genera_per_family = 3;
  config.species_per_genus = 4;
  config.specimens_per_species = 3;
  ASSERT_TRUE(taxonomy::GenerateFlora(&tdb, config).ok());

  std::stringstream first;
  ASSERT_TRUE(SaveSnapshot(tdb.db(), first).ok());
  Database loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, first).ok());
  std::stringstream second;
  ASSERT_TRUE(SaveSnapshot(loaded, second).ok());
  EXPECT_GT(first.str().size(), 1000u);
  EXPECT_EQ(first.str(), second.str());
}

/// A hand-made snapshot: the schema records of a two-class database, then
/// the given instance records.
std::string HandMadeSnapshot(const std::vector<std::string>& records) {
  Database schema;
  EXPECT_TRUE(schema.DefineClass("Taxon", {},
                                 {Attr("name", ValueType::kString),
                                  Attr("year", ValueType::kInt,
                                       Value::Int(1753))})
                  .ok());
  EXPECT_TRUE(schema
                  .DefineRelationship("linked", "Taxon", "Taxon", {},
                                      {Attr("why", ValueType::kString,
                                            Value::String("unstated"))})
                  .ok());
  std::string text = "PROMETHEUS-SNAPSHOT-1\n";
  for (const std::string& r : SchemaRecords(schema)) text += r + "\n";
  for (const std::string& r : records) text += r + "\n";
  return text + "END\n";
}

TEST(SnapshotTest, RawRestoreAppliesDefaultsAndChecksTheSchema) {
  // Absent declared attributes get their defaults: the restored object and
  // link equal freshly created ones.
  {
    std::stringstream in(HandMadeSnapshot(
        {"OBJ 5 5:Taxon 1 4:name s5:Abies", "OBJ 6 5:Taxon 0",
         "LINK 7 6:linked 5 6 0 0"}));
    Database db;
    ASSERT_TRUE(LoadSnapshot(&db, in).ok());
    EXPECT_TRUE(db.GetAttribute(5, "name").value().Equals(
        Value::String("Abies")));
    EXPECT_TRUE(db.GetAttribute(5, "year").value().Equals(Value::Int(1753)));
    EXPECT_TRUE(db.GetAttribute(6, "name").value().is_null());
    EXPECT_TRUE(db.GetLinkAttribute(7, "why").value().Equals(
        Value::String("unstated")));
    const Oid created = db.CreateObject("Taxon").value();
    EXPECT_EQ(db.GetObject(created)->attrs.size(),
              db.GetObject(6)->attrs.size());
    for (std::size_t i = 0; i < db.GetObject(6)->attrs.size(); ++i) {
      EXPECT_TRUE(
          db.GetObject(created)->attrs[i].Equals(db.GetObject(6)->attrs[i]));
    }
  }
  // Undeclared names and mistyped values are refused, for objects and
  // links alike.
  for (const char* bad :
       {"OBJ 7 5:Taxon 1 6:colour s3:red", "OBJ 7 5:Taxon 1 4:year s4:1999",
        "LINK 7 6:linked 5 6 0 1 4:what s1:x",
        "LINK 7 6:linked 5 6 0 1 3:why i1:3"}) {
    std::stringstream in(HandMadeSnapshot(
        {"OBJ 5 5:Taxon 0", "OBJ 6 5:Taxon 0", bad}));
    Database db;
    const Status st = LoadSnapshot(&db, in);
    EXPECT_EQ(st.code(), Status::Code::kIoError) << bad;
    EXPECT_EQ(db.GetObject(7), nullptr) << bad;
    EXPECT_EQ(db.GetLink(7), nullptr) << bad;
  }
}

TEST(SnapshotTest, AbsurdOidIsRefusedNotAllocated) {
  // 2^62: a corrupt oid must not size the oid table's page directory.
  const std::string absurd = std::to_string(Oid{1} << 62);
  {
    std::stringstream in(HandMadeSnapshot({"OBJ " + absurd + " 5:Taxon 0"}));
    Database db;
    const Status st = LoadSnapshot(&db, in);
    EXPECT_EQ(st.code(), Status::Code::kIoError);
    EXPECT_NE(st.ToString().find("InvalidArgument"), std::string::npos)
        << st.ToString();
    EXPECT_EQ(db.object_count(), 0u);
  }
  Database db;
  std::stringstream in(HandMadeSnapshot({"OBJ 5 5:Taxon 0"}));
  ASSERT_TRUE(LoadSnapshot(&db, in).ok());
  EXPECT_EQ(db.RestoreObjectRaw(Oid{1} << 62, "Taxon", {}).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(db.RestoreLinkRaw(Oid{1} << 62, "linked", 5, 5, kNullOid, {})
                .code(),
            Status::Code::kInvalidArgument);
  // An oid already in use is refused the same way.
  EXPECT_EQ(db.RestoreObjectRaw(5, "Taxon", {}).code(),
            Status::Code::kInvalidArgument);
  // The directory was never grown: new oids continue right after 5.
  EXPECT_EQ(db.CreateObject("Taxon").value(), 6u);
}

}  // namespace
}  // namespace prometheus::storage
