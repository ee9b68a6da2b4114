#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <locale>
#include <sstream>

#include "classification/classification.h"
#include "storage/journal.h"
#include "storage/recovery.h"
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

  const MethodDef* m = loaded.FindMethod(loaded.FindClass("Taxon"), "full_name");
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

// -------------------------------------------------- codec robustness fixes

/// Groups digits in threes and writes a decimal comma, as many national
/// locales do: an ostream imbued with it prints 1000 as "1,000".
struct CommaPunct : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return ','; }
  std::string do_grouping() const override { return "\3"; }
};

/// Installs a global C++ locale for the scope of one test.
class ScopedGlobalLocale {
 public:
  explicit ScopedGlobalLocale(const std::locale& locale)
      : previous_(std::locale::global(locale)) {}
  ~ScopedGlobalLocale() { std::locale::global(previous_); }

 private:
  std::locale previous_;
};

/// Enough objects for four-digit oids, and doubles with four-digit
/// integer parts.
void BuildNumeric(Database* db) {
  ASSERT_TRUE(db->DefineClass("Taxon", {},
                              {Attr("year", ValueType::kInt),
                               Attr("score", ValueType::kDouble)})
                  .ok());
  ASSERT_TRUE(db->DefineRelationship("linked", "Taxon", "Taxon").ok());
  for (int i = 0; i < 1100; ++i) {
    ASSERT_TRUE(db->CreateObject("Taxon", {{"year", Value::Int(1000 + i)},
                                           {"score", Value::Double(1234.5)}})
                    .ok());
  }
  ASSERT_TRUE(db->CreateLink("linked", 1000, 1099).ok());
}

TEST(CodecLocaleTest, SnapshotAndJournalIgnoreTheGlobalLocale) {
  Database db;
  BuildNumeric(&db);
  std::ostringstream classic;
  ASSERT_TRUE(SaveSnapshot(db, classic).ok());

  ScopedGlobalLocale comma(std::locale(std::locale::classic(), new CommaPunct));
  std::ostringstream probe;
  probe << 1000 << ' ' << 1234.5;
  ASSERT_EQ(probe.str(), "1,000 1,234,5");  // the locale really is active

  std::stringstream localized;
  ASSERT_TRUE(SaveSnapshot(db, localized).ok());
  EXPECT_EQ(localized.str(), classic.str());
  Database loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, localized).ok());
  EXPECT_EQ(loaded.object_count(), db.object_count());
  EXPECT_EQ(loaded.GetAttribute(1050, "score").value().AsDouble(), 1234.5);

  const std::string path = ::testing::TempDir() + "/prometheus_locale.log";
  {
    auto journal = Journal::Open(&db, path, Journal::OpenMode::kTruncate);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    ASSERT_TRUE(db.SetAttribute(1050, "score", Value::Double(9876.25)).ok());
    ASSERT_TRUE(db.CreateObject("Taxon", {{"year", Value::Int(123456)}}).ok());
  }
  Database replayed;
  Journal::ReplayReport report;
  ASSERT_TRUE(Journal::Replay(&replayed, path, &report).ok());
  EXPECT_TRUE(report.clean_end);
  std::ostringstream want, got;
  ASSERT_TRUE(SaveSnapshot(db, want).ok());
  ASSERT_TRUE(SaveSnapshot(replayed, got).ok());
  EXPECT_EQ(got.str(), want.str());
}

/// Strings that look like record syntax: newlines, an embedded END line,
/// colons, length prefixes and spaces.
const std::vector<std::string>& TrickyStrings() {
  static const std::vector<std::string> strings = {
      "line one\nline two", "\nEND\n", "END", "\n", "a:b", "3:abc",
      " lead and trail ",   "",        "OBJ 1 5:Taxon 0\nEND\n"};
  return strings;
}

Status NoteSchema(Database* db) {
  PROMETHEUS_RETURN_IF_ERROR(
      db->DefineClass("Note", {}, {Attr("text", ValueType::kString)})
          .status());
  return db->DefineRelationship("about", "Note", "Note", {},
                                {Attr("why", ValueType::kString)})
      .status();
}

/// Adds one note per tricky string, each linked to the first note with the
/// same string as the link's attribute.
void AddTrickyNotes(Database* db) {
  std::vector<Oid> notes;
  for (const std::string& text : TrickyStrings()) {
    notes.push_back(
        db->CreateObject("Note", {{"text", Value::String(text)}}).value());
  }
  for (std::size_t i = 0; i < notes.size(); ++i) {
    ASSERT_TRUE(db->CreateLink("about", notes[i], notes[0], kNullOid,
                               {{"why", Value::String(TrickyStrings()[i])}})
                    .ok());
  }
}

/// Every tricky string, in oid order of the notes and links carrying it.
std::vector<std::string> NoteTexts(const Database& db) {
  std::vector<std::string> texts;
  std::vector<Oid> notes = db.Extent("Note", false);
  std::sort(notes.begin(), notes.end());
  for (Oid oid : notes) {
    texts.push_back(db.GetAttribute(oid, "text").value().AsString());
  }
  std::vector<Oid> links = db.LinkExtent("about", false);
  std::sort(links.begin(), links.end());
  for (Oid oid : links) {
    texts.push_back(db.GetLinkAttribute(oid, "why").value().AsString());
  }
  return texts;
}

TEST(SnapshotTest, StringsWithRecordSyntaxSurviveSnapshotJournalAndCheckpoint) {
  Database db;
  ASSERT_TRUE(NoteSchema(&db).ok());
  AddTrickyNotes(&db);
  const std::vector<std::string> expected = NoteTexts(db);
  ASSERT_EQ(expected.size(), 2 * TrickyStrings().size());

  // Snapshot round trip.
  std::ostringstream out;
  ASSERT_TRUE(SaveSnapshot(db, out).ok());
  const std::string image = out.str();
  {
    std::istringstream in(image);
    Database loaded;
    ASSERT_TRUE(LoadSnapshot(&loaded, in).ok());
    EXPECT_EQ(NoteTexts(loaded), expected);
  }
  // A prefix cut at any newline — including the embedded END lines — is
  // rejected before anything is applied.
  for (std::size_t pos = image.find('\n'); pos + 1 < image.size();
       pos = image.find('\n', pos + 1)) {
    std::istringstream in(image.substr(0, pos + 1));
    Database target;
    EXPECT_EQ(LoadSnapshot(&target, in).code(), Status::Code::kIoError)
        << "cut after byte " << pos;
    EXPECT_TRUE(target.classes().empty());
  }

  // Journal replay.
  const std::string path = ::testing::TempDir() + "/prometheus_tricky.log";
  {
    Database live;
    ASSERT_TRUE(NoteSchema(&live).ok());
    auto journal = Journal::Open(&live, path, Journal::OpenMode::kTruncate);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    AddTrickyNotes(&live);
  }
  Database replayed;
  ASSERT_TRUE(Journal::Replay(&replayed, path).ok());
  EXPECT_EQ(NoteTexts(replayed), expected);

  // A checkpoint of the notes, then a reopen that loads it.
  const std::string dir = ::testing::TempDir() + "/prometheus_tricky_store";
  std::filesystem::remove_all(dir);
  DurableStore::Options options;
  options.bootstrap = NoteSchema;
  {
    auto store = DurableStore::Open(dir, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    AddTrickyNotes(&store.value()->db());
    ASSERT_TRUE(store.value()->Checkpoint().ok());
  }
  auto reopened = DurableStore::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->recovery_info().snapshot_file,
            SnapshotFileName(reopened.value()->generation()));
  EXPECT_EQ(NoteTexts(reopened.value()->db()), expected);
}

// ------------------------------------------------------------ golden format

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string GoldenPath(const char* name) {
  return std::string(PROMETHEUS_TEST_DATA_DIR) + "/" + name;
}

/// The database behind the golden fixtures: every Value kind and its edge
/// values, strings that look like record syntax, link attributes, a
/// classification context, synonyms, an abstract class, methods and a
/// relationship template.
void BuildGolden(Database* db) {
  ASSERT_TRUE(db->DefineClass("Named", {}, {Attr("name", ValueType::kString)},
                              /*is_abstract=*/true)
                  .ok());
  ASSERT_TRUE(db->DefineClass("Taxon", {"Named"},
                              {Attr("rank", ValueType::kInt, Value::Int(7)),
                               Attr("score", ValueType::kDouble),
                               Attr("flag", ValueType::kBool),
                               Attr("ref", ValueType::kRef),
                               Attr("tags", ValueType::kList),
                               Attr("any", ValueType::kNull)})
                  .ok());
  ASSERT_TRUE(db->DefineClass("Genus", {"Taxon"},
                              {Attr("note", ValueType::kString,
                                    Value::String("no\nnote"))})
                  .ok());
  MethodDef method;
  method.name = "full_name";
  method.return_type = "string";
  method.parameters = {{"bool", "with author"}, {"int", "depth"}};
  ASSERT_TRUE(db->DefineMethod("Taxon", method).ok());
  RelationshipSemantics tsem;
  tsem.kind = RelationshipKind::kAggregation;
  tsem.exclusive = true;
  tsem.exclusivity_group = "placement group";
  tsem.max_in = 1;
  ASSERT_TRUE(db->DefineRelationshipTemplate(
                    "tpl", tsem, {Attr("why", ValueType::kString)})
                  .ok());
  RelationshipSemantics circ;
  circ.kind = RelationshipKind::kAggregation;
  circ.lifetime_dependent = true;
  circ.max_out = 4000000000u;
  circ.min_in = 0;
  ASSERT_TRUE(db->DefineRelationship("circumscribes", "Taxon", "Taxon", circ,
                                     {Attr("motivation", ValueType::kString),
                                      Attr("weight", ValueType::kDouble,
                                           Value::Double(0.5))})
                  .ok());
  ASSERT_TRUE(db->DefineRelationship("placed_in", "Genus", "Genus", circ, {},
                                     {"circumscribes"})
                  .ok());

  const Oid g1 =
      db->CreateObject(
            "Genus",
            {{"name", Value::String("Apium")},
             {"rank", Value::Int(std::numeric_limits<std::int64_t>::max())},
             {"score", Value::Double(0.1)},
             {"flag", Value::Bool(true)},
             {"tags", Value::MakeList({Value::String("holotype"),
                                       Value::Int(-1),
                                       Value::MakeList({Value::Null()})})},
             {"any", Value::MakeStruct({{"label", Value::String("a b:c")},
                                        {"n", Value::Double(-2.5)}})}})
          .value();
  const Oid g2 =
      db->CreateObject(
            "Genus",
            {{"name", Value::String("")},
             {"rank", Value::Int(std::numeric_limits<std::int64_t>::min())},
             {"score", Value::Double(-0.0)},
             {"flag", Value::Bool(false)},
             {"ref", Value::Ref(g1)},
             {"note", Value::String("")}})
          .value();
  const Oid t1 =
      db->CreateObject("Taxon", {{"name", Value::String("line one\nline two")},
                                 {"score", Value::Double(1e-300)},
                                 {"any", Value::Int(1000000)}})
          .value();
  const Oid t2 = db->CreateObject("Taxon",
                                  {{"name", Value::String("\nEND\n")},
                                   {"score", Value::Double(1e300)},
                                   {"any", Value::String("5:x 3:y\n")}})
                     .value();
  const Oid t3 = db->CreateObject("Taxon").value();
  ClassificationManager mgr(db);
  const Oid ctx = mgr.Create("C1", "Linnaeus", 1753, "Sp. Pl.").value();
  ASSERT_TRUE(mgr.AddEdge(ctx, "circumscribes", g1, t1, "typical\nleaf").ok());
  ASSERT_TRUE(db->CreateLink("circumscribes", g2, t2, kNullOid,
                             {{"weight", Value::Double(1234.5)}})
                  .ok());
  ASSERT_TRUE(db->CreateLink("placed_in", g2, g1).ok());
  ASSERT_TRUE(db->DeclareSynonym(t2, t3).ok());
}

/// The one committed transaction of the golden journal: every mutation
/// record kind.
void GoldenCommit(Database* db) {
  const Oid g1 = db->Extent("Genus", false).front();
  const Oid t3 = db->Extent("Taxon", false).back();
  ASSERT_TRUE(db->Begin().ok());
  const Oid n = db->CreateObject("Taxon", {{"name", Value::String("new\n")},
                                           {"score", Value::Double(3.25)}})
                    .value();
  ASSERT_TRUE(db->SetAttribute(n, "tags",
                               Value::MakeList({Value::String("x y")}))
                  .ok());
  const Oid lid = db->CreateLink("circumscribes", g1, n, kNullOid,
                                 {{"motivation", Value::String("m: 1")}})
                      .value();
  ASSERT_TRUE(
      db->SetLinkAttribute(lid, "weight", Value::Double(-1e-7)).ok());
  ASSERT_TRUE(db->DeclareSynonym(n, t3).ok());
  ASSERT_TRUE(db->DeleteLink(lid).ok());
  const Oid doomed = db->CreateObject("Taxon").value();
  ASSERT_TRUE(db->DeleteObject(doomed).ok());
  ASSERT_TRUE(db->Commit().ok());
}

// The fixtures under tests/data/ were written by the ostream-based encoder
// this codec replaced; the writer must keep producing exactly those bytes.
TEST(GoldenFormatTest, SnapshotWriterIsByteIdentical) {
  const std::string golden = ReadFile(GoldenPath("golden.pdb"));
  ASSERT_GT(golden.size(), 1000u);
  Database db;
  BuildGolden(&db);
  std::ostringstream out;
  ASSERT_TRUE(SaveSnapshot(db, out).ok());
  EXPECT_EQ(out.str(), golden);
  const std::string path = ::testing::TempDir() + "/prometheus_golden.pdb";
  ASSERT_TRUE(SaveSnapshot(db, path).ok());
  EXPECT_EQ(ReadFile(path), golden);
}

TEST(GoldenFormatTest, FixtureLoadsAndResavesIdentically) {
  Database loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, GoldenPath("golden.pdb")).ok());
  EXPECT_EQ(loaded.object_count(), 6u);
  EXPECT_EQ(loaded.link_count(), 3u);
  EXPECT_TRUE(loaded.GetAttribute(4, "name").value().Equals(
      Value::String("\nEND\n")));
  EXPECT_TRUE(loaded.GetAttribute(2, "rank").value().Equals(
      Value::Int(std::numeric_limits<std::int64_t>::min())));
  const Value score = loaded.GetAttribute(2, "score").value();
  EXPECT_TRUE(std::signbit(score.AsDouble()));
  EXPECT_EQ(loaded.GetAttribute(3, "score").value().AsDouble(), 1e-300);
  EXPECT_TRUE(loaded.AreSynonyms(4, 5));
  std::ostringstream resaved;
  ASSERT_TRUE(SaveSnapshot(loaded, resaved).ok());
  EXPECT_EQ(resaved.str(), ReadFile(GoldenPath("golden.pdb")));
}

TEST(GoldenFormatTest, JournalWriterIsByteIdenticalAndReplays) {
  const std::string golden = ReadFile(GoldenPath("golden.journal"));
  ASSERT_GT(golden.size(), 1000u);
  const std::string path = ::testing::TempDir() + "/prometheus_golden.log";
  Database db;
  BuildGolden(&db);
  {
    auto journal = Journal::Open(&db, path, Journal::OpenMode::kTruncate);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    GoldenCommit(&db);
    ASSERT_TRUE(journal.value()->Close().ok());
  }
  EXPECT_EQ(ReadFile(path), golden);

  Database replayed;
  Journal::ReplayReport report;
  ASSERT_TRUE(
      Journal::Replay(&replayed, GoldenPath("golden.journal"), &report).ok());
  EXPECT_TRUE(report.clean_end);
  EXPECT_FALSE(report.torn_tail);
  std::ostringstream want, got;
  ASSERT_TRUE(SaveSnapshot(db, want).ok());
  ASSERT_TRUE(SaveSnapshot(replayed, got).ok());
  EXPECT_EQ(got.str(), want.str());
}

}  // namespace
}  // namespace prometheus::storage
