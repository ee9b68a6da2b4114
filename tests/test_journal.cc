#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "storage/fault.h"

#include "storage/journal.h"
#include "storage/snapshot.h"

namespace prometheus::storage {
namespace {

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  return a;
}

class JournalFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    path = ::testing::TempDir() + "/prometheus_journal_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".log";
    std::remove(path.c_str());  // kCreate refuses to clobber leftovers
    ASSERT_TRUE(db.DefineClass("Taxon", {},
                               {Attr("name", ValueType::kString),
                                Attr("year", ValueType::kInt)})
                    .ok());
    RelationshipSemantics sem;
    sem.lifetime_dependent = true;
    ASSERT_TRUE(db.DefineRelationship("owns", "Taxon", "Taxon", sem,
                                      {Attr("note", ValueType::kString)})
                    .ok());
    RelationshipSemantics constant;
    constant.constant = true;
    ASSERT_TRUE(
        db.DefineRelationship("published", "Taxon", "Taxon", constant).ok());
  }

  /// Replays the journal and verifies the replica matches `db` in counts
  /// and in every attribute of every live object.
  void ExpectReplicaMatches() {
    Database replica;
    ASSERT_TRUE(Journal::Replay(&replica, path).ok());
    EXPECT_EQ(replica.object_count(), db.object_count());
    EXPECT_EQ(replica.link_count(), db.link_count());
    for (Oid oid : db.Extent("Taxon")) {
      const Object* original = db.GetObject(oid);
      const Object* copy = replica.GetObject(oid);
      ASSERT_NE(copy, nullptr) << "missing object @" << oid;
      ForEachAttribute(*original, [&](const std::string& name,
                                      const Value& value) {
        ASSERT_NE(copy->Attr(name), nullptr) << "@" << oid << "." << name;
        EXPECT_TRUE(copy->Attr(name)->Equals(value))
            << "@" << oid << "." << name;
      });
      EXPECT_EQ(copy->out_links.size(), original->out_links.size());
    }
  }

  Database db;
  std::string path;
};

TEST_F(JournalFixture, RecordsBasicMutations) {
  auto journal = Journal::Open(&db, path);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  Oid a = db.CreateObject("Taxon", {{"name", Value::String("A")}}).value();
  Oid b = db.CreateObject("Taxon", {{"name", Value::String("B")}}).value();
  ASSERT_TRUE(db.SetAttribute(a, "year", Value::Int(1753)).ok());
  Oid l = db.CreateLink("owns", a, b, kNullOid,
                        {{"note", Value::String("x")}})
              .value();
  ASSERT_TRUE(db.SetLinkAttribute(l, "note", Value::String("y")).ok());
  EXPECT_GE(journal.value()->record_count(), 5u);
  journal.value().reset();  // close
  ExpectReplicaMatches();
}

TEST_F(JournalFixture, ReplaysDeletionsAndCascades) {
  auto journal = Journal::Open(&db, path);
  ASSERT_TRUE(journal.ok());
  Oid a = db.CreateObject("Taxon").value();
  Oid b = db.CreateObject("Taxon").value();
  Oid c = db.CreateObject("Taxon").value();
  ASSERT_TRUE(db.CreateLink("owns", a, b).ok());
  ASSERT_TRUE(db.CreateLink("published", a, c).ok());  // constant link
  // Deleting a cascades b (lifetime dependency) and removes the constant
  // link through participant death.
  ASSERT_TRUE(db.DeleteObject(a).ok());
  EXPECT_EQ(db.object_count(), 1u);
  journal.value().reset();
  ExpectReplicaMatches();
}

TEST_F(JournalFixture, CommittedTransactionsAreFlushed) {
  auto journal = Journal::Open(&db, path);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(db.Begin().ok());
  Oid a = db.CreateObject("Taxon", {{"name", Value::String("kept")}}).value();
  EXPECT_EQ(journal.value()->record_count(), 0u);  // still buffered
  ASSERT_TRUE(db.Commit().ok());
  EXPECT_EQ(journal.value()->record_count(), 1u);
  journal.value().reset();
  ExpectReplicaMatches();
  (void)a;
}

TEST_F(JournalFixture, AbortedTransactionsLeaveNoTrace) {
  auto journal = Journal::Open(&db, path);
  ASSERT_TRUE(journal.ok());
  Oid keep =
      db.CreateObject("Taxon", {{"name", Value::String("keep")}}).value();
  ASSERT_TRUE(db.Begin().ok());
  ASSERT_TRUE(db.CreateObject("Taxon").ok());
  ASSERT_TRUE(db.SetAttribute(keep, "year", Value::Int(1)).ok());
  ASSERT_TRUE(db.Abort().ok());
  EXPECT_EQ(journal.value()->record_count(), 1u);  // only `keep`'s creation
  journal.value().reset();
  ExpectReplicaMatches();
}

TEST_F(JournalFixture, MicroUndoIsCompensatedInTheLog) {
  auto journal = Journal::Open(&db, path);
  ASSERT_TRUE(journal.ok());
  Oid a =
      db.CreateObject("Taxon", {{"year", Value::Int(1753)}}).value();
  // An invariant-style veto outside a transaction: the operation is logged
  // and then compensated; replay nets out to the original value.
  db.bus().Subscribe([](const Event& e) {
    if (e.kind == EventKind::kAfterSetAttribute && e.attribute == "year" &&
        !e.compensating && e.new_value.type() == ValueType::kInt &&
        e.new_value.AsInt() < 0) {
      return Status::ConstraintViolation("no negative years");
    }
    return Status::Ok();
  });
  EXPECT_FALSE(db.SetAttribute(a, "year", Value::Int(-1)).ok());
  EXPECT_TRUE(db.GetAttribute(a, "year").value().Equals(Value::Int(1753)));
  journal.value().reset();
  ExpectReplicaMatches();
}

TEST_F(JournalFixture, SynonymsSurvive) {
  auto journal = Journal::Open(&db, path);
  ASSERT_TRUE(journal.ok());
  Oid a = db.CreateObject("Taxon").value();
  Oid b = db.CreateObject("Taxon").value();
  ASSERT_TRUE(db.DeclareSynonym(a, b).ok());
  journal.value().reset();
  Database replica;
  ASSERT_TRUE(Journal::Replay(&replica, path).ok());
  EXPECT_TRUE(replica.AreSynonyms(a, b));
}

TEST_F(JournalFixture, TruncatedJournalRecoversPrefix) {
  auto journal = Journal::Open(&db, path);
  ASSERT_TRUE(journal.ok());
  Oid a = db.CreateObject("Taxon", {{"name", Value::String("A")}}).value();
  ASSERT_TRUE(journal.value()->Flush().ok());
  // Simulate a crash: no END record, journal object leaked (not closed).
  // Read the current file contents as-is.
  {
    Database replica;
    ASSERT_TRUE(Journal::Replay(&replica, path).ok());
    EXPECT_EQ(replica.object_count(), 1u);
    EXPECT_NE(replica.GetObject(a), nullptr);
  }
  journal.value().reset();
}

TEST_F(JournalFixture, OpenRefusesToClobberExistingJournal) {
  {
    auto journal = Journal::Open(&db, path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(db.CreateObject("Taxon").ok());
  }
  // The default mode never silently discards a journal holding records.
  auto again = Journal::Open(&db, path);
  EXPECT_EQ(again.status().code(), Status::Code::kFailedPrecondition);
  auto truncated = Journal::Open(&db, path, Journal::OpenMode::kTruncate);
  EXPECT_TRUE(truncated.ok()) << truncated.status().ToString();
}

TEST_F(JournalFixture, WriteFailureVetoesTheMutation) {
  FaultInjectionEnv fenv;
  auto journal = Journal::Open(&db, path, Journal::OpenMode::kTruncate, &fenv);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  Oid a =
      db.CreateObject("Taxon", {{"name", Value::String("durable")}}).value();

  FaultPolicy policy;
  policy.fail_after_appends = 1;
  policy.torn_writes = false;
  fenv.SetPolicy(policy);

  // The record for this creation cannot reach the disk: the journal vetoes
  // the after-event and the database rolls the object back.
  EXPECT_FALSE(db.CreateObject("Taxon").ok());
  EXPECT_EQ(db.object_count(), 1u);

  // The failure is sticky: it surfaces from Flush()/status() and keeps
  // vetoing mutations instead of letting state diverge from the log.
  EXPECT_FALSE(journal.value()->Flush().ok());
  EXPECT_FALSE(journal.value()->status().ok());
  EXPECT_FALSE(db.SetAttribute(a, "year", Value::Int(1)).ok());
  journal.value().reset();

  Database replica;
  ASSERT_TRUE(Journal::Replay(&replica, path).ok());
  EXPECT_EQ(replica.object_count(), 1u);  // exactly the durable prefix
}

TEST_F(JournalFixture, TornTailIsReportedAndDropped) {
  auto journal = Journal::Open(&db, path, Journal::OpenMode::kTruncate);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(db.CreateObject("Taxon").ok());
  ASSERT_TRUE(db.CreateObject("Taxon").ok());
  ASSERT_TRUE(journal.value()->Flush().ok());

  // Copy the live file with its final record torn mid-frame.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  std::string torn = path + ".torn";
  std::ofstream(torn, std::ios::binary)
      << bytes.substr(0, bytes.size() - 5);

  Database replica;
  Journal::ReplayReport report;
  ASSERT_TRUE(Journal::Replay(&replica, torn, &report).ok());
  EXPECT_EQ(replica.object_count(), 1u);  // valid prefix only
  EXPECT_EQ(report.applied_records, 1u);
  EXPECT_TRUE(report.torn_tail);
  EXPECT_GT(report.dropped_bytes, 0u);
  EXPECT_FALSE(report.clean_end);
  EXPECT_TRUE(report.resumable);
  EXPECT_GT(report.append_offset, 0u);
  journal.value().reset();
}

TEST_F(JournalFixture, TornCommitFlushDropsTheWholeTransaction) {
  FaultInjectionEnv fenv;
  auto journal = Journal::Open(&db, path, Journal::OpenMode::kTruncate, &fenv);
  ASSERT_TRUE(journal.ok());
  Oid keep = db.CreateObject("Taxon").value();

  ASSERT_TRUE(db.Begin().ok());
  ASSERT_TRUE(db.CreateObject("Taxon").ok());
  ASSERT_TRUE(db.CreateObject("Taxon").ok());

  FaultPolicy policy;
  policy.fail_after_appends = 2;  // dies inside the TXB...TXC commit flush
  fenv.SetPolicy(policy);
  ASSERT_TRUE(db.Commit().ok());  // in-memory commit; the journal crashed
  EXPECT_FALSE(journal.value()->status().ok());
  journal.value().reset();

  Database replica;
  Journal::ReplayReport report;
  ASSERT_TRUE(Journal::Replay(&replica, path, &report).ok());
  // The half-flushed transaction vanishes atomically on replay.
  EXPECT_EQ(replica.object_count(), 1u);
  EXPECT_NE(replica.GetObject(keep), nullptr);
  EXPECT_TRUE(report.torn_tail);
}

TEST_F(JournalFixture, ReplaysLegacyV1Journals) {
  std::ofstream out(path, std::ios::trunc);
  out << "PROMETHEUS-JOURNAL-1\n";
  for (const std::string& record : SchemaRecords(db)) out << record << "\n";
  out << "END\n";
  out.close();
  Database replica;
  Journal::ReplayReport report;
  ASSERT_TRUE(Journal::Replay(&replica, path, &report).ok());
  EXPECT_TRUE(report.clean_end);
  EXPECT_EQ(replica.classes().size(), db.classes().size());
}

TEST_F(JournalFixture, ReplayRejectsBadInput) {
  Database replica;
  EXPECT_EQ(Journal::Replay(&replica, "/no/such/file.log").code(),
            Status::Code::kIoError);
  std::string bogus = ::testing::TempDir() + "/bogus_journal.log";
  std::ofstream(bogus) << "NOT-A-JOURNAL\n";
  EXPECT_EQ(Journal::Replay(&replica, bogus).code(), Status::Code::kIoError);
  // Replay needs an empty database.
  ASSERT_TRUE(replica.DefineClass("X").ok());
  auto journal = Journal::Open(&db, path);
  ASSERT_TRUE(journal.ok());
  journal.value().reset();
  EXPECT_EQ(Journal::Replay(&replica, path).code(),
            Status::Code::kFailedPrecondition);
}

}  // namespace
}  // namespace prometheus::storage
