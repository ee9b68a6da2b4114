// The served taxonomic stack the `browse` and `revise` workloads drive, and
// the revision transactions and POOL query classes they send.
//
// Set-up is the whole path a deployment takes: generate a flora with a
// second (revised) classification, save it as a snapshot, open a
// DurableStore whose bootstrap loads that snapshot (checkpointed so the
// store owns the data), attach indexes and rules, start the server and the
// HTTP front-end, and warm up.
#ifndef PERFBENCH_FLORA_RIG_H_
#define PERFBENCH_FLORA_RIG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "common/oid.h"
#include "common/status.h"
#include "core/database.h"
#include "core/snapshot.h"
#include "index/index_manager.h"
#include "net/http_server.h"
#include "query/query_engine.h"
#include "rules/rule_engine.h"
#include "server/server.h"
#include "storage/recovery.h"

namespace perfbench {

/// Shape of a generated flora.
struct FloraSize {
  int families = 16;
  int genera_per_family = 10;
  int species_per_genus = 25;
  int specimens_per_species = 4;
  int revision_genera = 160;
};

/// Names and oids the query and revision generators draw from, read from
/// the loaded database before serving starts.
struct FloraCatalog {
  prometheus::Oid flora_ctx = prometheus::kNullOid;
  prometheus::Oid revision_ctx = prometheus::kNullOid;
  struct Genus {
    prometheus::Oid oid;
    std::string name;
  };
  std::vector<Genus> genera;           ///< flora-context genera
  std::vector<std::string> revision_genera;
  struct Species {
    prometheus::Oid taxon;
    std::string name;
    std::size_t genus;  ///< index into `genera`
    prometheus::Oid contains_link;
  };
  std::vector<Species> species;        ///< flora-context species taxa
  std::vector<std::string> species_names;  ///< distinct working names
  struct Specimen {
    prometheus::Oid oid;
    std::string field_number;
  };
  std::vector<Specimen> specimens;
  std::int64_t min_year = 0, max_year = 0;  ///< NomenclaturalTaxon.year
  std::size_t objects = 0, links = 0;
};

/// The four query classes of the mix, plus the script invariants.
enum class QClass : int { kLookup, kRange, kDescend, kGroup, kInvariant };
inline constexpr int kQueryClasses = 5;
const char* QClassName(QClass c);

struct QueryText {
  QClass cls = QClass::kLookup;
  std::string text;
  /// True when no revision transaction can change the answer, so it is
  /// compared with the set-up oracle even while writers run.
  bool stable = false;
};

/// Draws one query of class `cls` with parameters uniform over the flora.
/// Every graph operator gets exactly one bound source (an indexed
/// equality), and every multi-row query orders by all selected columns so
/// the rendering is canonical.
QueryText MakeQuery(const FloraCatalog& cat, QClass cls, std::mt19937& rng);

/// The script invariants: answers fixed for the whole run.
std::vector<QueryText> InvariantQueries();

class FloraRig {
 public:
  struct Config {
    FloraSize size;
    unsigned seed = 1;
    std::string dir;  ///< emptied and owned by the rig
    int worker_threads = 4;
    int handler_threads = 4;
    /// Queries sent once over HTTP at the end of set-up, drawn from the
    /// loaded flora's catalog.
    using Warmup =
        std::function<std::vector<std::string>(const FloraCatalog&)>;
    Warmup warmup;
  };

  /// Runs the whole set-up; `*setup_seconds` receives its wall time
  /// without the benchmark's own bookkeeping (catalog read).
  static prometheus::Result<std::unique_ptr<FloraRig>> Build(
      const Config& config, double* setup_seconds);

  /// Stops the front-end and the server, then closes the store.
  ~FloraRig();
  FloraRig(const FloraRig&) = delete;
  FloraRig& operator=(const FloraRig&) = delete;

  /// Stops serving and closes the store, leaving only its directory.
  void Close();

  prometheus::server::Server& server() { return *server_; }
  prometheus::net::HttpFrontEnd& http() { return *http_; }
  prometheus::storage::DurableStore& store() { return *store_; }
  prometheus::Database& db() { return store_->db(); }
  prometheus::IndexManager& indexes() { return *indexes_; }
  const FloraCatalog& catalog() const { return catalog_; }
  const std::string& store_dir() const { return store_dir_; }
  int port() const { return http_->port(); }

  /// Events published on the database bus since the rig was built.
  std::uint64_t events() const { return events_->load(); }

 private:
  FloraRig() = default;

  std::string store_dir_;
  std::unique_ptr<prometheus::storage::DurableStore> store_;
  std::unique_ptr<prometheus::IndexManager> indexes_;
  std::unique_ptr<prometheus::RuleEngine> rules_;
  std::unique_ptr<prometheus::server::Server> server_;
  std::unique_ptr<prometheus::net::HttpFrontEnd> http_;
  std::shared_ptr<std::atomic<std::uint64_t>> events_ =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  prometheus::ListenerId listener_ = 0;
  FloraCatalog catalog_;
};

/// Reads the query catalog out of a loaded flora database.
FloraCatalog ReadCatalog(const prometheus::Database& db);

/// Installs the rule set the served store runs with (placement and date
/// invariants).
prometheus::Status InstallRules(prometheus::RuleEngine* rules);

/// Creates the indexes the served store runs with.
prometheus::Status InstallIndexes(prometheus::IndexManager* indexes);

/// The expected-answer oracle: the embedded engine run against a snapshot
/// pinned before any revision committed. Answers are the JSON rendering of
/// the result rows exactly as `POST /query` returns them. All answers are
/// computed up front and the snapshot released, so the oracle never holds
/// back version reclamation while the load runs.
class Oracle {
 public:
  static prometheus::Result<Oracle> Build(
      prometheus::Database* db, prometheus::IndexManager* indexes,
      const std::vector<std::string>& texts);

  /// The answer to `text`, or nullptr when it was not prepared.
  const std::string* Expected(const std::string& text) const;

 private:
  std::unordered_map<std::string, std::string> answers_;
};

/// Renders result rows the way the HTTP front-end does.
std::string RenderRows(const prometheus::pool::ResultSet& rs);

// ------------------------------------------------------------ revisions

/// One acknowledged revision transaction, as the ledger keeps it.
struct Revision {
  enum Kind { kAccession, kReplacement, kAnnotation } kind = kAccession;
  std::size_t species = 0;   ///< catalog species index
  std::size_t genus = 0;     ///< new genus (re-placement)
  prometheus::Oid object = prometheus::kNullOid;  ///< specimen
  prometheus::Oid link = prometheus::kNullOid;    ///< created link
  prometheus::Oid removed = prometheus::kNullOid; ///< deleted link
  std::string field;         ///< accession field number / annotation value
};

/// Generates the revision script: accession (a new Specimen plus a
/// `circumscribes` link in the flora context), re-placement (delete a
/// species' `contains` link and link it under another genus) and
/// annotation (`SetAttribute` on a specimen's herbarium). Deterministic in
/// the seed; tracks the current placement of every species so the script
/// stays valid when replayed against a fresh copy of the flora.
class RevisionScript {
 public:
  RevisionScript(const FloraCatalog* cat, unsigned seed);

  /// Draws the next transaction. `Apply` runs it against a database inside
  /// Begin/Commit, fills in the oids it created and, when `body_us` is
  /// given, the time the body took; `Acknowledge` records it once the
  /// commit is known to have succeeded.
  Revision Next();
  prometheus::Status Apply(prometheus::Database& db, Revision* rev,
                           double* body_us) const;
  void Acknowledge(const Revision& rev);

  const std::vector<Revision>& ledger() const { return ledger_; }
  std::size_t accessions() const { return accessions_; }

 private:
  const FloraCatalog* cat_;
  std::mt19937 rng_;
  std::vector<std::size_t> genus_of_;          ///< current genus per species
  std::vector<prometheus::Oid> link_of_;       ///< current contains link
  unsigned seed_;
  std::uint64_t serial_ = 0;
  std::size_t accessions_ = 0;
  std::vector<Revision> ledger_;
};

/// Checks that `db` (a recovered store) holds exactly the acknowledged
/// revisions of `script` on top of the flora `cat` describes. Appends one
/// message per mismatch to `*problems`.
void VerifyLedger(const prometheus::Database& db, const FloraCatalog& cat,
                  const RevisionScript& script,
                  std::vector<std::string>* problems);

}  // namespace perfbench

#endif  // PERFBENCH_FLORA_RIG_H_
