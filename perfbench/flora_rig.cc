#include "flora_rig.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>

#include "common/stats.h"
#include "net/http_client.h"
#include "storage/snapshot.h"
#include "taxonomy/synthetic.h"
#include "taxonomy/taxonomy_db.h"
#include "trace.h"

namespace perfbench {

using prometheus::Database;
using prometheus::Oid;
using prometheus::Result;
using prometheus::Status;
using prometheus::Value;

namespace {

constexpr char kFloraCtxName[] = "synthetic flora";
constexpr char kRevisionCtxName[] = "synthetic revision";

std::string StringAttr(const Database& db, Oid oid, const char* attr) {
  auto v = db.GetAttribute(oid, attr);
  if (!v.ok() || v.value().type() != prometheus::ValueType::kString) return "";
  return v.value().AsString();
}

std::int64_t IntAttr(const Database& db, Oid oid, const char* attr) {
  auto v = db.GetAttribute(oid, attr);
  if (!v.ok() || v.value().type() != prometheus::ValueType::kInt) return 0;
  return v.value().AsInt();
}

template <typename T>
const T& Pick(const std::vector<T>& v, std::mt19937& rng) {
  return v[std::uniform_int_distribution<std::size_t>(0, v.size() - 1)(rng)];
}

/// The last syllable of a species name: the generator's hundreds digit,
/// independent of the publication year.
std::string Suffix(const std::string& name) {
  return name.size() < 2 ? name : name.substr(name.size() - 2);
}

}  // namespace

const char* QClassName(QClass c) {
  switch (c) {
    case QClass::kLookup: return "lookup";
    case QClass::kRange: return "range";
    case QClass::kDescend: return "descend";
    case QClass::kGroup: return "group";
    case QClass::kInvariant: return "invariant";
  }
  return "?";
}

QueryText MakeQuery(const FloraCatalog& cat, QClass cls, std::mt19937& rng) {
  QueryText q;
  q.cls = cls;
  const bool revision_ctx = (rng() & 1u) != 0;
  const char* ctx = revision_ctx ? kRevisionCtxName : kFloraCtxName;
  switch (cls) {
    case QClass::kLookup:
      q.text =
          "select s.field_number, s.collector, s.collection_year from "
          "Specimen s where s.field_number = '" +
          Pick(cat.specimens, rng).field_number + "'";
      q.stable = true;  // annotations touch `herbarium` only
      break;
    case QClass::kRange: {
      const std::int64_t lo = std::uniform_int_distribution<std::int64_t>(
          cat.min_year, cat.max_year)(rng);
      const std::int64_t hi = lo + static_cast<std::int64_t>(rng() % 3);
      q.text =
          "select n.name_element, n.year from NomenclaturalTaxon n where "
          "n.year >= " + std::to_string(lo) + " and n.year <= " +
          std::to_string(hi) + " and ends_with(n.name_element, '" + Suffix(Pick(cat.species_names, rng)) +
          "') order by n.name_element, n.year";
      q.stable = true;  // names are never revised
      break;
    }
    case QClass::kDescend:
      q.text =
          "select l.working_name from CircumscriptionTaxon g, Classification "
          "c, leaves(g, 'contains', c) l where g.working_name = '" +
          (revision_ctx ? Pick(cat.revision_genera, rng)
                        : Pick(cat.genera, rng).name) +
          "' and c.name = '" + ctx + "' order by l.working_name";
      q.stable = revision_ctx;  // re-placements revise the flora context
      break;
    case QClass::kGroup:
      q.text =
          "select s.collector, count(s) from CircumscriptionTaxon t, "
          "Classification c, children(t, 'circumscribes', c) s where "
          "t.working_name = '" + Pick(cat.species_names, rng) +
          "' and c.name = '" + ctx +
          "' group by s.collector order by s.collector";
      q.stable = revision_ctx;  // accessions land in the flora context
      break;
    case QClass::kInvariant:
      return Pick(InvariantQueries(), rng);
  }
  return q;
}

std::vector<QueryText> InvariantQueries() {
  return {
      {QClass::kInvariant,
       "select t.rank, count(t) from CircumscriptionTaxon t where t.rank = "
       "'Familia' group by t.rank",
       true},
      {QClass::kInvariant,
       "select l.relationship, count(l) from contains l group by "
       "l.relationship",
       true},
  };
}

FloraCatalog ReadCatalog(const Database& db) {
  FloraCatalog cat;
  for (Oid c : db.Extent("Classification")) {
    const std::string name = StringAttr(db, c, "name");
    if (name == kFloraCtxName) cat.flora_ctx = c;
    if (name == kRevisionCtxName) cat.revision_ctx = c;
  }
  std::map<Oid, std::size_t> genus_index;
  std::set<std::string> revision_genera;
  std::vector<Oid> contains = db.LinkExtent("contains");
  std::sort(contains.begin(), contains.end());
  struct Placement {
    Oid link, genus, species;
  };
  std::vector<Placement> placements;
  for (Oid l : contains) {
    const prometheus::Link* link = db.GetLink(l);
    if (StringAttr(db, link->source, "rank") != "Genus") continue;
    if (link->context == cat.revision_ctx) {
      revision_genera.insert(StringAttr(db, link->source, "working_name"));
    } else if (link->context == cat.flora_ctx) {
      placements.push_back({l, link->source, link->target});
    }
  }
  std::sort(placements.begin(), placements.end(),
            [](const Placement& a, const Placement& b) {
              return a.species < b.species;
            });
  std::set<std::string> species_names;
  for (const Placement& p : placements) {
    auto [it, fresh] = genus_index.emplace(p.genus, cat.genera.size());
    if (fresh) {
      cat.genera.push_back({p.genus, StringAttr(db, p.genus, "working_name")});
    }
    const std::string name = StringAttr(db, p.species, "working_name");
    species_names.insert(name);
    cat.species.push_back({p.species, name, it->second, p.link});
  }
  cat.species_names.assign(species_names.begin(), species_names.end());
  cat.revision_genera.assign(revision_genera.begin(), revision_genera.end());

  std::vector<Oid> specimens = db.Extent("Specimen");
  std::sort(specimens.begin(), specimens.end());
  for (Oid s : specimens) {
    cat.specimens.push_back({s, StringAttr(db, s, "field_number")});
  }
  bool first = true;
  for (Oid n : db.Extent("NomenclaturalTaxon")) {
    const std::int64_t y = IntAttr(db, n, "year");
    cat.min_year = first ? y : std::min(cat.min_year, y);
    cat.max_year = first ? y : std::max(cat.max_year, y);
    first = false;
  }
  cat.objects = db.object_count();
  cat.links = db.link_count();
  return cat;
}

Status InstallRules(prometheus::RuleEngine* rules) {
  PROMETHEUS_RETURN_IF_ERROR(
      rules
          ->AddInvariant("specimen_year", "Specimen",
                         "self.collection_year >= 1753 and "
                         "self.collection_year <= 2100",
                         "collection year outside the herbarium's range")
          .status());
  PROMETHEUS_RETURN_IF_ERROR(
      rules
          ->AddRelationshipRule("placement_rank", "contains",
                                "source.rank_order < target.rank_order",
                                "a taxon may only contain lower ranks")
          .status());
  PROMETHEUS_RETURN_IF_ERROR(
      rules
          ->AddRelationshipRule("species_circumscribe", "circumscribes",
                                "source.rank = 'Species'",
                                "only species circumscribe specimens")
          .status());
  return Status::Ok();
}

Status InstallIndexes(prometheus::IndexManager* indexes) {
  PROMETHEUS_RETURN_IF_ERROR(indexes->CreateIndex("Specimen", "field_number"));
  return indexes->CreateIndex("CircumscriptionTaxon", "working_name");
}

Result<std::unique_ptr<FloraRig>> FloraRig::Build(const Config& config,
                                                  double* setup_seconds) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(config.dir, ec);
  fs::create_directories(config.dir, ec);
  if (ec) return Status::IoError("cannot create " + config.dir);

  std::unique_ptr<FloraRig> rig(new FloraRig());
  const std::string snapshot_path = config.dir + "/flora.pdb";
  rig->store_dir_ = config.dir + "/store";

  const Clock::time_point t0 = Clock::now();
  {
    prometheus::taxonomy::TaxonomyDatabase tdb;
    prometheus::taxonomy::FloraConfig fc;
    fc.families = config.size.families;
    fc.genera_per_family = config.size.genera_per_family;
    fc.species_per_genus = config.size.species_per_genus;
    fc.specimens_per_species = config.size.specimens_per_species;
    fc.seed = config.seed;
    PROMETHEUS_ASSIGN_OR_RETURN(auto flora,
                                prometheus::taxonomy::GenerateFlora(&tdb, fc));
    PROMETHEUS_RETURN_IF_ERROR(prometheus::taxonomy::GenerateRevision(
                                   &tdb, flora, config.size.revision_genera,
                                   config.seed + 1)
                                   .status());
    PROMETHEUS_RETURN_IF_ERROR(
        prometheus::storage::SaveSnapshot(tdb.db(), snapshot_path));
  }
  prometheus::storage::DurableStore::Options so;
  so.bootstrap = [&snapshot_path](Database* db) {
    return prometheus::storage::LoadSnapshot(db, snapshot_path);
  };
  PROMETHEUS_ASSIGN_OR_RETURN(
      rig->store_, prometheus::storage::DurableStore::Open(rig->store_dir_, so));
  // The bootstrap loaded the flora outside the journal; a checkpoint makes
  // it the store's first durable generation.
  PROMETHEUS_RETURN_IF_ERROR(rig->store_->Checkpoint());
  Database& db = rig->store_->db();
  rig->indexes_ = std::make_unique<prometheus::IndexManager>(&db);
  PROMETHEUS_RETURN_IF_ERROR(InstallIndexes(rig->indexes_.get()));
  rig->rules_ = std::make_unique<prometheus::RuleEngine>(&db);
  PROMETHEUS_RETURN_IF_ERROR(InstallRules(rig->rules_.get()));
  const Clock::time_point t_catalog = Clock::now();
  rig->catalog_ = ReadCatalog(db);
  if (trace::Enabled()) {
    auto counter = rig->events_;
    rig->listener_ = db.bus().Subscribe([counter](const prometheus::Event&) {
      counter->fetch_add(1, std::memory_order_relaxed);
      return Status::Ok();
    });
  }
  const Clock::time_point t_serve = Clock::now();

  prometheus::server::Server::Options sopt;
  sopt.worker_threads = config.worker_threads;
  sopt.indexes = rig->indexes_.get();
  sopt.store = rig->store_.get();
  rig->server_ = std::make_unique<prometheus::server::Server>(&db, sopt);
  prometheus::net::HttpFrontEnd::Options hopt;
  hopt.handler_threads = config.handler_threads;
  rig->http_ =
      std::make_unique<prometheus::net::HttpFrontEnd>(rig->server_.get(), hopt);
  PROMETHEUS_RETURN_IF_ERROR(rig->http_->Start());
  {
    PROMETHEUS_ASSIGN_OR_RETURN(
        auto conn,
        prometheus::net::HttpConnection::Connect("127.0.0.1", rig->port()));
    const std::vector<std::string> warmup =
        config.warmup ? config.warmup(rig->catalog_) : std::vector<std::string>{};
    for (const std::string& q : warmup) {
      PROMETHEUS_ASSIGN_OR_RETURN(auto resp, conn->RoundTrip("POST", "/query", q));
      if (resp.status_code != 200) {
        return Status::FailedPrecondition("warm-up query failed: " + q + " -> " +
                                resp.body);
      }
    }
  }
  const Clock::time_point t1 = Clock::now();
  *setup_seconds = SecondsBetween(t0, t1) - SecondsBetween(t_catalog, t_serve);
  return rig;
}

void FloraRig::Close() {
  if (http_) http_->Stop();
  if (server_) server_->Shutdown(/*drain=*/true);
  http_.reset();
  server_.reset();
  if (store_ && listener_ != 0) store_->db().bus().Unsubscribe(listener_);
  listener_ = 0;
  rules_.reset();
  indexes_.reset();
  store_.reset();
}

FloraRig::~FloraRig() { Close(); }

// ---------------------------------------------------------------- oracle

std::string RenderRows(const prometheus::pool::ResultSet& rs) {
  prometheus::stats::JsonWriter w;
  w.BeginArray();
  for (const auto& row : rs.rows) {
    w.BeginArray();
    for (const auto& cell : row) w.String(cell.ToString());
    w.EndArray();
  }
  w.EndArray();
  return w.str();
}

Result<Oracle> Oracle::Build(Database* db, prometheus::IndexManager* indexes,
                             const std::vector<std::string>& texts) {
  Oracle oracle;
  const prometheus::SnapshotHandle snapshot = db->AcquireSnapshot();
  const prometheus::pool::QueryEngine engine(db, indexes);
  for (const std::string& text : texts) {
    if (oracle.answers_.count(text) != 0) continue;
    auto rs = engine.Execute(text, *snapshot);
    if (!rs.ok()) {
      return Status::FailedPrecondition("oracle: " + text + ": " +
                                        rs.status().ToString());
    }
    oracle.answers_.emplace(text, RenderRows(rs.value()));
  }
  return oracle;
}

const std::string* Oracle::Expected(const std::string& text) const {
  auto it = answers_.find(text);
  return it == answers_.end() ? nullptr : &it->second;
}

// ------------------------------------------------------------- revisions

RevisionScript::RevisionScript(const FloraCatalog* cat, unsigned seed)
    : cat_(cat), rng_(seed), seed_(seed) {
  for (const auto& s : cat->species) {
    genus_of_.push_back(s.genus);
    link_of_.push_back(s.contains_link);
  }
}

Revision RevisionScript::Next() {
  Revision r;
  // An equal split: no source gives the mix of a curator's revisions.
  r.kind = static_cast<Revision::Kind>(rng_() % 3);
  r.species = std::uniform_int_distribution<std::size_t>(
      0, cat_->species.size() - 1)(rng_);
  ++serial_;
  switch (r.kind) {
    case Revision::kAccession:
      r.field = "A" + std::to_string(seed_) + "-" + std::to_string(serial_);
      break;
    case Revision::kReplacement:
      r.removed = link_of_[r.species];
      r.genus = std::uniform_int_distribution<std::size_t>(
          0, cat_->genera.size() - 2)(rng_);
      if (r.genus >= genus_of_[r.species]) ++r.genus;  // a different genus
      break;
    case Revision::kAnnotation:
      r.object = Pick(cat_->specimens, rng_).oid;
      r.field = "E-rev" + std::to_string(serial_);
      break;
  }
  return r;
}

Status RevisionScript::Apply(Database& db, Revision* rev,
                             double* body_us) const {
  const Clock::time_point t0 = Clock::now();
  const FloraCatalog::Species& sp = cat_->species[rev->species];
  PROMETHEUS_RETURN_IF_ERROR(db.Begin());
  Status st = [&]() -> Status {
    switch (rev->kind) {
      case Revision::kAccession: {
        Result<Oid> obj = [&] {
          trace::Span span("core", "create_object");
          return db.CreateObject(
              "Specimen",
              {{"collector", Value::String("Collector" +
                                           std::to_string(rev->species % 20))},
               {"herbarium", Value::String("E")},
               {"field_number", Value::String(rev->field)},
               {"collection_year", Value::Int(2000)}});
        }();
        if (!obj.ok()) return obj.status();
        rev->object = obj.value();
        trace::Span span("core", "create_link");
        Result<Oid> link =
            db.CreateLink("circumscribes", sp.taxon, rev->object,
                          cat_->flora_ctx,
                          {{"motivation", Value::String("accession")}});
        if (!link.ok()) return link.status();
        rev->link = link.value();
        return Status::Ok();
      }
      case Revision::kReplacement: {
        {
          trace::Span span("core", "delete_link");
          PROMETHEUS_RETURN_IF_ERROR(db.DeleteLink(rev->removed));
        }
        trace::Span span("core", "create_link");
        Result<Oid> link = db.CreateLink(
            "contains", cat_->genera[rev->genus].oid, sp.taxon,
            cat_->flora_ctx, {{"motivation", Value::String("re-placement")}});
        if (!link.ok()) return link.status();
        rev->link = link.value();
        return Status::Ok();
      }
      case Revision::kAnnotation: {
        trace::Span span("core", "set_attribute");
        return db.SetAttribute(rev->object, "herbarium",
                               Value::String(rev->field));
      }
    }
    return Status::FailedPrecondition("unknown revision kind");
  }();
  if (!st.ok()) {
    (void)db.Abort();
    return st;
  }
  {
    trace::Span span("core", "commit");
    st = db.Commit();
  }
  if (body_us != nullptr) *body_us = MicrosBetween(t0, Clock::now());
  return st;
}

void RevisionScript::Acknowledge(const Revision& rev) {
  if (rev.kind == Revision::kReplacement) {
    genus_of_[rev.species] = rev.genus;
    link_of_[rev.species] = rev.link;
  }
  if (rev.kind == Revision::kAccession) ++accessions_;
  ledger_.push_back(rev);
}

void VerifyLedger(const Database& db, const FloraCatalog& cat,
                  const RevisionScript& script,
                  std::vector<std::string>* problems) {
  auto problem = [problems](std::string s) {
    if (problems->size() < 20) problems->push_back(std::move(s));
  };
  std::map<std::size_t, const Revision*> last_placement;
  std::map<Oid, std::string> last_annotation;
  for (const Revision& r : script.ledger()) {
    switch (r.kind) {
      case Revision::kAccession: {
        const prometheus::Link* l = db.GetLink(r.link);
        if (db.GetObject(r.object) == nullptr ||
            StringAttr(db, r.object, "field_number") != r.field) {
          problem("accession " + r.field + " lost");
        } else if (l == nullptr || l->source != cat.species[r.species].taxon ||
                   l->target != r.object || l->context != cat.flora_ctx) {
          problem("accession " + r.field + " lost its circumscription");
        }
        break;
      }
      case Revision::kReplacement:
        if (db.GetLink(r.removed) != nullptr) {
          problem("re-placement left link @" + std::to_string(r.removed));
        }
        last_placement[r.species] = &r;
        break;
      case Revision::kAnnotation:
        last_annotation[r.object] = r.field;
        break;
    }
  }
  for (const auto& [species, r] : last_placement) {
    const prometheus::Link* l = db.GetLink(r->link);
    if (l == nullptr || l->source != cat.genera[r->genus].oid ||
        l->target != cat.species[species].taxon) {
      problem("re-placement of " + cat.species[species].name + " lost");
    }
  }
  for (const auto& [oid, value] : last_annotation) {
    if (StringAttr(db, oid, "herbarium") != value) {
      problem("annotation " + value + " lost");
    }
  }
  if (db.object_count() != cat.objects + script.accessions()) {
    problem("object count " + std::to_string(db.object_count()) +
            " != " + std::to_string(cat.objects + script.accessions()));
  }
  if (db.link_count() != cat.links + script.accessions()) {
    problem("link count " + std::to_string(db.link_count()) + " != " +
            std::to_string(cat.links + script.accessions()));
  }
}

}  // namespace perfbench
