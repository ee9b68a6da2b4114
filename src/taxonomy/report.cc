#include "taxonomy/report.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace prometheus::taxonomy {

namespace {

std::string StringAttrOr(const Database& db, Oid oid, const char* attr,
                         const std::string& fallback) {
  auto v = db.GetAttribute(oid, attr);
  if (v.ok() && v.value().type() == ValueType::kString &&
      !v.value().AsString().empty()) {
    return v.value().AsString();
  }
  return fallback;
}

void RenderNode(const TaxonomyDatabase& tdb, Oid classification, Oid node,
                int depth, std::unordered_set<Oid>* on_path,
                std::ostringstream* out) {
  const Database& db = tdb.db();
  std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
  if (db.IsInstanceOf(node, kSpecimenClass)) {
    *out << indent << "* specimen " << StringAttrOr(db, node, "collector", "?")
         << " " << StringAttrOr(db, node, "field_number", "") << " ["
         << StringAttrOr(db, node, "herbarium", "?") << "]\n";
    return;
  }
  std::string rank = StringAttrOr(db, node, "rank", "?");
  std::string working = StringAttrOr(db, node, "working_name", "(unnamed)");
  *out << indent << rank << " " << working;
  Oid name = tdb.CalculatedNameOf(node);
  const char* label = " = ";
  if (name == kNullOid) {
    name = tdb.AscribedNameOf(node);
    label = " (ascribed: ";
  }
  if (name != kNullOid) {
    auto full = tdb.FullName(name);
    if (full.ok()) {
      *out << label << full.value();
      if (label[1] == '(') *out << ")";
    }
  }
  *out << "\n";
  if (!on_path->insert(node).second) {
    *out << indent << "  (cycle)\n";
    return;
  }
  std::vector<Oid> children =
      tdb.classifications().Children(classification, node);
  std::sort(children.begin(), children.end());
  for (Oid child : children) {
    RenderNode(tdb, classification, child, depth + 1, on_path, out);
  }
  on_path->erase(node);
}

}  // namespace

Result<std::string> RenderClassificationTree(const TaxonomyDatabase& tdb,
                                             Oid classification) {
  const Database& db = tdb.db();
  if (!tdb.classifications().IsClassification(classification)) {
    return Status::NotFound("@" + std::to_string(classification) +
                            " is not a classification");
  }
  std::ostringstream out;
  out << "Classification \"" << StringAttrOr(db, classification, "name", "?")
      << "\" by " << StringAttrOr(db, classification, "author", "?");
  auto year = db.GetAttribute(classification, "year");
  if (year.ok() && year.value().type() == ValueType::kInt &&
      year.value().AsInt() != 0) {
    out << " (" << year.value().AsInt() << ")";
  }
  out << "\n";
  std::vector<Oid> roots = tdb.classifications().Roots(classification);
  if (roots.empty()) {
    out << "  (empty)\n";
  }
  std::unordered_set<Oid> on_path;
  for (Oid root : roots) {
    RenderNode(tdb, classification, root, 1, &on_path, &out);
  }
  return out.str();
}

Result<std::string> RenderNameDossier(const TaxonomyDatabase& tdb,
                                      Oid name) {
  const Database& db = tdb.db();
  if (!db.IsInstanceOf(name, kNameClass)) {
    return Status::NotFound("@" + std::to_string(name) + " is not a name");
  }
  std::ostringstream out;
  PROMETHEUS_ASSIGN_OR_RETURN(std::string full, tdb.FullName(name));
  out << full << "\n";
  out << "  rank:        " << StringAttrOr(db, name, "rank", "?") << "\n";
  out << "  status:      " << StringAttrOr(db, name, "status", "?") << "\n";
  std::string publication = StringAttrOr(db, name, "publication", "");
  auto year = db.GetAttribute(name, "year");
  out << "  published:   ";
  if (year.ok() && year.value().type() == ValueType::kInt &&
      year.value().AsInt() != 0) {
    out << year.value().AsInt();
  }
  if (!publication.empty()) out << ", " << publication;
  out << "\n";
  // Placement chain up the nomenclatural hierarchy.
  Oid genus = tdb.PlacementOf(name);
  if (genus != kNullOid) {
    out << "  placed in:   ";
    auto genus_full = tdb.FullName(genus);
    out << (genus_full.ok() ? genus_full.value() : "?") << "\n";
  }
  // Types.
  std::vector<Oid> types = tdb.TypesOf(name);
  if (!types.empty()) {
    out << "  types:\n";
    for (Oid type : types) {
      // Find the kind recorded on the link.
      std::string kind = "?";
      for (const char* rel :
           {kTypifiedBySpecimenRel, kTypifiedByNameRel}) {
        for (Oid lid : db.IncidentLinks(name, Direction::kOut,
                                        db.FindRelationship(rel))) {
          const Link* link = db.GetLink(lid);
          if (link->target != type) continue;
          const Value* k = link->Attr("type_kind");
          if (k != nullptr && k->type() == ValueType::kString) {
            kind = k->AsString();
          }
        }
      }
      out << "    " << kind << ": ";
      if (db.IsInstanceOf(type, kSpecimenClass)) {
        out << "specimen " << StringAttrOr(db, type, "collector", "?") << " "
            << StringAttrOr(db, type, "field_number", "");
      } else {
        auto type_full = tdb.FullName(type);
        out << (type_full.ok() ? type_full.value() : "?");
      }
      out << "\n";
    }
  }
  std::vector<Oid> typifies = tdb.NamesTypifiedBy(name);
  if (!typifies.empty()) {
    out << "  typifies:\n";
    for (Oid higher : typifies) {
      auto higher_full = tdb.FullName(higher);
      out << "    " << (higher_full.ok() ? higher_full.value() : "?")
          << "\n";
    }
  }
  return out.str();
}

Result<std::string> RenderSynonymyReport(const TaxonomyDatabase& tdb,
                                         Oid classification_a,
                                         Oid classification_b) {
  const Database& db = tdb.db();
  if (!tdb.classifications().IsClassification(classification_a) ||
      !tdb.classifications().IsClassification(classification_b)) {
    return Status::NotFound("both arguments must be classifications");
  }
  std::ostringstream out;
  out << "Synonymy: \""
      << StringAttrOr(db, classification_a, "name", "?") << "\" vs \""
      << StringAttrOr(db, classification_b, "name", "?") << "\"\n";
  auto label = [&](Oid taxon) {
    if (taxon == kNullOid) return std::string("(no counterpart)");
    std::string working = StringAttrOr(db, taxon, "working_name", "");
    if (!working.empty()) return working;
    return "@" + std::to_string(taxon);
  };
  for (const auto& entry :
       tdb.classifications().Align(classification_a, classification_b)) {
    const char* kind =
        entry.kind == SynonymyKind::kFull
            ? "full synonym of"
            : entry.kind == SynonymyKind::kProParte ? "pro parte synonym of"
                                                    : "no overlap with";
    out << "  " << label(entry.taxon_a) << "  " << kind << "  "
        << label(entry.taxon_b);
    if (entry.taxon_b != kNullOid) {
      std::ostringstream sim;
      sim.precision(2);
      sim << std::fixed << entry.similarity;
      out << "  (similarity " << sim.str() << ")";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace prometheus::taxonomy
