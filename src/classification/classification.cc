#include "classification/classification.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

namespace prometheus {

namespace {

AttributeDef MakeAttr(std::string name, ValueType type) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  return a;
}

}  // namespace

ClassificationManager::ClassificationManager(Database* db) : db_(db) {
  if (db_->FindClass(kClassificationClassName) == nullptr) {
    auto r = db_->DefineClass(
        kClassificationClassName, {},
        {MakeAttr("name", ValueType::kString),
         MakeAttr("author", ValueType::kString),
         MakeAttr("year", ValueType::kInt),
         MakeAttr("publication", ValueType::kString)});
    (void)r;  // cannot fail: the name was just checked to be free
  }
}

Status ClassificationManager::RequireClassification(Oid oid) const {
  if (!IsClassification(oid)) {
    return Status::NotFound("@" + std::to_string(oid) +
                            " is not a classification");
  }
  return Status::Ok();
}

bool ClassificationManager::IsClassification(Oid oid) const {
  return db_->IsInstanceOf(oid, kClassificationClassName);
}

Result<Oid> ClassificationManager::Create(const std::string& name,
                                          const std::string& author,
                                          std::int64_t year,
                                          const std::string& publication) {
  return db_->CreateObject(kClassificationClassName,
                           {{"name", Value::String(name)},
                            {"author", Value::String(author)},
                            {"year", Value::Int(year)},
                            {"publication", Value::String(publication)}});
}

Result<Oid> ClassificationManager::AddEdge(Oid classification,
                                           const std::string& rel_name,
                                           Oid parent, Oid child,
                                           const std::string& motivation) {
  PROMETHEUS_RETURN_IF_ERROR(RequireClassification(classification));
  std::vector<AttrInit> inits;
  if (!motivation.empty()) {
    const RelationshipDef* def = db_->FindRelationship(rel_name);
    if (def == nullptr || def->FindAttribute("motivation") == nullptr) {
      return Status::InvalidArgument(
          "relationship '" + rel_name +
          "' declares no 'motivation' attribute for traceability");
    }
    inits.emplace_back("motivation", Value::String(motivation));
  }
  return db_->CreateLink(rel_name, parent, child, classification,
                         std::move(inits));
}

Status ClassificationManager::RemoveEdge(Oid classification, Oid link) {
  PROMETHEUS_RETURN_IF_ERROR(RequireClassification(classification));
  const Link* l = db_->GetLink(link);
  if (l == nullptr || l->context != classification) {
    return Status::NotFound("link @" + std::to_string(link) +
                            " is not part of classification @" +
                            std::to_string(classification));
  }
  return db_->DeleteLink(link);
}

const std::vector<Oid>& ClassificationManager::Edges(
    Oid classification) const {
  return db_->LinksInContext(classification);
}

std::vector<Oid> ClassificationManager::Members(Oid classification) const {
  std::unordered_set<Oid> seen;
  std::vector<Oid> out;
  for (Oid lid : Edges(classification)) {
    const Link* l = db_->GetLink(lid);
    if (l == nullptr) continue;
    if (seen.insert(l->source).second) out.push_back(l->source);
    if (seen.insert(l->target).second) out.push_back(l->target);
  }
  return out;
}

std::vector<Oid> ClassificationManager::Roots(Oid classification) const {
  std::unordered_set<Oid> parents;
  std::unordered_set<Oid> children;
  for (Oid lid : Edges(classification)) {
    const Link* l = db_->GetLink(lid);
    if (l == nullptr) continue;
    parents.insert(l->source);
    children.insert(l->target);
  }
  std::vector<Oid> out;
  for (Oid p : parents) {
    if (!children.count(p)) out.push_back(p);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Oid> ClassificationManager::Children(Oid classification,
                                                 Oid node) const {
  std::vector<Oid> out;
  for (Oid lid : db_->IncidentLinks(node, Direction::kOut, nullptr,
                                    classification)) {
    out.push_back(db_->GetLink(lid)->target);
  }
  return out;
}

std::vector<Oid> ClassificationManager::Parents(Oid classification,
                                                Oid node) const {
  std::vector<Oid> out;
  for (Oid lid :
       db_->IncidentLinks(node, Direction::kIn, nullptr, classification)) {
    out.push_back(db_->GetLink(lid)->source);
  }
  return out;
}

std::vector<Oid> ClassificationManager::Descendants(Oid classification,
                                                    Oid node) const {
  std::vector<Oid> out;
  std::unordered_set<Oid> visited{node};
  std::deque<Oid> work{node};
  while (!work.empty()) {
    Oid cur = work.front();
    work.pop_front();
    for (Oid child : Children(classification, cur)) {
      if (!visited.insert(child).second) continue;
      out.push_back(child);
      work.push_back(child);
    }
  }
  return out;
}

std::vector<Oid> ClassificationManager::Leaves(Oid classification,
                                               Oid node) const {
  std::vector<Oid> out;
  std::vector<Oid> all = Descendants(classification, node);
  all.push_back(node);
  for (Oid o : all) {
    if (Children(classification, o).empty()) out.push_back(o);
  }
  return out;
}

bool ClassificationManager::IsHierarchy(Oid classification) const {
  // A classification is a hierarchy when its edge set is acyclic.
  // Kahn-style peeling over the subgraph induced by the context's edges.
  std::unordered_map<Oid, int> indegree;
  std::unordered_map<Oid, std::vector<Oid>> adj;
  for (Oid lid : Edges(classification)) {
    const Link* l = db_->GetLink(lid);
    if (l == nullptr) continue;
    adj[l->source].push_back(l->target);
    indegree[l->target] += 1;
    indegree.try_emplace(l->source, 0);
  }
  std::deque<Oid> work;
  for (const auto& [node, deg] : indegree) {
    if (deg == 0) work.push_back(node);
  }
  std::size_t peeled = 0;
  while (!work.empty()) {
    Oid cur = work.front();
    work.pop_front();
    ++peeled;
    for (Oid next : adj[cur]) {
      if (--indegree[next] == 0) work.push_back(next);
    }
  }
  return peeled == indegree.size();
}

OverlapReport ClassificationManager::Compare(Oid classification_a, Oid node_a,
                                             Oid classification_b,
                                             Oid node_b) const {
  auto canonical_leaves = [this](Oid ctx, Oid node) {
    std::unordered_set<Oid> out;
    for (Oid leaf : Leaves(ctx, node)) out.insert(db_->CanonicalOf(leaf));
    return out;
  };
  std::unordered_set<Oid> a = canonical_leaves(classification_a, node_a);
  std::unordered_set<Oid> b = canonical_leaves(classification_b, node_b);
  OverlapReport report;
  for (Oid x : a) {
    if (b.count(x)) {
      report.shared.push_back(x);
    } else {
      report.only_a.push_back(x);
    }
  }
  for (Oid x : b) {
    if (!a.count(x)) report.only_b.push_back(x);
  }
  std::sort(report.shared.begin(), report.shared.end());
  std::sort(report.only_a.begin(), report.only_a.end());
  std::sort(report.only_b.begin(), report.only_b.end());
  if (report.shared.empty()) {
    report.kind = SynonymyKind::kNone;
  } else if (report.only_a.empty() && report.only_b.empty()) {
    report.kind = SynonymyKind::kFull;
  } else {
    report.kind = SynonymyKind::kProParte;
  }
  return report;
}

SynonymyKind ClassificationManager::Synonymy(Oid classification_a, Oid node_a,
                                             Oid classification_b,
                                             Oid node_b) const {
  return Compare(classification_a, node_a, classification_b, node_b).kind;
}

Result<Oid> ClassificationManager::Clone(Oid source,
                                         const std::string& new_name,
                                         const std::string& new_author,
                                         std::int64_t year,
                                         const std::string& publication) {
  PROMETHEUS_RETURN_IF_ERROR(RequireClassification(source));
  PROMETHEUS_ASSIGN_OR_RETURN(
      Oid copy, Create(new_name, new_author, year, publication));
  // Copy the edge set (links are fresh; the classified objects are shared —
  // the two classifications now overlap on every node).
  std::vector<Oid> edges = Edges(source);  // copy: we mutate the index
  for (Oid lid : edges) {
    const Link* l = db_->GetLink(lid);
    if (l == nullptr) continue;
    std::vector<AttrInit> inits;
    inits.reserve(l->attrs.size());
    ForEachAttribute(*l, [&inits](const std::string& name,
                                  const Value& value) {
      inits.emplace_back(name, value);
    });
    PROMETHEUS_ASSIGN_OR_RETURN(
        Oid nl, db_->CreateLink(l->def->name(), l->source, l->target, copy,
                                std::move(inits)));
    (void)nl;
  }
  return copy;
}

Status ClassificationManager::CloneSubtree(Oid source, Oid node,
                                           Oid target) {
  PROMETHEUS_RETURN_IF_ERROR(RequireClassification(source));
  PROMETHEUS_RETURN_IF_ERROR(RequireClassification(target));
  if (db_->GetObject(node) == nullptr) {
    return Status::NotFound("no object @" + std::to_string(node));
  }
  std::unordered_set<Oid> subtree{node};
  for (Oid o : Descendants(source, node)) subtree.insert(o);
  std::vector<Oid> edges = Edges(source);  // copy: we mutate the index
  for (Oid lid : edges) {
    const Link* l = db_->GetLink(lid);
    if (l == nullptr || !subtree.count(l->source) ||
        !subtree.count(l->target)) {
      continue;
    }
    std::vector<AttrInit> inits;
    inits.reserve(l->attrs.size());
    ForEachAttribute(*l, [&inits](const std::string& name,
                                  const Value& value) {
      inits.emplace_back(name, value);
    });
    PROMETHEUS_RETURN_IF_ERROR(
        db_->CreateLink(l->def->name(), l->source, l->target, target,
                        std::move(inits))
            .status());
  }
  return Status::Ok();
}

std::vector<ClassificationManager::Alignment> ClassificationManager::Align(
    Oid a, Oid b) const {
  auto internal_nodes = [this](Oid ctx) {
    std::vector<Oid> out;
    for (Oid member : Members(ctx)) {
      if (!Children(ctx, member).empty()) out.push_back(member);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  auto canonical_leaves = [this](Oid ctx, Oid node) {
    std::unordered_set<Oid> out;
    for (Oid leaf : Leaves(ctx, node)) out.insert(db_->CanonicalOf(leaf));
    return out;
  };
  std::vector<Oid> nodes_b = internal_nodes(b);
  std::vector<std::unordered_set<Oid>> leaves_b;
  leaves_b.reserve(nodes_b.size());
  for (Oid nb : nodes_b) leaves_b.push_back(canonical_leaves(b, nb));

  std::vector<Alignment> out;
  for (Oid na : internal_nodes(a)) {
    std::unordered_set<Oid> la = canonical_leaves(a, na);
    Alignment best;
    best.taxon_a = na;
    for (std::size_t i = 0; i < nodes_b.size(); ++i) {
      std::size_t shared = 0;
      for (Oid x : la) {
        if (leaves_b[i].count(x)) ++shared;
      }
      if (shared == 0) continue;
      std::size_t total = la.size() + leaves_b[i].size() - shared;
      double jaccard =
          total == 0 ? 0.0 : static_cast<double>(shared) / total;
      if (jaccard > best.similarity ||
          (jaccard == best.similarity && nodes_b[i] < best.taxon_b)) {
        best.similarity = jaccard;
        best.taxon_b = nodes_b[i];
        if (jaccard == 1.0) {
          best.kind = SynonymyKind::kFull;
        } else {
          best.kind = SynonymyKind::kProParte;
        }
      }
    }
    out.push_back(best);
  }
  return out;
}

ClassificationManager::DiffReport ClassificationManager::Diff(Oid a,
                                                              Oid b) const {
  auto edge_key = [this](Oid lid) -> std::string {
    const Link* l = db_->GetLink(lid);
    if (l == nullptr) return "";
    return l->def->name() + "\x1f" + std::to_string(l->source) + "\x1f" +
           std::to_string(l->target);
  };
  std::unordered_map<std::string, int> in_b;
  for (Oid lid : Edges(b)) in_b[edge_key(lid)] += 1;
  DiffReport report;
  std::unordered_map<std::string, int> matched;
  for (Oid lid : Edges(a)) {
    std::string key = edge_key(lid);
    if (matched[key] < in_b[key]) {
      ++matched[key];  // structural counterpart consumed
    } else {
      report.only_a.push_back(lid);
    }
  }
  std::unordered_map<std::string, int> in_a;
  for (Oid lid : Edges(a)) in_a[edge_key(lid)] += 1;
  matched.clear();
  for (Oid lid : Edges(b)) {
    std::string key = edge_key(lid);
    if (matched[key] < in_a[key]) {
      ++matched[key];
    } else {
      report.only_b.push_back(lid);
    }
  }
  std::sort(report.only_a.begin(), report.only_a.end());
  std::sort(report.only_b.begin(), report.only_b.end());
  return report;
}

Status ClassificationManager::Destroy(Oid classification) {
  PROMETHEUS_RETURN_IF_ERROR(RequireClassification(classification));
  std::vector<Oid> edges = Edges(classification);  // copy: we mutate
  for (Oid lid : edges) {
    PROMETHEUS_RETURN_IF_ERROR(db_->DeleteLink(lid));
  }
  return db_->DeleteObject(classification);
}

std::vector<Oid> ClassificationManager::All() const {
  return db_->Extent(kClassificationClassName);
}

}  // namespace prometheus
