#include "core/snapshot.h"

#include <deque>
#include <unordered_set>

#include "core/database.h"

namespace prometheus {

namespace mvcc::internal {
std::atomic<std::uint64_t> g_retained_versions{0};
std::atomic<std::uint64_t> g_live_snapshots{0};
}  // namespace mvcc::internal

namespace {

/// Calls `fn(link)` for every live link incident to `obj` that a walk in
/// `dir` crosses, restricted to `def` and its sub-relationships (any when
/// null) and to `context` (any when kNullOid). Undirected relationship
/// classes are walked both ways. One pass over the adjacency vectors, one
/// record lookup per link.
template <typename Fn>
void ForEachIncident(const DbCut& cut, const Object& obj, Direction dir,
                     const RelationshipDef* def, Oid context, Fn&& fn) {
  bool want_out = dir != Direction::kIn;
  bool want_in = dir != Direction::kOut;
  if (def != nullptr && !def->semantics().directed) {
    want_out = want_in = true;
  }
  auto walk = [&](const std::vector<Oid>& side) {
    for (Oid lid : side) {
      const Link* link = cut.GetLink(lid);
      if (link == nullptr) continue;
      if (def != nullptr && !link->def->IsSubrelationshipOf(def)) continue;
      if (context != kNullOid && link->context != context) continue;
      fn(*link);
    }
  };
  if (want_out) walk(obj.out_links);
  if (want_in) walk(obj.in_links);
}

/// Appends the far endpoint of every link `ForEachIncident` yields.
void AppendNeighbors(const DbCut& cut, Oid oid, const RelationshipDef* def,
                     Direction dir, Oid context, std::vector<Oid>* out) {
  if (const Object* obj = cut.GetObject(oid)) {
    ForEachIncident(cut, *obj, dir, def, context, [&](const Link& link) {
      out->push_back(link.source == oid ? link.target : link.source);
    });
  }
}

/// Appends the vectors `extents` holds for `root` and, when `deep`, for
/// every definition below it in `children` (breadth-first).
template <typename Def>
std::vector<Oid> CollectExtent(
    const Def* root, bool deep,
    const std::unordered_map<const Def*, std::shared_ptr<std::vector<Oid>>>&
        extents,
    const std::unordered_map<const Def*, std::vector<const Def*>>& children) {
  std::vector<Oid> out;
  std::deque<const Def*> work{root};
  while (!work.empty()) {
    const Def* d = work.front();
    work.pop_front();
    auto it = extents.find(d);
    if (it != extents.end() && it->second != nullptr) {
      out.insert(out.end(), it->second->begin(), it->second->end());
    }
    if (!deep) continue;
    auto sub = children.find(d);
    if (sub != children.end()) {
      work.insert(work.end(), sub->second.begin(), sub->second.end());
    }
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------------ schema

const ClassDef* DbCut::FindClass(std::string_view name) const {
  auto it = schema_->classes_by_name.find(name);
  return it == schema_->classes_by_name.end() ? nullptr : it->second;
}

const RelationshipDef* DbCut::FindRelationship(std::string_view name) const {
  auto it = schema_->rels_by_name.find(name);
  return it == schema_->rels_by_name.end() ? nullptr : it->second;
}

std::vector<const ClassDef*> DbCut::classes() const {
  std::vector<const ClassDef*> out;
  out.reserve(schema_->classes.size());
  for (const auto& c : schema_->classes) out.push_back(c.get());
  return out;
}

std::vector<const RelationshipDef*> DbCut::relationships() const {
  std::vector<const RelationshipDef*> out;
  out.reserve(schema_->relationships.size());
  for (const auto& r : schema_->relationships) out.push_back(r.get());
  return out;
}

const std::vector<const ClassDef*>& DbCut::Subclasses(
    const ClassDef* cls) const {
  static const std::vector<const ClassDef*> kNone;
  auto it = schema_->subclasses.find(cls);
  return it == schema_->subclasses.end() ? kNone : it->second;
}

const std::vector<MethodDef>& DbCut::Methods(const ClassDef* cls) const {
  static const std::vector<MethodDef> kNone;
  auto it = schema_->methods.find(cls);
  return it == schema_->methods.end() ? kNone : it->second;
}

const MethodDef* DbCut::FindMethod(const ClassDef* cls,
                                   std::string_view name) const {
  for (const MethodDef& m : Methods(cls)) {
    if (m.name == name) return &m;
  }
  for (const ClassDef* s : cls->supers()) {
    if (const MethodDef* m = FindMethod(s, name)) return m;
  }
  return nullptr;
}

// ----------------------------------------------------------------- objects

/// Attribute read with the inherited-attribute fallback over incoming links
/// whose relationship class enables `inherit_attributes` (thesis 4.4.5).
Result<Value> DbCut::GetAttribute(Oid oid, const std::string& name) const {
  const Object* obj = GetObject(oid);
  if (obj == nullptr) {
    return Status::NotFound("no object @" + std::to_string(oid));
  }
  if (const Value* v = obj->Attr(name)) return *v;
  for (Oid lid : obj->in_links) {
    const Link* link = GetLink(lid);
    if (link == nullptr || !link->def->semantics().inherit_attributes) {
      continue;
    }
    if (const Value* v = link->Attr(name)) return *v;
  }
  return Status::NotFound("object @" + std::to_string(oid) +
                          " has no attribute '" + name + "'");
}

bool DbCut::IsInstanceOf(Oid oid, std::string_view class_name) const {
  const Object* obj = GetObject(oid);
  if (obj == nullptr) return false;
  const ClassDef* cls = FindClass(class_name);
  return cls != nullptr && obj->cls->IsSubclassOf(cls);
}

std::vector<Oid> DbCut::Extent(const std::string& class_name,
                               bool include_subclasses) const {
  CheckShared();
  const ClassDef* cls = FindClass(class_name);
  if (cls == nullptr) return {};
  return CollectExtent(cls, include_subclasses, extents_,
                       schema_->subclasses);
}

// ------------------------------------------------------------------- links

Result<Value> DbCut::GetLinkAttribute(Oid oid,
                                      const std::string& name) const {
  const Link* link = GetLink(oid);
  if (link == nullptr) {
    return Status::NotFound("no link @" + std::to_string(oid));
  }
  if (const Value* v = link->Attr(name)) return *v;
  return Status::NotFound("relationship '" + link->def->name() +
                          "' has no attribute '" + name + "'");
}

std::vector<Oid> DbCut::LinkExtent(const std::string& rel_name,
                                   bool include_subrelationships) const {
  CheckShared();
  const RelationshipDef* def = FindRelationship(rel_name);
  if (def == nullptr) return {};
  return CollectExtent(def, include_subrelationships, link_extents_,
                       schema_->subrels);
}

const std::vector<Oid>& DbCut::LinksInContext(Oid context) const {
  CheckShared();
  static const std::vector<Oid> kEmpty;
  auto it = context_index_.find(context);
  return it == context_index_.end() || it->second == nullptr ? kEmpty
                                                              : *it->second;
}

// --------------------------------------------------------------- traversal

std::vector<Oid> DbCut::IncidentLinks(Oid oid, Direction dir,
                                      const RelationshipDef* def,
                                      Oid context) const {
  std::vector<Oid> out;
  if (const Object* obj = GetObject(oid)) {
    ForEachIncident(*this, *obj, dir, def, context,
                    [&out](const Link& link) { out.push_back(link.oid); });
  }
  return out;
}

std::vector<Oid> DbCut::Neighbors(Oid oid, const std::string& rel_name,
                                  Direction dir, Oid context) const {
  std::vector<Oid> out;
  if (const RelationshipDef* def = FindRelationship(rel_name)) {
    AppendNeighbors(*this, oid, def, dir, context, &out);
  }
  return out;
}

Result<std::vector<Oid>> DbCut::Traverse(Oid start,
                                         const std::string& rel_name,
                                         std::uint32_t min_depth,
                                         std::uint32_t max_depth,
                                         Direction dir, Oid context) const {
  const RelationshipDef* def = FindRelationship(rel_name);
  if (def == nullptr) {
    return Status::NotFound("unknown relationship '" + rel_name + "'");
  }
  if (GetObject(start) == nullptr) {
    return Status::NotFound("no object @" + std::to_string(start));
  }
  if (max_depth != 0 && min_depth > max_depth) {
    return Status::InvalidArgument("min_depth exceeds max_depth");
  }
  std::vector<Oid> result;
  std::unordered_set<Oid> visited{start};
  std::deque<std::pair<Oid, std::uint32_t>> frontier{{start, 0}};
  std::vector<Oid> next;
  if (min_depth == 0) result.push_back(start);
  while (!frontier.empty()) {
    auto [oid, depth] = frontier.front();
    frontier.pop_front();
    if (max_depth != 0 && depth == max_depth) continue;
    next.clear();
    AppendNeighbors(*this, oid, def, dir, context, &next);
    for (Oid n : next) {
      if (!visited.insert(n).second) continue;
      std::uint32_t d = depth + 1;
      if (d >= min_depth) result.push_back(n);
      frontier.emplace_back(n, d);
    }
  }
  return result;
}

// ---------------------------------------------------------------- synonyms

Oid DbCut::CanonicalOf(Oid oid) const {
  if (synonym_parent_ == nullptr) return oid;
  Oid cur = oid;
  for (;;) {
    auto it = synonym_parent_->find(cur);
    if (it == synonym_parent_->end()) return cur;
    cur = it->second;
  }
}

bool DbCut::AreSynonyms(Oid a, Oid b) const {
  return CanonicalOf(a) == CanonicalOf(b);
}

std::vector<Oid> DbCut::SynonymSet(Oid oid) const {
  CheckShared();
  Oid root = CanonicalOf(oid);
  std::vector<Oid> out;
  if (GetObject(root) != nullptr) out.push_back(root);
  if (synonym_parent_ == nullptr) return out;
  for (const auto& [child, parent] : *synonym_parent_) {
    (void)parent;
    if (child != root && CanonicalOf(child) == root &&
        GetObject(child) != nullptr) {
      out.push_back(child);
    }
  }
  return out;
}

// ----------------------------------------------------------------- indexes

OrderedKey OrderedKey::FromValue(const Value& v) {
  OrderedKey key;
  switch (v.type()) {
    case ValueType::kInt:
    case ValueType::kDouble:
      key.is_numeric = true;
      key.num = v.ToNumeric().value();
      break;
    case ValueType::kString:
      key.str = v.AsString();
      break;
    default:
      break;
  }
  return key;
}

const std::vector<AttributeIndex>& DbCut::indexes() const {
  static const std::vector<AttributeIndex> kNone;
  return indexes_ == nullptr ? kNone : *indexes_;
}

const AttributeIndex* DbCut::FindIndex(std::string_view class_name,
                                       std::string_view attr) const {
  const ClassDef* cls = FindClass(class_name);
  for (const AttributeIndex& ix : indexes()) {
    if (ix.cls == cls && ix.attr == attr) return &ix;
  }
  return nullptr;
}

Result<std::vector<Oid>> DbCut::Lookup(const std::string& class_name,
                                       const std::string& attr,
                                       const Value& value) const {
  const AttributeIndex* ix = FindIndex(class_name, attr);
  if (ix == nullptr) {
    return Status::NotFound("no index on " + class_name + "." + attr);
  }
  const IndexEntry from{ix->KeyOf(value), kNullOid};
  std::vector<Oid> out;
  ix->entries.ScanFrom(&from, [&](const IndexEntry& e) {
    if (from.key < e.key) return false;
    out.push_back(e.oid);
    return true;
  });
  return out;
}

Result<std::vector<Oid>> DbCut::RangeLookup(const std::string& class_name,
                                            const std::string& attr,
                                            const Value& lo,
                                            const Value& hi) const {
  const AttributeIndex* ix = FindIndex(class_name, attr);
  if (ix == nullptr) {
    return Status::NotFound("no index on " + class_name + "." + attr);
  }
  if (!ix->ordered) {
    return Status::FailedPrecondition("index on " + class_name + "." + attr +
                                      " is a hash index; range lookups "
                                      "require an ordered index");
  }
  const IndexEntry from{OrderedKey::FromValue(lo), kNullOid};
  const OrderedKey upper = OrderedKey::FromValue(hi);
  std::vector<Oid> out;
  ix->entries.ScanFrom(lo.is_null() ? nullptr : &from,
                       [&](const IndexEntry& e) {
                         if (!hi.is_null() && upper < e.key) return false;
                         out.push_back(e.oid);
                         return true;
                       });
  return out;
}

std::vector<std::string> DbCut::IndexedAttributes(
    std::string_view class_name) const {
  std::vector<std::string> out;
  for (const AttributeIndex& ix : indexes()) {
    if (ix.cls->name() == class_name) out.push_back(ix.attr);
  }
  return out;
}

// --------------------------------------------------------------- snapshots

DbSnapshot::DbSnapshot(const DbCut& cut, std::uint64_t epoch)
    : DbCut(cut), epoch_(epoch) {
  mvcc::internal::g_live_snapshots.fetch_add(1, std::memory_order_relaxed);
}

DbSnapshot::~DbSnapshot() {
  mvcc::internal::g_live_snapshots.fetch_sub(1, std::memory_order_relaxed);
}

void SnapshotHandle::Release() {
  if (db_ != nullptr && snap_ != nullptr) {
    Database* db = db_;
    const std::uint64_t epoch = snap_->epoch();
    db_ = nullptr;
    snap_.reset();  // may free this pin's versions before the unpin books it
    db->ReleasePin(epoch);
  } else {
    db_ = nullptr;
    snap_.reset();
  }
}

}  // namespace prometheus
