#include "core/snapshot.h"

#include <deque>

#include "core/database.h"
#include "core/read_algorithms.h"

namespace prometheus {

namespace mvcc::internal {
std::atomic<std::uint64_t> g_retained_versions{0};
std::atomic<std::uint64_t> g_live_snapshots{0};
}  // namespace mvcc::internal

DbSnapshot::DbSnapshot() {
  mvcc::internal::g_live_snapshots.fetch_add(1, std::memory_order_relaxed);
}

DbSnapshot::DbSnapshot(const DbSnapshot& prev)
    : epoch_(prev.epoch_),
      objects_(prev.objects_),
      links_(prev.links_),
      extents_(prev.extents_),
      link_extents_(prev.link_extents_),
      context_index_(prev.context_index_),
      synonym_parent_(prev.synonym_parent_),
      schema_(prev.schema_),
      live_objects_(prev.live_objects_),
      live_links_(prev.live_links_) {
  mvcc::internal::g_live_snapshots.fetch_add(1, std::memory_order_relaxed);
}

DbSnapshot::~DbSnapshot() {
  mvcc::internal::g_live_snapshots.fetch_sub(1, std::memory_order_relaxed);
}

// Record-level reads (attributes, adjacency, traversal) share their
// implementation with `Database` (core/read_algorithms.h); record lookups
// go to the version tries. The extent walks below mirror the `Database`
// ones except that schema *children* walks go to the snapshot's copied
// `subclasses`/`subrels` maps — the live vectors those BFS walks would
// otherwise read are appended to by concurrent DDL.

const ClassDef* DbSnapshot::FindClass(std::string_view name) const {
  auto it = schema_->classes_by_name.find(name);
  return it == schema_->classes_by_name.end() ? nullptr : it->second;
}

const RelationshipDef* DbSnapshot::FindRelationship(
    std::string_view name) const {
  auto it = schema_->rels_by_name.find(name);
  return it == schema_->rels_by_name.end() ? nullptr : it->second;
}

std::vector<const ClassDef*> DbSnapshot::classes() const {
  return schema_->classes_in_order;
}

std::vector<const RelationshipDef*> DbSnapshot::relationships() const {
  return schema_->rels_in_order;
}

Result<Value> DbSnapshot::GetAttribute(Oid oid,
                                       const std::string& name) const {
  return internal::GetAttributeOf(*this, oid, name);
}

bool DbSnapshot::IsInstanceOf(Oid oid, std::string_view class_name) const {
  const Object* obj = GetObject(oid);
  if (obj == nullptr) return false;
  const ClassDef* cls = FindClass(class_name);
  return cls != nullptr && obj->cls->IsSubclassOf(cls);
}

const std::vector<const ClassDef*>* DbSnapshot::SubclassesOf(
    const ClassDef* c) const {
  auto it = schema_->subclasses.find(c);
  return it == schema_->subclasses.end() ? nullptr : &it->second;
}

const std::vector<const RelationshipDef*>* DbSnapshot::SubrelsOf(
    const RelationshipDef* d) const {
  auto it = schema_->subrels.find(d);
  return it == schema_->subrels.end() ? nullptr : &it->second;
}

std::vector<Oid> DbSnapshot::Extent(const std::string& class_name,
                                    bool include_subclasses) const {
  const ClassDef* cls = FindClass(class_name);
  if (cls == nullptr) return {};
  std::vector<Oid> out;
  std::deque<const ClassDef*> work{cls};
  while (!work.empty()) {
    const ClassDef* c = work.front();
    work.pop_front();
    auto it = extents_.find(c);
    if (it != extents_.end()) {
      out.insert(out.end(), it->second->begin(), it->second->end());
    }
    if (include_subclasses) {
      if (const auto* subs = SubclassesOf(c)) {
        for (const ClassDef* sub : *subs) work.push_back(sub);
      }
    }
  }
  return out;
}

Result<Value> DbSnapshot::GetLinkAttribute(Oid oid,
                                           const std::string& name) const {
  return internal::GetLinkAttributeOf(*this, oid, name);
}

std::vector<Oid> DbSnapshot::LinkExtent(const std::string& rel_name,
                                        bool include_subrelationships) const {
  const RelationshipDef* def = FindRelationship(rel_name);
  if (def == nullptr) return {};
  std::vector<Oid> out;
  std::deque<const RelationshipDef*> work{def};
  while (!work.empty()) {
    const RelationshipDef* d = work.front();
    work.pop_front();
    auto it = link_extents_.find(d);
    if (it != link_extents_.end()) {
      out.insert(out.end(), it->second->begin(), it->second->end());
    }
    if (include_subrelationships) {
      if (const auto* subs = SubrelsOf(d)) {
        for (const RelationshipDef* sub : *subs) work.push_back(sub);
      }
    }
  }
  return out;
}

const std::vector<Oid>& DbSnapshot::LinksInContext(Oid context) const {
  static const std::vector<Oid> kEmpty;
  auto it = context_index_.find(context);
  return it == context_index_.end() ? kEmpty : *it->second;
}

std::vector<Oid> DbSnapshot::IncidentLinks(Oid oid, Direction dir,
                                           const RelationshipDef* def,
                                           Oid context) const {
  return internal::IncidentLinksOf(*this, oid, dir, def, context);
}

std::vector<Oid> DbSnapshot::Neighbors(Oid oid, const std::string& rel_name,
                                       Direction dir, Oid context) const {
  return internal::NeighborsOf(*this, oid, rel_name, dir, context);
}

Result<std::vector<Oid>> DbSnapshot::Traverse(Oid start,
                                              const std::string& rel_name,
                                              std::uint32_t min_depth,
                                              std::uint32_t max_depth,
                                              Direction dir,
                                              Oid context) const {
  return internal::TraverseOf(*this, start, rel_name, min_depth, max_depth,
                              dir, context);
}

Oid DbSnapshot::CanonicalOf(Oid oid) const {
  Oid cur = oid;
  for (;;) {
    auto it = synonym_parent_->find(cur);
    if (it == synonym_parent_->end()) return cur;
    cur = it->second;
  }
}

bool DbSnapshot::AreSynonyms(Oid a, Oid b) const {
  return CanonicalOf(a) == CanonicalOf(b);
}

std::vector<Oid> DbSnapshot::SynonymSet(Oid oid) const {
  Oid root = CanonicalOf(oid);
  std::vector<Oid> out;
  if (GetObject(root) != nullptr) out.push_back(root);
  for (const auto& [child, parent] : *synonym_parent_) {
    (void)parent;
    if (child != root && CanonicalOf(child) == root &&
        GetObject(child) != nullptr) {
      out.push_back(child);
    }
  }
  return out;
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
