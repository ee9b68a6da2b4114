#ifndef PROMETHEUS_CORE_SNAPSHOT_H_
#define PROMETHEUS_CORE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/oid.h"
#include "common/result.h"
#include "common/value.h"
#include "core/instance.h"
#include "core/oid_trie.h"
#include "core/read_view.h"
#include "core/schema.h"

namespace prometheus {

class Database;

namespace mvcc {
namespace internal {
// Version/snapshot accounting. Deliberately *not* behind the
// `obs::MetricsEnabled()` kill switch: tests assert GC behaviour
// (superseded versions actually freed) with metrics off, and two relaxed
// counters cost nothing measurable. The same numbers are mirrored into the
// `mvcc_*` gauges for /debug/contention and /metrics.
extern std::atomic<std::uint64_t> g_retained_versions;
extern std::atomic<std::uint64_t> g_live_snapshots;
}  // namespace internal

/// Object/link versions currently alive (live store + every version kept
/// alive only by a published or pinned snapshot).
inline std::uint64_t RetainedVersions() {
  return internal::g_retained_versions.load(std::memory_order_relaxed);
}

/// DbSnapshot instances currently alive (the published one + pinned ones).
inline std::uint64_t LiveSnapshots() {
  return internal::g_live_snapshots.load(std::memory_order_relaxed);
}

/// Deep-copies `src` into a counted immutable version. The custom deleter
/// decrements the retained-version count, so `RetainedVersions()` tracks
/// exactly the versions still reachable from some snapshot — the number GC
/// (snapshot release dropping the last reference) must drive back down.
template <typename T>
std::shared_ptr<const T> MakeVersion(const T& src) {
  internal::g_retained_versions.fetch_add(1, std::memory_order_relaxed);
  return std::shared_ptr<const T>(new T(src), [](const T* p) {
    internal::g_retained_versions.fetch_sub(1, std::memory_order_relaxed);
    delete p;
  });
}
}  // namespace mvcc

/// Immutable schema tables of one snapshot: name→definition maps plus the
/// *copied* children adjacency (`subclasses`/`subrels`). The copies matter:
/// the live `ClassDef::subclasses_` / `RelationshipDef::subs_` vectors are
/// appended to by later DDL, so a snapshot's extent BFS must not read them.
/// Everything else on a definition (name, supers, attributes, semantics,
/// endpoints) is frozen once defined and safely shared.
///
/// The keep-alive vectors pin the definition objects themselves so object
/// versions retained by old snapshots keep valid `cls`/`def` pointers even
/// across `Database::Clear()` (follower rebootstrap).
struct SchemaTables {
  NameMap<const ClassDef*> classes_by_name;
  NameMap<const RelationshipDef*> rels_by_name;
  std::vector<const ClassDef*> classes_in_order;
  std::vector<const RelationshipDef*> rels_in_order;
  std::unordered_map<const ClassDef*, std::vector<const ClassDef*>>
      subclasses;
  std::unordered_map<const RelationshipDef*,
                     std::vector<const RelationshipDef*>>
      subrels;
  std::vector<std::shared_ptr<const ClassDef>> class_keep_alive;
  std::vector<std::shared_ptr<const RelationshipDef>> rel_keep_alive;
};

/// A consistent immutable cut of the whole database at one epoch. Readers
/// traverse it with **no lock of any kind**: every container reachable from
/// here is frozen at publish time, and structure shared with newer versions
/// is copy-on-write (`OidTrie` path copying, per-extent vector replacement).
///
/// Built and published by `Database` at the end of every write section;
/// acquired by readers as a `SnapshotHandle`. All `ReadView` methods give
/// exactly the answers the live database would have given at `epoch()`.
class DbSnapshot final : public ReadView {
 public:
  ~DbSnapshot() override;

  DbSnapshot& operator=(const DbSnapshot&) = delete;

  std::uint64_t epoch() const override { return epoch_; }
  std::uint64_t index_epoch_ceiling() const override { return epoch_; }

  const ClassDef* FindClass(std::string_view name) const override;
  const RelationshipDef* FindRelationship(
      std::string_view name) const override;
  std::vector<const ClassDef*> classes() const override;
  std::vector<const RelationshipDef*> relationships() const override;

  Result<Value> GetAttribute(Oid oid, const std::string& name) const override;
  const Object* GetObject(Oid oid) const override {
    return objects_.Find(oid);
  }
  bool IsInstanceOf(Oid oid, std::string_view class_name) const override;
  std::vector<Oid> Extent(const std::string& class_name,
                          bool include_subclasses = true) const override;
  std::size_t object_count() const override { return live_objects_; }

  Result<Value> GetLinkAttribute(Oid oid,
                                 const std::string& name) const override;
  const Link* GetLink(Oid oid) const override { return links_.Find(oid); }
  std::vector<Oid> LinkExtent(const std::string& rel_name,
                              bool include_subrelationships = true)
      const override;
  const std::vector<Oid>& LinksInContext(Oid context) const override;
  std::size_t link_count() const override { return live_links_; }

  std::vector<Oid> IncidentLinks(Oid oid, Direction dir,
                                 const RelationshipDef* def = nullptr,
                                 Oid context = kNullOid) const override;
  std::vector<Oid> Neighbors(Oid oid, const std::string& rel_name,
                             Direction dir = Direction::kOut,
                             Oid context = kNullOid) const override;
  Result<std::vector<Oid>> Traverse(Oid start, const std::string& rel_name,
                                    std::uint32_t min_depth,
                                    std::uint32_t max_depth,
                                    Direction dir = Direction::kOut,
                                    Oid context = kNullOid) const override;

  bool AreSynonyms(Oid a, Oid b) const override;
  Oid CanonicalOf(Oid oid) const override;
  std::vector<Oid> SynonymSet(Oid oid) const override;

 private:
  friend class Database;

  DbSnapshot();
  /// Incremental build: the next snapshot starts as an O(1) structural
  /// share of the previous one; the writer then replaces only what a dirty
  /// set names.
  DbSnapshot(const DbSnapshot& prev);

  const std::vector<const ClassDef*>* SubclassesOf(const ClassDef* c) const;
  const std::vector<const RelationshipDef*>* SubrelsOf(
      const RelationshipDef* d) const;

  std::uint64_t epoch_ = 0;

  // Record versions (deep copies of live Object/Link state, shared across
  // consecutive snapshots until superseded).
  OidTrie<Object> objects_;
  OidTrie<Link> links_;

  // Secondary structures: whole-vector replacement on change, shared
  // otherwise. Absent key == empty.
  std::unordered_map<const ClassDef*, std::shared_ptr<const std::vector<Oid>>>
      extents_;
  std::unordered_map<const RelationshipDef*,
                     std::shared_ptr<const std::vector<Oid>>>
      link_extents_;
  std::unordered_map<Oid, std::shared_ptr<const std::vector<Oid>>>
      context_index_;

  std::shared_ptr<const std::unordered_map<Oid, Oid>> synonym_parent_;
  std::shared_ptr<const SchemaTables> schema_;

  std::size_t live_objects_ = 0;
  std::size_t live_links_ = 0;
};

/// Move-only RAII pin of one snapshot. While alive, the snapshot (and every
/// version it reaches) is retained and the database's GC watermark
/// (`mvcc_oldest_snapshot_epoch`) cannot advance past its epoch.
/// Destruction unpins; versions whose last reference this was are freed on
/// the spot (shared_ptr reclamation — there is no separate GC thread).
class SnapshotHandle {
 public:
  SnapshotHandle() = default;
  SnapshotHandle(SnapshotHandle&& other) noexcept
      : snap_(std::move(other.snap_)), db_(other.db_) {
    other.db_ = nullptr;
  }
  SnapshotHandle& operator=(SnapshotHandle&& other) noexcept {
    if (this != &other) {
      Release();
      snap_ = std::move(other.snap_);
      db_ = other.db_;
      other.db_ = nullptr;
    }
    return *this;
  }
  ~SnapshotHandle() { Release(); }

  SnapshotHandle(const SnapshotHandle&) = delete;
  SnapshotHandle& operator=(const SnapshotHandle&) = delete;

  const DbSnapshot& operator*() const { return *snap_; }
  const DbSnapshot* operator->() const { return snap_.get(); }
  const DbSnapshot* get() const { return snap_.get(); }
  explicit operator bool() const { return snap_ != nullptr; }

  /// Shares ownership of the snapshot beyond the handle (e.g. a cache entry
  /// that outlives the request). The shared copy retains versions but does
  /// not hold the pin-registry entry — the watermark follows handles only.
  std::shared_ptr<const DbSnapshot> shared() const { return snap_; }

 private:
  friend class Database;
  SnapshotHandle(std::shared_ptr<const DbSnapshot> snap, Database* db)
      : snap_(std::move(snap)), db_(db) {}

  void Release();

  std::shared_ptr<const DbSnapshot> snap_;
  Database* db_ = nullptr;
};

}  // namespace prometheus

#endif  // PROMETHEUS_CORE_SNAPSHOT_H_
