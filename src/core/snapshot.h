#ifndef PROMETHEUS_CORE_SNAPSHOT_H_
#define PROMETHEUS_CORE_SNAPSHOT_H_

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
#include "core/oid_table.h"
#include "core/read_view.h"
#include "core/schema.h"

namespace prometheus {

class Database;

/// Schema tables of one cut: the definitions in definition order, the
/// name→definition maps, the children adjacency (`subclasses`/`subrels`)
/// and the method signatures declared on each class. Definitions are
/// frozen once defined and shared by every cut; everything later DDL adds
/// to an existing definition lives here, so it is copied with the tables
/// and a published snapshot never sees it change.
///
/// The definitions are owned here, so record versions retained by old
/// snapshots keep valid `cls`/`def` pointers even across
/// `Database::Clear()` (follower rebootstrap).
struct SchemaTables {
  std::vector<std::shared_ptr<const ClassDef>> classes;
  std::vector<std::shared_ptr<const RelationshipDef>> relationships;
  NameMap<const ClassDef*> classes_by_name;
  NameMap<const RelationshipDef*> rels_by_name;
  std::unordered_map<const ClassDef*, std::vector<const ClassDef*>>
      subclasses;
  std::unordered_map<const RelationshipDef*,
                     std::vector<const RelationshipDef*>>
      subrels;
  std::unordered_map<const ClassDef*, std::vector<MethodDef>> methods;
};

/// The whole state of the database as one copy-on-write cut: the record
/// tables, the extents, link extents and context buckets, the synonym map
/// and the schema tables. The live `Database` *is* a cut, which its single
/// writer mutates; a published `DbSnapshot` is a copy of it, taken by
/// copy-constructing this class — one pointer per record page and per
/// class, relationship and context bucket.
///
/// Every shared structure is written through `mvcc::Unshare`'s rule (and
/// the record tables through `OidTable`'s), so the writer clones only what
/// a published snapshot still shares and updates in place after that.
/// Until the first snapshot is taken nothing is shared and nothing is
/// cloned.
///
/// Every `ReadView` read is implemented once, here, for both the live
/// database and snapshots.
class DbCut : public ReadView {
 public:
  // ---------------------------------------------------------------- schema

  /// Looks up a class by name; nullptr when absent.
  const ClassDef* FindClass(std::string_view name) const override;

  /// Looks up a relationship class by name; nullptr when absent.
  const RelationshipDef* FindRelationship(
      std::string_view name) const override;

  /// All defined classes, in definition order.
  std::vector<const ClassDef*> classes() const override;

  /// All defined relationship classes, in definition order.
  std::vector<const RelationshipDef*> relationships() const override;

  /// Direct sub-classes of `cls`, in definition order.
  const std::vector<const ClassDef*>& Subclasses(
      const ClassDef* cls) const override;

  /// Method signatures declared directly on `cls`.
  const std::vector<MethodDef>& Methods(const ClassDef* cls) const;

  /// Finds method `name` on `cls` or any super-class; nullptr if absent.
  const MethodDef* FindMethod(const ClassDef* cls,
                              std::string_view name) const;

  // --------------------------------------------------------------- objects

  /// Reads an attribute. Falls back to attributes inherited from incoming
  /// links whose relationship class enables `inherit_attributes`
  /// (thesis 4.4.5, figures 17–18).
  Result<Value> GetAttribute(Oid oid, const std::string& name) const override;

  /// Non-owning instance lookup; nullptr when the oid is dead or unknown.
  const Object* GetObject(Oid oid) const final {
    CheckShared();
    return objects_.Find(oid);
  }

  /// True when `oid` designates a live object of `class_name` (or one of
  /// its subclasses).
  bool IsInstanceOf(Oid oid, std::string_view class_name) const override;

  /// The extent of a class; with `include_subclasses` (the default) this is
  /// the deep extent.
  std::vector<Oid> Extent(const std::string& class_name,
                          bool include_subclasses = true) const override;

  /// Number of live objects.
  std::size_t object_count() const override { return objects_.size(); }

  // ----------------------------------------------------------------- links

  /// Reads a link attribute.
  Result<Value> GetLinkAttribute(Oid oid,
                                 const std::string& name) const override;

  /// Non-owning link lookup; nullptr when dead or unknown.
  const Link* GetLink(Oid oid) const final {
    CheckShared();
    return links_.Find(oid);
  }

  /// All live links of a relationship class (its extent); with
  /// `include_subrelationships`, links of sub-relationship classes too.
  std::vector<Oid> LinkExtent(const std::string& rel_name,
                              bool include_subrelationships = true)
      const override;

  /// All live links whose classification context is `context` (thesis
  /// 4.6.2: a classification *is* the set of links created in its context).
  /// Maintained incrementally; O(result).
  const std::vector<Oid>& LinksInContext(Oid context) const override;

  /// Number of live links.
  std::size_t link_count() const override { return links_.size(); }

  // ------------------------------------------------------------- traversal

  /// Links incident to `oid` in `dir`, optionally restricted to a
  /// relationship class (and its subs) and/or a classification context.
  std::vector<Oid> IncidentLinks(Oid oid, Direction dir,
                                 const RelationshipDef* def = nullptr,
                                 Oid context = kNullOid) const override;

  /// Objects one hop away from `oid` over `rel_name` links.
  /// `context == kNullOid` means "any context".
  std::vector<Oid> Neighbors(Oid oid, const std::string& rel_name,
                             Direction dir = Direction::kOut,
                             Oid context = kNullOid) const override;

  /// Recursive closure (requirement 9): every object reachable from `start`
  /// over `rel_name` links within `[min_depth, max_depth]` hops
  /// (`max_depth == 0` means unbounded). Breadth-first; each object is
  /// reported once at its smallest depth. The start itself is reported only
  /// when `min_depth == 0`.
  Result<std::vector<Oid>> Traverse(Oid start, const std::string& rel_name,
                                    std::uint32_t min_depth,
                                    std::uint32_t max_depth,
                                    Direction dir = Direction::kOut,
                                    Oid context = kNullOid) const override;

  // ----------------------------------------------- instance synonyms (4.5)

  /// True when the two oids are in the same synonym set (reflexive).
  bool AreSynonyms(Oid a, Oid b) const override;

  /// Canonical representative of `oid`'s synonym set (itself if alone).
  Oid CanonicalOf(Oid oid) const override;

  /// All *live* members of `oid`'s synonym set, including `oid` when it is
  /// alive. Synonym chains survive member deletion (the remaining
  /// duplicates stay unified), but deleted members are not reported.
  std::vector<Oid> SynonymSet(Oid oid) const override;

  /// Debug check of the reader's side of the locking protocol, run by the
  /// record and extent reads in debug builds. An immutable snapshot needs
  /// none; the live `Database` overrides it.
  virtual void AssertSharedAccess() const {}

 protected:
  DbCut() : schema_(std::make_shared<SchemaTables>()) {}
  DbCut(const DbCut&) = default;
  DbCut& operator=(const DbCut&) = delete;

  void CheckShared() const {
#ifndef NDEBUG
    AssertSharedAccess();
#endif
  }

  // Record versions, each stored once, shared with the snapshots taken
  // since it was last written.
  OidTable<Object> objects_;
  OidTable<Link> links_;

  // Secondary structures, shared with snapshots until written. Absent key
  // or null == empty.
  std::unordered_map<const ClassDef*, std::shared_ptr<std::vector<Oid>>>
      extents_;
  std::unordered_map<const RelationshipDef*,
                     std::shared_ptr<std::vector<Oid>>>
      link_extents_;
  std::unordered_map<Oid, std::shared_ptr<std::vector<Oid>>> context_index_;

  // Synonyms: parent pointers of a union-find without path compression
  // (undoability); absent key == singleton set, null == no synonyms.
  std::shared_ptr<std::unordered_map<Oid, Oid>> synonym_parent_;
  std::shared_ptr<SchemaTables> schema_;
};

/// A consistent immutable cut of the whole database at one epoch. Readers
/// traverse it with **no lock of any kind**: the writer never writes a
/// page, record or structure a snapshot shares (see `DbCut`).
///
/// Published by `Database` at the end of every write section; acquired by
/// readers as a `SnapshotHandle`. All `ReadView` methods give exactly the
/// answers the live database gave at `epoch()`.
class DbSnapshot final : public DbCut {
 public:
  ~DbSnapshot() override;

  std::uint64_t epoch() const override { return epoch_; }
  std::uint64_t index_epoch_ceiling() const override { return epoch_; }

 private:
  friend class Database;

  DbSnapshot(const DbCut& cut, std::uint64_t epoch);

  std::uint64_t epoch_;
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
