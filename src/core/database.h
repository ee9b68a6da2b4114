#ifndef PROMETHEUS_CORE_DATABASE_H_
#define PROMETHEUS_CORE_DATABASE_H_

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/oid.h"
#include "common/result.h"
#include "common/value.h"
#include "core/instance.h"
#include "core/read_view.h"
#include "core/schema.h"
#include "core/snapshot.h"
#include "event/event_bus.h"
#include "obs/wait_profiler.h"

namespace prometheus {

/// The Prometheus database: schema registry, object store, first-class
/// relationship store, instance synonyms and transactions, publishing every
/// mutation on an `EventBus` (thesis chapter 4 model; chapter 6
/// architecture: event layer + object layer).
///
/// The database *is* its store: a `DbCut` (core/snapshot.h) holding every
/// record once, as a counted version, plus the extents, context buckets,
/// synonyms, schema tables and attribute indexes, all of which the mutators below write
/// copy-on-write. Reads are the cut's.
///
/// Thread model, one protocol: one writer mutex, and after the first
/// `AcquireSnapshot` every mutation runs inside a `WriteGuard`.
///  - Until that first call, the database is the embedded single-user
///    store of the thesis prototype: one thread, no locking, nothing
///    shared, every write in place.
///  - The first `AcquireSnapshot` engages MVCC. From then on writers (every
///    mutation, transaction or journal-observed change) serialize through
///    the `WriteGuard` below, and the end of each write section
///    **publishes an immutable `DbSnapshot`**, a copy of the cut that costs
///    one pointer per record page and per class, relationship and context
///    bucket.
///  - Readers call `AcquireSnapshot()` and execute against the pinned
///    snapshot with no lock held. A reader can never be blocked, starved or
///    torn by a writer, and a writer stalled mid-section (e.g. in a journal
///    fsync) degrades write latency only.
/// After a publish, the writer clones a page, record or structure at its
/// first write, so a record's address may change there; it then stays put
/// until the next publish. Debug builds assert the protocol on every
/// mutation and on every extent/instance access.
///
/// Version retention is reference-counted, not scheduled: superseded
/// versions are freed the moment the last snapshot reaching them is
/// released (watermark = oldest pinned epoch, visible as
/// `mvcc_oldest_snapshot_epoch`; retention volume, the database's own
/// records included, as `mvcc_retained_versions`).
class Database : public DbCut {
 public:
  Database();
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // ------------------------------------------- concurrency (write guard)

  /// RAII write lock: the one writer mutex. Completing a write section
  /// bumps the epoch and, once MVCC is engaged, publishes the snapshot
  /// stamped with the new epoch.
  ///
  /// With metrics enabled, acquisition is timed into
  /// `guard_wait_micros{mode="exclusive"}`, the hold into
  /// `guard_hold_micros{mode="exclusive"}` plus the
  /// `guard_writer_last_hold_micros` gauge, and `guard_writer_held` is 1
  /// for the duration — the writer-hold telemetry that explains writer
  /// guard waits.
  class WriteGuard {
   public:
    explicit WriteGuard(Database& db)
        : db_(db), lock_(db.guard_, std::defer_lock) {
      if (obs::MetricsEnabled()) {
        const obs::GuardInstruments& g = obs::GuardInstruments::Get();
        const auto start = std::chrono::steady_clock::now();
        if (!lock_.try_lock()) {
          g.blocked_writers->Add(1);
          lock_.lock();
          g.blocked_writers->Sub(1);
        }
        acquired_at_ = std::chrono::steady_clock::now();
        wait_micros_ = std::chrono::duration<double, std::micro>(
                           acquired_at_ - start)
                           .count();
        g.exclusive_wait->Observe(wait_micros_);
        // High-water mark of writer wait: single-writer MVCC makes writer
        // admission the choke point, so starvation must be visible.
        // Writers are serialized here (the lock is already held), so the
        // read-compare-set cannot lose an update.
        if (wait_micros_ >
            static_cast<double>(g.writer_longest_wait->value())) {
          g.writer_longest_wait->Set(static_cast<std::int64_t>(wait_micros_));
        }
        g.writer_held->Set(1);
        timed_ = true;
      } else {
        lock_.lock();
      }
      db_.writer_thread_.store(std::this_thread::get_id(),
                               std::memory_order_relaxed);
      db_.writer_active_.store(true, std::memory_order_release);
    }
    ~WriteGuard() {
      // Publish the post-section snapshot while still exclusive, *before*
      // the epoch bump becomes observable: a reader that sees epoch E+1
      // must be able to acquire a snapshot stamped E+1 (a reader seeing
      // the new snapshot before the bump is harmless — snapshots only ever
      // run ahead of the observable epoch, never behind).
      if (db_.mvcc_engaged_.load(std::memory_order_relaxed)) {
        db_.PublishSnapshot(db_.epoch() + 1);
      }
      db_.writer_active_.store(false, std::memory_order_release);
      db_.epoch_.fetch_add(1, std::memory_order_acq_rel);
      if (timed_) {
        const double hold = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() -
                                acquired_at_)
                                .count();
        const obs::GuardInstruments& g = obs::GuardInstruments::Get();
        g.exclusive_hold->Observe(hold);
        g.writer_last_hold_micros->Set(static_cast<std::int64_t>(hold));
        g.writer_held->Set(0);
      }
    }

    WriteGuard(const WriteGuard&) = delete;
    WriteGuard& operator=(const WriteGuard&) = delete;

    /// Microseconds this guard spent blocked in acquisition (0 with
    /// metrics disabled).
    double wait_micros() const { return wait_micros_; }

   private:
    Database& db_;
    std::unique_lock<std::mutex> lock_;
    std::chrono::steady_clock::time_point acquired_at_{};
    double wait_micros_ = 0;
    bool timed_ = false;
  };

  /// Monotonic count of completed write sections. Every published snapshot
  /// is stamped with the epoch it was cut at, and no two different cuts
  /// share an epoch.
  std::uint64_t epoch() const override {
    return epoch_.load(std::memory_order_acquire);
  }

  // ------------------------------------------------- MVCC snapshot reads

  /// Pins the current published snapshot and returns a handle to it. The
  /// first call engages MVCC publication (until then, single-threaded
  /// embedded use pays nothing for versioning); afterwards every write
  /// section publishes a fresh copy of the cut.
  ///
  /// Never blocks on a writer once engaged — the fast path is one brief
  /// mutex-protected shared_ptr copy plus the pin-registry insert, neither
  /// held across a write section. The slow path runs once, at engagement:
  /// it takes the write mutex and publishes the cut as it stands, stamped
  /// `epoch()` without bumping it. Must not be called by a thread that
  /// holds this database's `WriteGuard`.
  SnapshotHandle AcquireSnapshot();

  /// Number of currently pinned snapshot handles (test/ops visibility;
  /// also exported as `mvcc_pinned_snapshots`).
  std::size_t pinned_snapshots() const;

  /// The GC watermark: the oldest epoch a pinned handle still reads, or
  /// the current epoch when nothing is pinned. Versions older than this
  /// are unreachable and already freed (refcount reclamation).
  std::uint64_t oldest_pinned_epoch() const;

  /// Debug checks of the locking protocol; no-ops in NDEBUG builds.
  /// Shared access is legal unless a *foreign* thread holds the write
  /// guard. Exclusive access (every mutator's entry check) is legal when
  /// this thread holds the write guard, or before MVCC is engaged
  /// (single-threaded embedded mode).
  void AssertSharedAccess() const override {
#ifndef NDEBUG
    assert(!writer_active_.load(std::memory_order_acquire) ||
           writer_thread_.load(std::memory_order_relaxed) ==
               std::this_thread::get_id());
#endif
  }
  void AssertExclusiveAccess() const {
#ifndef NDEBUG
    if (writer_active_.load(std::memory_order_acquire)) {
      assert(writer_thread_.load(std::memory_order_relaxed) ==
                 std::this_thread::get_id() &&
             "mutation while another thread holds the write guard");
    } else {
      assert(!mvcc_engaged_.load(std::memory_order_acquire) &&
             "mutation outside a WriteGuard after the first AcquireSnapshot");
    }
#endif
  }

  // ---------------------------------------------------------------- schema

  /// Defines a class. `supers` name previously defined classes.
  /// Fails with kInvalidArgument on duplicate names, unknown supers, or
  /// attribute names that collide with inherited attributes.
  Result<const ClassDef*> DefineClass(
      const std::string& name, const std::vector<std::string>& supers = {},
      std::vector<AttributeDef> attributes = {}, bool is_abstract = false);

  /// Defines a relationship class between two existing classes.
  /// `link_attributes` are carried by each link; `supers` name previously
  /// defined relationship classes (source/target must covariantly refine
  /// the super's).
  Result<const RelationshipDef*> DefineRelationship(
      const std::string& name, const std::string& source_class,
      const std::string& target_class,
      RelationshipSemantics semantics = RelationshipSemantics{},
      std::vector<AttributeDef> link_attributes = {},
      const std::vector<std::string>& supers = {});

  /// Declares a method signature on an existing class (thesis 4.2). The
  /// signature is schema metadata; behaviour is implemented host-side, as
  /// in the ODMG language bindings.
  Status DefineMethod(const std::string& class_name, MethodDef method);

  /// Defines a relationship *template* (thesis figure 34): a reusable
  /// bundle of semantics and link attributes that can be instantiated
  /// against concrete classes any number of times.
  Status DefineRelationshipTemplate(const std::string& name,
                                    RelationshipSemantics semantics,
                                    std::vector<AttributeDef> link_attributes);

  /// Instantiates a template into a concrete relationship class.
  Result<const RelationshipDef*> InstantiateRelationship(
      const std::string& template_name, const std::string& rel_name,
      const std::string& source_class, const std::string& target_class);

  /// Names of the defined relationship templates.
  std::vector<std::string> relationship_templates() const;

  /// A template's semantics / link attributes; nullptr when absent.
  const RelationshipSemantics* FindTemplateSemantics(
      const std::string& name) const;
  const std::vector<AttributeDef>* FindTemplateAttributes(
      const std::string& name) const;

  // --------------------------------------------------------------- objects

  /// Creates an instance of `class_name` with defaults applied and `inits`
  /// overriding them. Vetoable by before-rules.
  Result<Oid> CreateObject(const std::string& class_name,
                           std::vector<AttrInit> inits = {});

  /// Deletes an object: removes incident links (cascading through
  /// lifetime-dependent relationships) and removes it from its extent.
  Status DeleteObject(Oid oid);

  /// Sets an attribute, type-checked against the declaration.
  Status SetAttribute(Oid oid, const std::string& name, Value value);

  // ----------------------------------------------------------------- links

  /// Creates a link of `rel_name` from `source` to `target`, optionally in
  /// classification `context`. Enforces typing, cardinality, exclusivity
  /// and sharability; vetoable by before-rules.
  Result<Oid> CreateLink(const std::string& rel_name, Oid source, Oid target,
                         Oid context = kNullOid,
                         std::vector<AttrInit> inits = {});

  /// Deletes a link. Vetoed for constant relationships.
  Status DeleteLink(Oid oid);

  /// Sets a link attribute. Vetoed for constant relationships.
  Status SetLinkAttribute(Oid oid, const std::string& name, Value value);

  // ----------------------------------------------- instance synonyms (4.5)

  /// Declares that two objects denote the same real-world entity
  /// (thesis 4.5). Synonymy is an equivalence relation maintained with a
  /// union-find structure; it never merges storage.
  Status DeclareSynonym(Oid a, Oid b);

  // ---------------------------------------------------------- transactions

  /// Begins a transaction. Nested transactions are not supported.
  Status Begin();

  /// Runs deferred rules (kBeforeCommit event); on veto the transaction is
  /// rolled back and kAborted returned. Otherwise makes changes permanent.
  Status Commit();

  /// Rolls back every mutation since Begin().
  Status Abort();

  bool in_transaction() const { return in_transaction_; }

  // ------------------------------------------------------------ validation

  /// Verifies min-cardinality of every live object against every
  /// relationship class (thesis: deferred structural constraints).
  Status ValidateCardinality() const;

  // ----------------------------------------------------- attribute indexes

  /// The cut's index tables for writing: the index layer's mutation entry
  /// (see `IndexManager`), under the same protocol as every mutator.
  std::vector<AttributeIndex>& MutableIndexes() {
    AssertExclusiveAccess();
    return mvcc::Unshare(indexes_);
  }

  // ----------------------------------------------------- storage substrate

  /// Raw restore of an object under a chosen oid — used by the storage
  /// layer when loading a snapshot. Bypasses events, rules and semantic
  /// checks (a snapshot is already consistent), but not the schema: an
  /// undeclared attribute name or a mistyped value is refused, and absent
  /// declared attributes get their defaults, so a restored object equals a
  /// created one. Fails when the oid is in use or not below
  /// `OidTable::kOidLimit`, or the class is unknown. Not valid inside a
  /// transaction.
  Status RestoreObjectRaw(Oid oid, const std::string& class_name,
                          std::vector<AttrInit> attrs);

  /// Raw restore of a link under a chosen oid (see RestoreObjectRaw). The
  /// endpoints must already exist.
  Status RestoreLinkRaw(Oid oid, const std::string& rel_name, Oid source,
                        Oid target, Oid context, std::vector<AttrInit> attrs);

  /// Raw restore of a synonym edge (child's set is merged under parent).
  Status RestoreSynonymRaw(Oid child, Oid parent);

  /// Guarantees future oids are allocated strictly above `oid`.
  void EnsureNextOidAbove(Oid oid);

  /// Drops every schema definition, instance, link, synonym, index and the
  /// oid counter, returning the database to its just-constructed state while
  /// keeping identity: the event bus (and its subscribers) and the epoch
  /// guard survive, so holders of a `Database*` stay valid. Used by a
  /// replication follower to rebootstrap from a fresh leader snapshot in
  /// place. No events are published. Fails inside a transaction.
  Status Clear();

  // --------------------------------------------------------------- plumbing

  /// The event bus all mutations are published on.
  EventBus& bus() { return bus_; }
  const EventBus& bus() const { return bus_; }

  /// When false, before/after events are not published (used by the
  /// feature-cost benchmark E7 to isolate the event layer's overhead).
  void set_events_enabled(bool enabled) { events_enabled_ = enabled; }
  bool events_enabled() const { return events_enabled_; }

  /// When false, relationship semantic checks (exclusivity, sharability,
  /// cardinality, constancy) are skipped (feature-cost benchmark only).
  void set_semantics_enabled(bool enabled) { semantics_enabled_ = enabled; }
  bool semantics_enabled() const { return semantics_enabled_; }

 private:
  friend class SnapshotHandle;

  // Undo machinery (transactions).
  struct UndoRecord;

  // Copy-on-write access to the cut (see `DbCut`). A record returned by
  // MutableObject/MutableLink keeps its address until the write section
  // ends; a pointer from GetObject/GetLink may name the superseded version
  // after a write to that record.
  Object* MutableObject(Oid oid) { return objects_.Mutable(oid); }
  Link* MutableLink(Oid oid) { return links_.Mutable(oid); }

  /// Publishes a copy of the cut stamped `epoch` (WriteGuard destructor,
  /// pre-epoch-bump, with epoch()+1; AcquireSnapshot's engagement with
  /// epoch()).
  void PublishSnapshot(std::uint64_t epoch);

  void RegisterPin(std::uint64_t epoch);
  void ReleasePin(std::uint64_t epoch);
  void UpdateMvccGauges() const;

  /// Raw restore's oid check: non-null, below the table limit, unused.
  Status CheckRestorableOid(Oid oid) const;
  Status CheckLinkSemantics(const RelationshipDef* def, const Object& source,
                            const Object& target) const;
  Status DeleteLinkInternal(Oid oid);
  Status DeleteObjectInternal(Oid oid, std::vector<Oid>* cascade);
  Status PublishEvent(const Event& event);
  void RecordUndo(UndoRecord record);
  void RemoveFromExtent(const Object& obj);
  void RestoreToExtent(Object* obj);
  void DetachLinkFromEndpoints(const Link& link);
  void AttachLinkToEndpoints(const Link& link);
  void AddToContextIndex(Link* link);
  void RemoveFromContextIndex(const Link& link);
  void RemoveLinkFromExtent(const Link& link);
  void RestoreLinkToExtent(Link* link);

  // Rollback helpers used by Abort().
  void UndoAll();

  // The writer mutex (see WriteGuard). The atomics let the debug
  // assertions and `epoch()` observe the guard's state.
  std::mutex guard_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> writer_active_{false};
  std::atomic<std::thread::id> writer_thread_{};

  EventBus bus_;
  bool events_enabled_ = true;
  bool semantics_enabled_ = true;

  // MVCC publication state. `current_snapshot_` is swapped under the tiny
  // `snap_mu_` (held only for a shared_ptr copy — a stalled writer never
  // holds it, so snapshot acquisition cannot block on a write section).
  std::atomic<bool> mvcc_engaged_{false};
  mutable std::mutex snap_mu_;
  std::shared_ptr<const DbSnapshot> current_snapshot_;

  // Pin registry feeding the GC watermark gauges. A multiset because many
  // handles may pin the same epoch.
  mutable std::mutex snap_reg_mu_;
  std::multiset<std::uint64_t> pinned_epochs_;

  // Relationship templates: schema-building aids, not part of the cut.
  struct RelationshipTemplate {
    RelationshipSemantics semantics;
    std::vector<AttributeDef> attributes;
  };
  std::unordered_map<std::string, RelationshipTemplate> rel_templates_;
  std::vector<std::string> rel_template_order_;

  Oid next_oid_ = 1;

  // Transactions.
  bool in_transaction_ = false;
  std::vector<UndoRecord> undo_log_;
};

}  // namespace prometheus

#endif  // PROMETHEUS_CORE_DATABASE_H_
