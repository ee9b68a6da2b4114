#ifndef PROMETHEUS_CORE_READ_VIEW_H_
#define PROMETHEUS_CORE_READ_VIEW_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/oid.h"
#include "common/result.h"
#include "common/value.h"

namespace prometheus {

class ClassDef;
class RelationshipDef;
class Object;
class Link;

/// Direction selector for link traversal.
enum class Direction : std::uint8_t {
  kOut,   ///< follow links from source to target
  kIn,    ///< follow links from target to source
  kBoth,  ///< follow links either way (undirected view)
};

/// Named initial attribute assignment used at object/link creation.
using AttrInit = std::pair<std::string, Value>;

/// The read-side surface of the database: everything a query, view or
/// traversal needs, with no mutation entry points. `DbCut` implements it
/// once for both the live `Database` (reads see the current state; callers
/// must follow the write-guard protocol) and `DbSnapshot` (an immutable
/// consistent cut at a fixed epoch; reads need no lock at all). Query
/// execution is written against this interface so the same engine serves
/// embedded single-threaded use and MVCC snapshot reads.
class ReadView {
 public:
  virtual ~ReadView() = default;

  /// Epoch this view observes. For the live database it is the current
  /// epoch (moving); for a snapshot it is the epoch of the cut (fixed).
  virtual std::uint64_t epoch() const = 0;

  /// Largest index `dirty_epoch` this view may consume (see
  /// `IndexManager::Lookup`'s `as_of`). The live database accepts any
  /// index state (`UINT64_MAX`); a snapshot accepts only indexes untouched
  /// since its epoch.
  virtual std::uint64_t index_epoch_ceiling() const = 0;

  // ---------------------------------------------------------------- schema
  virtual const ClassDef* FindClass(std::string_view name) const = 0;
  virtual const RelationshipDef* FindRelationship(
      std::string_view name) const = 0;
  virtual std::vector<const ClassDef*> classes() const = 0;
  virtual std::vector<const RelationshipDef*> relationships() const = 0;
  virtual const std::vector<const ClassDef*>& Subclasses(
      const ClassDef* cls) const = 0;

  // --------------------------------------------------------------- objects
  virtual Result<Value> GetAttribute(Oid oid, const std::string& name)
      const = 0;
  virtual const Object* GetObject(Oid oid) const = 0;
  virtual bool IsInstanceOf(Oid oid, std::string_view class_name) const = 0;
  virtual std::vector<Oid> Extent(const std::string& class_name,
                                  bool include_subclasses = true) const = 0;
  virtual std::size_t object_count() const = 0;

  // ----------------------------------------------------------------- links
  virtual Result<Value> GetLinkAttribute(Oid oid, const std::string& name)
      const = 0;
  virtual const Link* GetLink(Oid oid) const = 0;
  virtual std::vector<Oid> LinkExtent(
      const std::string& rel_name,
      bool include_subrelationships = true) const = 0;
  virtual const std::vector<Oid>& LinksInContext(Oid context) const = 0;
  virtual std::size_t link_count() const = 0;

  // ------------------------------------------------------------- traversal
  virtual std::vector<Oid> IncidentLinks(Oid oid, Direction dir,
                                         const RelationshipDef* def = nullptr,
                                         Oid context = kNullOid) const = 0;
  virtual std::vector<Oid> Neighbors(Oid oid, const std::string& rel_name,
                                     Direction dir = Direction::kOut,
                                     Oid context = kNullOid) const = 0;
  virtual Result<std::vector<Oid>> Traverse(Oid start,
                                            const std::string& rel_name,
                                            std::uint32_t min_depth,
                                            std::uint32_t max_depth,
                                            Direction dir = Direction::kOut,
                                            Oid context = kNullOid) const = 0;

  // -------------------------------------------------------------- synonyms
  virtual bool AreSynonyms(Oid a, Oid b) const = 0;
  virtual Oid CanonicalOf(Oid oid) const = 0;
  virtual std::vector<Oid> SynonymSet(Oid oid) const = 0;
};

namespace internal {
/// The view the current thread's query execution reads through. Set by
/// `ScopedReadView` (the server installs the request's pinned snapshot
/// before calling the engine); null means "read the live database".
inline thread_local const ReadView* g_current_read_view = nullptr;
}  // namespace internal

/// The thread's active read view, or null when execution should fall back
/// to the live database (embedded mode, writer-thread rule callbacks).
inline const ReadView* CurrentReadView() {
  return internal::g_current_read_view;
}

/// RAII installer for the thread's read view. Nests: the previous view is
/// restored on destruction.
class ScopedReadView {
 public:
  explicit ScopedReadView(const ReadView* view)
      : prev_(internal::g_current_read_view) {
    internal::g_current_read_view = view;
  }
  ~ScopedReadView() { internal::g_current_read_view = prev_; }

  ScopedReadView(const ScopedReadView&) = delete;
  ScopedReadView& operator=(const ScopedReadView&) = delete;

 private:
  const ReadView* prev_;
};

}  // namespace prometheus

#endif  // PROMETHEUS_CORE_READ_VIEW_H_
