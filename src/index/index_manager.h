#ifndef PROMETHEUS_INDEX_INDEX_MANAGER_H_
#define PROMETHEUS_INDEX_INDEX_MANAGER_H_

#include <string>

#include "common/status.h"
#include "core/database.h"

namespace prometheus {

/// The index layer (thesis 6.1.4): secondary attribute indexes over class
/// extents, kept consistent through the event layer. The query layer
/// (6.1.5.2) consults these indexes to replace extent scans by lookups.
///
/// Two flavours:
///  - hash indexes: exact-match lookup, any value type;
///  - ordered indexes: additionally range lookup, for int/double/string.
///
/// The indexes live in the database's copy-on-write cut (`AttributeIndex`,
/// core/snapshot.h), so every snapshot carries its own epoch's index state;
/// reads (`HasIndex`, `Lookup`, `RangeLookup`, `IndexedAttributes`) are
/// `ReadView` reads. The manager has two jobs: its event-bus listener
/// maintains its indexes inside the writer's sections (rollback's
/// compensating events included), and `CreateIndex`/`DropIndex` are cut
/// mutations, like DDL. An index lives as long as the manager that made it.
class IndexManager {
 public:
  /// Subscribes to `db`'s event bus. `db` must outlive the manager.
  explicit IndexManager(Database* db);

  /// Unsubscribes and drops this manager's indexes from the cut, in a
  /// write section of its own: must not run inside one.
  ~IndexManager();

  IndexManager(const IndexManager&) = delete;
  IndexManager& operator=(const IndexManager&) = delete;

  /// Creates an index on `class_name.attr` (covering subclasses), built in
  /// bulk from the current extent. `ordered` selects the range-capable
  /// flavour. A mutation: after MVCC is engaged, call it inside a
  /// `WriteGuard`.
  Status CreateIndex(const std::string& class_name, const std::string& attr,
                     bool ordered = false);

  /// Drops an index this manager created; others report kNotFound. A
  /// mutation, like `CreateIndex`.
  Status DropIndex(const std::string& class_name, const std::string& attr);

 private:
  void OnEvent(const Event& event);

  Database* db_;
  ListenerId listener_ = 0;
};

}  // namespace prometheus

#endif  // PROMETHEUS_INDEX_INDEX_MANAGER_H_
