#ifndef PROMETHEUS_CORE_INSTANCE_H_
#define PROMETHEUS_CORE_INSTANCE_H_

#include <string_view>
#include <vector>

#include "common/oid.h"
#include "common/value.h"
#include "core/schema.h"

namespace prometheus {

/// A stored object instance: one counted version in the database's oid
/// table (`core/oid_table.h`), shared with the snapshots published since
/// its last write. Pointers returned by lookups are non-owning; a live
/// database's pointer may name a superseded version after a write to the
/// record (see `Database`), and dangles once no cut holds the version.
struct Object {
  Oid oid = kNullOid;
  const ClassDef* cls = nullptr;

  /// Attribute values, one per slot of the class layout: `attrs[i]` is the
  /// value of `cls->slots()[i]`. Every declared attribute is stored, at its
  /// default until set, so reads never miss; a name resolves to its slot
  /// through `cls->SlotOf`, never through a per-object map.
  std::vector<Value> attrs;

  /// Incident links (both endpoints index their links for O(degree)
  /// traversal — thesis 6.1.4, relationship indexes).
  std::vector<Oid> out_links;
  std::vector<Oid> in_links;

  /// Position inside the class extent vector (swap-remove bookkeeping).
  std::size_t extent_pos = 0;

  /// The stored value of attribute `name`; nullptr when the class declares
  /// no such attribute (inherited link attributes are not stored here).
  const Value* Attr(std::string_view name) const {
    const std::size_t slot = cls->SlotOf(name);
    return slot == kNoSlot ? nullptr : &attrs[slot];
  }
};

/// A stored relationship instance — a *link* (thesis 4.3). Links are
/// first-class: they have an Oid, carry attributes, can be queried by POOL,
/// and may belong to a classification context (thesis 4.6.2).
struct Link {
  Oid oid = kNullOid;
  const RelationshipDef* def = nullptr;
  Oid source = kNullOid;
  Oid target = kNullOid;

  /// The classification this link belongs to, or kNullOid when the link is
  /// context-free. Classifications are themselves objects, so this is an
  /// ordinary Oid.
  Oid context = kNullOid;

  /// Link attribute values (e.g. the "placement motivation" that provides
  /// the traceability requirement 4), slot-indexed like `Object::attrs`:
  /// `attrs[i]` is the value of `def->slots()[i]`.
  std::vector<Value> attrs;

  /// Position inside the relationship-class extent (swap-remove bookkeeping).
  std::size_t extent_pos = 0;

  /// Position inside the context index (swap-remove bookkeeping); only
  /// meaningful when `context != kNullOid`.
  std::size_t ctx_pos = 0;

  /// The stored value of link attribute `name`; nullptr when undeclared.
  const Value* Attr(std::string_view name) const {
    const std::size_t slot = def->SlotOf(name);
    return slot == kNoSlot ? nullptr : &attrs[slot];
  }
};

/// Calls `fn(name, value)` for every attribute slot of an object or link,
/// in layout order.
template <typename Fn>
void ForEachAttribute(const Object& obj, Fn&& fn) {
  for (std::size_t i = 0; i < obj.attrs.size(); ++i) {
    fn(obj.cls->slots()[i]->name, obj.attrs[i]);
  }
}
template <typename Fn>
void ForEachAttribute(const Link& link, Fn&& fn) {
  for (std::size_t i = 0; i < link.attrs.size(); ++i) {
    fn(link.def->slots()[i]->name, link.attrs[i]);
  }
}

}  // namespace prometheus

#endif  // PROMETHEUS_CORE_INSTANCE_H_
