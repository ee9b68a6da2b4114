#include "core/database.h"

#include <algorithm>
#include <unordered_set>

#include "obs/metrics.h"

namespace prometheus {

namespace {

/// Cached gauge pointers mirroring the always-on mvcc counters into the
/// metrics registry (registration is get-or-create and mutex-protected, so
/// resolve once).
struct MvccGauges {
  obs::Gauge* retained;
  obs::Gauge* live;
  obs::Gauge* pinned;
  obs::Gauge* oldest;

  static const MvccGauges& Get() {
    static const MvccGauges g{
        obs::Registry().GetGauge(
            "mvcc_retained_versions",
            "Object/link versions alive: the database's own records plus "
            "the superseded ones only snapshots still reach"),
        obs::Registry().GetGauge("mvcc_live_snapshots",
                                 "DbSnapshot instances currently alive"),
        obs::Registry().GetGauge("mvcc_pinned_snapshots",
                                 "Snapshot handles currently pinned"),
        obs::Registry().GetGauge(
            "mvcc_oldest_snapshot_epoch",
            "GC watermark: oldest epoch a pinned snapshot still reads"),
    };
    return g;
  }
};

/// Type-checks `value` against an attribute declaration. Null is always
/// accepted (absent optional value).
Status CheckValueType(const AttributeDef& def, const Value& value) {
  if (value.is_null() || def.type == ValueType::kNull) return Status::Ok();
  if (value.type() == def.type) return Status::Ok();
  // Ints are acceptable where doubles are declared.
  if (def.type == ValueType::kDouble && value.type() == ValueType::kInt) {
    return Status::Ok();
  }
  return Status::TypeError("attribute '" + def.name + "' expects " +
                           ValueTypeName(def.type) + ", got " +
                           ValueTypeName(value.type()));
}

/// A fresh instance's slot vector: every slot at its declared default.
std::vector<Value> DefaultSlots(const std::vector<const AttributeDef*>& slots) {
  std::vector<Value> out;
  out.reserve(slots.size());
  for (const AttributeDef* a : slots) out.push_back(a->default_value);
  return out;
}

/// Stores named attribute values into `attrs` (already at defaults),
/// refusing names `def` does not declare and values of the wrong type.
template <typename Def>
Status AssignSlots(const Def& def, const char* kind,
                   std::vector<AttrInit> inits, std::vector<Value>* attrs) {
  for (AttrInit& init : inits) {
    const std::size_t slot = def.SlotOf(init.first);
    if (slot == kNoSlot) {
      return Status::NotFound(std::string(kind) + " '" + def.name() +
                              "' has no attribute '" + init.first + "'");
    }
    PROMETHEUS_RETURN_IF_ERROR(CheckValueType(*def.slots()[slot], init.second));
    (*attrs)[slot] = std::move(init.second);
  }
  return Status::Ok();
}

/// Computes a definition's slot layout from its supers' layouts and its own
/// attributes: every name keeps the first slot it was given, and a later
/// declaration of the same name replaces the attribute in that slot.
template <typename Def>
std::vector<const AttributeDef*> LayoutSlots(
    const std::vector<const Def*>& supers,
    const std::vector<AttributeDef>& own) {
  std::vector<const AttributeDef*> out;
  auto place = [&out](const AttributeDef* a) {
    for (const AttributeDef*& slot : out) {
      if (slot->name == a->name) {
        slot = a;
        return;
      }
    }
    out.push_back(a);
  };
  for (const Def* s : supers) {
    for (const AttributeDef* a : s->slots()) place(a);
  }
  for (const AttributeDef& a : own) place(&a);
  return out;
}

}  // namespace

/// One entry of the transaction undo log. Entries are applied in reverse
/// order by Abort(); each restores the state from just before its mutation.
struct Database::UndoRecord {
  enum class Kind {
    kCreateObject,
    kDeleteObject,
    kSetAttribute,
    kCreateLink,
    kDeleteLink,
    kSetLinkAttribute,
    kDeclareSynonym,
  };

  Kind kind;
  Oid oid = kNullOid;
  std::size_t slot = 0;  ///< attribute slot (kSet*Attribute)
  Value old_value;
  std::shared_ptr<Object> object_version;
  std::shared_ptr<Link> link_version;
};

Database::Database() = default;
Database::~Database() = default;

// ------------------------------------------------------------------ schema

Result<const ClassDef*> Database::DefineClass(
    const std::string& name, const std::vector<std::string>& supers,
    std::vector<AttributeDef> attributes, bool is_abstract) {
  AssertExclusiveAccess();
  if (name.empty()) {
    return Status::InvalidArgument("class name must not be empty");
  }
  if (FindClass(name) != nullptr || FindRelationship(name) != nullptr) {
    return Status::InvalidArgument("name '" + name + "' already defined");
  }
  std::vector<const ClassDef*> super_defs;
  for (const std::string& s : supers) {
    const ClassDef* sd = FindClass(s);
    if (sd == nullptr) {
      return Status::NotFound("unknown super-class '" + s + "'");
    }
    super_defs.push_back(sd);
  }
  auto cls = std::make_shared<ClassDef>(name, is_abstract);
  cls->supers_ = super_defs;
  for (AttributeDef& a : attributes) {
    if (a.name.empty()) {
      return Status::InvalidArgument("attribute name must not be empty");
    }
    for (const ClassDef* s : super_defs) {
      if (s->FindAttribute(a.name) != nullptr) {
        return Status::InvalidArgument("attribute '" + a.name +
                                       "' collides with inherited attribute");
      }
    }
    for (const AttributeDef& prev : cls->attributes_) {
      if (prev.name == a.name) {
        return Status::InvalidArgument("duplicate attribute '" + a.name +
                                       "'");
      }
    }
    PROMETHEUS_RETURN_IF_ERROR(CheckValueType(a, a.default_value));
    cls->attributes_.push_back(std::move(a));
  }
  cls->slots_ = LayoutSlots(cls->supers_, cls->attributes_);
  const ClassDef* raw = cls.get();
  SchemaTables& schema = mvcc::Unshare(schema_);
  for (const ClassDef* s : super_defs) schema.subclasses[s].push_back(raw);
  schema.classes_by_name[name] = raw;
  schema.classes.push_back(std::move(cls));
  Event ddl(EventKind::kAfterDefineClass);
  ddl.type_name = name;
  PROMETHEUS_RETURN_IF_ERROR(PublishEvent(ddl));
  return raw;
}

Result<const RelationshipDef*> Database::DefineRelationship(
    const std::string& name, const std::string& source_class,
    const std::string& target_class, RelationshipSemantics semantics,
    std::vector<AttributeDef> link_attributes,
    const std::vector<std::string>& supers) {
  AssertExclusiveAccess();
  if (name.empty()) {
    return Status::InvalidArgument("relationship name must not be empty");
  }
  if (FindClass(name) != nullptr || FindRelationship(name) != nullptr) {
    return Status::InvalidArgument("name '" + name + "' already defined");
  }
  const ClassDef* src = FindClass(source_class);
  if (src == nullptr) {
    return Status::NotFound("unknown source class '" + source_class + "'");
  }
  const ClassDef* dst = FindClass(target_class);
  if (dst == nullptr) {
    return Status::NotFound("unknown target class '" + target_class + "'");
  }
  // Table 3 of the thesis: not every combination of behaviours is
  // meaningful — reject the contradictory ones at definition time.
  if (semantics.max_out != kUnboundedCard &&
      semantics.min_out > semantics.max_out) {
    return Status::InvalidArgument("relationship '" + name +
                                   "': min_out exceeds max_out");
  }
  if (semantics.max_in != kUnboundedCard &&
      semantics.min_in > semantics.max_in) {
    return Status::InvalidArgument("relationship '" + name +
                                   "': min_in exceeds max_in");
  }
  if (!semantics.directed && semantics.inherit_attributes) {
    return Status::InvalidArgument(
        "relationship '" + name +
        "': attribute inheritance flows along the link direction and "
        "requires a directed relationship");
  }
  if (!semantics.directed && semantics.lifetime_dependent) {
    return Status::InvalidArgument(
        "relationship '" + name +
        "': lifetime dependency (whole deletes part) requires a directed "
        "relationship");
  }
  if (semantics.exclusive && semantics.exclusivity_group.empty()) {
    semantics.exclusivity_group = name;
  }
  std::vector<const RelationshipDef*> super_defs;
  for (const std::string& s : supers) {
    const RelationshipDef* sd = FindRelationship(s);
    if (sd == nullptr) {
      return Status::NotFound("unknown super-relationship '" + s + "'");
    }
    // Covariance: the refined relationship must relate refined classes.
    if (!src->IsSubclassOf(sd->source_class()) ||
        !dst->IsSubclassOf(sd->target_class())) {
      return Status::InvalidArgument(
          "relationship '" + name +
          "' does not covariantly refine super-relationship '" + s + "'");
    }
    super_defs.push_back(sd);
  }
  auto rel = std::make_shared<RelationshipDef>(name, src, dst,
                                               std::move(semantics));
  rel->supers_ = super_defs;
  for (AttributeDef& a : link_attributes) {
    if (a.name.empty()) {
      return Status::InvalidArgument("attribute name must not be empty");
    }
    PROMETHEUS_RETURN_IF_ERROR(CheckValueType(a, a.default_value));
    rel->attributes_.push_back(std::move(a));
  }
  rel->slots_ = LayoutSlots(rel->supers_, rel->attributes_);
  const RelationshipDef* raw = rel.get();
  SchemaTables& schema = mvcc::Unshare(schema_);
  for (const RelationshipDef* s : super_defs) schema.subrels[s].push_back(raw);
  schema.rels_by_name[name] = raw;
  schema.relationships.push_back(std::move(rel));
  Event ddl(EventKind::kAfterDefineRelationship);
  ddl.type_name = name;
  PROMETHEUS_RETURN_IF_ERROR(PublishEvent(ddl));
  return raw;
}

Status Database::DefineMethod(const std::string& class_name,
                              MethodDef method) {
  AssertExclusiveAccess();
  const ClassDef* cls = FindClass(class_name);
  if (cls == nullptr) {
    return Status::NotFound("unknown class '" + class_name + "'");
  }
  if (method.name.empty()) {
    return Status::InvalidArgument("method name must not be empty");
  }
  if (FindMethod(cls, method.name) != nullptr) {
    return Status::InvalidArgument("method '" + method.name +
                                   "' already declared");
  }
  mvcc::Unshare(schema_).methods[cls].push_back(std::move(method));
  return Status::Ok();
}

Status Database::DefineRelationshipTemplate(
    const std::string& name, RelationshipSemantics semantics,
    std::vector<AttributeDef> link_attributes) {
  AssertExclusiveAccess();
  if (name.empty()) {
    return Status::InvalidArgument("template name must not be empty");
  }
  if (rel_templates_.count(name)) {
    return Status::InvalidArgument("template '" + name +
                                   "' already defined");
  }
  rel_templates_[name] =
      RelationshipTemplate{std::move(semantics), std::move(link_attributes)};
  rel_template_order_.push_back(name);
  Event ddl(EventKind::kAfterDefineTemplate);
  ddl.type_name = name;
  return PublishEvent(ddl);
}

Result<const RelationshipDef*> Database::InstantiateRelationship(
    const std::string& template_name, const std::string& rel_name,
    const std::string& source_class, const std::string& target_class) {
  AssertExclusiveAccess();
  auto it = rel_templates_.find(template_name);
  if (it == rel_templates_.end()) {
    return Status::NotFound("unknown relationship template '" +
                            template_name + "'");
  }
  return DefineRelationship(rel_name, source_class, target_class,
                            it->second.semantics, it->second.attributes);
}

std::vector<std::string> Database::relationship_templates() const {
  return rel_template_order_;
}

const RelationshipSemantics* Database::FindTemplateSemantics(
    const std::string& name) const {
  auto it = rel_templates_.find(name);
  return it == rel_templates_.end() ? nullptr : &it->second.semantics;
}

const std::vector<AttributeDef>* Database::FindTemplateAttributes(
    const std::string& name) const {
  auto it = rel_templates_.find(name);
  return it == rel_templates_.end() ? nullptr : &it->second.attributes;
}

// --------------------------------------------------------------- internals

Status Database::PublishEvent(const Event& event) {
  if (!events_enabled_) return Status::Ok();
  return bus_.Publish(event);
}

void Database::RecordUndo(UndoRecord record) {
  undo_log_.push_back(std::move(record));
}

// Swap-remove: the last member takes the leaving one's position. Only the
// moved member is written, so `obj`/`link` (read-only here) stays valid.

void Database::RemoveFromExtent(const Object& obj) {
  std::vector<Oid>& extent = mvcc::Unshare(extents_[obj.cls]);
  const Oid last = extent.back();
  extent[obj.extent_pos] = last;
  extent.pop_back();
  if (last != obj.oid) MutableObject(last)->extent_pos = obj.extent_pos;
}

void Database::RestoreToExtent(Object* obj) {
  std::vector<Oid>& extent = mvcc::Unshare(extents_[obj->cls]);
  obj->extent_pos = extent.size();
  extent.push_back(obj->oid);
}

void Database::DetachLinkFromEndpoints(const Link& link) {
  if (Object* src = MutableObject(link.source)) {
    auto& v = src->out_links;
    v.erase(std::remove(v.begin(), v.end(), link.oid), v.end());
  }
  if (Object* dst = MutableObject(link.target)) {
    auto& v = dst->in_links;
    v.erase(std::remove(v.begin(), v.end(), link.oid), v.end());
  }
}

void Database::AttachLinkToEndpoints(const Link& link) {
  if (Object* src = MutableObject(link.source)) {
    src->out_links.push_back(link.oid);
  }
  if (Object* dst = MutableObject(link.target)) {
    dst->in_links.push_back(link.oid);
  }
}

void Database::AddToContextIndex(Link* link) {
  if (link->context == kNullOid) return;
  std::vector<Oid>& bucket = mvcc::Unshare(context_index_[link->context]);
  link->ctx_pos = bucket.size();
  bucket.push_back(link->oid);
}

void Database::RemoveFromContextIndex(const Link& link) {
  if (link.context == kNullOid) return;
  std::vector<Oid>& bucket = mvcc::Unshare(context_index_[link.context]);
  const Oid last = bucket.back();
  bucket[link.ctx_pos] = last;
  bucket.pop_back();
  if (last != link.oid) MutableLink(last)->ctx_pos = link.ctx_pos;
}

void Database::RemoveLinkFromExtent(const Link& link) {
  std::vector<Oid>& extent = mvcc::Unshare(link_extents_[link.def]);
  const Oid last = extent.back();
  extent[link.extent_pos] = last;
  extent.pop_back();
  if (last != link.oid) MutableLink(last)->extent_pos = link.extent_pos;
}

void Database::RestoreLinkToExtent(Link* link) {
  std::vector<Oid>& extent = mvcc::Unshare(link_extents_[link->def]);
  link->extent_pos = extent.size();
  extent.push_back(link->oid);
}

// ----------------------------------------------------------------- objects

Result<Oid> Database::CreateObject(const std::string& class_name,
                                   std::vector<AttrInit> inits) {
  AssertExclusiveAccess();
  const ClassDef* cls = FindClass(class_name);
  if (cls == nullptr) {
    return Status::NotFound("unknown class '" + class_name + "'");
  }
  if (cls->is_abstract()) {
    return Status::InvalidArgument("class '" + class_name + "' is abstract");
  }
  Oid oid = next_oid_++;

  Event before{EventKind::kBeforeCreateObject};
  before.subject = oid;
  before.type_name = cls->name();
  PROMETHEUS_RETURN_IF_ERROR(PublishEvent(before));

  auto obj = mvcc::MakeVersion(Object{});
  obj->oid = oid;
  obj->cls = cls;
  obj->attrs = DefaultSlots(cls->slots());
  PROMETHEUS_RETURN_IF_ERROR(
      AssignSlots(*cls, "class", std::move(inits), &obj->attrs));
  RestoreToExtent(obj.get());
  objects_.Put(oid, std::move(obj));

  UndoRecord undo{};
  undo.kind = UndoRecord::Kind::kCreateObject;
  undo.oid = oid;
  RecordUndo(std::move(undo));

  Event after = before;
  after.kind = EventKind::kAfterCreateObject;
  Status violation = PublishEvent(after);
  if (!in_transaction_) {
    if (violation.ok()) {
      undo_log_.clear();
    } else {
      UndoAll();
      return violation;
    }
  } else if (!violation.ok()) {
    return violation;
  }
  return oid;
}

Status Database::DeleteObject(Oid oid) {
  AssertExclusiveAccess();
  const Object* obj = GetObject(oid);
  if (obj == nullptr) {
    return Status::NotFound("no object @" + std::to_string(oid));
  }
  Event before{EventKind::kBeforeDeleteObject};
  before.subject = oid;
  before.type_name = obj->cls->name();
  PROMETHEUS_RETURN_IF_ERROR(PublishEvent(before));

  std::vector<Oid> cascade;
  Status st = DeleteObjectInternal(oid, &cascade);
  // Lifetime-dependent targets die with their whole (thesis 4.4.3).
  std::unordered_set<Oid> seen;
  while (st.ok() && !cascade.empty()) {
    Oid next = cascade.back();
    cascade.pop_back();
    if (!seen.insert(next).second) continue;
    if (GetObject(next) == nullptr) continue;  // already gone
    st = DeleteObjectInternal(next, &cascade);
  }
  if (!in_transaction_) {
    if (st.ok()) {
      undo_log_.clear();
    } else {
      UndoAll();
    }
  }
  return st;
}

Status Database::DeleteObjectInternal(Oid oid, std::vector<Oid>* cascade) {
  // Writable first, so the address holds across the link deletions below.
  Object* obj = MutableObject(oid);
  if (obj == nullptr) return Status::Ok();

  // Remove incident links first. Participant death always removes the link,
  // even for constant relationships.
  std::vector<Oid> incident = obj->out_links;
  incident.insert(incident.end(), obj->in_links.begin(), obj->in_links.end());
  for (Oid lid : incident) {
    const Link* link = GetLink(lid);
    if (link == nullptr) continue;
    if (link->source == oid && link->def->semantics().lifetime_dependent) {
      cascade->push_back(link->target);
    }
    PROMETHEUS_RETURN_IF_ERROR(DeleteLinkInternal(lid));
  }

  Event after{EventKind::kAfterDeleteObject};
  after.subject = oid;
  after.type_name = obj->cls->name();

  RemoveFromExtent(*obj);
  UndoRecord undo{};
  undo.kind = UndoRecord::Kind::kDeleteObject;
  undo.oid = oid;
  undo.object_version = objects_.Take(oid);
  RecordUndo(std::move(undo));

  return PublishEvent(after);
}

Status Database::SetAttribute(Oid oid, const std::string& name, Value value) {
  AssertExclusiveAccess();
  Object* obj = MutableObject(oid);
  if (obj == nullptr) {
    return Status::NotFound("no object @" + std::to_string(oid));
  }
  const std::size_t slot = obj->cls->SlotOf(name);
  if (slot == kNoSlot) {
    return Status::NotFound("class '" + obj->cls->name() +
                            "' has no attribute '" + name + "'");
  }
  const AttributeDef* attr = obj->cls->slots()[slot];
  PROMETHEUS_RETURN_IF_ERROR(CheckValueType(*attr, value));
  if (semantics_enabled_ && !attr->ref_class.empty() &&
      value.type() == ValueType::kRef) {
    if (!IsInstanceOf(value.AsRef(), attr->ref_class)) {
      return Status::TypeError("attribute '" + name + "' must reference a " +
                               attr->ref_class);
    }
  }
  Value old = obj->attrs[slot];

  Event before{EventKind::kBeforeSetAttribute};
  before.subject = oid;
  before.type_name = obj->cls->name();
  before.attribute = name;
  before.old_value = old;
  before.new_value = value;
  PROMETHEUS_RETURN_IF_ERROR(PublishEvent(before));

  obj->attrs[slot] = std::move(value);
  UndoRecord undo{};
  undo.kind = UndoRecord::Kind::kSetAttribute;
  undo.oid = oid;
  undo.slot = slot;
  undo.old_value = std::move(old);
  RecordUndo(std::move(undo));

  Event after = before;
  after.kind = EventKind::kAfterSetAttribute;
  Status violation = PublishEvent(after);
  if (!in_transaction_) {
    if (violation.ok()) {
      undo_log_.clear();
    } else {
      UndoAll();
      return violation;
    }
  } else if (!violation.ok()) {
    return violation;
  }
  return Status::Ok();
}

// ------------------------------------------------------------------- links

Status Database::CheckLinkSemantics(const RelationshipDef* def,
                                    const Object& source,
                                    const Object& target) const {
  const RelationshipSemantics& sem = def->semantics();
  // Cardinality maxima.
  if (sem.max_out != kUnboundedCard) {
    std::uint32_t n = 0;
    for (Oid lid : source.out_links) {
      const Link* l = GetLink(lid);
      if (l != nullptr && l->def->IsSubrelationshipOf(def)) ++n;
    }
    if (n >= sem.max_out) {
      return Status::ConstraintViolation(
          "cardinality: source @" + std::to_string(source.oid) +
          " already has " + std::to_string(n) + " '" + def->name() +
          "' links (max " + std::to_string(sem.max_out) + ")");
    }
  }
  if (sem.max_in != kUnboundedCard) {
    std::uint32_t n = 0;
    for (Oid lid : target.in_links) {
      const Link* l = GetLink(lid);
      if (l != nullptr && l->def->IsSubrelationshipOf(def)) ++n;
    }
    if (n >= sem.max_in) {
      return Status::ConstraintViolation(
          "cardinality: target @" + std::to_string(target.oid) +
          " already has " + std::to_string(n) + " '" + def->name() +
          "' links (max " + std::to_string(sem.max_in) + ")");
    }
  }
  // Exclusivity across the group (figure 15).
  if (sem.exclusive) {
    for (Oid lid : target.in_links) {
      const Link* l = GetLink(lid);
      if (l == nullptr) continue;
      const RelationshipSemantics& other = l->def->semantics();
      if (other.exclusive &&
          other.exclusivity_group == sem.exclusivity_group) {
        return Status::ConstraintViolation(
            "exclusivity: target @" + std::to_string(target.oid) +
            " already participates in exclusive group '" +
            sem.exclusivity_group + "' via '" + l->def->name() + "'");
      }
    }
  }
  // Sharability (figure 16).
  if (!sem.shareable) {
    for (Oid lid : target.in_links) {
      const Link* l = GetLink(lid);
      if (l != nullptr && l->def->IsSubrelationshipOf(def)) {
        return Status::ConstraintViolation(
            "sharability: target @" + std::to_string(target.oid) +
            " is an unshared component of '" + def->name() + "'");
      }
    }
  }
  return Status::Ok();
}

Result<Oid> Database::CreateLink(const std::string& rel_name, Oid source,
                                 Oid target, Oid context,
                                 std::vector<AttrInit> inits) {
  AssertExclusiveAccess();
  const RelationshipDef* def = FindRelationship(rel_name);
  if (def == nullptr) {
    return Status::NotFound("unknown relationship '" + rel_name + "'");
  }
  const Object* src = GetObject(source);
  if (src == nullptr) {
    return Status::NotFound("no source object @" + std::to_string(source));
  }
  const Object* dst = GetObject(target);
  if (dst == nullptr) {
    return Status::NotFound("no target object @" + std::to_string(target));
  }
  if (semantics_enabled_) {
    if (!src->cls->IsSubclassOf(def->source_class())) {
      return Status::TypeError("source @" + std::to_string(source) + " (" +
                               src->cls->name() + ") is not a " +
                               def->source_class()->name());
    }
    if (!dst->cls->IsSubclassOf(def->target_class())) {
      return Status::TypeError("target @" + std::to_string(target) + " (" +
                               dst->cls->name() + ") is not a " +
                               def->target_class()->name());
    }
    PROMETHEUS_RETURN_IF_ERROR(CheckLinkSemantics(def, *src, *dst));
    if (context != kNullOid && GetObject(context) == nullptr) {
      return Status::NotFound("no context object @" +
                              std::to_string(context));
    }
  }
  Oid oid = next_oid_++;

  Event before{EventKind::kBeforeCreateLink};
  before.subject = oid;
  before.type_name = def->name();
  before.source = source;
  before.target = target;
  before.context = context;
  PROMETHEUS_RETURN_IF_ERROR(PublishEvent(before));

  auto link = mvcc::MakeVersion(Link{});
  link->oid = oid;
  link->def = def;
  link->source = source;
  link->target = target;
  link->context = context;
  link->attrs = DefaultSlots(def->slots());
  PROMETHEUS_RETURN_IF_ERROR(
      AssignSlots(*def, "relationship", std::move(inits), &link->attrs));
  AttachLinkToEndpoints(*link);
  RestoreLinkToExtent(link.get());
  AddToContextIndex(link.get());
  links_.Put(oid, std::move(link));

  UndoRecord undo{};
  undo.kind = UndoRecord::Kind::kCreateLink;
  undo.oid = oid;
  RecordUndo(std::move(undo));

  Event after = before;
  after.kind = EventKind::kAfterCreateLink;
  Status violation = PublishEvent(after);
  if (!in_transaction_) {
    if (violation.ok()) {
      undo_log_.clear();
    } else {
      UndoAll();
      return violation;
    }
  } else if (!violation.ok()) {
    return violation;
  }
  return oid;
}

Status Database::DeleteLink(Oid oid) {
  AssertExclusiveAccess();
  const Link* link = GetLink(oid);
  if (link == nullptr) {
    return Status::NotFound("no link @" + std::to_string(oid));
  }
  if (semantics_enabled_ && link->def->semantics().constant) {
    return Status::ConstraintViolation("link @" + std::to_string(oid) +
                                       " of constant relationship '" +
                                       link->def->name() +
                                       "' cannot be deleted");
  }
  Status st = DeleteLinkInternal(oid);
  if (!in_transaction_) {
    if (st.ok()) {
      undo_log_.clear();
    } else {
      UndoAll();
    }
  }
  return st;
}

Status Database::DeleteLinkInternal(Oid oid) {
  // Constancy is checked by the public entry point. Writable first, so the
  // address holds across the before-event's rules.
  Link* link = MutableLink(oid);
  if (link == nullptr) return Status::Ok();

  Event before{EventKind::kBeforeDeleteLink};
  before.subject = oid;
  before.type_name = link->def->name();
  before.source = link->source;
  before.target = link->target;
  before.context = link->context;
  PROMETHEUS_RETURN_IF_ERROR(PublishEvent(before));

  DetachLinkFromEndpoints(*link);
  RemoveLinkFromExtent(*link);
  RemoveFromContextIndex(*link);

  Event after = before;
  after.kind = EventKind::kAfterDeleteLink;

  UndoRecord undo{};
  undo.kind = UndoRecord::Kind::kDeleteLink;
  undo.oid = oid;
  undo.link_version = links_.Take(oid);
  RecordUndo(std::move(undo));

  return PublishEvent(after);
}

Status Database::SetLinkAttribute(Oid oid, const std::string& name,
                                  Value value) {
  AssertExclusiveAccess();
  Link* link = MutableLink(oid);
  if (link == nullptr) {
    return Status::NotFound("no link @" + std::to_string(oid));
  }
  if (semantics_enabled_ && link->def->semantics().constant) {
    return Status::ConstraintViolation("link @" + std::to_string(oid) +
                                       " of constant relationship '" +
                                       link->def->name() +
                                       "' cannot be modified");
  }
  const std::size_t slot = link->def->SlotOf(name);
  if (slot == kNoSlot) {
    return Status::NotFound("relationship '" + link->def->name() +
                            "' has no attribute '" + name + "'");
  }
  PROMETHEUS_RETURN_IF_ERROR(CheckValueType(*link->def->slots()[slot], value));
  Value old = link->attrs[slot];

  Event before{EventKind::kBeforeSetLinkAttribute};
  before.subject = oid;
  before.type_name = link->def->name();
  before.source = link->source;
  before.target = link->target;
  before.context = link->context;
  before.attribute = name;
  before.old_value = old;
  before.new_value = value;
  PROMETHEUS_RETURN_IF_ERROR(PublishEvent(before));

  link->attrs[slot] = std::move(value);
  UndoRecord undo{};
  undo.kind = UndoRecord::Kind::kSetLinkAttribute;
  undo.oid = oid;
  undo.slot = slot;
  undo.old_value = std::move(old);
  RecordUndo(std::move(undo));

  Event after = before;
  after.kind = EventKind::kAfterSetLinkAttribute;
  Status violation = PublishEvent(after);
  if (!in_transaction_) {
    if (violation.ok()) {
      undo_log_.clear();
    } else {
      UndoAll();
      return violation;
    }
  } else if (!violation.ok()) {
    return violation;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------- synonyms

Status Database::DeclareSynonym(Oid a, Oid b) {
  AssertExclusiveAccess();
  if (GetObject(a) == nullptr || GetObject(b) == nullptr) {
    return Status::NotFound("synonym declaration requires two live objects");
  }
  Oid ra = CanonicalOf(a);
  Oid rb = CanonicalOf(b);
  if (ra == rb) return Status::Ok();
  // Attach the larger oid's root under the smaller so the canonical
  // representative is deterministic (the oldest object).
  if (rb < ra) std::swap(ra, rb);
  mvcc::Unshare(synonym_parent_)[rb] = ra;
  UndoRecord undo{};
  undo.kind = UndoRecord::Kind::kDeclareSynonym;
  undo.oid = rb;
  RecordUndo(std::move(undo));
  Event after(EventKind::kAfterDeclareSynonym);
  after.source = ra;
  after.target = rb;
  PublishEvent(after);
  if (!in_transaction_) undo_log_.clear();
  return Status::Ok();
}

// ------------------------------------------------------ storage substrate

Status Database::RestoreObjectRaw(Oid oid, const std::string& class_name,
                                  std::vector<AttrInit> attrs) {
  AssertExclusiveAccess();
  if (in_transaction_) {
    return Status::FailedPrecondition(
        "raw restore is not valid inside a transaction");
  }
  PROMETHEUS_RETURN_IF_ERROR(CheckRestorableOid(oid));
  const ClassDef* cls = FindClass(class_name);
  if (cls == nullptr) {
    return Status::NotFound("unknown class '" + class_name + "'");
  }
  auto obj = mvcc::MakeVersion(Object{});
  obj->oid = oid;
  obj->cls = cls;
  obj->attrs = DefaultSlots(cls->slots());
  PROMETHEUS_RETURN_IF_ERROR(
      AssignSlots(*cls, "class", std::move(attrs), &obj->attrs));
  RestoreToExtent(obj.get());
  objects_.Put(oid, std::move(obj));
  EnsureNextOidAbove(oid);
  return Status::Ok();
}

Status Database::RestoreLinkRaw(Oid oid, const std::string& rel_name,
                                Oid source, Oid target, Oid context,
                                std::vector<AttrInit> attrs) {
  AssertExclusiveAccess();
  if (in_transaction_) {
    return Status::FailedPrecondition(
        "raw restore is not valid inside a transaction");
  }
  PROMETHEUS_RETURN_IF_ERROR(CheckRestorableOid(oid));
  const RelationshipDef* def = FindRelationship(rel_name);
  if (def == nullptr) {
    return Status::NotFound("unknown relationship '" + rel_name + "'");
  }
  if (GetObject(source) == nullptr || GetObject(target) == nullptr) {
    return Status::NotFound("link endpoints must be restored first");
  }
  auto link = mvcc::MakeVersion(Link{});
  link->oid = oid;
  link->def = def;
  link->source = source;
  link->target = target;
  link->context = context;
  link->attrs = DefaultSlots(def->slots());
  PROMETHEUS_RETURN_IF_ERROR(
      AssignSlots(*def, "relationship", std::move(attrs), &link->attrs));
  AttachLinkToEndpoints(*link);
  RestoreLinkToExtent(link.get());
  AddToContextIndex(link.get());
  links_.Put(oid, std::move(link));
  EnsureNextOidAbove(oid);
  return Status::Ok();
}

Status Database::CheckRestorableOid(Oid oid) const {
  if (oid == kNullOid || oid >= OidTable<Object>::kOidLimit ||
      objects_.Find(oid) != nullptr || links_.Find(oid) != nullptr) {
    return Status::InvalidArgument("oid @" + std::to_string(oid) +
                                   " is unavailable");
  }
  return Status::Ok();
}

Status Database::RestoreSynonymRaw(Oid child, Oid parent) {
  AssertExclusiveAccess();
  if (child == parent) return Status::Ok();
  mvcc::Unshare(synonym_parent_)[child] = parent;
  return Status::Ok();
}

void Database::EnsureNextOidAbove(Oid oid) {
  if (next_oid_ <= oid) next_oid_ = oid + 1;
}

Status Database::Clear() {
  AssertExclusiveAccess();
  if (in_transaction_) {
    return Status::FailedPrecondition("cannot clear inside a transaction");
  }
  undo_log_.clear();
  // Snapshots taken before the clear stay fully readable: they share the
  // old pages and structures, and their SchemaTables own the old
  // definitions.
  synonym_parent_.reset();
  context_index_.clear();
  link_extents_.clear();
  extents_.clear();
  links_.Clear();
  objects_.Clear();
  schema_ = std::make_shared<SchemaTables>();
  rel_template_order_.clear();
  rel_templates_.clear();
  next_oid_ = 1;
  return Status::Ok();
}

// ------------------------------------------------------------ transactions

Status Database::Begin() {
  AssertExclusiveAccess();
  if (in_transaction_) {
    return Status::FailedPrecondition("nested transactions are unsupported");
  }
  in_transaction_ = true;
  undo_log_.clear();
  Event ev{EventKind::kTransactionBegin};
  PublishEvent(ev);
  return Status::Ok();
}

Status Database::Commit() {
  AssertExclusiveAccess();
  if (!in_transaction_) {
    return Status::FailedPrecondition("no transaction in progress");
  }
  Event pre{EventKind::kBeforeCommit};
  Status st = PublishEvent(pre);
  if (!st.ok()) {
    UndoAll();
    in_transaction_ = false;
    Event ab{EventKind::kAfterAbort};
    PublishEvent(ab);
    return Status::Aborted("commit vetoed: " + st.ToString());
  }
  undo_log_.clear();
  in_transaction_ = false;
  Event post{EventKind::kAfterCommit};
  PublishEvent(post);
  return Status::Ok();
}

Status Database::Abort() {
  AssertExclusiveAccess();
  if (!in_transaction_) {
    return Status::FailedPrecondition("no transaction in progress");
  }
  UndoAll();
  in_transaction_ = false;
  Event ev{EventKind::kAfterAbort};
  PublishEvent(ev);
  return Status::Ok();
}

void Database::UndoAll() {
  while (!undo_log_.empty()) {
    UndoRecord rec = std::move(undo_log_.back());
    undo_log_.pop_back();
    // Each branch restores the pre-mutation state and publishes a
    // compensating after-event describing the inverse mutation so derived
    // state (indexes, views, classification caches) stays consistent.
    Event comp;
    comp.compensating = true;
    switch (rec.kind) {
      case UndoRecord::Kind::kCreateObject: {
        const Object* obj = GetObject(rec.oid);
        if (obj == nullptr) break;
        comp.kind = EventKind::kAfterDeleteObject;
        comp.subject = rec.oid;
        comp.type_name = obj->cls->name();
        RemoveFromExtent(*obj);
        objects_.Take(rec.oid);
        PublishEvent(comp);
        break;
      }
      case UndoRecord::Kind::kDeleteObject: {
        objects_.Put(rec.oid, std::move(rec.object_version));
        Object* obj = MutableObject(rec.oid);
        // Incident-link vectors are rebuilt by the link undo records that
        // precede this record in the log (and hence follow it in undo
        // order), so clear them here.
        obj->out_links.clear();
        obj->in_links.clear();
        RestoreToExtent(obj);
        comp.kind = EventKind::kAfterCreateObject;
        comp.subject = rec.oid;
        comp.type_name = obj->cls->name();
        PublishEvent(comp);
        break;
      }
      case UndoRecord::Kind::kSetAttribute: {
        Object* obj = MutableObject(rec.oid);
        if (obj == nullptr) break;
        comp.kind = EventKind::kAfterSetAttribute;
        comp.subject = rec.oid;
        comp.type_name = obj->cls->name();
        comp.attribute = obj->cls->slots()[rec.slot]->name;
        comp.old_value = obj->attrs[rec.slot];
        comp.new_value = rec.old_value;
        obj->attrs[rec.slot] = std::move(rec.old_value);
        PublishEvent(comp);
        break;
      }
      case UndoRecord::Kind::kCreateLink: {
        const Link* link = GetLink(rec.oid);
        if (link == nullptr) break;
        comp.kind = EventKind::kAfterDeleteLink;
        comp.subject = rec.oid;
        comp.type_name = link->def->name();
        comp.source = link->source;
        comp.target = link->target;
        comp.context = link->context;
        DetachLinkFromEndpoints(*link);
        RemoveLinkFromExtent(*link);
        RemoveFromContextIndex(*link);
        links_.Take(rec.oid);
        PublishEvent(comp);
        break;
      }
      case UndoRecord::Kind::kDeleteLink: {
        links_.Put(rec.oid, std::move(rec.link_version));
        Link* link = MutableLink(rec.oid);
        AttachLinkToEndpoints(*link);
        RestoreLinkToExtent(link);
        AddToContextIndex(link);
        comp.kind = EventKind::kAfterCreateLink;
        comp.subject = rec.oid;
        comp.type_name = link->def->name();
        comp.source = link->source;
        comp.target = link->target;
        comp.context = link->context;
        PublishEvent(comp);
        break;
      }
      case UndoRecord::Kind::kSetLinkAttribute: {
        Link* link = MutableLink(rec.oid);
        if (link == nullptr) break;
        comp.kind = EventKind::kAfterSetLinkAttribute;
        comp.subject = rec.oid;
        comp.type_name = link->def->name();
        comp.source = link->source;
        comp.target = link->target;
        comp.context = link->context;
        comp.attribute = link->def->slots()[rec.slot]->name;
        comp.old_value = link->attrs[rec.slot];
        comp.new_value = rec.old_value;
        link->attrs[rec.slot] = std::move(rec.old_value);
        PublishEvent(comp);
        break;
      }
      case UndoRecord::Kind::kDeclareSynonym: {
        mvcc::Unshare(synonym_parent_).erase(rec.oid);
        break;
      }
    }
  }
}

// ------------------------------------------------------ MVCC publication

void Database::PublishSnapshot(std::uint64_t epoch) {
  // Even a no-op section republishes so the snapshot epoch tracks the
  // database epoch exactly — the result cache's epoch-equality check
  // depends on that.
  std::shared_ptr<const DbSnapshot> snap(new DbSnapshot(*this, epoch));
  {
    std::lock_guard<std::mutex> lk(snap_mu_);
    current_snapshot_.swap(snap);
  }
  snap.reset();  // drop the superseded cut before reporting retention
  UpdateMvccGauges();
}

SnapshotHandle Database::AcquireSnapshot() {
  if (!mvcc_engaged_.load(std::memory_order_acquire)) {
    // Engagement. The write mutex excludes writers, so the cut is
    // consistent at the current epoch; it is published at that epoch, which
    // no earlier snapshot carries.
    std::lock_guard<std::mutex> lock(guard_);
    if (!mvcc_engaged_.load(std::memory_order_relaxed)) {
      PublishSnapshot(epoch());
      mvcc_engaged_.store(true, std::memory_order_release);
    }
  }
  std::shared_ptr<const DbSnapshot> snap;
  {
    std::lock_guard<std::mutex> lk(snap_mu_);
    snap = current_snapshot_;
  }
  RegisterPin(snap->epoch());
  return SnapshotHandle(std::move(snap), this);
}

void Database::RegisterPin(std::uint64_t epoch) {
  {
    std::lock_guard<std::mutex> lk(snap_reg_mu_);
    pinned_epochs_.insert(epoch);
  }
  UpdateMvccGauges();
}

void Database::ReleasePin(std::uint64_t epoch) {
  {
    std::lock_guard<std::mutex> lk(snap_reg_mu_);
    auto it = pinned_epochs_.find(epoch);
    if (it != pinned_epochs_.end()) pinned_epochs_.erase(it);
  }
  UpdateMvccGauges();
}

std::size_t Database::pinned_snapshots() const {
  std::lock_guard<std::mutex> lk(snap_reg_mu_);
  return pinned_epochs_.size();
}

std::uint64_t Database::oldest_pinned_epoch() const {
  std::lock_guard<std::mutex> lk(snap_reg_mu_);
  return pinned_epochs_.empty() ? epoch() : *pinned_epochs_.begin();
}

void Database::UpdateMvccGauges() const {
  if (!obs::MetricsEnabled()) return;
  const MvccGauges& g = MvccGauges::Get();
  g.retained->Set(static_cast<std::int64_t>(mvcc::RetainedVersions()));
  g.live->Set(static_cast<std::int64_t>(mvcc::LiveSnapshots()));
  std::lock_guard<std::mutex> lk(snap_reg_mu_);
  g.pinned->Set(static_cast<std::int64_t>(pinned_epochs_.size()));
  g.oldest->Set(static_cast<std::int64_t>(
      pinned_epochs_.empty() ? epoch() : *pinned_epochs_.begin()));
}

// ------------------------------------------------------------- validation

Status Database::ValidateCardinality() const {
  for (const auto& rel : schema_->relationships) {
    const RelationshipSemantics& sem = rel->semantics();
    if (sem.min_out == 0 && sem.min_in == 0) continue;
    if (sem.min_out > 0) {
      for (Oid oid : Extent(rel->source_class()->name())) {
        const Object* obj = GetObject(oid);
        std::uint32_t n = 0;
        for (Oid lid : obj->out_links) {
          const Link* l = GetLink(lid);
          if (l != nullptr && l->def->IsSubrelationshipOf(rel.get())) ++n;
        }
        if (n < sem.min_out) {
          return Status::ConstraintViolation(
              "object @" + std::to_string(oid) + " has " + std::to_string(n) +
              " outgoing '" + rel->name() + "' links (min " +
              std::to_string(sem.min_out) + ")");
        }
      }
    }
    if (sem.min_in > 0) {
      for (Oid oid : Extent(rel->target_class()->name())) {
        const Object* obj = GetObject(oid);
        std::uint32_t n = 0;
        for (Oid lid : obj->in_links) {
          const Link* l = GetLink(lid);
          if (l != nullptr && l->def->IsSubrelationshipOf(rel.get())) ++n;
        }
        if (n < sem.min_in) {
          return Status::ConstraintViolation(
              "object @" + std::to_string(oid) + " has " + std::to_string(n) +
              " incoming '" + rel->name() + "' links (min " +
              std::to_string(sem.min_in) + ")");
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace prometheus
