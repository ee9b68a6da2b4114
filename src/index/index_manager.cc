#include "index/index_manager.h"

#include <utility>
#include <vector>

namespace prometheus {

IndexManager::IndexManager(Database* db) : db_(db) {
  listener_ = db_->bus().Subscribe(
      [this](const Event& e) {
        OnEvent(e);
        return Status::Ok();
      },
      /*priority=*/50);
}

IndexManager::~IndexManager() {
  Database::WriteGuard guard(*db_);
  db_->bus().Unsubscribe(listener_);
  std::erase_if(db_->MutableIndexes(), [this](const AttributeIndex& ix) {
    return ix.owner == this;
  });
}

Status IndexManager::CreateIndex(const std::string& class_name,
                                 const std::string& attr, bool ordered) {
  const ClassDef* cls = db_->FindClass(class_name);
  if (cls == nullptr) {
    return Status::NotFound("unknown class '" + class_name + "'");
  }
  if (cls->FindAttribute(attr) == nullptr) {
    return Status::NotFound("class '" + class_name + "' has no attribute '" +
                            attr + "'");
  }
  if (db_->HasIndex(class_name, attr)) {
    return Status::InvalidArgument("index on " + class_name + "." + attr +
                                   " already exists");
  }
  AttributeIndex index;
  index.cls = cls;
  index.attr = attr;
  index.ordered = ordered;
  index.owner = this;
  // Bulk build from the deep extent: collect, sort once, cut into runs.
  std::vector<IndexEntry> entries;
  std::vector<IndexedObject> keys;
  for (Oid oid : db_->Extent(class_name)) {
    Result<Value> v = db_->GetAttribute(oid, attr);
    if (!v.ok()) continue;
    OrderedKey key = index.KeyOf(v.value());
    entries.push_back({key, oid});
    keys.push_back({oid, std::move(key)});
  }
  index.entries = SortedRuns<IndexEntry>(std::move(entries));
  index.keys = SortedRuns<IndexedObject>(std::move(keys));
  db_->MutableIndexes().push_back(std::move(index));
  return Status::Ok();
}

Status IndexManager::DropIndex(const std::string& class_name,
                               const std::string& attr) {
  const AttributeIndex* found = db_->FindIndex(class_name, attr);
  if (found == nullptr || found->owner != this) {
    return Status::NotFound("no index on " + class_name + "." + attr);
  }
  const ClassDef* cls = found->cls;
  std::erase_if(db_->MutableIndexes(), [&](const AttributeIndex& ix) {
    return ix.owner == this && ix.cls == cls && ix.attr == attr;
  });
  return Status::Ok();
}

void IndexManager::OnEvent(const Event& event) {
  const EventKind kind = event.kind;
  if (kind != EventKind::kAfterCreateObject &&
      kind != EventKind::kAfterDeleteObject &&
      kind != EventKind::kAfterSetAttribute) {
    return;
  }
  const Object* created = kind == EventKind::kAfterCreateObject
                              ? db_->GetObject(event.subject)
                              : nullptr;
  const IndexedObject probe{event.subject, {}};
  for (std::size_t i = 0; i < db_->indexes().size(); ++i) {
    // Read first: the cut's index tables are cloned for writing only when
    // this event changes one of this manager's indexes.
    const AttributeIndex& ix = db_->indexes()[i];
    if (ix.owner != this) continue;
    Value value = event.new_value;
    if (kind == EventKind::kAfterCreateObject) {
      if (created == nullptr || !created->cls->IsSubclassOf(ix.cls)) continue;
      Result<Value> v = db_->GetAttribute(event.subject, ix.attr);
      if (!v.ok()) continue;
      value = std::move(v).value();
    } else if ((kind == EventKind::kAfterSetAttribute &&
                ix.attr != event.attribute) ||
               ix.keys.Find(probe) == nullptr) {
      continue;
    }
    AttributeIndex& w = db_->MutableIndexes()[i];
    if (kind != EventKind::kAfterCreateObject) {
      w.entries.Erase({w.keys.Find(probe)->key, event.subject});
      w.keys.Erase(probe);
    }
    if (kind != EventKind::kAfterDeleteObject) {
      OrderedKey key = w.KeyOf(value);
      w.entries.Insert({key, event.subject});
      w.keys.Insert({event.subject, std::move(key)});
    }
  }
}

}  // namespace prometheus
