#include "core/schema.h"

namespace prometheus {

bool ClassDef::IsSubclassOf(const ClassDef* other) const {
  if (this == other) return true;
  for (const ClassDef* s : supers_) {
    if (s->IsSubclassOf(other)) return true;
  }
  return false;
}

namespace {

std::size_t FindSlot(const std::vector<const AttributeDef*>& slots,
                     std::string_view name) {
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i]->name == name) return i;
  }
  return kNoSlot;
}

}  // namespace

std::size_t ClassDef::SlotOf(std::string_view name) const {
  return FindSlot(slots_, name);
}

bool RelationshipDef::IsSubrelationshipOf(const RelationshipDef* other) const {
  if (this == other) return true;
  for (const RelationshipDef* s : supers_) {
    if (s->IsSubrelationshipOf(other)) return true;
  }
  return false;
}

std::size_t RelationshipDef::SlotOf(std::string_view name) const {
  return FindSlot(slots_, name);
}

}  // namespace prometheus
