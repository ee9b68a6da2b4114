#ifndef PROMETHEUS_CORE_READ_ALGORITHMS_H_
#define PROMETHEUS_CORE_READ_ALGORITHMS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/oid.h"
#include "common/result.h"
#include "common/value.h"
#include "core/instance.h"
#include "core/read_view.h"
#include "core/schema.h"

// The record-level read algorithms shared by the live `Database` and the
// immutable `DbSnapshot`. Each is a template over the view so the record
// lookups (`GetObject`/`GetLink`, final in both classes) bind statically:
// one implementation, and no virtual call per hop.
namespace prometheus::internal {

/// Calls `fn(link)` for every live link incident to `obj` that a walk in
/// `dir` crosses, restricted to `def` and its sub-relationships (any when
/// null) and to `context` (any when kNullOid). Undirected relationship
/// classes are walked both ways. One pass over the adjacency vectors, one
/// record lookup per link.
template <typename View, typename Fn>
void ForEachIncident(const View& view, const Object& obj, Direction dir,
                     const RelationshipDef* def, Oid context, Fn&& fn) {
  bool want_out = dir != Direction::kIn;
  bool want_in = dir != Direction::kOut;
  if (def != nullptr && !def->semantics().directed) {
    want_out = want_in = true;
  }
  auto walk = [&](const std::vector<Oid>& side) {
    for (Oid lid : side) {
      const Link* link = view.GetLink(lid);
      if (link == nullptr) continue;
      if (def != nullptr && !link->def->IsSubrelationshipOf(def)) continue;
      if (context != kNullOid && link->context != context) continue;
      fn(*link);
    }
  };
  if (want_out) walk(obj.out_links);
  if (want_in) walk(obj.in_links);
}

template <typename View>
std::vector<Oid> IncidentLinksOf(const View& view, Oid oid, Direction dir,
                                 const RelationshipDef* def, Oid context) {
  std::vector<Oid> out;
  if (const Object* obj = view.GetObject(oid)) {
    ForEachIncident(view, *obj, dir, def, context,
                    [&out](const Link& link) { out.push_back(link.oid); });
  }
  return out;
}

/// Appends the far endpoint of every link `ForEachIncident` yields.
template <typename View>
void AppendNeighbors(const View& view, Oid oid, const RelationshipDef* def,
                     Direction dir, Oid context, std::vector<Oid>* out) {
  if (const Object* obj = view.GetObject(oid)) {
    ForEachIncident(view, *obj, dir, def, context, [&](const Link& link) {
      out->push_back(link.source == oid ? link.target : link.source);
    });
  }
}

template <typename View>
std::vector<Oid> NeighborsOf(const View& view, Oid oid,
                             const std::string& rel_name, Direction dir,
                             Oid context) {
  std::vector<Oid> out;
  if (const RelationshipDef* def = view.FindRelationship(rel_name)) {
    AppendNeighbors(view, oid, def, dir, context, &out);
  }
  return out;
}

template <typename View>
Result<std::vector<Oid>> TraverseOf(const View& view, Oid start,
                                    const std::string& rel_name,
                                    std::uint32_t min_depth,
                                    std::uint32_t max_depth, Direction dir,
                                    Oid context) {
  const RelationshipDef* def = view.FindRelationship(rel_name);
  if (def == nullptr) {
    return Status::NotFound("unknown relationship '" + rel_name + "'");
  }
  if (view.GetObject(start) == nullptr) {
    return Status::NotFound("no object @" + std::to_string(start));
  }
  if (max_depth != 0 && min_depth > max_depth) {
    return Status::InvalidArgument("min_depth exceeds max_depth");
  }
  std::vector<Oid> result;
  std::unordered_set<Oid> visited{start};
  std::deque<std::pair<Oid, std::uint32_t>> frontier{{start, 0}};
  std::vector<Oid> next;
  if (min_depth == 0) result.push_back(start);
  while (!frontier.empty()) {
    auto [oid, depth] = frontier.front();
    frontier.pop_front();
    if (max_depth != 0 && depth == max_depth) continue;
    next.clear();
    AppendNeighbors(view, oid, def, dir, context, &next);
    for (Oid n : next) {
      if (!visited.insert(n).second) continue;
      std::uint32_t d = depth + 1;
      if (d >= min_depth) result.push_back(n);
      frontier.emplace_back(n, d);
    }
  }
  return result;
}

/// Attribute read with the inherited-attribute fallback over incoming links
/// whose relationship class enables `inherit_attributes` (thesis 4.4.5).
template <typename View>
Result<Value> GetAttributeOf(const View& view, Oid oid,
                             const std::string& name) {
  const Object* obj = view.GetObject(oid);
  if (obj == nullptr) {
    return Status::NotFound("no object @" + std::to_string(oid));
  }
  if (const Value* v = obj->Attr(name)) return *v;
  for (Oid lid : obj->in_links) {
    const Link* link = view.GetLink(lid);
    if (link == nullptr || !link->def->semantics().inherit_attributes) {
      continue;
    }
    if (const Value* v = link->Attr(name)) return *v;
  }
  return Status::NotFound("object @" + std::to_string(oid) +
                          " has no attribute '" + name + "'");
}

template <typename View>
Result<Value> GetLinkAttributeOf(const View& view, Oid oid,
                                 const std::string& name) {
  const Link* link = view.GetLink(oid);
  if (link == nullptr) {
    return Status::NotFound("no link @" + std::to_string(oid));
  }
  if (const Value* v = link->Attr(name)) return *v;
  return Status::NotFound("relationship '" + link->def->name() +
                          "' has no attribute '" + name + "'");
}

}  // namespace prometheus::internal

#endif  // PROMETHEUS_CORE_READ_ALGORITHMS_H_
