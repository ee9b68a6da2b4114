#include "oo7/oo7.h"

#include <algorithm>
#include <cassert>

#include "index/index_manager.h"

namespace prometheus::oo7 {

namespace {

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  return a;
}

constexpr std::int64_t kDateLo = 1000;
constexpr std::int64_t kDateHi = 3000;

}  // namespace

// ----------------------------------------------------------- Prometheus

PrometheusOo7::PrometheusOo7(const Config& config)
    : config_(config), rng_(config.seed) {
  // Benchmark schema (figure 48): the OO7 design hierarchy expressed with
  // first-class relationships.
  (void)db_.DefineClass("DesignObj",
                        {},
                        {Attr("id", ValueType::kInt),
                         Attr("build_date", ValueType::kInt)},
                        /*is_abstract=*/true);
  (void)db_.DefineClass("AtomicPart", {"DesignObj"},
                        {Attr("x", ValueType::kInt)});
  (void)db_.DefineClass("CompositePart", {"DesignObj"},
                        {Attr("document", ValueType::kString)});
  (void)db_.DefineClass("Assembly", {"DesignObj"}, {}, /*is_abstract=*/true);
  (void)db_.DefineClass("BaseAssembly", {"Assembly"});
  (void)db_.DefineClass("ComplexAssembly", {"Assembly"});
  (void)db_.DefineClass("Module", {"DesignObj"});

  // Typed part connections carry their own data (length) — a weighted
  // graph, the structure plain references cannot express (thesis ch. 3).
  (void)db_.DefineRelationship("connected_to", "AtomicPart", "AtomicPart",
                               {}, {Attr("length", ValueType::kInt)});
  // Composite → atomic: exclusive, lifetime-dependent aggregation.
  RelationshipSemantics part_sem;
  part_sem.kind = RelationshipKind::kAggregation;
  part_sem.exclusive = true;
  part_sem.lifetime_dependent = true;
  (void)db_.DefineRelationship("has_part", "CompositePart", "AtomicPart",
                               part_sem);
  RelationshipSemantics root_sem;
  root_sem.max_out = 1;
  (void)db_.DefineRelationship("root_part", "CompositePart", "AtomicPart",
                               root_sem);
  // Assembly tree: exclusive lifetime-dependent aggregation.
  RelationshipSemantics sub_sem;
  sub_sem.kind = RelationshipKind::kAggregation;
  sub_sem.exclusive = true;
  sub_sem.lifetime_dependent = true;
  (void)db_.DefineRelationship("sub_assembly", "ComplexAssembly", "Assembly",
                               sub_sem);
  // Base assemblies share composite parts from the library.
  (void)db_.DefineRelationship("uses_component", "BaseAssembly",
                               "CompositePart", {});
  RelationshipSemantics design_sem;
  design_sem.max_out = 1;
  (void)db_.DefineRelationship("design_root", "Module", "ComplexAssembly",
                               design_sem);

  // Data: the composite-part library.
  composites_.reserve(static_cast<std::size_t>(config_.composite_parts));
  for (int i = 0; i < config_.composite_parts; ++i) {
    auto r = BuildCompositePart(i);
    assert(r.ok());
    composites_.push_back(r.value());
  }
  // The assembly tree.
  int next_assembly_id = 0;
  Oid root = BuildAssembly(1, &next_assembly_id);
  module_ = db_.CreateObject("Module", {{"id", Value::Int(0)}}).value();
  (void)db_.CreateLink("design_root", module_, root);
}

Result<Oid> PrometheusOo7::BuildCompositePart(int id) {
  std::uniform_int_distribution<std::int64_t> date(kDateLo, kDateHi - 1);
  std::uniform_int_distribution<std::int64_t> xval(0, 99999);
  PROMETHEUS_ASSIGN_OR_RETURN(
      Oid comp,
      db_.CreateObject("CompositePart",
                       {{"id", Value::Int(id)},
                        {"build_date", Value::Int(date(rng_))},
                        {"document", Value::String(
                             "composite part #" + std::to_string(id))}}));
  std::vector<Oid> parts;
  parts.reserve(static_cast<std::size_t>(config_.atomic_per_composite));
  for (int i = 0; i < config_.atomic_per_composite; ++i) {
    PROMETHEUS_ASSIGN_OR_RETURN(
        Oid part, db_.CreateObject("AtomicPart",
                                   {{"id", Value::Int(next_part_id_++)},
                                    {"build_date", Value::Int(date(rng_))},
                                    {"x", Value::Int(xval(rng_))}}));
    PROMETHEUS_RETURN_IF_ERROR(
        db_.CreateLink("has_part", comp, part).status());
    parts.push_back(part);
  }
  PROMETHEUS_RETURN_IF_ERROR(
      db_.CreateLink("root_part", comp, parts.front()).status());
  std::uniform_int_distribution<std::size_t> pick(0, parts.size() - 1);
  std::uniform_int_distribution<std::int64_t> length(1, 1000);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (int c = 0; c < config_.connections_per_atomic; ++c) {
      std::size_t to = pick(rng_);
      if (to == i) to = (to + 1) % parts.size();
      PROMETHEUS_RETURN_IF_ERROR(
          db_.CreateLink("connected_to", parts[i], parts[to], kNullOid,
                         {{"length", Value::Int(length(rng_))}})
              .status());
    }
  }
  return comp;
}

Oid PrometheusOo7::BuildAssembly(int level, int* next_id) {
  std::uniform_int_distribution<std::size_t> pick(0, composites_.size() - 1);
  if (level >= config_.assembly_levels) {
    Oid base = db_.CreateObject("BaseAssembly",
                                {{"id", Value::Int((*next_id)++)}})
                   .value();
    for (int i = 0; i < config_.components_per_base; ++i) {
      (void)db_.CreateLink("uses_component", base, composites_[pick(rng_)]);
    }
    bases_.push_back(base);
    return base;
  }
  Oid complex = db_.CreateObject("ComplexAssembly",
                                 {{"id", Value::Int((*next_id)++)}})
                    .value();
  for (int i = 0; i < config_.assembly_fanout; ++i) {
    Oid child = BuildAssembly(level + 1, next_id);
    (void)db_.CreateLink("sub_assembly", complex, child);
  }
  return complex;
}

std::uint64_t PrometheusOo7::TraverseT1() const {
  std::uint64_t visits = 0;
  // DFS over the assembly tree.
  std::vector<Oid> stack;
  for (Oid root : db_.Neighbors(module_, "design_root")) {
    stack.push_back(root);
  }
  while (!stack.empty()) {
    Oid assembly = stack.back();
    stack.pop_back();
    for (Oid sub : db_.Neighbors(assembly, "sub_assembly")) {
      stack.push_back(sub);
    }
    for (Oid comp : db_.Neighbors(assembly, "uses_component")) {
      // DFS over the atomic-part graph from the root part.
      std::vector<Oid> parts = db_.Neighbors(comp, "root_part");
      std::unordered_map<Oid, bool> seen;
      while (!parts.empty()) {
        Oid part = parts.back();
        parts.pop_back();
        if (seen[part]) continue;
        seen[part] = true;
        ++visits;
        for (Oid next : db_.Neighbors(part, "connected_to")) {
          parts.push_back(next);
        }
      }
    }
  }
  return visits;
}

OpCounts PrometheusOo7::TraverseT5(std::int64_t new_value) {
  OpCounts counts;
  (void)db_.Begin();
  std::vector<Oid> stack;
  for (Oid root : db_.Neighbors(module_, "design_root")) {
    stack.push_back(root);
  }
  while (!stack.empty()) {
    Oid assembly = stack.back();
    stack.pop_back();
    for (Oid sub : db_.Neighbors(assembly, "sub_assembly")) {
      stack.push_back(sub);
    }
    for (Oid comp : db_.Neighbors(assembly, "uses_component")) {
      std::vector<Oid> parts = db_.Neighbors(comp, "root_part");
      std::unordered_map<Oid, bool> seen;
      while (!parts.empty()) {
        Oid part = parts.back();
        parts.pop_back();
        if (seen[part]) continue;
        seen[part] = true;
        ++counts.visited;
        (void)db_.SetAttribute(part, "x", Value::Int(new_value));
        ++counts.updated;
        for (Oid next : db_.Neighbors(part, "connected_to")) {
          parts.push_back(next);
        }
      }
    }
  }
  (void)db_.Commit();
  return counts;
}

std::uint64_t PrometheusOo7::LookupQ1(int n, std::uint32_t* checksum) const {
  // Hand-coded exact-match over the extent would be O(N) per probe; the
  // benchmark harness layers an IndexManager for the indexed variant. Here
  // we scan once and probe a local set, mirroring what a POET application
  // would do with its own dictionary.
  std::mt19937 rng(config_.seed + 1);
  std::uniform_int_distribution<int> pick(0, next_part_id_ - 1);
  std::unordered_map<std::int64_t, Oid> by_id;
  for (Oid oid : db_.Extent("AtomicPart")) {
    auto id = db_.GetAttribute(oid, "id");
    if (id.ok() && id.value().type() == ValueType::kInt) {
      by_id[id.value().AsInt()] = oid;
    }
  }
  std::uint64_t found = 0;
  for (int i = 0; i < n; ++i) {
    auto it = by_id.find(pick(rng));
    if (it == by_id.end()) continue;
    ++found;
    auto x = db_.GetAttribute(it->second, "x");
    if (x.ok() && x.value().type() == ValueType::kInt) {
      *checksum += static_cast<std::uint32_t>(x.value().AsInt());
    }
  }
  return found;
}

std::uint64_t PrometheusOo7::RangeQ2(std::int64_t lo, std::int64_t hi) const {
  std::uint64_t matched = 0;
  for (Oid oid : db_.Extent("AtomicPart")) {
    auto date = db_.GetAttribute(oid, "build_date");
    if (!date.ok() || date.value().type() != ValueType::kInt) continue;
    std::int64_t d = date.value().AsInt();
    if (d >= lo && d <= hi) ++matched;
  }
  return matched;
}

std::uint64_t PrometheusOo7::ReverseQ4(int n) const {
  std::mt19937 rng(config_.seed + 2);
  // Sample in `id` order, as BaselineOo7 does: extent order is permuted by
  // S2's deletions, so drawing from it would pick different parts.
  std::vector<std::pair<std::int64_t, Oid>> atoms;
  for (Oid oid : db_.Extent("AtomicPart")) {
    atoms.emplace_back(db_.GetAttribute(oid, "id").value().AsInt(), oid);
  }
  if (atoms.empty()) return 0;
  std::sort(atoms.begin(), atoms.end());
  std::uniform_int_distribution<std::size_t> pick(0, atoms.size() - 1);
  std::uint64_t reached = 0;
  for (int i = 0; i < n; ++i) {
    Oid atom = atoms[pick(rng)].second;
    for (Oid comp : db_.Neighbors(atom, "has_part", Direction::kIn)) {
      for (Oid base :
           db_.Neighbors(comp, "uses_component", Direction::kIn)) {
        (void)base;
        ++reached;
      }
    }
  }
  return reached;
}

Status PrometheusOo7::InsertS1(int k) {
  std::uniform_int_distribution<std::size_t> pick(0, bases_.size() - 1);
  for (int i = 0; i < k; ++i) {
    PROMETHEUS_ASSIGN_OR_RETURN(
        Oid comp, BuildCompositePart(config_.composite_parts + i));
    composites_.push_back(comp);
    PROMETHEUS_RETURN_IF_ERROR(
        db_.CreateLink("uses_component", bases_[pick(rng_)], comp).status());
  }
  return Status::Ok();
}

Status PrometheusOo7::DeleteS2(int k) {
  for (int i = 0; i < k && !composites_.empty(); ++i) {
    // `composites_` stays in creation order (an erase, not a swap-remove),
    // so the draw picks the same victim as BaselineOo7::DeleteS2 does from
    // its live list.
    std::uniform_int_distribution<std::size_t> pick(0,
                                                    composites_.size() - 1);
    const auto victim = composites_.begin() +
                        static_cast<std::ptrdiff_t>(pick(rng_));
    const Oid comp = *victim;
    composites_.erase(victim);
    PROMETHEUS_RETURN_IF_ERROR(db_.DeleteObject(comp));
  }
  return Status::Ok();
}

// -------------------------------------------------------------- Baseline

BaselineOo7::BaselineOo7(const Config& config)
    : config_(config), rng_(config.seed) {
  for (int i = 0; i < config_.composite_parts; ++i) {
    composites_.push_back(
        std::unique_ptr<CompositePart>(BuildCompositePart(i)));
  }
  int next_assembly_id = 0;
  root_ = BuildAssembly(1, &next_assembly_id);
}

BaselineOo7::CompositePart* BaselineOo7::BuildCompositePart(int id) {
  std::uniform_int_distribution<std::int64_t> date(kDateLo, kDateHi - 1);
  std::uniform_int_distribution<std::int64_t> xval(0, 99999);
  auto* comp = new CompositePart();
  comp->id = id;
  comp->build_date = date(rng_);
  comp->document = "composite part #" + std::to_string(id);
  comp->parts.reserve(static_cast<std::size_t>(config_.atomic_per_composite));
  for (int i = 0; i < config_.atomic_per_composite; ++i) {
    auto part = std::make_unique<AtomicPart>();
    part->id = next_part_id_++;
    part->build_date = date(rng_);
    part->x = xval(rng_);
    part->owner = comp;
    atomic_by_id_[part->id] = part.get();
    comp->parts.push_back(std::move(part));
    ++atomic_count_;
  }
  comp->root = comp->parts.front().get();
  std::uniform_int_distribution<std::size_t> pick(0, comp->parts.size() - 1);
  std::uniform_int_distribution<std::int64_t> length(1, 1000);
  for (std::size_t i = 0; i < comp->parts.size(); ++i) {
    for (int c = 0; c < config_.connections_per_atomic; ++c) {
      std::size_t to = pick(rng_);
      if (to == i) to = (to + 1) % comp->parts.size();
      Connection conn;
      conn.to = comp->parts[to].get();
      conn.length = length(rng_);
      comp->parts[i]->out.push_back(conn);
      comp->parts[to]->in.push_back(comp->parts[i].get());
    }
  }
  return comp;
}

BaselineOo7::Assembly* BaselineOo7::BuildAssembly(int level, int* next_id) {
  std::uniform_int_distribution<std::size_t> pick(0, composites_.size() - 1);
  assemblies_.emplace_back();
  Assembly* assembly = &assemblies_.back();
  assembly->id = (*next_id)++;
  if (level >= config_.assembly_levels) {
    assembly->is_base = true;
    for (int i = 0; i < config_.components_per_base; ++i) {
      CompositePart* comp = composites_[pick(rng_)].get();
      assembly->components.push_back(comp);
      comp->used_by.push_back(assembly);
    }
    bases_.push_back(assembly);
    return assembly;
  }
  for (int i = 0; i < config_.assembly_fanout; ++i) {
    assembly->subs.push_back(BuildAssembly(level + 1, next_id));
  }
  return assembly;
}

std::uint64_t BaselineOo7::TraverseT1() const {
  std::uint64_t visits = 0;
  std::vector<const Assembly*> stack{root_};
  std::vector<const AtomicPart*> parts;
  std::unordered_map<const AtomicPart*, bool> seen;
  while (!stack.empty()) {
    const Assembly* assembly = stack.back();
    stack.pop_back();
    for (const Assembly* sub : assembly->subs) stack.push_back(sub);
    for (const CompositePart* comp : assembly->components) {
      if (!comp->alive) continue;
      parts.clear();
      seen.clear();
      parts.push_back(comp->root);
      while (!parts.empty()) {
        const AtomicPart* part = parts.back();
        parts.pop_back();
        if (seen[part]) continue;
        seen[part] = true;
        ++visits;
        for (const Connection& conn : part->out) parts.push_back(conn.to);
      }
    }
  }
  return visits;
}

OpCounts BaselineOo7::TraverseT5(std::int64_t new_value) {
  OpCounts counts;
  std::vector<Assembly*> stack{root_};
  std::vector<AtomicPart*> parts;
  std::unordered_map<AtomicPart*, bool> seen;
  while (!stack.empty()) {
    Assembly* assembly = stack.back();
    stack.pop_back();
    for (Assembly* sub : assembly->subs) stack.push_back(sub);
    for (CompositePart* comp : assembly->components) {
      if (!comp->alive) continue;
      parts.clear();
      seen.clear();
      parts.push_back(comp->root);
      while (!parts.empty()) {
        AtomicPart* part = parts.back();
        parts.pop_back();
        if (seen[part]) continue;
        seen[part] = true;
        ++counts.visited;
        part->x = new_value;
        ++counts.updated;
        for (const Connection& conn : part->out) parts.push_back(conn.to);
      }
    }
  }
  return counts;
}

std::uint64_t BaselineOo7::LookupQ1(int n, std::uint32_t* checksum) const {
  std::mt19937 rng(config_.seed + 1);
  std::uniform_int_distribution<int> pick(0, next_part_id_ - 1);
  std::uint64_t found = 0;
  for (int i = 0; i < n; ++i) {
    auto it = atomic_by_id_.find(pick(rng));
    if (it == atomic_by_id_.end()) continue;
    ++found;
    *checksum += static_cast<std::uint32_t>(it->second->x);
  }
  return found;
}

std::uint64_t BaselineOo7::RangeQ2(std::int64_t lo, std::int64_t hi) const {
  std::uint64_t matched = 0;
  for (const auto& comp : composites_) {
    if (!comp->alive) continue;
    for (const auto& part : comp->parts) {
      if (part->build_date >= lo && part->build_date <= hi) ++matched;
    }
  }
  return matched;
}

std::uint64_t BaselineOo7::ReverseQ4(int n) const {
  std::mt19937 rng(config_.seed + 2);
  std::vector<const AtomicPart*> atoms;
  atoms.reserve(atomic_by_id_.size());
  for (const auto& [id, part] : atomic_by_id_) {
    (void)id;
    atoms.push_back(part);
  }
  if (atoms.empty()) return 0;
  std::sort(atoms.begin(), atoms.end(),
            [](const AtomicPart* a, const AtomicPart* b) {
              return a->id < b->id;
            });
  std::uniform_int_distribution<std::size_t> pick(0, atoms.size() - 1);
  std::uint64_t reached = 0;
  for (int i = 0; i < n; ++i) {
    const AtomicPart* atom = atoms[pick(rng)];
    if (atom->owner == nullptr) continue;
    reached += atom->owner->used_by.size();
  }
  return reached;
}

Status BaselineOo7::InsertS1(int k) {
  std::uniform_int_distribution<std::size_t> pick(0, bases_.size() - 1);
  for (int i = 0; i < k; ++i) {
    CompositePart* comp = BuildCompositePart(config_.composite_parts + i);
    composites_.push_back(std::unique_ptr<CompositePart>(comp));
    Assembly* base = bases_[pick(rng_)];
    base->components.push_back(comp);
    comp->used_by.push_back(base);
  }
  return Status::Ok();
}

Status BaselineOo7::DeleteS2(int k) {
  for (int i = 0; i < k; ++i) {
    // The live composites in creation order: the list PrometheusOo7 keeps.
    std::vector<std::size_t> live;
    for (std::size_t j = 0; j < composites_.size(); ++j) {
      if (composites_[j]->alive) live.push_back(j);
    }
    if (live.empty()) break;
    std::uniform_int_distribution<std::size_t> pick(0, live.size() - 1);
    CompositePart* comp = composites_[live[pick(rng_)]].get();
    // Unhook from assemblies.
    for (Assembly* assembly : comp->used_by) {
      auto& v = assembly->components;
      v.erase(std::remove(v.begin(), v.end(), comp), v.end());
    }
    comp->used_by.clear();
    // Drop parts from the id index, then free them.
    for (const auto& part : comp->parts) atomic_by_id_.erase(part->id);
    atomic_count_ -= comp->parts.size();
    comp->parts.clear();
    comp->root = nullptr;
    comp->alive = false;
  }
  return Status::Ok();
}

}  // namespace prometheus::oo7
