// E7 — feature-cost ablation (thesis 7.2.1.3 / chapter 4 features): what
// each layer of the Prometheus model costs on the hot path (link
// creation), isolated by switching layers off:
//   raw          — semantics and events disabled
//   +semantics   — type checks, exclusivity/cardinality scans
//   +events      — event publication (no listeners)
//   +index       — an attribute index subscribed to the bus
//   +rules       — five ECA rules subscribed
// Expected shape: each layer adds a bounded per-operation cost; rules are
// the most expensive layer (condition evaluation).

#include <benchmark/benchmark.h>

#include <iterator>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/database.h"
#include "index/index_manager.h"
#include "rules/rule_engine.h"

namespace {

using prometheus::AttributeDef;
using prometheus::Database;
using prometheus::IndexManager;
using prometheus::Oid;
using prometheus::RuleEngine;
using prometheus::Value;
using prometheus::ValueType;

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  return a;
}

struct Fixture {
  explicit Fixture(int objects) {
    (void)db.DefineClass("Node", {},
                         {Attr("id", ValueType::kInt),
                          Attr("weight", ValueType::kInt)});
    (void)db.DefineRelationship("edge", "Node", "Node", {},
                                {Attr("length", ValueType::kInt)});
    for (int i = 0; i < objects; ++i) {
      nodes.push_back(
          db.CreateObject("Node", {{"id", Value::Int(i)}}).value());
    }
  }

  Database db;
  std::vector<Oid> nodes;
  std::size_t next = 0;
  // Optional layers; destroyed before `db` (reverse declaration order).
  std::unique_ptr<IndexManager> index;
  std::unique_ptr<RuleEngine> rules;

  void CreateOneLink() {
    Oid a = nodes[next % nodes.size()];
    Oid b = nodes[(next * 7 + 1) % nodes.size()];
    ++next;
    benchmark::DoNotOptimize(
        db.CreateLink("edge", a, b, prometheus::kNullOid,
                      {{"length", Value::Int(static_cast<std::int64_t>(
                            next))}})
            .ok());
  }
};

constexpr int kNodes = 1000;

void PrintSeries() {
  prometheus::bench::PrintTableHeader(
      "E7: feature-cost ablation (creating 20000 links between 1000 nodes)",
      "  configuration        ms     iqr_ms   vs_raw");
  struct Config {
    const char* label;
    void (*setup)(Fixture&);
  };
  const Config configs[] = {
      {"raw",
       [](Fixture& fx) {
         fx.db.set_semantics_enabled(false);
         fx.db.set_events_enabled(false);
       }},
      {"+semantics", [](Fixture& fx) { fx.db.set_events_enabled(false); }},
      {"+events", [](Fixture&) {}},
      {"+index",
       [](Fixture& fx) {
         fx.index = std::make_unique<IndexManager>(&fx.db);
         (void)fx.index->CreateIndex("Node", "id");
       }},
      {"+rules",
       [](Fixture& fx) {
         fx.rules = std::make_unique<RuleEngine>(&fx.db);
         for (int i = 0; i < 5; ++i) {
           (void)fx.rules->AddRelationshipRule(
               "edge_rule_" + std::to_string(i), "edge", "source != target",
               "no self edges");
         }
       }},
  };
  // Each run builds a fresh fixture (1000 objects) outside the timed
  // region; only the 20000 link creations are measured. Every round runs
  // each configuration once, in an order rotated per round.
  const std::vector<prometheus::bench::Spread> spread =
      prometheus::bench::RotatedRounds(std::size(configs), 7,
                                       [&](std::size_t i) {
                                         Fixture fx(kNodes);
                                         configs[i].setup(fx);
                                         return prometheus::bench::MedianMillis(
                                             [&] {
                                               for (int k = 0; k < 20000; ++k) {
                                                 fx.CreateOneLink();
                                               }
                                             },
                                             1);
                                       });
  for (std::size_t i = 0; i < spread.size(); ++i) {
    std::printf("  %-18s %8.3f %8.3f   %5.2fx\n", configs[i].label,
                spread[i].median, spread[i].iqr,
                spread[i].median / spread[0].median);
  }
}

void BM_LinkCreate(benchmark::State& state) {
  // state.range(0): 0=raw, 1=+semantics, 2=+events, 3=+rules.
  Fixture fx(kNodes);
  std::unique_ptr<RuleEngine> rules;
  switch (state.range(0)) {
    case 0:
      fx.db.set_semantics_enabled(false);
      fx.db.set_events_enabled(false);
      break;
    case 1:
      fx.db.set_events_enabled(false);
      break;
    case 2:
      break;
    case 3:
      rules = std::make_unique<RuleEngine>(&fx.db);
      for (int i = 0; i < 5; ++i) {
        (void)rules->AddRelationshipRule("r" + std::to_string(i), "edge",
                                         "source != target", "m");
      }
      break;
  }
  for (auto _ : state) {
    fx.CreateOneLink();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinkCreate)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMicrosecond);

void BM_AttributeInheritanceRead(benchmark::State& state) {
  // The role mechanism (4.4.5): reading a link-inherited attribute vs a
  // plain attribute.
  Database db;
  (void)db.DefineClass("Person", {}, {Attr("name", ValueType::kInt)});
  prometheus::RelationshipSemantics sem;
  sem.inherit_attributes = true;
  (void)db.DefineRelationship("married_to", "Person", "Person", sem,
                              {Attr("wedding", ValueType::kInt)});
  Oid a = db.CreateObject("Person").value();
  Oid b = db.CreateObject("Person").value();
  (void)db.CreateLink("married_to", a, b, prometheus::kNullOid,
                      {{"wedding", Value::Int(1999)}});
  const bool inherited = state.range(0) == 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db.GetAttribute(b, inherited ? "wedding" : "name").ok());
  }
}
BENCHMARK(BM_AttributeInheritanceRead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kNanosecond);

}  // namespace

int main(int argc, char** argv) {
  PrintSeries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
