#include <gtest/gtest.h>

#include "oo7/oo7.h"
#include "query/query_engine.h"

namespace prometheus::oo7 {
namespace {

Config SmallConfig() {
  Config config;
  config.composite_parts = 8;
  config.atomic_per_composite = 10;
  config.connections_per_atomic = 3;
  config.assembly_fanout = 2;
  config.assembly_levels = 3;
  config.components_per_base = 2;
  config.seed = 7;
  return config;
}

TEST(Oo7Test, PrometheusBuildHasExpectedShape) {
  Config config = SmallConfig();
  PrometheusOo7 bench(config);
  Database& db = bench.db();
  EXPECT_EQ(db.Extent("CompositePart").size(),
            static_cast<std::size_t>(config.composite_parts));
  EXPECT_EQ(db.Extent("AtomicPart").size(),
            static_cast<std::size_t>(config.total_atomic_parts()));
  // fanout 2, 3 levels: 1 + 2 complex, 4 base.
  EXPECT_EQ(db.Extent("ComplexAssembly").size(), 3u);
  EXPECT_EQ(db.Extent("BaseAssembly").size(), 4u);
  EXPECT_EQ(bench.base_assemblies().size(), 4u);
  // Connections: 3 per atomic part.
  EXPECT_EQ(db.LinkExtent("connected_to").size(),
            static_cast<std::size_t>(config.total_atomic_parts() *
                                     config.connections_per_atomic));
}

TEST(Oo7Test, BothImplementationsDoTheSameWork) {
  Config config = SmallConfig();
  PrometheusOo7 prom(config);
  BaselineOo7 base(config);
  // Identical seeds produce identical structure: traversal visit counts
  // and query answers must agree exactly.
  EXPECT_EQ(prom.TraverseT1(), base.TraverseT1());
  OpCounts pt5 = prom.TraverseT5(1234);
  OpCounts bt5 = base.TraverseT5(1234);
  EXPECT_EQ(pt5.visited, bt5.visited);
  EXPECT_EQ(pt5.updated, bt5.updated);
  EXPECT_EQ(prom.RangeQ2(1500, 2000), base.RangeQ2(1500, 2000));
  EXPECT_EQ(prom.ReverseQ4(50), base.ReverseQ4(50));
  std::uint32_t pc = 0, bc = 0;
  EXPECT_EQ(prom.LookupQ1(100, &pc), base.LookupQ1(100, &bc));
}

TEST(Oo7Test, T5ActuallyUpdates) {
  PrometheusOo7 prom(SmallConfig());
  OpCounts counts = prom.TraverseT5(424242);
  EXPECT_GT(counts.updated, 0u);
  // Spot-check one reachable atomic part.
  Oid comp = prom.composite_parts()[0];
  Oid root = prom.db().Neighbors(comp, "root_part")[0];
  // The root part may or may not be referenced by an assembly; check that
  // at least one atomic part carries the new value.
  bool found = false;
  for (Oid part : prom.db().Extent("AtomicPart")) {
    auto x = prom.db().GetAttribute(part, "x");
    if (x.ok() && x.value().Equals(Value::Int(424242))) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
  (void)root;
}

TEST(Oo7Test, S1GrowsBothStoresEqually) {
  Config config = SmallConfig();
  PrometheusOo7 prom(config);
  BaselineOo7 base(config);
  std::size_t atoms_before = prom.db().Extent("AtomicPart").size();
  ASSERT_TRUE(prom.InsertS1(3).ok());
  ASSERT_TRUE(base.InsertS1(3).ok());
  EXPECT_EQ(prom.db().Extent("AtomicPart").size(),
            atoms_before + 3u * config.atomic_per_composite);
  EXPECT_EQ(base.atomic_part_count(),
            atoms_before + 3u * config.atomic_per_composite);
}

TEST(Oo7Test, S2CascadesAtomicParts) {
  Config config = SmallConfig();
  PrometheusOo7 prom(config);
  std::size_t comps_before = prom.db().Extent("CompositePart").size();
  std::size_t atoms_before = prom.db().Extent("AtomicPart").size();
  ASSERT_TRUE(prom.DeleteS2(2).ok());
  EXPECT_EQ(prom.db().Extent("CompositePart").size(), comps_before - 2u);
  // Lifetime-dependent aggregation removed each composite's atomic parts.
  EXPECT_EQ(prom.db().Extent("AtomicPart").size(),
            atoms_before - 2u * config.atomic_per_composite);
  // Traversal still works and agrees with a baseline that deleted the
  // same composites.
  BaselineOo7 base(config);
  ASSERT_TRUE(base.DeleteS2(2).ok());
  EXPECT_EQ(prom.TraverseT1(), base.TraverseT1());
}

TEST(Oo7Test, RepeatedS1ThenS2KeepBothStoresEqual) {
  // The benchmark's structural rounds: S1 then S2, again and again, on one
  // pair of databases. Both sides must delete the same composites every
  // time, so traversals and range queries keep agreeing. (Q4 is left out:
  // it samples atomic parts in extent order, which deletions permute.)
  Config config = SmallConfig();
  PrometheusOo7 prom(config);
  BaselineOo7 base(config);
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(prom.InsertS1(3).ok());
    ASSERT_TRUE(base.InsertS1(3).ok());
    ASSERT_TRUE(prom.DeleteS2(3).ok());
    ASSERT_TRUE(base.DeleteS2(3).ok());
    EXPECT_EQ(prom.db().Extent("AtomicPart").size(), base.atomic_part_count())
        << "round " << round;
    EXPECT_EQ(prom.TraverseT1(), base.TraverseT1()) << "round " << round;
    EXPECT_EQ(prom.RangeQ2(1000, 2000), base.RangeQ2(1000, 2000))
        << "round " << round;
    const OpCounts pt5 = prom.TraverseT5(round);
    const OpCounts bt5 = base.TraverseT5(round);
    EXPECT_EQ(pt5.visited, bt5.visited) << "round " << round;
  }
}

TEST(Oo7Test, PoolCanQueryTheBenchmarkDatabase) {
  PrometheusOo7 prom(SmallConfig());
  pool::QueryEngine engine(&prom.db());
  auto r = engine.Execute(
      "select count(children(c, 'has_part')) from CompositePart c limit 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_TRUE(r.value().rows[0][0].Equals(Value::Int(10)));
  // Weighted connections are queryable as first-class links.
  auto lengths = engine.Execute(
      "select l.length from connected_to l where l.length > 900 limit 5");
  ASSERT_TRUE(lengths.ok());
}

TEST(Oo7Test, DeterministicAcrossRuns) {
  Config config = SmallConfig();
  PrometheusOo7 a(config);
  PrometheusOo7 b(config);
  EXPECT_EQ(a.TraverseT1(), b.TraverseT1());
  EXPECT_EQ(a.RangeQ2(1200, 1800), b.RangeQ2(1200, 1800));
}

}  // namespace
}  // namespace prometheus::oo7
