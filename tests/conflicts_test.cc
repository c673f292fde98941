// Tests for conflict detection: the hash-bucketed ConflictGraph versus
// the naive all-pairs baseline, adjacency queries, and behaviour on
// skewed and multi-FD instances.

#include <gtest/gtest.h>

#include "conflicts/conflicts.h"
#include "gen/random_instance.h"
#include "gen/running_example.h"
#include "reductions/hard_schemas.h"

namespace prefrep {
namespace {

TEST(ConflictsTest, HashedGraphMatchesNaiveScan) {
  std::vector<Schema> schemas;
  schemas.push_back(RunningExampleSchema());
  schemas.push_back(HardSchemaS1());
  schemas.push_back(HardSchemaS6());
  schemas.push_back(Schema::SingleRelation(
      "R", 4, {FD(AttrSet{1, 2}, AttrSet{3}), FD(AttrSet{3}, AttrSet{4}),
               FD(AttrSet(), AttrSet{4})}));
  for (const Schema& schema : schemas) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      RandomProblemOptions opts;
      opts.facts_per_relation = 30;
      opts.domain_size = 3;
      opts.seed = seed * 19;
      PreferredRepairProblem p = GenerateRandomProblem(schema, opts);
      ConflictGraph cg(*p.instance);
      EXPECT_EQ(cg.edges(), AllConflictPairsNaive(*p.instance));
    }
  }
}

TEST(ConflictsTest, SkewedValuesIncreaseConflicts) {
  Schema schema = Schema::SingleRelation(
      "R", 3, {FD(AttrSet{1}, AttrSet{2})});
  RandomProblemOptions uniform;
  uniform.facts_per_relation = 60;
  uniform.domain_size = 30;
  uniform.seed = 4;
  RandomProblemOptions skewed = uniform;
  skewed.value_skew = 1.4;
  PreferredRepairProblem pu = GenerateRandomProblem(schema, uniform);
  PreferredRepairProblem ps = GenerateRandomProblem(schema, skewed);
  ConflictGraph cu(*pu.instance);
  ConflictGraph cs(*ps.instance);
  EXPECT_GT(cs.num_edges(), cu.num_edges());
  // Skewed instances still have valid priorities and consistent J.
  EXPECT_TRUE(ps.priority->Validate(PriorityMode::kConflictOnly).ok());
  EXPECT_EQ(cs.edges(), AllConflictPairsNaive(*ps.instance));
}

TEST(ConflictsTest, AdjacencyQueriesMatchEdgeList) {
  PreferredRepairProblem p = RunningExampleProblem();
  ConflictGraph cg(*p.instance);
  size_t degrees = 0;
  for (FactId f = 0; f < p.instance->num_facts(); ++f) {
    degrees += cg.neighbors(f).size();
    for (FactId g : cg.neighbors(f)) {
      EXPECT_TRUE(FactsConflict(*p.instance, f, g));
      EXPECT_TRUE(FactsConflict(*p.instance, g, f));  // symmetric
    }
  }
  EXPECT_EQ(degrees, 2 * cg.num_edges());
  EXPECT_EQ(cg.edges().size(), cg.num_edges());
}

TEST(ConflictsTest, MultiFdPairCountedOnce) {
  // Facts conflicting under two FDs appear once in the edge list.
  Schema schema = Schema::SingleRelation(
      "R", 2, {FD(AttrSet{1}, AttrSet{2}), FD(AttrSet{2}, AttrSet{1})});
  Instance inst(&schema);
  inst.MustAddFact("R", {"a", "1"});
  inst.MustAddFact("R", {"a", "2"});  // conflicts via 1→2 only
  inst.MustAddFact("R", {"b", "1"});  // conflicts with first via 2→1 only
  ConflictGraph cg(inst);
  EXPECT_EQ(cg.num_edges(), 2u);
  EXPECT_EQ(cg.neighbors(0).size(), 2u);
}

TEST(ConflictsTest, TrivialFdsNeverConflict) {
  Schema schema = Schema::SingleRelation(
      "R", 2, {FD(AttrSet{1, 2}, AttrSet{1})});
  Instance inst(&schema);
  inst.MustAddFact("R", {"a", "1"});
  inst.MustAddFact("R", {"a", "2"});
  ConflictGraph cg(inst);
  EXPECT_EQ(cg.num_edges(), 0u);
}

}  // namespace
}  // namespace prefrep
