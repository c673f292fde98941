// Property tests for the block decomposition and the per-block solving
// stack: on random instances,
//   (1) blocks partition the non-isolated facts,
//   (2) the per-block combined verdict equals the whole-instance
//       exhaustive verdict, and
//   (3) per-block optimal-repair counts multiply to the whole-instance
//       count (with a brute-force baseline independent of the product),
//       and
//   (4) priority edges between facts with conflicts join blocks, and a
//       conflict-bounded priority joins none.
// Instances are kept small enough that exhaustive enumeration is exact
// ground truth.

#include <gtest/gtest.h>

#include <cstdint>

#include "conflicts/blocks.h"
#include "gen/random_instance.h"
#include "io/text_format.h"
#include "model/context.h"
#include "repair/block_solver.h"
#include "repair/counting.h"
#include "repair/exhaustive.h"
#include "test_util.h"

namespace prefrep {
namespace {

struct SweepParam {
  uint64_t seed;
  JPolicy policy;
};

std::string PolicyName(JPolicy p) {
  switch (p) {
    case JPolicy::kRandomRepair:
      return "RandomRepair";
    case JPolicy::kLowPriorityRepair:
      return "LowPriorityRepair";
    case JPolicy::kHighPriorityRepair:
      return "HighPriorityRepair";
    case JPolicy::kRandomConsistentSubset:
      return "RandomSubset";
  }
  return "?";
}

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  return "seed" + std::to_string(info.param.seed) + "_" +
         PolicyName(info.param.policy);
}

std::vector<SweepParam> MakeSweep() {
  std::vector<SweepParam> out;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    for (JPolicy policy :
         {JPolicy::kRandomRepair, JPolicy::kLowPriorityRepair,
          JPolicy::kHighPriorityRepair, JPolicy::kRandomConsistentSubset}) {
      out.push_back({seed, policy});
    }
  }
  return out;
}

// A two-relation schema mixing the dichotomy classes: R is kSingleFd,
// S is kHard (two incomparable FDs), so the dispatcher exercises both a
// polynomial solver and the per-block exhaustive fallback, and blocks
// come from more than one relation.
Schema MixedSchema() {
  Schema schema;
  RelId r = schema.MustAddRelation("R", 3);
  schema.MustAddFd(r, FD(AttrSet{1}, AttrSet{2}));
  RelId s = schema.MustAddRelation("S", 3);
  schema.MustAddFd(s, FD(AttrSet{1}, AttrSet{2}));
  schema.MustAddFd(s, FD(AttrSet{2}, AttrSet{3}));
  return schema;
}

RandomProblemOptions BaseOptions(const SweepParam& p) {
  RandomProblemOptions opts;
  opts.facts_per_relation = 9;
  opts.domain_size = 3;
  opts.priority_density = 0.6;
  opts.j_policy = p.policy;
  opts.seed = p.seed * 6151 + 29;
  return opts;
}

class BlockProperty : public ::testing::TestWithParam<SweepParam> {};

// --- (1) blocks partition the non-isolated facts ---------------------------

TEST_P(BlockProperty, BlocksPartitionNonIsolatedFacts) {
  PreferredRepairProblem problem =
      GenerateRandomProblem(MixedSchema(), BaseOptions(GetParam()));
  ConflictGraph cg(*problem.instance);
  BlockDecomposition blocks(cg, *problem.priority);

  // Every fact is covered exactly once: by its block or as a free fact.
  DynamicBitset covered(cg.num_facts());
  for (const Block& b : blocks.blocks()) {
    EXPECT_GE(b.size(), 2u);
    for (FactId f : b.fact_list) {
      EXPECT_FALSE(covered.test(f)) << "fact " << f << " in two blocks";
      covered.set(f);
      EXPECT_EQ(blocks.block_of(f), b.id);
      EXPECT_EQ(problem.instance->fact(f).rel, b.rel);
      EXPECT_FALSE(cg.neighbors(f).empty())
          << "isolated fact " << f << " inside a block";
      // Conflicts never leave the block (blocks are components).
      for (FactId g : cg.neighbors(f)) {
        EXPECT_EQ(blocks.block_of(g), b.id)
            << "conflict " << f << "-" << g << " crosses block " << b.id;
      }
    }
  }
  for (FactId f = 0; f < cg.num_facts(); ++f) {
    if (blocks.free_facts().test(f)) {
      EXPECT_FALSE(covered.test(f));
      EXPECT_TRUE(cg.neighbors(f).empty());
      EXPECT_EQ(blocks.block_of(f), BlockDecomposition::kNoBlock);
      covered.set(f);
    }
    EXPECT_TRUE(covered.test(f)) << "fact " << f << " not covered";
  }
}

// --- (2) per-block verdict == whole-instance exhaustive verdict ------------

TEST_P(BlockProperty, PerBlockVerdictMatchesExhaustive) {
  PreferredRepairProblem problem =
      GenerateRandomProblem(MixedSchema(), BaseOptions(GetParam()));
  ProblemContext ctx(*problem.instance, *problem.priority);
  const ConflictGraph& cg = ctx.conflict_graph();
  const PriorityRelation& pr = *problem.priority;
  ASSERT_TRUE(pr.IsConflictBounded());  // the generator's default

  CheckResult by_blocks =
      CheckOptimalByBlocks(ctx, problem.j, RepairSemantics::kGlobal,
                           PriorityMode::kConflictOnly);
  CheckResult exact = ExhaustiveCheckGlobalOptimal(cg, pr, problem.j);
  EXPECT_EQ(by_blocks.optimal, exact.optimal)
      << "J = " << problem.instance->SubinstanceToString(problem.j);
  EXPECT_EQ(testing_util::VerifyWitness(cg, pr, problem.j, by_blocks), "");

  CheckResult pareto_blocks =
      CheckOptimalByBlocks(ctx, problem.j, RepairSemantics::kPareto,
                           PriorityMode::kConflictOnly);
  CheckResult pareto_exact = ExhaustiveCheckParetoOptimal(cg, pr, problem.j);
  EXPECT_EQ(pareto_blocks.optimal, pareto_exact.optimal);
}

// The same equivalence under *cross-conflict* routing: the Theorem 7.1
// dispatcher must agree with the mode-agnostic exhaustive baseline on
// conflict-bounded input.
TEST_P(BlockProperty, CcpRoutingMatchesExhaustive) {
  PreferredRepairProblem problem =
      GenerateRandomProblem(MixedSchema(), BaseOptions(GetParam()));
  ProblemContext ctx(*problem.instance, *problem.priority);
  ASSERT_TRUE(problem.priority->IsConflictBounded());

  CheckResult by_blocks =
      CheckOptimalByBlocks(ctx, problem.j, RepairSemantics::kGlobal,
                           PriorityMode::kCrossConflict);
  CheckResult exact = ExhaustiveCheckGlobalOptimal(ctx.conflict_graph(),
                                                   *problem.priority,
                                                   problem.j);
  EXPECT_EQ(by_blocks.optimal, exact.optimal)
      << "J = " << problem.instance->SubinstanceToString(problem.j);
  EXPECT_EQ(testing_util::VerifyWitness(ctx.conflict_graph(),
                                        *problem.priority, problem.j,
                                        by_blocks),
            "");
}

// --- (3) per-block counts multiply to the whole-instance count -------------

TEST_P(BlockProperty, BlockRepairCountsMultiply) {
  PreferredRepairProblem problem =
      GenerateRandomProblem(MixedSchema(), BaseOptions(GetParam()));
  ConflictGraph cg(*problem.instance);
  BlockDecomposition blocks(cg, *problem.priority);

  uint64_t product = 1;
  for (const Block& b : blocks.blocks()) {
    product *= AllRepairsWithin(cg, b.fact_list).size();
  }
  EXPECT_EQ(product, CountRepairs(cg));
}

TEST_P(BlockProperty, OptimalCountsMultiplyToBruteForce) {
  PreferredRepairProblem problem =
      GenerateRandomProblem(MixedSchema(), BaseOptions(GetParam()));
  ProblemContext ctx(*problem.instance, *problem.priority);
  const ConflictGraph& cg = ctx.conflict_graph();
  const PriorityRelation& pr = *problem.priority;
  ASSERT_TRUE(pr.IsConflictBounded());

  // Brute force, independent of the per-block product: scan all repairs
  // and keep the exhaustively-verified optimal ones.
  uint64_t brute = 0;
  for (const DynamicBitset& r : AllRepairs(cg)) {
    if (ExhaustiveCheckGlobalOptimal(cg, pr, r).optimal) {
      ++brute;
    }
  }
  const BoundedCount count =
      CountOptimalRepairsBounded(ctx, RepairSemantics::kGlobal);
  EXPECT_TRUE(count.exact);
  EXPECT_EQ(count.lower_bound, brute);
  EXPECT_EQ(AllOptimalRepairs(ctx, RepairSemantics::kGlobal).size(), brute);
}


// --- (4) priority edges join blocks -----------------------------------------

// The fact lists of a decomposition's blocks, as labels.
std::vector<std::vector<std::string>> BlockLabels(
    const PreferredRepairProblem& problem) {
  const ConflictGraph cg(*problem.instance);
  const BlockDecomposition blocks(cg, *problem.priority);
  std::vector<std::vector<std::string>> out;
  for (const Block& b : blocks.blocks()) {
    EXPECT_EQ(b.rel, problem.instance->fact(b.fact_list.front()).rel);
    std::vector<std::string> labels;
    for (FactId f : b.fact_list) {
      labels.push_back(problem.instance->label(f));
    }
    out.push_back(std::move(labels));
  }
  return out;
}

// A priority edge between two facts with conflicts joins their blocks,
// within a relation and across relations; an edge touching a free fact
// joins nothing.
TEST(BlockJoinTest, PriorityEdgesJoinBlocks) {
  const std::string schema_and_facts =
      "relation R 2\nfd R: 1 -> 2\nrelation S 2\nfd S: 1 -> 2\n"
      "fact r1 R(a, 1)\nfact r2 R(a, 2)\nfact r3 R(b, 1)\n"
      "fact r4 R(b, 2)\nfact r5 R(c, 1)\n"
      "fact s1 S(x, 1)\nfact s2 S(x, 2)\n";
  struct Case {
    std::string priorities;
    std::vector<std::vector<std::string>> blocks;
  };
  const std::vector<Case> cases = {
      {"", {{"r1", "r2"}, {"r3", "r4"}, {"s1", "s2"}}},
      {"prefer r1 > r2\nprefer s2 > s1\n",
       {{"r1", "r2"}, {"r3", "r4"}, {"s1", "s2"}}},
      {"prefer r5 > r1\nprefer s2 > r5\n",
       {{"r1", "r2"}, {"r3", "r4"}, {"s1", "s2"}}},
      {"prefer r1 > r3\n", {{"r1", "r2", "r3", "r4"}, {"s1", "s2"}}},
      {"prefer s1 > r4\n", {{"r1", "r2"}, {"r3", "r4", "s1", "s2"}}},
      {"prefer r1 > r3\nprefer s1 > r4\nprefer r5 > s2\n",
       {{"r1", "r2", "r3", "r4", "s1", "s2"}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.priorities);
    Result<PreferredRepairProblem> problem =
        ParseProblemText(schema_and_facts + c.priorities);
    ASSERT_TRUE(problem.ok()) << problem.status().ToString();
    EXPECT_EQ(BlockLabels(*problem), c.blocks);
    ProblemContext ctx(*problem->instance, *problem->priority);
    EXPECT_TRUE(
        ctx.blocks().free_facts().test(problem->instance->FindLabel("r5")));
  }
}

// A conflict-bounded priority joins nothing: its decomposition is the
// conflict graph's own, block ids and all.
TEST_P(BlockProperty, ConflictBoundedPriorityKeepsConflictBlocks) {
  PreferredRepairProblem problem =
      GenerateRandomProblem(MixedSchema(), BaseOptions(GetParam()));
  ASSERT_TRUE(problem.priority->IsConflictBounded());
  const ConflictGraph cg(*problem.instance);
  const PriorityRelation no_priority(problem.instance.get());
  const BlockDecomposition with(cg, *problem.priority);
  const BlockDecomposition without(cg, no_priority);
  ASSERT_EQ(with.num_blocks(), without.num_blocks());
  for (size_t i = 0; i < with.num_blocks(); ++i) {
    EXPECT_EQ(with.block(i).rel, without.block(i).rel);
    EXPECT_EQ(with.block(i).fact_list, without.block(i).fact_list);
  }
  EXPECT_EQ(with.free_facts(), without.free_facts());
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlockProperty,
                         ::testing::ValuesIn(MakeSweep()), ParamName);

}  // namespace
}  // namespace prefrep
