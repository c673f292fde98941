// Tests for the repair-construction corollary: a completion-optimal —
// hence globally-optimal — repair is constructible in polynomial time
// for every schema, including all six hard schemas of Example 3.4.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "gen/hard_workloads.h"
#include "gen/random_instance.h"
#include "reductions/hard_schemas.h"
#include "repair/completion.h"
#include "repair/construct.h"
#include "repair/exhaustive.h"
#include "repair/pareto.h"
#include "repair/subinstance_ops.h"
#include "test_util.h"

namespace prefrep {
namespace {

TEST(ConstructTest, OutputIsOptimalOnHardSchemasToo) {
  // Constructing an optimal repair is polynomial even where *checking*
  // is coNP-complete — the asymmetry this module packages.
  for (int index = 1; index <= 6; ++index) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      RandomProblemOptions opts;
      opts.facts_per_relation = 12;
      opts.domain_size = 3;
      opts.priority_density = 0.5;
      opts.seed = seed * 131 + static_cast<uint64_t>(index);
      PreferredRepairProblem p =
          GenerateRandomProblem(HardSchema(index), opts);
      ConflictGraph cg(*p.instance);
      const ProblemContext ctx(cg, *p.priority);
      const DynamicBitset repair = *TryConstructGloballyOptimalRepair(ctx);
      EXPECT_TRUE(IsRepair(cg, repair)) << "S" << index;
      EXPECT_TRUE(
          CheckCompletionOptimal(cg, *p.priority, repair, AllFactIds(cg))
              .optimal)
          << "S" << index;
      EXPECT_TRUE(
          ExhaustiveCheckGlobalOptimal(cg, *p.priority, repair).optimal)
          << "S" << index;
      EXPECT_TRUE(CheckParetoOptimal(cg, *p.priority, repair).optimal)
          << "S" << index;
    }
  }
}

TEST(ConstructTest, TieBreaksAreAllOptimal) {
  RandomProblemOptions opts;
  opts.facts_per_relation = 14;
  opts.domain_size = 3;
  opts.priority_density = 0.4;
  opts.seed = 99;
  PreferredRepairProblem p =
      GenerateRandomProblem(HardSchemaS4(), opts);
  ConflictGraph cg(*p.instance);
  const ProblemContext ctx(cg, *p.priority);
  for (TieBreak tb :
       {TieBreak::kFirstFact, TieBreak::kRandom, TieBreak::kMostDominating}) {
    ConstructOptions options;
    options.tie_break = tb;
    options.seed = 5;
    const DynamicBitset repair =
        *TryConstructGloballyOptimalRepair(ctx, options);
    EXPECT_TRUE(
        ExhaustiveCheckGlobalOptimal(cg, *p.priority, repair).optimal);
  }
}

TEST(ConstructTest, FirstFactTieBreakIsDeterministic) {
  PreferredRepairProblem p =
      MakeHardChoiceWorkload(1, 6, HardJ::kAllDispreferred);
  const ProblemContext ctx(*p.instance, *p.priority);
  const DynamicBitset a = *TryConstructGloballyOptimalRepair(ctx);
  const DynamicBitset b = *TryConstructGloballyOptimalRepair(ctx);
  EXPECT_EQ(a, b);
  // On the gadget workload the constructed repair is the all-preferred
  // one — every "hi" fact is undominated.
  EXPECT_EQ(a, MakeHardChoiceWorkload(1, 6, HardJ::kAllPreferred).j);
}

TEST(ConstructTest, RandomTieBreaksFindEveryOptimumWhenThereAreSeveral) {
  // Two incomparable facts per group: several completion-optimal
  // repairs; different kRandom seeds should reach every one of them.
  testing_util::ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"a1: k, 1", "a2: k, 2", "b1: m, 1", "b2: m, 2"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  ConflictGraph cg(*p.instance);
  const ProblemContext ctx(cg, *p.priority);
  std::set<std::vector<size_t>> distinct;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    const DynamicBitset repair =
        *TryConstructGloballyOptimalRepair(ctx, {TieBreak::kRandom, seed});
    EXPECT_TRUE(
        ExhaustiveCheckGlobalOptimal(cg, *p.priority, repair).optimal);
    distinct.insert(repair.ToVector());
  }
  EXPECT_EQ(distinct.size(), 4u);  // 2 × 2 incomparable choices
}

}  // namespace
}  // namespace prefrep
