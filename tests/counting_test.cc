// Tests for counting / uniqueness of preferred repairs (the concluding-
// remarks extension) and for the hard choice-gadget workload generator.

#include <gtest/gtest.h>

#include "classify/categoricity.h"
#include "gen/hard_workloads.h"
#include "gen/random_instance.h"
#include "repair/counting.h"
#include "repair/subinstance_ops.h"
#include "test_util.h"

namespace prefrep {
namespace {

using testing_util::ProblemSpec;

TEST(HardWorkloadTest, GadgetsAreIndependentAcrossAllSixSchemas) {
  for (int index = 1; index <= 6; ++index) {
    PreferredRepairProblem p =
        MakeHardChoiceWorkload(index, 6, HardJ::kAllPreferred);
    ConflictGraph cg(*p.instance);
    // Exactly one conflict per gadget, hence 2^6 repairs.
    EXPECT_EQ(cg.num_edges(), 6u) << "S" << index;
    EXPECT_EQ(CountRepairs(cg), 64u) << "S" << index;
    EXPECT_TRUE(p.priority->Validate(PriorityMode::kConflictOnly).ok())
        << "S" << index;
    EXPECT_TRUE(IsRepair(cg, p.j)) << "S" << index;
  }
}

TEST(HardWorkloadTest, PreferredJIsOptimalDispreferredIsNot) {
  for (int index = 1; index <= 6; ++index) {
    PreferredRepairProblem hi =
        MakeHardChoiceWorkload(index, 5, HardJ::kAllPreferred);
    ConflictGraph cg_hi(*hi.instance);
    EXPECT_TRUE(
        ExhaustiveCheckGlobalOptimal(cg_hi, *hi.priority, hi.j).optimal)
        << "S" << index;

    PreferredRepairProblem lo =
        MakeHardChoiceWorkload(index, 5, HardJ::kAllDispreferred);
    ConflictGraph cg_lo(*lo.instance);
    EXPECT_FALSE(
        ExhaustiveCheckGlobalOptimal(cg_lo, *lo.priority, lo.j).optimal)
        << "S" << index;
  }
}

TEST(CountingTest, GadgetWorkloadHasUniqueOptimal) {
  PreferredRepairProblem p = MakeHardChoiceWorkload(4, 4, HardJ::kAllPreferred);
  ConflictGraph cg(*p.instance);
  ProblemContext ctx(cg, *p.priority);
  const BoundedCount count =
      CountOptimalRepairsBounded(ctx, RepairSemantics::kGlobal);
  EXPECT_TRUE(count.exact);
  EXPECT_EQ(count.lower_bound, 1u);
  const CategoricityResult unique =
      DecideCategoricity(ctx, RepairSemantics::kGlobal);
  ASSERT_EQ(unique.verdict, Categoricity::kCategorical);
  EXPECT_EQ(unique.repair, p.j);
  // The priority orders every conflicting pair here, so the polynomial
  // total-priority tier decides every block and agrees.
  for (const Block& b : ctx.blocks().blocks()) {
    const BlockCategoricity block =
        DecideBlockCategoricity(ctx, b, RepairSemantics::kGlobal);
    EXPECT_EQ(block.unique, Trilean::kTrue);
    EXPECT_FALSE(block.exponential);
  }
}

TEST(CountingTest, IncomparableChoicesGiveMultipleOptima) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"a: k, 1", "b: k, 2"};
  // No priority: both singleton repairs are optimal.
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  ConflictGraph cg(*p.instance);
  ProblemContext ctx(cg, *p.priority);
  const BoundedCount count =
      CountOptimalRepairsBounded(ctx, RepairSemantics::kGlobal);
  EXPECT_TRUE(count.exact);
  EXPECT_EQ(count.lower_bound, 2u);
  EXPECT_EQ(DecideCategoricity(ctx, RepairSemantics::kGlobal).verdict,
            Categoricity::kAmbiguous);
  // Unordered conflicts: the total-priority tier does not answer.
  const BlockCategoricity block = DecideBlockCategoricity(
      ctx, ctx.blocks().block(0), RepairSemantics::kGlobal);
  EXPECT_EQ(block.unique, Trilean::kFalse);
}

TEST(CountingTest, TotalityIsSufficientButNotNecessary) {
  // Two conflicting facts with a priority, plus an unconflicted third:
  // the optimal repair is unique; now add an unordered conflict pair
  // whose members both lose to a third fact — still unique, though the
  // priority is not total.
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"top: k, 1", "l1: k, 2", "l2: k, 3"};
  spec.priorities = {"top > l1", "top > l2"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  ProblemContext ctx(*p.instance, *p.priority);
  // l1 vs l2 is unordered, so the total-priority tier does not answer
  // and the exact tier decides.
  ASSERT_EQ(ctx.blocks().num_blocks(), 1u);
  const BlockCategoricity block = DecideBlockCategoricity(
      ctx, ctx.blocks().block(0), RepairSemantics::kGlobal);
  EXPECT_TRUE(block.exponential);
  EXPECT_EQ(block.unique, Trilean::kTrue);
  const CategoricityResult unique =
      DecideCategoricity(ctx, RepairSemantics::kGlobal);
  ASSERT_EQ(unique.verdict, Categoricity::kCategorical);
  EXPECT_EQ(unique.repair, testing_util::Sub(*p.instance, {"top"}));
}

TEST(CountingTest, CountsAgreeWithSemanticsInclusion) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Schema schema = Schema::SingleRelation(
        "R", 3, {FD(AttrSet{1}, AttrSet{2})});
    RandomProblemOptions opts;
    opts.facts_per_relation = 10;
    opts.domain_size = 3;
    opts.seed = seed * 53;
    PreferredRepairProblem p = GenerateRandomProblem(schema, opts);
    ProblemContext ctx(*p.instance, *p.priority);
    const BoundedCount completion =
        CountOptimalRepairsBounded(ctx, RepairSemantics::kCompletion);
    const BoundedCount global =
        CountOptimalRepairsBounded(ctx, RepairSemantics::kGlobal);
    const BoundedCount pareto =
        CountOptimalRepairsBounded(ctx, RepairSemantics::kPareto);
    EXPECT_TRUE(completion.exact && global.exact && pareto.exact);
    EXPECT_GE(global.lower_bound, uint64_t{1});
    EXPECT_LE(completion.lower_bound, global.lower_bound);
    EXPECT_LE(global.lower_bound, pareto.lower_bound);
  }
}

}  // namespace
}  // namespace prefrep
