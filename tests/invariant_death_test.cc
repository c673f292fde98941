// Death tests for the library's hard invariants: a checking library
// must fail loudly on API misuse rather than return garbage.  Each test
// documents a contract from the headers.

#include <gtest/gtest.h>

#include "gen/running_example.h"
#include "repair/checker.h"
#include "repair/completion.h"
#include "repair/construct.h"
#include "repair/global_one_fd.h"
#include "repair/pareto.h"
#include "repair/subinstance_ops.h"
#include "test_util.h"

namespace prefrep {
namespace {

using testing_util::ProblemSpec;

TEST(InvariantDeathTest, SubinstanceSizeMismatchIsFatal) {
  PreferredRepairProblem p = RunningExampleProblem();
  RepairChecker checker(*p.instance, *p.priority);
  DynamicBitset wrong_size(3);
  EXPECT_DEATH({ (void)checker.CheckGloballyOptimal(wrong_size); },
               "size mismatch");
}

TEST(InvariantDeathTest, PriorityOverDifferentInstanceIsFatal) {
  PreferredRepairProblem a = RunningExampleProblem();
  PreferredRepairProblem b = RunningExampleProblem();
  EXPECT_DEATH({ RepairChecker checker(*a.instance, *b.priority); },
               "different instance");
}

TEST(InvariantDeathTest, CyclicPriorityRejectedByChecker) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"a: k, 1", "b: k, 2"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  p.priority->MustAdd(0, 1);
  p.priority->MustAdd(1, 0);  // cycle
  EXPECT_DEATH({ RepairChecker checker(*p.instance, *p.priority); },
               "invalid");
}

TEST(InvariantDeathTest, CompletionRequiresConflictBoundedPriority) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"a: k, 1", "b: m, 1"};  // non-conflicting
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  p.priority->MustAdd(0, 1);  // cross-conflict edge
  ConflictGraph cg(*p.instance);
  EXPECT_DEATH(
      {
        (void)CheckCompletionOptimal(cg, *p.priority, p.j, AllFactIds(cg));
      },
      "conflict-bounded");
  EXPECT_DEATH(
      {
        (void)TryConstructGloballyOptimalRepair(
            ProblemContext(cg, *p.priority));
      },
      "conflict-bounded");
}

TEST(InvariantDeathTest, SwapBlocksRequiresMemberOfJ) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"a: k, 1", "b: k, 2"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  DynamicBitset j = testing_util::Sub(*p.instance, {"a"});
  FD fd(AttrSet{1}, AttrSet{2});
  // f must be in J; passing the outside fact dies.
  EXPECT_DEATH(
      {
        (void)SwapBlocks(*p.instance, fd, p.instance->facts_of(0), j,
                         p.instance->FindLabel("b"),
                         p.instance->FindLabel("a"));
      },
      "f ∈ J");
}

TEST(InvariantDeathTest, ParetoRequiresConsistentJ) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"a: k, 1", "b: k, 2"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  ConflictGraph cg(*p.instance);
  EXPECT_DEATH(
      {
        (void)FindParetoImprovement(cg, *p.priority, p.instance->AllFacts(),
                                    AllFactIds(cg));
      },
      "consistent");
}

TEST(InvariantDeathTest, ExtendToRepairRequiresConsistentInput) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"a: k, 1", "b: k, 2"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  ConflictGraph cg(*p.instance);
  EXPECT_DEATH({ (void)ExtendToRepair(cg, p.instance->AllFacts()); },
               "consistent");
}

}  // namespace
}  // namespace prefrep
