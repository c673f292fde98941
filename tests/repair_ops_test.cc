// Tests for the repair substrate: consistency / maximality / repair
// checking, improvement verification (Definition 2.4 edge cases), the
// polynomial Pareto check, and the exhaustive repair enumeration.

#include <gtest/gtest.h>

#include "repair/block_solver.h"
#include "repair/exhaustive.h"
#include "repair/pareto.h"
#include "repair/subinstance_ops.h"
#include "test_util.h"

namespace prefrep {
namespace {

using testing_util::ProblemSpec;
using testing_util::Sub;

PreferredRepairProblem TwoGroups() {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"a1: k, 1", "a2: k, 2", "b1: m, 1", "b2: m, 2"};
  spec.priorities = {"a1 > a2", "b1 > b2"};
  return testing_util::MakeProblem(spec);
}

TEST(SubinstanceOpsTest, ConsistencyBothPaths) {
  PreferredRepairProblem p = TwoGroups();
  const Instance& inst = *p.instance;
  ConflictGraph cg(inst);
  DynamicBitset ok = Sub(inst, {"a1", "b2"});
  DynamicBitset bad = Sub(inst, {"a1", "a2"});
  EXPECT_TRUE(IsConsistent(inst, ok));
  EXPECT_TRUE(IsConsistent(cg, ok));
  EXPECT_FALSE(IsConsistent(inst, bad));
  EXPECT_FALSE(IsConsistent(cg, bad));
  auto violation = FindViolation(inst, bad);
  ASSERT_TRUE(violation.has_value());
  EXPECT_TRUE((violation->first == inst.FindLabel("a1") &&
               violation->second == inst.FindLabel("a2")) ||
              (violation->first == inst.FindLabel("a2") &&
               violation->second == inst.FindLabel("a1")));
  // The empty subinstance is consistent.
  EXPECT_TRUE(IsConsistent(inst, inst.EmptySubinstance()));
}

TEST(SubinstanceOpsTest, RepairChecking) {
  PreferredRepairProblem p = TwoGroups();
  const Instance& inst = *p.instance;
  ConflictGraph cg(inst);
  EXPECT_TRUE(IsRepair(cg, Sub(inst, {"a1", "b1"})));
  EXPECT_FALSE(IsRepair(cg, Sub(inst, {"a1"})));           // not maximal
  EXPECT_FALSE(IsRepair(cg, Sub(inst, {"a1", "a2", "b1"})));  // inconsistent
  auto ext = FindExtension(cg, Sub(inst, {"a1"}));
  ASSERT_TRUE(ext.has_value());
  EXPECT_EQ(inst.fact(*ext).values[0], inst.dict().Find("m"));
}

TEST(SubinstanceOpsTest, ExtendToRepair) {
  PreferredRepairProblem p = TwoGroups();
  const Instance& inst = *p.instance;
  ConflictGraph cg(inst);
  DynamicBitset extended = ExtendToRepair(cg, Sub(inst, {"a2"}));
  EXPECT_TRUE(IsRepair(cg, extended));
  EXPECT_TRUE(extended.test(inst.FindLabel("a2")));
}

TEST(SubinstanceOpsTest, RestrictToRelation) {
  Schema schema;
  schema.MustAddRelation("A", 1);
  schema.MustAddRelation("B", 1);
  PreferredRepairProblem p(std::move(schema));
  p.instance->MustAddFact("A", {"1"}, "a");
  p.instance->MustAddFact("B", {"2"}, "b");
  DynamicBitset all = p.instance->AllFacts();
  EXPECT_EQ(RestrictToRelation(*p.instance, 0, all),
            Sub(*p.instance, {"a"}));
}

// Definition 2.4 edge cases.
TEST(ImprovementTest, Definition24EdgeCases) {
  PreferredRepairProblem p = TwoGroups();
  const Instance& inst = *p.instance;
  ConflictGraph cg(inst);
  const PriorityRelation& pr = *p.priority;
  DynamicBitset j = Sub(inst, {"a2", "b2"});

  // A consistent strict superset is a global improvement (J\J' = ∅).
  EXPECT_TRUE(IsGlobalImprovement(cg, pr, Sub(inst, {"a2"}), j));
  // ... and also a Pareto improvement (witness dominates ∅ vacuously).
  EXPECT_TRUE(IsParetoImprovement(cg, pr, Sub(inst, {"a2"}), j));
  // J is never an improvement of itself.
  EXPECT_FALSE(IsGlobalImprovement(cg, pr, j, j));
  EXPECT_FALSE(IsParetoImprovement(cg, pr, j, j));
  // An inconsistent candidate is never an improvement.
  EXPECT_FALSE(IsGlobalImprovement(cg, pr, j, Sub(inst, {"a1", "a2"})));
  // A strict subset is never an improvement (removed facts have no
  // improvers in an empty added set).
  EXPECT_FALSE(IsGlobalImprovement(cg, pr, j, Sub(inst, {"a2"})));
  EXPECT_FALSE(IsParetoImprovement(cg, pr, j, Sub(inst, {"a2"})));

  // {a1, b1} improves {a2, b2} globally (a1 ≻ a2, b1 ≻ b2) but not
  // Pareto-wise (no single fact dominates both).
  DynamicBitset better = Sub(inst, {"a1", "b1"});
  EXPECT_TRUE(IsGlobalImprovement(cg, pr, j, better));
  EXPECT_FALSE(IsParetoImprovement(cg, pr, j, better));
  // Swapping only one group is both.
  DynamicBitset one = Sub(inst, {"a1", "b2"});
  EXPECT_TRUE(IsGlobalImprovement(cg, pr, j, one));
  EXPECT_TRUE(IsParetoImprovement(cg, pr, j, one));
}

TEST(ParetoTest, WitnessStructure) {
  PreferredRepairProblem p = TwoGroups();
  const Instance& inst = *p.instance;
  ConflictGraph cg(inst);
  DynamicBitset j = Sub(inst, {"a2", "b1"});
  CheckResult r = CheckParetoOptimal(cg, *p.priority, j);
  EXPECT_FALSE(r.optimal);
  ASSERT_TRUE(r.witness.has_value());
  // The witness swaps a2 for a1.
  EXPECT_EQ(r.witness->improvement, Sub(inst, {"a1", "b1"}));
  EXPECT_TRUE(
      IsParetoImprovement(cg, *p.priority, j, r.witness->improvement));
}

TEST(ParetoTest, OptimalAndInconsistentCases) {
  PreferredRepairProblem p = TwoGroups();
  const Instance& inst = *p.instance;
  ConflictGraph cg(inst);
  EXPECT_TRUE(CheckParetoOptimal(cg, *p.priority,
                                 Sub(inst, {"a1", "b1"}))
                  .optimal);
  EXPECT_FALSE(CheckParetoOptimal(cg, *p.priority,
                                  Sub(inst, {"a1", "a2"}))
                   .optimal);  // inconsistent
  // Non-maximal J is Pareto-improvable by extension.
  EXPECT_FALSE(CheckParetoOptimal(cg, *p.priority, Sub(inst, {"a1"}))
                   .optimal);
}

TEST(ExhaustiveTest, EnumerationOnKnownInstance) {
  PreferredRepairProblem p = TwoGroups();
  ConflictGraph cg(*p.instance);
  EXPECT_EQ(CountRepairs(cg), 4u);  // 2 choices × 2 choices
  std::vector<DynamicBitset> repairs = AllRepairs(cg);
  EXPECT_EQ(repairs.size(), 4u);
  for (const DynamicBitset& r : repairs) {
    EXPECT_TRUE(IsRepair(cg, r));
  }
  // Early-exit works.
  size_t seen = 0;
  ForEachRepair(cg, [&](const DynamicBitset&) {
    ++seen;
    return seen < 2;
  });
  EXPECT_EQ(seen, 2u);
}

TEST(ExhaustiveTest, EmptyInstanceHasOneEmptyRepair) {
  Schema schema = Schema::SingleRelation("R", 2, {FD(AttrSet{1}, AttrSet{2})});
  PreferredRepairProblem p(std::move(schema));
  p.InitPriority();
  ConflictGraph cg(*p.instance);
  EXPECT_EQ(CountRepairs(cg), 1u);
  EXPECT_TRUE(AllRepairs(cg)[0].none());
  // The empty J is the (only) globally-optimal repair.
  EXPECT_TRUE(
      ExhaustiveCheckGlobalOptimal(cg, *p.priority, p.instance->EmptySubinstance())
          .optimal);
}

TEST(ExhaustiveTest, ConflictFreeInstanceHasOneRepair) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"a: k1, 1", "b: k2, 2", "c: k3, 3"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  ConflictGraph cg(*p.instance);
  EXPECT_EQ(CountRepairs(cg), 1u);
  EXPECT_EQ(AllRepairs(cg)[0], p.instance->AllFacts());
}

TEST(ExhaustiveTest, RestrictedUniverseEnumeration) {
  PreferredRepairProblem p = TwoGroups();
  const Instance& inst = *p.instance;
  ConflictGraph cg(inst);
  // Universe = the k-group only: two repairs {a1}, {a2} (as subsets of
  // the universe).
  DynamicBitset universe = Sub(inst, {"a1", "a2"});
  const std::vector<FactId> listed = {inst.FindLabel("a1"),
                                      inst.FindLabel("a2")};
  size_t count = 0;
  ForEachRepairWithin(cg, listed, [&](const DynamicBitset& r) {
    EXPECT_EQ(r.count(), 1u);
    EXPECT_TRUE(r.IsSubsetOf(universe));
    ++count;
    return true;
  });
  EXPECT_EQ(count, 2u);
}

TEST(ExhaustiveTest, PivotlessEnumerationMatches) {
  // Ablation parity: the pivotless Bron–Kerbosch variant must produce
  // the same repair set.
  PreferredRepairProblem p = TwoGroups();
  ConflictGraph cg(*p.instance);
  std::vector<DynamicBitset> with_pivot = AllRepairs(cg);
  std::vector<DynamicBitset> without;
  ForEachRepairNoPivot(cg, [&](const DynamicBitset& r) {
    without.push_back(r);
    return true;
  });
  auto key = [](const DynamicBitset& b) { return b.ToVector(); };
  std::vector<std::vector<size_t>> a, b;
  for (const auto& r : with_pivot) a.push_back(key(r));
  for (const auto& r : without) b.push_back(key(r));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(ExhaustiveTest, AllOptimalRepairsOnTwoGroups) {
  PreferredRepairProblem p = TwoGroups();
  ConflictGraph cg(*p.instance);
  const Instance& inst = *p.instance;
  // a1 ≻ a2 and b1 ≻ b2: the unique optimal repair under every
  // semantics is {a1, b1}.
  for (RepairSemantics sem :
       {RepairSemantics::kGlobal, RepairSemantics::kPareto,
        RepairSemantics::kCompletion}) {
    std::vector<DynamicBitset> optimal =
        AllOptimalRepairs(ProblemContext(cg, *p.priority), sem);
    ASSERT_EQ(optimal.size(), 1u);
    EXPECT_EQ(optimal[0], Sub(inst, {"a1", "b1"}));
  }
}

}  // namespace
}  // namespace prefrep
