// Tests for the cross-conflict-priority algorithms of §7: the
// primary-key graph algorithm (Example 7.2 / Figure 6, Lemma 7.3) and
// the constant-attribute partition enumeration (§7.2.2).

#include <gtest/gtest.h>

#include "repair/ccp_constant_attr.h"
#include "repair/ccp_primary_key.h"
#include "repair/checker.h"
#include "repair/exhaustive.h"
#include "repair/subinstance_ops.h"
#include "test_util.h"

namespace prefrep {
namespace {

using testing_util::ProblemSpec;

// Example 7.2: R binary with ∆ = {R: 1→2};
// R^I = {(0,1), (0,2), (0,c), (1,a), (1,b), (1,3)};
// priorities R(0,c) ≻ R(1,b) ≻ R(1,c)?? — the chains given are
// R(0,c) ≻ R(1,b) ≻ … and R(1,3) ≻ R(0,2) ≻ R(0,1);
// J = {R(0,2), R(1,b)}.
PreferredRepairProblem Example72() {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"f01: 0, 1", "f02: 0, 2", "f0c: 0, c",
                "f1a: 1, a", "f1b: 1, b", "f13: 1, 3"};
  // "R(0,c) ≻ R(1,b)" is cross-conflict (different key values);
  // "R(1,3) ≻ R(0,2) ≻ R(0,1)": the first is cross-conflict, the second
  // is an ordinary conflict edge.
  spec.priorities = {"f0c > f1b", "f13 > f02", "f02 > f01"};
  return testing_util::MakeProblem(spec);
}

TEST(CcpPrimaryKeyTest, Example72Figure6Graph) {
  PreferredRepairProblem problem = Example72();
  const Instance& inst = *problem.instance;
  ConflictGraph cg(inst);
  DynamicBitset j = testing_util::Sub(inst, {"f02", "f1b"});
  ASSERT_TRUE(IsRepair(cg, j));

  Digraph g =
      BuildCcpPrimaryKeyGraph(cg, *problem.priority, j, AllFactIds(cg));
  // Conflict edges J → I\J: f02 → {f01, f0c}, f1b → {f1a, f13}.
  auto has_edge = [&](const std::string& from, const std::string& to) {
    size_t u = inst.FindLabel(from);
    size_t v = inst.FindLabel(to);
    for (size_t w : g.successors(u)) {
      if (w == v) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has_edge("f02", "f01"));
  EXPECT_TRUE(has_edge("f02", "f0c"));
  EXPECT_TRUE(has_edge("f1b", "f1a"));
  EXPECT_TRUE(has_edge("f1b", "f13"));
  // Priority edges I\J → J: f0c → f1b and f13 → f02.
  EXPECT_TRUE(has_edge("f0c", "f1b"));
  EXPECT_TRUE(has_edge("f13", "f02"));
  // No other out-edges from I\J nodes.
  EXPECT_FALSE(has_edge("f01", "f02"));
  // The cycle f02 → f0c → f1b → f13 → f02 exists, so J is improvable.
  EXPECT_FALSE(g.IsAcyclic());

  CheckResult result =
      CheckGlobalOptimalCcpPrimaryKey(cg, *problem.priority, j);
  EXPECT_FALSE(result.optimal);
  EXPECT_EQ(testing_util::VerifyWitness(cg, *problem.priority, j, result),
            "");
  // The cycle swaps in {f0c, f13}: the improvement is {f0c, f13}.
  EXPECT_EQ(result.witness->improvement,
            testing_util::Sub(inst, {"f0c", "f13"}));
}

TEST(CcpPrimaryKeyTest, OptimalRepairAccepted) {
  PreferredRepairProblem problem = Example72();
  const Instance& inst = *problem.instance;
  ConflictGraph cg(inst);
  // {f0c, f13} has no improvement: nothing is preferred over its facts.
  DynamicBitset j = testing_util::Sub(inst, {"f0c", "f13"});
  ASSERT_TRUE(IsRepair(cg, j));
  EXPECT_TRUE(
      CheckGlobalOptimalCcpPrimaryKey(cg, *problem.priority, j).optimal);
  EXPECT_TRUE(ExhaustiveCheckGlobalOptimal(cg, *problem.priority, j).optimal);
}

TEST(CcpPrimaryKeyTest, NonMaximalJRejectedWithWitness) {
  PreferredRepairProblem problem = Example72();
  ConflictGraph cg(*problem.instance);
  DynamicBitset j = testing_util::Sub(*problem.instance, {"f02"});
  CheckResult result =
      CheckGlobalOptimalCcpPrimaryKey(cg, *problem.priority, j);
  EXPECT_FALSE(result.optimal);
  ASSERT_TRUE(result.witness.has_value());
  EXPECT_TRUE(IsGlobalImprovement(cg, *problem.priority, j,
                                  result.witness->improvement));
}

TEST(CcpPrimaryKeyTest, InconsistentJRejected) {
  PreferredRepairProblem problem = Example72();
  ConflictGraph cg(*problem.instance);
  DynamicBitset j = testing_util::Sub(*problem.instance, {"f01", "f02"});
  EXPECT_FALSE(
      CheckGlobalOptimalCcpPrimaryKey(cg, *problem.priority, j).optimal);
}

// A cross-relation cycle: the priority couples two relations, which the
// ordinary per-relation reasoning cannot see.
TEST(CcpPrimaryKeyTest, CrossRelationCycle) {
  Schema schema;
  RelId r = schema.MustAddRelation("R", 2);
  RelId s = schema.MustAddRelation("S", 2);
  schema.MustAddFd(r, FD(AttrSet{1}, AttrSet{2}));
  schema.MustAddFd(s, FD(AttrSet{1}, AttrSet{2}));
  PreferredRepairProblem problem(std::move(schema));
  Instance& inst = *problem.instance;
  inst.MustAddFact("R", {"k", "old"}, "r_old");
  inst.MustAddFact("R", {"k", "new"}, "r_new");
  inst.MustAddFact("S", {"k", "old"}, "s_old");
  inst.MustAddFact("S", {"k", "new"}, "s_new");
  problem.InitPriority();
  // r_new improves s_old, s_new improves r_old: only swapping both
  // relations at once is a global improvement.
  PREFREP_CHECK(problem.priority->AddByLabels("r_new", "s_old").ok());
  PREFREP_CHECK(problem.priority->AddByLabels("s_new", "r_old").ok());
  ASSERT_TRUE(
      problem.priority->Validate(PriorityMode::kCrossConflict).ok());
  ASSERT_FALSE(
      problem.priority->Validate(PriorityMode::kConflictOnly).ok());

  ConflictGraph cg(inst);
  DynamicBitset j = testing_util::Sub(inst, {"r_old", "s_old"});
  ASSERT_TRUE(IsRepair(cg, j));
  CheckResult result =
      CheckGlobalOptimalCcpPrimaryKey(cg, *problem.priority, j);
  EXPECT_FALSE(result.optimal);
  EXPECT_EQ(result.witness->improvement,
            testing_util::Sub(inst, {"r_new", "s_new"}));
  // And the "all-new" repair is optimal.
  EXPECT_TRUE(CheckGlobalOptimalCcpPrimaryKey(
                  cg, *problem.priority,
                  testing_util::Sub(inst, {"r_new", "s_new"}))
                  .optimal);
}

// --- Constant-attribute assignment (§7.2.2) ---------------------------------

TEST(CcpConstantAttrTest, PartitionsGroupByClosureOfEmptySet) {
  Schema schema;
  RelId r = schema.MustAddRelation("R", 2);
  schema.MustAddFd(r, FD(AttrSet(), AttrSet{1}));
  PreferredRepairProblem problem(std::move(schema));
  Instance& inst = *problem.instance;
  inst.MustAddFact("R", {"a", "1"}, "a1");
  inst.MustAddFact("R", {"a", "2"}, "a2");
  inst.MustAddFact("R", {"b", "1"}, "b1");
  inst.MustAddFact("R", {"c", "9"}, "c9");
  std::vector<std::vector<FactId>> parts =
      ConsistentPartitions(inst, 0, inst.facts_of(0));
  ASSERT_EQ(parts.size(), 3u);  // groups a, b, c
  EXPECT_EQ(parts[0].size(), 2u);
  EXPECT_EQ(parts[1].size(), 1u);
  EXPECT_EQ(parts[2].size(), 1u);
}

TEST(CcpConstantAttrTest, TrivialFdMakesOnePartition) {
  Schema schema;
  schema.MustAddRelation("R", 2);  // empty ∆|R: ⟦R.∅⟧ = ∅
  PreferredRepairProblem problem(std::move(schema));
  Instance& inst = *problem.instance;
  inst.MustAddFact("R", {"a", "1"});
  inst.MustAddFact("R", {"b", "2"});
  std::vector<std::vector<FactId>> parts =
      ConsistentPartitions(inst, 0, inst.facts_of(0));
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].size(), 2u);
}

TEST(CcpConstantAttrTest, RepairEnumerationIsProductOfPartitions) {
  Schema schema;
  RelId r = schema.MustAddRelation("R", 2);
  RelId s = schema.MustAddRelation("S", 1);
  schema.MustAddFd(r, FD(AttrSet(), AttrSet{1}));
  schema.MustAddFd(s, FD(AttrSet(), AttrSet{1}));
  PreferredRepairProblem problem(std::move(schema));
  Instance& inst = *problem.instance;
  inst.MustAddFact("R", {"a", "1"});
  inst.MustAddFact("R", {"b", "1"});
  inst.MustAddFact("S", {"x"});
  inst.MustAddFact("S", {"y"});
  inst.MustAddFact("S", {"z"});
  ConflictGraph cg(inst);
  size_t count = 0;
  ForEachConstantAttrRepair(inst, AllFactIds(cg), [&](const DynamicBitset&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 6u);  // 2 × 3
  EXPECT_EQ(CountRepairs(cg), 6u);
}

TEST(CcpConstantAttrTest, ChecksAgainstDefinition) {
  // ∆ = {∅→1} on R; facts in groups a/b; cross-conflict priority makes
  // the b-group preferred via a chain.
  Schema schema;
  RelId r = schema.MustAddRelation("R", 2);
  schema.MustAddFd(r, FD(AttrSet(), AttrSet{1}));
  PreferredRepairProblem problem(std::move(schema));
  Instance& inst = *problem.instance;
  inst.MustAddFact("R", {"a", "1"}, "a1");
  inst.MustAddFact("R", {"a", "2"}, "a2");
  inst.MustAddFact("R", {"b", "1"}, "b1");
  problem.InitPriority();
  PREFREP_CHECK(problem.priority->AddByLabels("b1", "a1").ok());
  PREFREP_CHECK(problem.priority->AddByLabels("b1", "a2").ok());
  ConflictGraph cg(inst);

  DynamicBitset group_a = testing_util::Sub(inst, {"a1", "a2"});
  DynamicBitset group_b = testing_util::Sub(inst, {"b1"});
  CheckResult ra =
      CheckGlobalOptimalCcpConstantAttr(cg, *problem.priority, group_a);
  EXPECT_FALSE(ra.optimal);
  EXPECT_EQ(ra.witness->improvement, group_b);
  EXPECT_TRUE(
      CheckGlobalOptimalCcpConstantAttr(cg, *problem.priority, group_b)
          .optimal);
}

TEST(CcpConstantAttrTest, PartialPreferenceIsNotEnough) {
  // b1 ≻ a1 but a2 is not dominated: group b does NOT globally improve
  // group a.
  Schema schema;
  RelId r = schema.MustAddRelation("R", 2);
  schema.MustAddFd(r, FD(AttrSet(), AttrSet{1}));
  PreferredRepairProblem problem(std::move(schema));
  Instance& inst = *problem.instance;
  inst.MustAddFact("R", {"a", "1"}, "a1");
  inst.MustAddFact("R", {"a", "2"}, "a2");
  inst.MustAddFact("R", {"b", "1"}, "b1");
  problem.InitPriority();
  PREFREP_CHECK(problem.priority->AddByLabels("b1", "a1").ok());
  ConflictGraph cg(inst);
  EXPECT_TRUE(CheckGlobalOptimalCcpConstantAttr(
                  cg, *problem.priority,
                  testing_util::Sub(inst, {"a1", "a2"}))
                  .optimal);
}

// --- Dispatcher in ccp mode ---------------------------------------------------

TEST(CcpCheckerTest, DispatcherRoutesAndAgrees) {
  PreferredRepairProblem problem = Example72();
  CheckerOptions opts;
  opts.mode = PriorityMode::kCrossConflict;
  RepairChecker checker(*problem.instance, *problem.priority, opts);
  EXPECT_TRUE(checker.SchemaIsTractable());  // primary-key assignment
  ConflictGraph cg(*problem.instance);
  for (const DynamicBitset& repair : AllRepairs(cg)) {
    auto outcome = checker.CheckGloballyOptimal(repair);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->result.optimal,
              ExhaustiveCheckGlobalOptimal(cg, *problem.priority, repair)
                  .optimal);
  }
}

}  // namespace
}  // namespace prefrep
