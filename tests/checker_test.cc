// Tests for the unified dispatching RepairChecker: routing decisions,
// the exhaustive fallback on hard schemas, rejection of invalid inputs,
// and Proposition 3.5-style per-relation behaviour.

#include <gtest/gtest.h>

#include "gen/running_example.h"
#include "repair/checker.h"
#include "repair/exhaustive.h"
#include "test_util.h"

namespace prefrep {
namespace {

TEST(CheckerTest, RouteNamesAlgorithms) {
  PreferredRepairProblem problem = RunningExampleProblem();
  RepairChecker checker(*problem.instance, *problem.priority);
  auto outcome =
      checker.CheckGloballyOptimal(RunningExampleJ(*problem.instance, 2));
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->route.size(), 2u);
  EXPECT_NE(outcome->route[0].find("GRepCheck1FD"), std::string::npos);
  EXPECT_NE(outcome->route[1].find("GRepCheck2Keys"), std::string::npos);
}

TEST(CheckerTest, HardSchemaTakesTheExhaustiveFallback) {
  Schema schema = Schema::SingleRelation(
      "R", 3, {FD(AttrSet{1}, AttrSet{2}), FD(AttrSet{2}, AttrSet{3})});
  PreferredRepairProblem problem(std::move(schema));
  problem.instance->MustAddFact("R", {"a", "b", "c"});
  problem.InitPriority();
  RepairChecker checker(*problem.instance, *problem.priority);
  EXPECT_FALSE(checker.SchemaIsTractable());
  auto outcome = checker.CheckGloballyOptimal(problem.instance->AllFacts());
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->result.optimal);
  ASSERT_EQ(outcome->route.size(), 1u);
  EXPECT_NE(outcome->route[0].find("exhaustive fallback"), std::string::npos);
}

TEST(CheckerTest, InconsistentJRejectedBeforeDispatch) {
  PreferredRepairProblem problem = RunningExampleProblem();
  RepairChecker checker(*problem.instance, *problem.priority);
  DynamicBitset bad = problem.instance->AllFacts();  // I is inconsistent
  auto outcome = checker.CheckGloballyOptimal(bad);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->result.optimal);
  ASSERT_EQ(outcome->route.size(), 1u);
  EXPECT_NE(outcome->route[0].find("inconsistent"), std::string::npos);
}

TEST(CheckerTest, EmptyInstanceEmptyJIsOptimal) {
  Schema schema = Schema::SingleRelation(
      "R", 2, {FD(AttrSet{1}, AttrSet{2})});
  PreferredRepairProblem problem(std::move(schema));
  problem.InitPriority();
  RepairChecker checker(*problem.instance, *problem.priority);
  auto outcome =
      checker.CheckGloballyOptimal(problem.instance->EmptySubinstance());
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->result.optimal);
}

TEST(CheckerTest, PerRelationIndependence) {
  // A defect in one relation must be reported regardless of the other
  // relation being optimal, and vice versa.
  Schema schema;
  RelId a = schema.MustAddRelation("A", 2);
  RelId b = schema.MustAddRelation("B", 2);
  schema.MustAddFd(a, FD(AttrSet{1}, AttrSet{2}));
  schema.MustAddFd(b, FD(AttrSet{1}, AttrSet{2}));
  PreferredRepairProblem problem(std::move(schema));
  Instance& inst = *problem.instance;
  inst.MustAddFact("A", {"k", "good"}, "a_good");
  inst.MustAddFact("A", {"k", "bad"}, "a_bad");
  inst.MustAddFact("B", {"k", "good"}, "b_good");
  inst.MustAddFact("B", {"k", "bad"}, "b_bad");
  problem.InitPriority();
  PREFREP_CHECK(problem.priority->AddByLabels("a_good", "a_bad").ok());
  PREFREP_CHECK(problem.priority->AddByLabels("b_good", "b_bad").ok());
  RepairChecker checker(inst, *problem.priority);

  auto both_good = checker.CheckGloballyOptimal(
      inst.SubinstanceByLabels({"a_good", "b_good"}));
  ASSERT_TRUE(both_good.ok());
  EXPECT_TRUE(both_good->result.optimal);

  for (auto labels : {std::vector<std::string>{"a_bad", "b_good"},
                      std::vector<std::string>{"a_good", "b_bad"},
                      std::vector<std::string>{"a_bad", "b_bad"}}) {
    auto outcome =
        checker.CheckGloballyOptimal(inst.SubinstanceByLabels(labels));
    ASSERT_TRUE(outcome.ok());
    EXPECT_FALSE(outcome->result.optimal);
    ConflictGraph cg(inst);
    EXPECT_EQ(testing_util::VerifyWitness(
                  cg, *problem.priority, inst.SubinstanceByLabels(labels),
                  outcome->result),
              "");
  }
}

TEST(CheckerTest, CcpModeRejectsConflictOnlyViolations) {
  // A cross-conflict priority must be rejected when the checker runs in
  // kConflictOnly mode (constructor check).
  Schema schema = Schema::SingleRelation(
      "R", 2, {FD(AttrSet{1}, AttrSet{1, 2})});
  PreferredRepairProblem problem(std::move(schema));
  Instance& inst = *problem.instance;
  inst.MustAddFact("R", {"a", "1"}, "f1");
  inst.MustAddFact("R", {"b", "2"}, "f2");  // no conflict with f1
  problem.InitPriority();
  PREFREP_CHECK(problem.priority->AddByLabels("f1", "f2").ok());
  CheckerOptions ccp;
  ccp.mode = PriorityMode::kCrossConflict;
  RepairChecker checker(inst, *problem.priority, ccp);  // fine
  auto outcome = checker.CheckGloballyOptimal(inst.AllFacts());
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->result.optimal);
  EXPECT_DEATH(
      { RepairChecker bad(inst, *problem.priority, CheckerOptions{}); },
      "invalid");
}

}  // namespace
}  // namespace prefrep
