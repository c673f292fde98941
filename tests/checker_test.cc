// Tests for the unified dispatching RepairChecker: routing decisions,
// the exhaustive fallback on hard schemas, rejection of invalid inputs,
// and Proposition 3.5-style per-relation behaviour.

#include <gtest/gtest.h>

#include "gen/running_example.h"
#include "io/text_format.h"
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

// A cross-block priority sends a ccp check to one of three
// whole-instance branches.  Each reports the instance as one "block",
// solved exactly or abandoned, and the governor's node count beside it.
TEST(CheckerTest, WholeInstanceCheckReportsWhatItSpent) {
  struct Case {
    const char* text;
    const char* route;
    uint64_t max_nodes;
    bool exact;
  };
  const char* const kPrimaryKey =
      "relation R 2\nfd R: 1 -> 2\n"
      "fact f01 R(0, 1)\nfact f02 R(0, 2)\nfact f0c R(0, c)\n"
      "fact f1a R(1, a)\nfact f1b R(1, b)\nfact f13 R(1, 3)\n"
      "prefer f0c > f1b\nprefer f13 > f02 > f01\nj f02 f1b\n";
  const char* const kConstantAttr =
      "relation R 2\nfd R: {} -> 1\nrelation S 2\nfd S: {} -> 1\n"
      "fact a1 R(a, 1)\nfact a2 R(a, 2)\nfact b1 R(b, 1)\n"
      "fact s1 S(x, 1)\nfact s2 S(y, 1)\n"
      "prefer b1 > a1\nprefer b1 > a2\nprefer s1 > b1\nj b1 s1\n";
  const char* const kHard =
      "relation R 3\nfd R: 1 -> 2\nfd R: 2 -> 3\n"
      "fact r1 R(a, 1, x)\nfact r2 R(a, 2, x)\n"
      "fact r3 R(b, 3, y)\nfact r4 R(b, 4, y)\n"
      "prefer r3 > r1\nj r1 r3\n";
  const std::vector<Case> cases = {
      {kPrimaryKey, "ccp primary-key algorithm", 1000, true},
      {kConstantAttr, "ccp constant-attribute algorithm", 1000, true},
      {kHard, "exhaustive fallback (whole instance)", 1000, true},
      {kHard, "exhaustive fallback (whole instance); abandoned", 1, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.route) +
                 ", max_nodes=" + std::to_string(c.max_nodes));
    Result<PreferredRepairProblem> problem = ParseProblemText(c.text);
    ASSERT_TRUE(problem.ok()) << problem.status().ToString();
    ProblemContext ctx(*problem->instance, *problem->priority);
    ASSERT_FALSE(ctx.priority_block_local());
    ResourceBudget budget;
    budget.max_nodes = c.max_nodes;
    ResourceGovernor governor(budget);
    ctx.set_governor(&governor);
    CheckerOptions options;
    options.mode = PriorityMode::kCrossConflict;
    Result<CheckOutcome> outcome =
        RepairChecker(ctx, options).CheckGloballyOptimal(problem->j);
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome->route.size(), 1u);
    EXPECT_EQ(outcome->route[0].find(c.route), 0u) << outcome->route[0];
    const DegradationReport& report = outcome->degradation;
    EXPECT_EQ(report.nodes_spent, governor.nodes_spent());
    EXPECT_EQ(report.blocks_total, 1u);
    EXPECT_EQ(report.blocks_exact, c.exact ? 1u : 0u);
    EXPECT_EQ(report.blocks_abandoned, c.exact ? 0u : 1u);
    EXPECT_EQ(report.abandoned.size(), c.exact ? 0u : 1u);
    EXPECT_EQ(outcome->result.known(), c.exact);
  }
}

}  // namespace
}  // namespace prefrep
