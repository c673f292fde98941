// Executable reproduction of the paper's running example:
//   * Figure 1 / Examples 2.1–2.3: the instance, its conflicts and the
//     priority relation;
//   * Example 2.5: the repairs J1..J4 and their Pareto/global status;
//   * Example 3.2: the schema is on the tractable side of Theorem 3.1;
//   * Example 4.1: the swap J[f↔g] on BookLoc;
//   * Example 4.3 / Figure 3: the graphs G12_J and G21_J on LibLoc.

#include <gtest/gtest.h>

#include "classify/dichotomy.h"
#include "gen/running_example.h"
#include "repair/block_solver.h"
#include "repair/checker.h"
#include "repair/exhaustive.h"
#include "repair/global_one_fd.h"
#include "repair/global_two_keys.h"
#include "repair/pareto.h"
#include "repair/subinstance_ops.h"
#include "test_util.h"

namespace prefrep {
namespace {

using testing_util::Sub;

class RunningExampleTest : public ::testing::Test {
 protected:
  RunningExampleTest()
      : problem_(RunningExampleProblem()),
        inst_(*problem_.instance),
        pr_(*problem_.priority),
        cg_(inst_) {}

  FactId F(const std::string& label) const {
    FactId id = inst_.FindLabel(label);
    EXPECT_NE(id, kInvalidFactId) << label;
    return id;
  }

  PreferredRepairProblem problem_;
  const Instance& inst_;
  const PriorityRelation& pr_;
  ConflictGraph cg_;
};

TEST_F(RunningExampleTest, Figure1InstanceShape) {
  EXPECT_EQ(inst_.num_facts(), 13u);
  EXPECT_EQ(inst_.facts_of(0).size(), 5u);  // BookLoc
  EXPECT_EQ(inst_.facts_of(1).size(), 8u);  // LibLoc
  // g1f1 and f1d3 agree on isbn but not genre (Example 2.1).
  const Fact& g1f1 = inst_.fact(F("g1f1"));
  const Fact& f1d3 = inst_.fact(F("f1d3"));
  EXPECT_EQ(g1f1.values[0], f1d3.values[0]);
  EXPECT_NE(g1f1.values[1], f1d3.values[1]);
}

TEST_F(RunningExampleTest, Example22Conflicts) {
  // {g1f1, f1d3} is a δ1-conflict, {d1a, d1e} a δ2-conflict, {d1a, g2a} a
  // δ3-conflict.
  EXPECT_TRUE(FactsConflict(inst_, F("g1f1"), F("f1d3")));
  EXPECT_TRUE(FactsConflict(inst_, F("d1a"), F("d1e")));
  EXPECT_TRUE(FactsConflict(inst_, F("d1a"), F("g2a")));
  // I is inconsistent; facts of different relations never conflict.
  EXPECT_FALSE(IsConsistent(inst_, inst_.AllFacts()));
  EXPECT_FALSE(FactsConflict(inst_, F("g1f1"), F("d1a")));
  // Non-conflicting same-relation facts.
  EXPECT_FALSE(FactsConflict(inst_, F("g1f1"), F("g1f2")));
  EXPECT_FALSE(FactsConflict(inst_, F("d1e"), F("f3c")));
}

TEST_F(RunningExampleTest, Example23Priority) {
  // As stated: g1f1 ≻ f1d3 and e1b ≻ d1a; also g2a ≻ f2b, g2a ≻ f3a
  // (used by Example 2.5), and acyclic + conflict-bounded.
  EXPECT_TRUE(pr_.Prefers(F("g1f1"), F("f1d3")));
  EXPECT_TRUE(pr_.Prefers(F("g1f2"), F("f1d3")));
  EXPECT_TRUE(pr_.Prefers(F("e1b"), F("d1a")));
  EXPECT_TRUE(pr_.Prefers(F("e1b"), F("d1e")));
  EXPECT_TRUE(pr_.Prefers(F("g2a"), F("f2b")));
  EXPECT_TRUE(pr_.Prefers(F("g2a"), F("f3a")));
  // No reverse or cross-grade preferences.
  EXPECT_FALSE(pr_.Prefers(F("f1d3"), F("g1f1")));
  EXPECT_FALSE(pr_.Prefers(F("g2a"), F("d1a")));
  EXPECT_TRUE(pr_.Validate(PriorityMode::kConflictOnly).ok());
  EXPECT_EQ(pr_.num_edges(), 6u);
}

TEST_F(RunningExampleTest, Example25RepairsAreRepairs) {
  for (int i = 1; i <= 4; ++i) {
    DynamicBitset j = RunningExampleJ(inst_, i);
    EXPECT_TRUE(IsRepair(cg_, j)) << "J" << i;
  }
}

TEST_F(RunningExampleTest, Example25J2ImprovesJ1) {
  DynamicBitset j1 = RunningExampleJ(inst_, 1);
  DynamicBitset j2 = RunningExampleJ(inst_, 2);
  // J1\J2 = {f2b, f3a}, J2\J1 = {g2a, e3b}; g2a ≻ f2b and g2a ≻ f3a make
  // J2 a Pareto (hence global) improvement of J1.
  EXPECT_EQ(j1 - j2, Sub(inst_, {"f2b", "f3a"}));
  EXPECT_EQ(j2 - j1, Sub(inst_, {"g2a", "e3b"}));
  EXPECT_TRUE(IsParetoImprovement(cg_, pr_, j1, j2));
  EXPECT_TRUE(IsGlobalImprovement(cg_, pr_, j1, j2));
  EXPECT_FALSE(IsGlobalImprovement(cg_, pr_, j2, j1));
}

TEST_F(RunningExampleTest, Example25J2IsGloballyOptimal) {
  DynamicBitset j2 = RunningExampleJ(inst_, 2);
  EXPECT_TRUE(ExhaustiveCheckGlobalOptimal(cg_, pr_, j2).optimal);
  EXPECT_TRUE(CheckParetoOptimal(cg_, pr_, j2).optimal);
}

TEST_F(RunningExampleTest, Example25J3ParetoButNotGloballyOptimal) {
  DynamicBitset j3 = RunningExampleJ(inst_, 3);
  DynamicBitset j4 = RunningExampleJ(inst_, 4);
  EXPECT_TRUE(CheckParetoOptimal(cg_, pr_, j3).optimal);
  EXPECT_FALSE(ExhaustiveCheckGlobalOptimal(cg_, pr_, j3).optimal);
  // J4 is a global but not a Pareto improvement of J3.
  EXPECT_TRUE(IsGlobalImprovement(cg_, pr_, j3, j4));
  EXPECT_FALSE(IsParetoImprovement(cg_, pr_, j3, j4));
}

TEST_F(RunningExampleTest, Example25J4IsGloballyOptimal) {
  DynamicBitset j4 = RunningExampleJ(inst_, 4);
  EXPECT_TRUE(ExhaustiveCheckGlobalOptimal(cg_, pr_, j4).optimal);
}

TEST_F(RunningExampleTest, J3IsTheOnlyParetoNotGlobalRepair) {
  // Motivation for our reading of the (mis-printed) J3: enumerate all
  // repairs and verify exactly one is Pareto-optimal but not
  // globally-optimal, and it is our J3.
  DynamicBitset j3 = RunningExampleJ(inst_, 3);
  std::vector<DynamicBitset> gap;
  for (const DynamicBitset& repair : AllRepairs(cg_)) {
    bool pareto = CheckParetoOptimal(cg_, pr_, repair).optimal;
    bool global = ExhaustiveCheckGlobalOptimal(cg_, pr_, repair).optimal;
    EXPECT_TRUE(!global || pareto)
        << "globally-optimal must be Pareto-optimal";
    if (pareto && !global) {
      gap.push_back(repair);
    }
  }
  ASSERT_EQ(gap.size(), 1u);
  EXPECT_EQ(gap[0], j3);
}

TEST_F(RunningExampleTest, Example32SchemaIsTractable) {
  SchemaClassification c = ClassifySchema(inst_.schema());
  EXPECT_TRUE(c.tractable);
  ASSERT_EQ(c.relations.size(), 2u);
  EXPECT_EQ(c.relations[0].kind, TractableKind::kSingleFd);  // BookLoc
  EXPECT_EQ(c.relations[0].single_fd.lhs, AttrSet{1});
  EXPECT_EQ(c.relations[1].kind, TractableKind::kTwoKeys);  // LibLoc
}

TEST_F(RunningExampleTest, UnifiedCheckerMatchesExhaustive) {
  RepairChecker checker(inst_, pr_);
  EXPECT_TRUE(checker.SchemaIsTractable());
  for (int i = 1; i <= 4; ++i) {
    DynamicBitset j = RunningExampleJ(inst_, i);
    auto outcome = checker.CheckGloballyOptimal(j);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    bool expected = ExhaustiveCheckGlobalOptimal(cg_, pr_, j).optimal;
    EXPECT_EQ(outcome->result.optimal, expected) << "J" << i;
    EXPECT_EQ(testing_util::VerifyWitness(cg_, pr_, j, outcome->result), "");
  }
}

// Example 4.1: restricted to BookLoc, J = {g1f1, g1f2, f2p1} and
// J′ = {f1d3, f2p1} satisfy J[g1f1 ↔ f1d3] = J′ and J′[f1d3 ↔ g1f1] = J.
TEST_F(RunningExampleTest, Example41SwapBlocks) {
  FD fd(AttrSet{1}, AttrSet{2});
  RelId book_loc = inst_.schema().FindRelation("BookLoc");
  DynamicBitset j = Sub(inst_, {"g1f1", "g1f2", "f2p1"});
  DynamicBitset j_prime = Sub(inst_, {"f1d3", "f2p1"});
  EXPECT_EQ(SwapBlocks(inst_, fd, inst_.facts_of(book_loc), j, F("g1f1"),
                       F("f1d3")),
            j_prime);
  EXPECT_EQ(SwapBlocks(inst_, fd, inst_.facts_of(book_loc), j_prime,
                       F("f1d3"), F("g1f1")),
            j);
}

// Example 4.3 / Figure 3: J = {d1a, f2b, f3c} on LibLoc.  G12_J has three
// forward edges and no backward edge; G21_J has the backward edges
// lib2 → almaden (g2a ≻ f2b) and lib1 → bascom (e1b ≻ d1a), closing a
// cycle (which is why Example 2.5's J3 is not globally optimal).
TEST_F(RunningExampleTest, Example43Figure3Graphs) {
  RelId lib_loc = inst_.schema().FindRelation("LibLoc");
  DynamicBitset j = Sub(inst_, {"d1a", "f2b", "f3c"});

  KeyedImprovementGraph g12 =
      BuildImprovementGraph(inst_, pr_, lib_loc, AttrSet{1}, AttrSet{2}, j);
  EXPECT_TRUE(g12.HasEdge("lib1", true, "almaden", false));
  EXPECT_TRUE(g12.HasEdge("lib2", true, "bascom", false));
  EXPECT_TRUE(g12.HasEdge("lib3", true, "cambrian", false));
  EXPECT_EQ(g12.graph.num_edges(), 3u);  // no backward edges
  EXPECT_TRUE(g12.graph.IsAcyclic());

  KeyedImprovementGraph g21 =
      BuildImprovementGraph(inst_, pr_, lib_loc, AttrSet{2}, AttrSet{1}, j);
  EXPECT_TRUE(g21.HasEdge("almaden", true, "lib1", false));
  EXPECT_TRUE(g21.HasEdge("bascom", true, "lib2", false));
  EXPECT_TRUE(g21.HasEdge("cambrian", true, "lib3", false));
  EXPECT_TRUE(g21.HasEdge("lib2", false, "almaden", true));
  EXPECT_TRUE(g21.HasEdge("lib1", false, "bascom", true));
  EXPECT_EQ(g21.graph.num_edges(), 5u);
  EXPECT_FALSE(g21.graph.IsAcyclic());
}

TEST_F(RunningExampleTest, TwoKeysCheckerFindsTheCycleImprovement) {
  RelId lib_loc = inst_.schema().FindRelation("LibLoc");
  // Whole-instance J3 (which restricts to {d1a, f2b, f3c} on LibLoc).
  DynamicBitset j3 = RunningExampleJ(inst_, 3);
  CheckResult r = CheckGlobalOptimalTwoKeys(cg_, pr_, lib_loc, AttrSet{1},
                                            AttrSet{2}, j3);
  EXPECT_FALSE(r.optimal);
  EXPECT_EQ(testing_util::VerifyWitness(cg_, pr_, j3, r), "");
}

TEST_F(RunningExampleTest, OneFdCheckerOnBookLoc) {
  RelId book_loc = inst_.schema().FindRelation("BookLoc");
  FD fd(AttrSet{1}, AttrSet{2});
  // BookLoc facts of J2 (all four J's share them): the fiction block wins
  // because nothing improves it.
  DynamicBitset j2 = RunningExampleJ(inst_, 2);
  EXPECT_TRUE(CheckGlobalOptimalOneFd(cg_, pr_, book_loc, fd, j2).optimal);

  // Take the drama fact instead: {f1d3, f2p1, h3h2} plus J2's LibLoc
  // facts.  g1f1/g1f2 ≻ f1d3, so swapping blocks improves it.
  DynamicBitset alt = Sub(inst_, {"f1d3", "f2p1", "h3h2", "d1e", "g2a",
                                  "e3b"});
  CheckResult r = CheckGlobalOptimalOneFd(cg_, pr_, book_loc, fd, alt);
  EXPECT_FALSE(r.optimal);
  EXPECT_EQ(testing_util::VerifyWitness(cg_, pr_, alt, r), "");
}

TEST_F(RunningExampleTest, RepairCountsAndOptimalCounts) {
  // 2 BookLoc repairs (the b1 fiction-vs-drama choice; f2p1 and h3h2 are
  // conflict-free) × 8 LibLoc repairs (6 lib→loc matchings covering all
  // three libraries plus 2 where both lib2 facts are blocked) = 16.
  EXPECT_EQ(CountRepairs(cg_), 16u);
  const ProblemContext ctx(cg_, pr_);
  std::vector<DynamicBitset> global =
      AllOptimalRepairs(ctx, RepairSemantics::kGlobal);
  std::vector<DynamicBitset> pareto =
      AllOptimalRepairs(ctx, RepairSemantics::kPareto);
  std::vector<DynamicBitset> completion =
      AllOptimalRepairs(ctx, RepairSemantics::kCompletion);
  // Completion ⊆ global ⊆ Pareto.
  EXPECT_LE(completion.size(), global.size());
  EXPECT_LE(global.size(), pareto.size());
  EXPECT_EQ(pareto.size(), global.size() + 1);  // exactly J3 in the gap
}

}  // namespace
}  // namespace prefrep
