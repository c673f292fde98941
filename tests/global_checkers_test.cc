// Focused unit tests for the two tractable checking algorithms beyond
// the running example: block semantics of J[f↔g] at higher arity,
// degenerate cycles in the improvement graphs, non-maximal and
// inconsistent inputs, and witness structure.

#include <gtest/gtest.h>

#include "repair/exhaustive.h"
#include "repair/global_one_fd.h"
#include "repair/global_two_keys.h"
#include "repair/subinstance_ops.h"
#include "test_util.h"

namespace prefrep {
namespace {

using testing_util::ProblemSpec;
using testing_util::Sub;

// --- GRepCheck1FD -------------------------------------------------------------

TEST(OneFdTest, BlocksMoveTogether) {
  // fd 1→2 over arity 3: facts sharing attrs 1,2 form a block; the swap
  // must move whole blocks.
  ProblemSpec spec;
  spec.arity = 3;
  spec.fds = {"1 -> 2"};
  spec.facts = {"a1: k, A, 1", "a2: k, A, 2", "b1: k, B, 1", "b2: k, B, 2",
                "b3: k, B, 3"};
  spec.priorities = {"b1 > a1", "b1 > a2", "b2 > a1", "b2 > a2",
                     "b3 > a1", "b3 > a2"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  const Instance& inst = *p.instance;
  ConflictGraph cg(inst);
  FD fd(AttrSet{1}, AttrSet{2});

  DynamicBitset block_a = Sub(inst, {"a1", "a2"});
  DynamicBitset swapped = SwapBlocks(inst, fd, inst.facts_of(0), block_a,
                                     inst.FindLabel("a1"),
                                     inst.FindLabel("b1"));
  EXPECT_EQ(swapped, Sub(inst, {"b1", "b2", "b3"}));

  // Block A is dominated fact-wise by block B: not optimal.
  CheckResult r = CheckGlobalOptimalOneFd(cg, *p.priority, 0, fd, block_a);
  EXPECT_FALSE(r.optimal);
  EXPECT_EQ(r.witness->improvement, Sub(inst, {"b1", "b2", "b3"}));
  // Block B is optimal.
  EXPECT_TRUE(CheckGlobalOptimalOneFd(cg, *p.priority, 0, fd,
                                      Sub(inst, {"b1", "b2", "b3"}))
                  .optimal);
}

TEST(OneFdTest, NonMaximalAndInconsistentInputs) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"a: k, 1", "b: k, 2", "c: m, 1"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  const Instance& inst = *p.instance;
  ConflictGraph cg(inst);
  FD fd(AttrSet{1}, AttrSet{2});
  // Non-maximal: {a} misses c — witness is the extension.
  CheckResult r = CheckGlobalOptimalOneFd(cg, *p.priority, 0, fd,
                                          Sub(inst, {"a"}));
  EXPECT_FALSE(r.optimal);
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_TRUE(r.witness->improvement.test(inst.FindLabel("c")));
  // Inconsistent: rejected without witness.
  CheckResult bad = CheckGlobalOptimalOneFd(cg, *p.priority, 0, fd,
                                            Sub(inst, {"a", "b"}));
  EXPECT_FALSE(bad.optimal);
  EXPECT_FALSE(bad.witness.has_value());
}

TEST(OneFdTest, TrivialFdAcceptsOnlyFullInstance) {
  // No conflicts: the only repair is I, and it is optimal.
  ProblemSpec spec;
  spec.arity = 2;
  spec.facts = {"a: k, 1", "b: m, 2"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  ConflictGraph cg(*p.instance);
  FD trivial{AttrSet(), AttrSet()};
  EXPECT_TRUE(CheckGlobalOptimalOneFd(cg, *p.priority, 0, trivial,
                                      p.instance->AllFacts())
                  .optimal);
  EXPECT_FALSE(CheckGlobalOptimalOneFd(cg, *p.priority, 0, trivial,
                                       Sub(*p.instance, {"a"}))
                   .optimal);
}

TEST(OneFdTest, EmptyLhsFdGroupsEverything) {
  // ∅→2: all facts must agree on attribute 2; blocks are attr-2 classes.
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"{} -> 2"};
  spec.facts = {"x1: a, v", "x2: b, v", "y1: c, w"};
  spec.priorities = {"y1 > x1", "y1 > x2"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  const Instance& inst = *p.instance;
  ConflictGraph cg(inst);
  FD fd(AttrSet(), AttrSet{2});
  // {x1, x2} loses to {y1} (every member dominated).
  CheckResult r = CheckGlobalOptimalOneFd(cg, *p.priority, 0, fd,
                                          Sub(inst, {"x1", "x2"}));
  EXPECT_FALSE(r.optimal);
  EXPECT_EQ(r.witness->improvement, Sub(inst, {"y1"}));
  EXPECT_TRUE(CheckGlobalOptimalOneFd(cg, *p.priority, 0, fd,
                                      Sub(inst, {"y1"}))
                  .optimal);
}

// --- GRepCheck2Keys ------------------------------------------------------------

TEST(TwoKeysTest, LengthTwoCycleIsASingleSwap) {
  // f' agrees with f on BOTH keys: the cycle l→r→l swaps one fact.
  ProblemSpec spec;
  spec.arity = 3;  // attrs: key1 = 1, key2 = 2, payload = 3
  spec.fds = {"1 -> {1,2,3}", "2 -> {1,2,3}"};
  spec.facts = {"old: k, m, v1", "new: k, m, v2"};
  spec.priorities = {"new > old"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  const Instance& inst = *p.instance;
  ConflictGraph cg(inst);
  CheckResult r = CheckGlobalOptimalTwoKeys(cg, *p.priority, 0, AttrSet{1},
                                            AttrSet{2}, Sub(inst, {"old"}));
  EXPECT_FALSE(r.optimal);
  EXPECT_EQ(r.witness->improvement, Sub(inst, {"new"}));
}

TEST(TwoKeysTest, LongerCyclesNeedAllLinks) {
  // Three facts in a cyclic exchange; removing any priority breaks it.
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2", "2 -> 1"};
  spec.facts = {"j1: a, x", "j2: b, y", "j3: c, z",
                "i1: b, x", "i2: c, y", "i3: a, z"};
  spec.priorities = {"i1 > j1", "i2 > j2", "i3 > j3"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  const Instance& inst = *p.instance;
  ConflictGraph cg(inst);
  DynamicBitset j = Sub(inst, {"j1", "j2", "j3"});
  ASSERT_TRUE(IsRepair(cg, j));
  CheckResult r = CheckGlobalOptimalTwoKeys(cg, *p.priority, 0, AttrSet{1},
                                            AttrSet{2}, j);
  EXPECT_FALSE(r.optimal);
  EXPECT_EQ(r.witness->improvement, Sub(inst, {"i1", "i2", "i3"}));
  EXPECT_EQ(testing_util::VerifyWitness(cg, *p.priority, j, r), "");

  // Drop one link: now optimal (verified exhaustively too).
  ProblemSpec weaker = spec;
  weaker.priorities = {"i1 > j1", "i2 > j2"};
  PreferredRepairProblem q = testing_util::MakeProblem(weaker);
  ConflictGraph cg2(*q.instance);
  DynamicBitset j2 = Sub(*q.instance, {"j1", "j2", "j3"});
  EXPECT_TRUE(CheckGlobalOptimalTwoKeys(cg2, *q.priority, 0, AttrSet{1},
                                        AttrSet{2}, j2)
                  .optimal);
  EXPECT_TRUE(
      ExhaustiveCheckGlobalOptimal(cg2, *q.priority, j2).optimal);
}

TEST(TwoKeysTest, BackwardEdgeNeedsSecondKeyAgreement) {
  // i is preferred over j1 but shares neither key value with any J fact
  // on the *second* key, so no backward edge arises in G12 — yet the
  // G21 direction catches it; either way the verdicts match exhaustive.
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2", "2 -> 1"};
  spec.facts = {"j1: a, x", "i: a, y"};
  spec.priorities = {"i > j1"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  const Instance& inst = *p.instance;
  ConflictGraph cg(inst);
  DynamicBitset j = Sub(inst, {"j1"});
  CheckResult fast = CheckGlobalOptimalTwoKeys(cg, *p.priority, 0,
                                               AttrSet{1}, AttrSet{2}, j);
  CheckResult exact = ExhaustiveCheckGlobalOptimal(cg, *p.priority, j);
  EXPECT_EQ(fast.optimal, exact.optimal);
  EXPECT_FALSE(fast.optimal);  // Pareto step: i dominates its conflicts
}

TEST(TwoKeysTest, InconsistentJRejected) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2", "2 -> 1"};
  spec.facts = {"a: k, x", "b: k, y"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  ConflictGraph cg(*p.instance);
  CheckResult r = CheckGlobalOptimalTwoKeys(
      cg, *p.priority, 0, AttrSet{1}, AttrSet{2},
      Sub(*p.instance, {"a", "b"}));
  EXPECT_FALSE(r.optimal);
  EXPECT_FALSE(r.witness.has_value());
}

TEST(TwoKeysTest, CompositeOverlappingKeysWitness) {
  // Keys {1,2} and {2,3} over arity 4; the improvement graph nodes are
  // composite projections sharing attribute 2.
  ProblemSpec spec;
  spec.arity = 4;
  spec.fds = {"{1,2} -> {1,2,3,4}", "{2,3} -> {1,2,3,4}"};
  spec.facts = {"old: k, s, m, 1", "new: k, s, m, 2"};
  spec.priorities = {"new > old"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  const Instance& inst = *p.instance;
  ConflictGraph cg(inst);
  CheckResult r = CheckGlobalOptimalTwoKeys(
      cg, *p.priority, 0, AttrSet{1, 2}, AttrSet{2, 3},
      Sub(inst, {"old"}));
  EXPECT_FALSE(r.optimal);
  EXPECT_EQ(r.witness->improvement, Sub(inst, {"new"}));
}

}  // namespace
}  // namespace prefrep
