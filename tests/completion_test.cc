// Tests for completion-optimal repair checking, including a brute-force
// validation of the greedy-fixpoint characterization against the
// definition of [SCM] (enumerate every completion of ≻, compute its
// unique optimal repair greedily, compare the resulting set), and a
// counterexample to [SCM, Prop. 10(iii)] — the incorrect claim, reported
// in §4.1, that global and completion optimality coincide for a single
// FD.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "repair/completion.h"
#include "repair/construct.h"
#include "repair/exhaustive.h"
#include "repair/subinstance_ops.h"
#include "gen/random_instance.h"
#include "test_util.h"

namespace prefrep {
namespace {

using testing_util::ProblemSpec;

// Enumerates every completion of (I, ≻): an orientation of all
// unordered conflicting pairs consistent with ≻ and acyclic overall.
// For each, the optimal repair is unique and computed greedily.  Returns
// the set of optimal repairs across completions.
std::set<std::vector<size_t>> CompletionOptimalByBruteForce(
    const ConflictGraph& cg, const PriorityRelation& pr) {
  // Undirected conflict pairs not already oriented by ≻.
  std::vector<std::pair<FactId, FactId>> free_pairs;
  for (const auto& [f, g] : cg.edges()) {
    if (!pr.Prefers(f, g) && !pr.Prefers(g, f)) {
      free_pairs.push_back({f, g});
    }
  }
  PREFREP_CHECK(free_pairs.size() <= 16);
  std::set<std::vector<size_t>> result;
  for (uint64_t bits = 0; bits < (uint64_t{1} << free_pairs.size());
       ++bits) {
    // Build the completed priority.
    PriorityRelation completed(&cg.instance());
    for (const auto& [h, l] : pr.edges()) {
      completed.MustAdd(h, l);
    }
    for (size_t i = 0; i < free_pairs.size(); ++i) {
      auto [f, g] = free_pairs[i];
      if ((bits >> i) & 1) {
        completed.MustAdd(f, g);
      } else {
        completed.MustAdd(g, f);
      }
    }
    if (!completed.IsAcyclic()) {
      continue;
    }
    // The greedy repair of a total-on-conflicts priority is unique; any
    // seed gives the same result.
    const DynamicBitset repair =
        *GreedyWithin(cg, completed, AllFactIds(cg), {TieBreak::kRandom, 1},
                      ResourceGovernor::Unlimited());
    const DynamicBitset check =
        *GreedyWithin(cg, completed, AllFactIds(cg), {TieBreak::kRandom, 2},
                      ResourceGovernor::Unlimited());
    EXPECT_EQ(repair, check) << "total completion must be deterministic";
    result.insert(repair.ToVector());
  }
  return result;
}

TEST(CompletionTest, GreedyFixpointMatchesBruteForceOnRandomInstances) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Schema schema = Schema::SingleRelation(
        "R", 2, {FD(AttrSet{1}, AttrSet{2})});
    RandomProblemOptions opts;
    opts.facts_per_relation = 7;
    opts.domain_size = 3;
    opts.priority_density = 0.4;
    opts.seed = seed * 101;
    PreferredRepairProblem problem = GenerateRandomProblem(schema, opts);
    ConflictGraph cg(*problem.instance);
    if (cg.num_edges() > 12) {
      continue;  // keep 2^pairs enumerable
    }
    std::set<std::vector<size_t>> expected =
        CompletionOptimalByBruteForce(cg, *problem.priority);
    for (const DynamicBitset& repair : AllRepairs(cg)) {
      bool checker = CheckCompletionOptimal(cg, *problem.priority, repair,
                                            AllFactIds(cg))
                         .optimal;
      bool brute = expected.count(repair.ToVector()) > 0;
      EXPECT_EQ(checker, brute)
          << "seed " << seed << " J = "
          << problem.instance->SubinstanceToString(repair);
    }
  }
}

// §4.1: Proposition 10(iii) of [SCM] is incorrect — under a single FD
// there are globally-optimal repairs that are not completion-optimal.
// Under fd 1 → 2, facts sharing attributes 1 AND 2 form non-conflicting
// "blocks", and blocks of a key group pairwise conflict; a repair picks
// one whole block per group.  Take block A = {a1, a2} and singleton
// blocks B = {b1}, C = {b2} with b1 ≻ a1 and b2 ≻ a2:
//   * A is globally optimal — no single block dominates all of A;
//   * A is not completion-optimal — greedy can never pick a1 or a2
//     first, since b1 / b2 are undominated, so every greedy run kills A.
// (For a *binary* relation blocks are singletons and the two notions
// provably coincide group-wise, so the counterexample needs arity ≥ 3.)
TEST(CompletionTest, GlobalStrictlyContainsCompletionUnderSingleFd) {
  ProblemSpec spec;
  spec.arity = 3;
  spec.fds = {"1 -> 2"};
  spec.facts = {"a1: k, A, 1", "a2: k, A, 2", "b1: k, B, 1", "b2: k, C, 1"};
  spec.priorities = {"b1 > a1", "b2 > a2"};
  PreferredRepairProblem problem = testing_util::MakeProblem(spec);
  ConflictGraph cg(*problem.instance);
  const Instance& inst = *problem.instance;
  ASSERT_TRUE(problem.priority->Validate(PriorityMode::kConflictOnly).ok());
  DynamicBitset block_a = testing_util::Sub(inst, {"a1", "a2"});
  ASSERT_TRUE(IsRepair(cg, block_a));
  EXPECT_TRUE(
      ExhaustiveCheckGlobalOptimal(cg, *problem.priority, block_a).optimal);
  EXPECT_FALSE(CheckCompletionOptimal(cg, *problem.priority, block_a,
                                      AllFactIds(cg))
                   .optimal);
}

// The same separation is reachable by random search over arity-3
// single-fd instances (establishing it is not an artifact of the
// hand-built example).
TEST(CompletionTest, GapAlsoFoundByRandomSearch) {
  bool found = false;
  for (uint64_t seed = 1; seed <= 300 && !found; ++seed) {
    Schema schema = Schema::SingleRelation(
        "R", 3, {FD(AttrSet{1}, AttrSet{2})});
    RandomProblemOptions opts;
    opts.facts_per_relation = 10;
    opts.domain_size = 3;  // ≥ 3 blocks per key group are needed for a gap
    opts.priority_density = 0.5;
    opts.seed = seed * 977;
    PreferredRepairProblem problem = GenerateRandomProblem(schema, opts);
    ConflictGraph cg(*problem.instance);
    for (const DynamicBitset& repair : AllRepairs(cg)) {
      bool global =
          ExhaustiveCheckGlobalOptimal(cg, *problem.priority, repair)
              .optimal;
      bool completion = CheckCompletionOptimal(cg, *problem.priority, repair,
                                               AllFactIds(cg))
                            .optimal;
      EXPECT_TRUE(!completion || global);
      if (global && !completion) {
        found = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(CompletionTest, ChainPriorityUniqueOptimal) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"x1: k, 1", "x2: k, 2", "x3: k, 3"};
  spec.priorities = {"x1 > x2", "x2 > x3", "x1 > x3"};
  PreferredRepairProblem problem = testing_util::MakeProblem(spec);
  ConflictGraph cg(*problem.instance);
  const Instance& inst = *problem.instance;
  EXPECT_TRUE(CheckCompletionOptimal(cg, *problem.priority,
                                     testing_util::Sub(inst, {"x1"}),
                                     AllFactIds(cg))
                  .optimal);
  EXPECT_FALSE(CheckCompletionOptimal(cg, *problem.priority,
                                      testing_util::Sub(inst, {"x2"}),
                                      AllFactIds(cg))
                   .optimal);
  EXPECT_FALSE(CheckCompletionOptimal(cg, *problem.priority,
                                      testing_util::Sub(inst, {"x3"}),
                                      AllFactIds(cg))
                   .optimal);
}

TEST(CompletionTest, IncomparableTopsBothOptimal) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"x1: k, 1", "x2: k, 2", "x3: k, 3"};
  spec.priorities = {"x1 > x3", "x2 > x3"};
  PreferredRepairProblem problem = testing_util::MakeProblem(spec);
  ConflictGraph cg(*problem.instance);
  const Instance& inst = *problem.instance;
  EXPECT_TRUE(CheckCompletionOptimal(cg, *problem.priority,
                                     testing_util::Sub(inst, {"x1"}),
                                     AllFactIds(cg))
                  .optimal);
  EXPECT_TRUE(CheckCompletionOptimal(cg, *problem.priority,
                                     testing_util::Sub(inst, {"x2"}),
                                     AllFactIds(cg))
                  .optimal);
  EXPECT_FALSE(CheckCompletionOptimal(cg, *problem.priority,
                                      testing_util::Sub(inst, {"x3"}),
                                      AllFactIds(cg))
                   .optimal);
}

TEST(CompletionTest, NonRepairRejected) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  spec.facts = {"x1: k, 1", "x2: k, 2", "y1: m, 1"};
  spec.priorities = {"x1 > x2"};
  PreferredRepairProblem problem = testing_util::MakeProblem(spec);
  ConflictGraph cg(*problem.instance);
  const Instance& inst = *problem.instance;
  // {x1} is consistent but not maximal (y1 is addable): not an output of
  // the greedy, which never leaves an unconflicted fact behind.
  EXPECT_FALSE(CheckCompletionOptimal(cg, *problem.priority,
                                      testing_util::Sub(inst, {"x1"}),
                                      AllFactIds(cg))
                   .optimal);
  EXPECT_TRUE(CheckCompletionOptimal(cg, *problem.priority,
                                     testing_util::Sub(inst, {"x1", "y1"}),
                                     AllFactIds(cg))
                  .optimal);
  // Inconsistent J rejected.
  EXPECT_FALSE(CheckCompletionOptimal(cg, *problem.priority,
                                      testing_util::Sub(inst, {"x1", "x2"}),
                                      AllFactIds(cg))
                   .optimal);
}

TEST(CompletionTest, GreedyRepairAlwaysCompletionOptimal) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Schema schema = Schema::SingleRelation(
        "R", 3, {FD(AttrSet{1}, AttrSet{2}), FD(AttrSet{2}, AttrSet{3})});
    RandomProblemOptions opts;
    opts.facts_per_relation = 12;
    opts.seed = seed;
    PreferredRepairProblem problem = GenerateRandomProblem(schema, opts);
    ConflictGraph cg(*problem.instance);
    const DynamicBitset greedy = *TryConstructGloballyOptimalRepair(
        ProblemContext(cg, *problem.priority), {TieBreak::kRandom, seed * 3});
    EXPECT_TRUE(IsRepair(cg, greedy));
    EXPECT_TRUE(CheckCompletionOptimal(cg, *problem.priority, greedy,
                                       AllFactIds(cg))
                    .optimal);
  }
}

}  // namespace
}  // namespace prefrep
