// Randomized cross-validation of every polynomial checking algorithm
// against the definitional / exhaustive baselines (experiments E7, E8,
// E13, E14 of DESIGN.md).  Each suite sweeps seeds × J-policies via
// parameterized tests; instances are kept small enough that exhaustive
// enumeration is exact ground truth.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <numeric>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/hash.h"
#include "base/string_util.h"
#include "cache/block_cache.h"
#include "classify/categoricity.h"
#include "conflicts/blocks.h"
#include "gen/random_instance.h"
#include "io/text_format.h"
#include "query/consistent_answers.h"
#include "repair/ccp_constant_attr.h"
#include "repair/block_solver.h"
#include "repair/ccp_primary_key.h"
#include "repair/checker.h"
#include "repair/completion.h"
#include "repair/construct.h"
#include "repair/counting.h"
#include "repair/exhaustive.h"
#include "repair/global_one_fd.h"
#include "repair/global_two_keys.h"
#include "repair/pareto.h"
#include "repair/subinstance_ops.h"
#include "test_util.h"

namespace prefrep {
namespace {

struct SweepParam {
  uint64_t seed;
  JPolicy policy;
};

std::string PolicyName(JPolicy p) {
  switch (p) {
    case JPolicy::kRandomRepair:
      return "RandomRepair";
    case JPolicy::kLowPriorityRepair:
      return "LowPriorityRepair";
    case JPolicy::kHighPriorityRepair:
      return "HighPriorityRepair";
    case JPolicy::kRandomConsistentSubset:
      return "RandomSubset";
  }
  return "?";
}

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  return "seed" + std::to_string(info.param.seed) + "_" +
         PolicyName(info.param.policy);
}

std::vector<SweepParam> MakeSweep() {
  std::vector<SweepParam> out;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (JPolicy policy :
         {JPolicy::kRandomRepair, JPolicy::kLowPriorityRepair,
          JPolicy::kHighPriorityRepair, JPolicy::kRandomConsistentSubset}) {
      out.push_back({seed, policy});
    }
  }
  return out;
}

RandomProblemOptions BaseOptions(const SweepParam& p) {
  RandomProblemOptions opts;
  opts.facts_per_relation = 14;
  opts.domain_size = 3;
  opts.priority_density = 0.6;
  opts.j_policy = p.policy;
  opts.seed = p.seed * 7919 + 13;
  return opts;
}

// --- GRepCheck1FD vs exhaustive (Lemma 4.2 / E7) ---------------------------

class OneFdProperty : public ::testing::TestWithParam<SweepParam> {};

TEST_P(OneFdProperty, MatchesExhaustive) {
  Schema schema = Schema::SingleRelation(
      "R", 3, {FD(AttrSet{1}, AttrSet{2})});
  PreferredRepairProblem problem =
      GenerateRandomProblem(schema, BaseOptions(GetParam()));
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  CheckResult fast =
      CheckGlobalOptimalOneFd(cg, pr, 0, FD(AttrSet{1}, AttrSet{2}),
                              problem.j);
  CheckResult exact = ExhaustiveCheckGlobalOptimal(cg, pr, problem.j);
  EXPECT_EQ(fast.optimal, exact.optimal)
      << "J = " << problem.instance->SubinstanceToString(problem.j);
  EXPECT_EQ(testing_util::VerifyWitness(cg, pr, problem.j, fast), "");
}

TEST_P(OneFdProperty, MatchesExhaustiveWithWideFd) {
  // A single fd with a two-attribute RHS: {1} → {2, 3}.
  Schema schema = Schema::SingleRelation(
      "R", 3, {FD(AttrSet{1}, AttrSet{2, 3})});
  PreferredRepairProblem problem =
      GenerateRandomProblem(schema, BaseOptions(GetParam()));
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  CheckResult fast = CheckGlobalOptimalOneFd(
      cg, pr, 0, FD(AttrSet{1}, AttrSet{2, 3}), problem.j);
  CheckResult exact = ExhaustiveCheckGlobalOptimal(cg, pr, problem.j);
  EXPECT_EQ(fast.optimal, exact.optimal);
  EXPECT_EQ(testing_util::VerifyWitness(cg, pr, problem.j, fast), "");
}

TEST_P(OneFdProperty, MatchesExhaustiveWithEmptyLhs) {
  // Constant-attribute fd ∅ → 1 is still a single fd (tractable side).
  Schema schema = Schema::SingleRelation("R", 2, {FD(AttrSet(), AttrSet{1})});
  PreferredRepairProblem problem =
      GenerateRandomProblem(schema, BaseOptions(GetParam()));
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  CheckResult fast = CheckGlobalOptimalOneFd(
      cg, pr, 0, FD(AttrSet(), AttrSet{1}), problem.j);
  CheckResult exact = ExhaustiveCheckGlobalOptimal(cg, pr, problem.j);
  EXPECT_EQ(fast.optimal, exact.optimal);
  EXPECT_EQ(testing_util::VerifyWitness(cg, pr, problem.j, fast), "");
}

INSTANTIATE_TEST_SUITE_P(Sweep, OneFdProperty,
                         ::testing::ValuesIn(MakeSweep()), ParamName);

// --- GRepCheck2Keys vs exhaustive (Lemma 4.4 / E8) -------------------------

class TwoKeysProperty : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TwoKeysProperty, BinaryRelationMatchesExhaustive) {
  Schema schema = Schema::SingleRelation(
      "R", 2, {FD(AttrSet{1}, AttrSet{2}), FD(AttrSet{2}, AttrSet{1})});
  PreferredRepairProblem problem =
      GenerateRandomProblem(schema, BaseOptions(GetParam()));
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  CheckResult fast = CheckGlobalOptimalTwoKeys(cg, pr, 0, AttrSet{1},
                                               AttrSet{2}, problem.j);
  CheckResult exact = ExhaustiveCheckGlobalOptimal(cg, pr, problem.j);
  EXPECT_EQ(fast.optimal, exact.optimal)
      << "J = " << problem.instance->SubinstanceToString(problem.j);
  EXPECT_EQ(testing_util::VerifyWitness(cg, pr, problem.j, fast), "");
}

TEST_P(TwoKeysProperty, CompositeKeysMatchExhaustive) {
  // Keys {1,2} and {2,3} over a quaternary relation (overlapping keys,
  // an extra free attribute 4): Example 3.3's T-relation shape.
  Schema schema = Schema::SingleRelation(
      "T", 4, {FD(AttrSet{1, 2}, AttrSet{1, 2, 3, 4}),
               FD(AttrSet{2, 3}, AttrSet{1, 2, 3, 4})});
  RandomProblemOptions opts = BaseOptions(GetParam());
  opts.domain_size = 2;  // keep key collisions frequent
  PreferredRepairProblem problem = GenerateRandomProblem(schema, opts);
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  CheckResult fast = CheckGlobalOptimalTwoKeys(
      cg, pr, 0, AttrSet{1, 2}, AttrSet{2, 3}, problem.j);
  CheckResult exact = ExhaustiveCheckGlobalOptimal(cg, pr, problem.j);
  EXPECT_EQ(fast.optimal, exact.optimal);
  EXPECT_EQ(testing_util::VerifyWitness(cg, pr, problem.j, fast), "");
}

INSTANTIATE_TEST_SUITE_P(Sweep, TwoKeysProperty,
                         ::testing::ValuesIn(MakeSweep()), ParamName);

// --- Pareto checking vs exhaustive -----------------------------------------

class ParetoProperty : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ParetoProperty, MatchesExhaustiveOnHardSchema) {
  // The Pareto check is polynomial for *every* schema; validate it on a
  // hard one (S4 = {1→2, 2→3}).
  Schema schema = Schema::SingleRelation(
      "R", 3, {FD(AttrSet{1}, AttrSet{2}), FD(AttrSet{2}, AttrSet{3})});
  PreferredRepairProblem problem =
      GenerateRandomProblem(schema, BaseOptions(GetParam()));
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  if (!IsConsistent(cg, problem.j)) {
    GTEST_SKIP() << "generator produced an inconsistent J (impossible)";
  }
  CheckResult fast = CheckParetoOptimal(cg, pr, problem.j);
  CheckResult exact = ExhaustiveCheckParetoOptimal(cg, pr, problem.j);
  EXPECT_EQ(fast.optimal, exact.optimal);
  if (!fast.optimal && fast.witness.has_value()) {
    EXPECT_TRUE(IsParetoImprovement(cg, pr, problem.j,
                                    fast.witness->improvement));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParetoProperty,
                         ::testing::ValuesIn(MakeSweep()), ParamName);

// --- CCP primary-key algorithm vs exhaustive (Lemma 7.3 / E13) -------------

class CcpPrimaryKeyProperty : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CcpPrimaryKeyProperty, MatchesExhaustive) {
  // Two relations, each with a primary key; cross-conflict priorities.
  Schema schema;
  RelId r = schema.MustAddRelation("R", 2);
  RelId s = schema.MustAddRelation("S", 2);
  schema.MustAddFd(r, FD(AttrSet{1}, AttrSet{1, 2}));
  schema.MustAddFd(s, FD(AttrSet{1}, AttrSet{1, 2}));
  RandomProblemOptions opts = BaseOptions(GetParam());
  opts.facts_per_relation = 9;
  opts.cross_priority_density = 0.5;
  PreferredRepairProblem problem = GenerateRandomProblem(schema, opts);
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  CheckResult fast = CheckGlobalOptimalCcpPrimaryKey(cg, pr, problem.j);
  CheckResult exact = ExhaustiveCheckGlobalOptimal(cg, pr, problem.j);
  EXPECT_EQ(fast.optimal, exact.optimal)
      << "J = " << problem.instance->SubinstanceToString(problem.j);
  EXPECT_EQ(testing_util::VerifyWitness(cg, pr, problem.j, fast), "");
}

INSTANTIATE_TEST_SUITE_P(Sweep, CcpPrimaryKeyProperty,
                         ::testing::ValuesIn(MakeSweep()), ParamName);

// --- CCP constant-attribute algorithm vs exhaustive (E14) ------------------

class CcpConstantAttrProperty : public ::testing::TestWithParam<SweepParam> {
};

TEST_P(CcpConstantAttrProperty, MatchesExhaustive) {
  Schema schema;
  RelId r = schema.MustAddRelation("R", 2);
  RelId s = schema.MustAddRelation("S", 2);
  schema.MustAddFd(r, FD(AttrSet(), AttrSet{1}));
  schema.MustAddFd(s, FD(AttrSet(), AttrSet{1, 2}));
  RandomProblemOptions opts = BaseOptions(GetParam());
  opts.facts_per_relation = 9;
  opts.cross_priority_density = 0.5;
  PreferredRepairProblem problem = GenerateRandomProblem(schema, opts);
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  CheckResult fast = CheckGlobalOptimalCcpConstantAttr(cg, pr, problem.j);
  CheckResult exact = ExhaustiveCheckGlobalOptimal(cg, pr, problem.j);
  EXPECT_EQ(fast.optimal, exact.optimal);
  EXPECT_EQ(testing_util::VerifyWitness(cg, pr, problem.j, fast), "");
}

INSTANTIATE_TEST_SUITE_P(Sweep, CcpConstantAttrProperty,
                         ::testing::ValuesIn(MakeSweep()), ParamName);

// --- Unified checker vs exhaustive, mixed schema ----------------------------

class CheckerProperty : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CheckerProperty, MixedTractableSchemaMatchesExhaustive) {
  // The running-example shape: one single-fd relation + one two-keys
  // relation, checked through the dispatching RepairChecker.
  Schema schema;
  RelId a = schema.MustAddRelation("A", 3);
  RelId b = schema.MustAddRelation("B", 2);
  schema.MustAddFd(a, FD(AttrSet{1}, AttrSet{2}));
  schema.MustAddFd(b, FD(AttrSet{1}, AttrSet{2}));
  schema.MustAddFd(b, FD(AttrSet{2}, AttrSet{1}));
  RandomProblemOptions opts = BaseOptions(GetParam());
  opts.facts_per_relation = 10;
  PreferredRepairProblem problem = GenerateRandomProblem(schema, opts);
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  RepairChecker checker(*problem.instance, pr);
  EXPECT_TRUE(checker.SchemaIsTractable());
  auto outcome = checker.CheckGloballyOptimal(problem.j);
  ASSERT_TRUE(outcome.ok());
  CheckResult exact = ExhaustiveCheckGlobalOptimal(cg, pr, problem.j);
  EXPECT_EQ(outcome->result.optimal, exact.optimal);
  EXPECT_EQ(testing_util::VerifyWitness(cg, pr, problem.j, outcome->result),
            "");
}

TEST_P(CheckerProperty, HardRelationFallbackMatchesExhaustive) {
  // A schema mixing a tractable relation with a hard one (S4): the
  // checker must route the hard relation through the exact fallback and
  // still agree with whole-instance exhaustive checking.
  Schema schema;
  RelId a = schema.MustAddRelation("Easy", 2);
  RelId b = schema.MustAddRelation("Hard", 3);
  schema.MustAddFd(a, FD(AttrSet{1}, AttrSet{2}));
  schema.MustAddFd(b, FD(AttrSet{1}, AttrSet{2}));
  schema.MustAddFd(b, FD(AttrSet{2}, AttrSet{3}));
  RandomProblemOptions opts = BaseOptions(GetParam());
  opts.facts_per_relation = 8;
  PreferredRepairProblem problem = GenerateRandomProblem(schema, opts);
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  RepairChecker checker(*problem.instance, pr);
  EXPECT_FALSE(checker.SchemaIsTractable());
  auto outcome = checker.CheckGloballyOptimal(problem.j);
  ASSERT_TRUE(outcome.ok());
  CheckResult exact = ExhaustiveCheckGlobalOptimal(cg, pr, problem.j);
  EXPECT_EQ(outcome->result.optimal, exact.optimal);
  EXPECT_EQ(testing_util::VerifyWitness(cg, pr, problem.j, outcome->result),
            "");
}

INSTANTIATE_TEST_SUITE_P(Sweep, CheckerProperty,
                         ::testing::ValuesIn(MakeSweep()), ParamName);

// --- Exhaustive block solver vs the definitional block scan -----------------
//
// ExhaustiveBlockSolver() decides improvements on its walk's words, from
// masks of J ∩ b, the members with a J-neighbour outside the block, and
// the consistency of J \ b; it counts and lists the optimal
// block-repairs by filtering one walk's block-repairs pairwise, on
// words and covers.  The references below are Definition 2.4 spelled
// out on full bitsets: the check walks the block-repairs r with
// ForEachRepairWithin and tests (J \ b) ∪ r with IsGlobalImprovement;
// the optimal set and count list the block-repairs with
// ForEachRepairWithin and filter them pairwise with IsGlobalImprovement.
// Solver and reference must agree on everything a caller reads — the
// verdict, the witness bits and message, the count, the set and its
// order — and on the nodes an armed governor charged.  A third
// reference keeps the nested check the filter replaced (the reference
// check run with J = r for every block-repair r): the filter must never
// charge more than it, and wherever the nested check answers, the
// filter must answer the same.

CheckResult ReferenceCheckBlock(const ProblemContext& ctx, const Block& b,
                                const DynamicBitset& j) {
  const ConflictGraph& cg = ctx.conflict_graph();
  ResourceGovernor& governor = ctx.governor();
  if (!governor.AdmitBlock(b.size())) {
    return CheckResult::Unknown(
        "block #" + std::to_string(b.id) + " (" + std::to_string(b.size()) +
        " facts) exceeds the admissible size for exhaustive solving");
  }
  CheckResult result = CheckResult::Optimal();
  const DynamicBitset block = testing_util::ListBits(b.fact_list, j.size());
  ForEachRepairWithin(cg, b.fact_list, governor, [&](const DynamicBitset& r) {
    DynamicBitset candidate = (j - block) | r;
    if (IsGlobalImprovement(cg, ctx.priority(), j, candidate)) {
      result = CheckResult::NotOptimal(
          std::move(candidate),
          "an enumerated block-repair improves J on block " +
              std::to_string(b.id));
      return false;
    }
    return true;
  });
  if (result.optimal && governor.exhausted()) {
    return CheckResult::Unknown(governor.CauseString());
  }
  return result;
}

// A block-repair as a block mask (bit i = b.fact_list[i], the form
// OptimalBlockRepairs returns).
uint64_t BlockMaskOf(const Block& b, const DynamicBitset& r) {
  uint64_t mask = 0;
  for (size_t i = 0; i < b.size(); ++i) {
    if (r.test(b.fact_list[i])) {
      mask |= uint64_t{1} << i;
    }
  }
  return mask;
}

// The filter: list the block-repairs, then keep each r that no listed
// r′ improves, testing the r′ in walk order at one checkpoint per
// IsGlobalImprovement call and stopping at the first improver.  Returns
// the kept block-repairs in walk order, as block masks; a scan the
// budget cut short returns those it verified before it was cut
// (OptimalBlockRepairs' contract).
std::vector<uint64_t> ReferenceOptimalBlockRepairs(const ProblemContext& ctx,
                                                   const Block& b) {
  const ConflictGraph& cg = ctx.conflict_graph();
  ResourceGovernor& governor = ctx.governor();
  std::vector<uint64_t> out;
  if (!governor.AdmitBlock(b.size())) {
    return out;
  }
  std::vector<DynamicBitset> listed;
  ForEachRepairWithin(cg, b.fact_list, governor, [&](const DynamicBitset& r) {
    listed.push_back(r);
    return true;
  });
  if (governor.exhausted()) {
    return out;
  }
  for (const DynamicBitset& r : listed) {
    bool improved = false;
    for (const DynamicBitset& other : listed) {
      if (!governor.Checkpoint()) {
        return out;
      }
      if (IsGlobalImprovement(cg, ctx.priority(), r, other)) {
        improved = true;
        break;
      }
    }
    if (!improved) {
      out.push_back(BlockMaskOf(b, r));
    }
  }
  return out;
}

// The nested check: keep the block-repairs the reference check calls
// optimal, in walk order; a cut-short walk keeps those it verified.
std::vector<uint64_t> NestedOptimalBlockRepairs(const ProblemContext& ctx,
                                                const Block& b) {
  ResourceGovernor& governor = ctx.governor();
  std::vector<uint64_t> out;
  if (!governor.AdmitBlock(b.size())) {
    return out;
  }
  ForEachRepairWithin(ctx.conflict_graph(), b.fact_list, governor,
                      [&](const DynamicBitset& r) {
                        const CheckResult result =
                            ReferenceCheckBlock(ctx, b, r);
                        if (result.known() && result.optimal) {
                          out.push_back(BlockMaskOf(b, r));
                        }
                        return true;
                      });
  return out;
}

// Node budgets for one comparison.  Armed governors count nodes; the
// small budgets cut the walks short at different depths, and the large
// one lets most small blocks finish.
std::vector<ResourceBudget> DifferentialBudgets() {
  std::vector<ResourceBudget> out(3);
  out[0].max_nodes = 37;
  out[1].max_nodes = 900;
  out[2].max_nodes = 20000;
  return out;
}

// Runs `fn(solver_ctx, reference_ctx)` on two contexts whose fresh
// governors share one budget, then compares what the governors charged.
template <typename Fn>
void ExpectSameNodes(const ConflictGraph& cg, const PriorityRelation& pr,
                     const ResourceBudget& budget, Fn&& fn) {
  ResourceGovernor solver_governor(budget);
  ResourceGovernor reference_governor(budget);
  ProblemContext solver_ctx(cg, pr);
  ProblemContext reference_ctx(cg, pr);
  solver_ctx.set_governor(&solver_governor);
  reference_ctx.set_governor(&reference_governor);
  fn(solver_ctx, reference_ctx);
  EXPECT_EQ(solver_governor.nodes_spent(), reference_governor.nodes_spent());
  EXPECT_EQ(solver_governor.CauseString(), reference_governor.CauseString());
  EXPECT_EQ(solver_governor.blocks_refused(),
            reference_governor.blocks_refused());
}

// Runs `same_answer(solver_ctx, nested_ctx)` on two contexts whose fresh
// governors share one budget: the solver side must charge no more nodes
// than the nested side, and wherever the nested side completes, the
// solver side must complete too, with the same answer.
template <typename Fn>
void ExpectWithinNestedCharge(const ConflictGraph& cg,
                              const PriorityRelation& pr,
                              const ResourceBudget& budget, Fn&& same_answer) {
  ResourceGovernor solver_governor(budget);
  ResourceGovernor nested_governor(budget);
  ProblemContext solver_ctx(cg, pr);
  ProblemContext nested_ctx(cg, pr);
  solver_ctx.set_governor(&solver_governor);
  nested_ctx.set_governor(&nested_governor);
  const bool same = same_answer(solver_ctx, nested_ctx);
  EXPECT_LE(solver_governor.nodes_spent(), nested_governor.nodes_spent());
  EXPECT_EQ(solver_governor.blocks_refused(), nested_governor.blocks_refused());
  if (!nested_governor.exhausted()) {
    EXPECT_FALSE(solver_governor.exhausted());
    EXPECT_TRUE(same);
  }
}

// Candidate Js for block `b`: the generator's J, a random subset (J
// inconsistent inside and outside the block, most likely), a repair
// with J ∩ b emptied of one fact (not a block-repair), a repair with
// one more block fact (inconsistent inside), and a repair with one more
// fact outside the block (inconsistent outside, when one conflicts).
std::vector<DynamicBitset> CandidateJs(const ConflictGraph& cg,
                                       const DynamicBitset& generated,
                                       const Block& b, Rng& rng) {
  std::vector<DynamicBitset> out{generated};
  DynamicBitset random_subset(cg.num_facts());
  for (size_t f = 0; f < cg.num_facts(); ++f) {
    random_subset.set(f, rng.NextBool(0.4));
  }
  out.push_back(random_subset);
  const DynamicBitset repair =
      ExtendToRepair(cg, DynamicBitset(cg.num_facts()));
  const DynamicBitset block =
      testing_util::ListBits(b.fact_list, cg.num_facts());
  const DynamicBitset in_block = repair & block;
  if (in_block.any()) {
    DynamicBitset shrunk = repair;
    shrunk.reset(in_block.FindFirst());
    out.push_back(shrunk);
  }
  const DynamicBitset outside_block = block - repair;
  if (outside_block.any()) {
    DynamicBitset grown = repair;
    grown.set(outside_block.FindFirst());
    out.push_back(grown);
  }
  for (size_t f = 0; f < cg.num_facts(); ++f) {
    if (!block.test(f) && !repair.test(f) &&
        cg.ConflictsWithSet(static_cast<FactId>(f), repair)) {
      DynamicBitset grown = repair;
      grown.set(f);
      out.push_back(grown);
      break;
    }
  }
  return out;
}

void ExpectSolverMatchesReference(const ConflictGraph& cg,
                                  const PriorityRelation& pr, const Block& b,
                                  const std::vector<DynamicBitset>& js) {
  const BlockSolver& solver = ExhaustiveBlockSolver();
  for (const ResourceBudget& budget : DifferentialBudgets()) {
    SCOPED_TRACE("block of " + std::to_string(b.size()) +
                 " facts, max_nodes=" + std::to_string(budget.max_nodes));
    for (const DynamicBitset& j : js) {
      ExpectSameNodes(cg, pr, budget,
                      [&](const ProblemContext& mine,
                          const ProblemContext& theirs) {
                        EXPECT_EQ(solver.CheckBlock(mine, b, j),
                                  ReferenceCheckBlock(theirs, b, j));
                      });
    }
    // Complete or cut short, the solver's set is the reference's,
    // member for member, at the same node charge.
    ExpectSameNodes(cg, pr, budget,
                    [&](const ProblemContext& mine,
                        const ProblemContext& theirs) {
                      EXPECT_EQ(solver.OptimalBlockRepairs(mine, b),
                                ReferenceOptimalBlockRepairs(theirs, b));
                    });
    ExpectWithinNestedCharge(
        cg, pr, budget,
        [&](const ProblemContext& mine, const ProblemContext& nested) {
          return solver.OptimalBlockRepairs(mine, b) ==
                 NestedOptimalBlockRepairs(nested, b);
        });
  }
}

// A union of whole conflict components (blocks and free facts), drawn
// in random order while they fit in `size` facts: closed under
// conflicts, as a BlockSolver requires, but not connected, so it is a
// shape BlockDecomposition never builds.
Block ComponentUnionBlock(const BlockDecomposition& blocks, size_t size,
                          Rng& rng) {
  std::vector<std::vector<FactId>> components;
  for (const Block& b : blocks.blocks()) {
    components.push_back(b.fact_list);
  }
  blocks.free_facts().ForEach([&](size_t f) {
    components.push_back({static_cast<FactId>(f)});
  });
  rng.Shuffle(&components);
  Block b;
  b.id = 7;
  b.rel = 0;
  for (const std::vector<FactId>& component : components) {
    if (b.fact_list.size() + component.size() <= size) {
      b.fact_list.insert(b.fact_list.end(), component.begin(),
                         component.end());
    }
  }
  std::sort(b.fact_list.begin(), b.fact_list.end());
  return b;
}

class ExhaustiveBlockProperty : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ExhaustiveBlockProperty, MatchesDefinitionalScan) {
  // Hard schema S4 = {1→2, 2→3}; with cross-conflict priority edges on
  // odd seeds, so some dominators lie outside every block.
  Schema schema = Schema::SingleRelation(
      "R", 3, {FD(AttrSet{1}, AttrSet{2}), FD(AttrSet{2}, AttrSet{3})});
  RandomProblemOptions opts = BaseOptions(GetParam());
  opts.facts_per_relation = 8 + 5 * GetParam().seed;
  opts.domain_size = 4 + GetParam().seed / 4;
  opts.cross_priority_density = GetParam().seed % 2 == 1 ? 0.3 : 0.0;
  PreferredRepairProblem problem = GenerateRandomProblem(schema, opts);
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  BlockDecomposition blocks(cg, pr);
  Rng rng(GetParam().seed * 104729 +
          static_cast<uint64_t>(GetParam().policy) * 7);
  std::vector<Block> cases;
  for (const Block& b : blocks.blocks()) {
    if (b.size() <= ResourceGovernor::kMaxExhaustiveBlockFacts &&
        cases.size() < 3) {
      cases.push_back(b);
    }
  }
  if (cg.num_facts() >= 2) {
    const size_t cap =
        std::min(cg.num_facts(), ResourceGovernor::kMaxExhaustiveBlockFacts);
    Block b = ComponentUnionBlock(
        blocks, 2 + static_cast<size_t>(rng.NextBounded(cap - 1)), rng);
    if (!b.fact_list.empty()) {
      cases.push_back(std::move(b));
    }
  }
  ASSERT_FALSE(cases.empty());
  for (const Block& b : cases) {
    ExpectSolverMatchesReference(cg, pr, b,
                                 CandidateJs(cg, problem.j, b, rng));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExhaustiveBlockProperty,
                         ::testing::ValuesIn(MakeSweep()), ParamName);

// --- Polynomial block solvers vs their definitional paths -----------------
//
// GRepCheck1FD and GRepCheck2Keys decide each block on the block's own
// fact list.  The references below are the relation-wide algorithms they
// replaced, restricted to the block through a universe bitset: for
// one-FD, every swap J[f↔g] built by SwapBlocks over the whole relation
// and tested with the whole-instance IsGlobalImprovement; for two-keys,
// the improvement graphs built with vector-keyed node maps over the
// relation's facts filtered through the block.  On many-block relations
// and four kinds of J, every block's DispatchBlockSolver(...).CheckBlock
// must equal its reference on verdict, witness and explanation, and the
// two-keys graphs must match node for node.

CheckResult ReferenceOneFdBlock(const ProblemContext& ctx, const Block& b,
                                const FD& fd, const DynamicBitset& j) {
  const ConflictGraph& cg = ctx.conflict_graph();
  const Instance& instance = ctx.instance();
  for (FactId f : b.fact_list) {
    for (FactId g : cg.neighbors(f)) {
      if (j.test(f) && g > f && j.test(g)) {
        return CheckResult::NotOptimalNoWitness();
      }
    }
  }
  for (FactId g : b.fact_list) {
    if (!j.test(g) && !cg.ConflictsWithSet(g, j)) {
      DynamicBitset improvement = j;
      improvement.set(g);
      return CheckResult::NotOptimal(
          std::move(improvement),
          "J is not maximal: " + instance.FactToString(g) +
              " can be added without conflict");
    }
  }
  for (FactId f : b.fact_list) {
    if (!j.test(f)) {
      continue;
    }
    for (FactId g : cg.neighbors(f)) {
      if (j.test(g)) {
        continue;
      }
      DynamicBitset swapped =
          SwapBlocks(instance, fd, instance.facts_of(b.rel), j, f, g);
      if (IsGlobalImprovement(cg, ctx.priority(), j, swapped)) {
        return CheckResult::NotOptimal(
            std::move(swapped),
            "J[" + instance.FactToString(f) + " ↔ " +
                instance.FactToString(g) + "] is a global improvement");
      }
    }
  }
  return CheckResult::Optimal();
}

std::vector<ValueId> ReferenceProject(const Fact& f, AttrSet attrs) {
  std::vector<ValueId> key;
  attrs.ForEach([&](int a) { key.push_back(f.values[a - 1]); });
  return key;
}

std::string ReferenceRender(const Instance& instance,
                            const std::vector<ValueId>& proj) {
  if (proj.size() == 1) {
    return instance.dict().Text(proj[0]);
  }
  std::vector<std::string> texts;
  for (ValueId v : proj) {
    texts.push_back(instance.dict().Text(v));
  }
  return "(" + StrJoin(texts, ", ") + ")";
}

KeyedImprovementGraph ReferenceImprovementGraph(
    const Instance& instance, const PriorityRelation& pr, const Block& b,
    AttrSet first_key, AttrSet second_key, const DynamicBitset& j) {
  KeyedImprovementGraph g;
  std::unordered_map<std::vector<ValueId>, size_t, VectorHash<ValueId>>
      index[2];
  auto node = [&](const std::vector<ValueId>& proj, bool left) {
    auto [it, inserted] = index[left ? 0 : 1].emplace(proj, 0);
    if (inserted) {
      it->second = g.graph.AddNode();
      g.labels.push_back(ReferenceRender(instance, proj));
      g.is_left.push_back(left);
      g.left_fact.push_back(kInvalidFactId);
      g.right_fact.push_back(kInvalidFactId);
    }
    return it->second;
  };
  const DynamicBitset block =
      testing_util::ListBits(b.fact_list, instance.num_facts());
  for (FactId f : instance.facts_of(b.rel)) {
    if (!j.test(f) || !block.test(f)) {
      continue;
    }
    const Fact fact = instance.fact(f);
    const size_t left = node(ReferenceProject(fact, first_key), true);
    const size_t right = node(ReferenceProject(fact, second_key), false);
    g.left_fact[left] = f;
    g.right_fact[right] = f;
    g.graph.AddEdge(left, right);
  }
  for (FactId f_prime : instance.facts_of(b.rel)) {
    if (j.test(f_prime) || !block.test(f_prime)) {
      continue;
    }
    const Fact fp = instance.fact(f_prime);
    for (FactId f : pr.Dominates(f_prime)) {
      if (!j.test(f) || instance.fact(f).rel != b.rel ||
          !FactsAgreeOn(fp, instance.fact(f), second_key)) {
        continue;
      }
      const size_t right = node(ReferenceProject(fp, second_key), false);
      const size_t left = node(ReferenceProject(fp, first_key), true);
      if (g.backward_witness.emplace(std::make_pair(right, left), f_prime)
              .second) {
        g.graph.AddEdge(right, left);
      }
      break;
    }
  }
  return g;
}

DynamicBitset ReferenceImprovementFromCycle(const KeyedImprovementGraph& g,
                                            const std::vector<size_t>& cycle,
                                            const DynamicBitset& j) {
  DynamicBitset out = j;
  for (size_t i = 0; i < cycle.size(); ++i) {
    const size_t u = cycle[i];
    if (g.is_left[u]) {
      out.reset(g.left_fact[u]);
    } else {
      out.set(g.backward_witness.at({u, cycle[(i + 1) % cycle.size()]}));
    }
  }
  return out;
}

CheckResult ReferenceTwoKeysBlock(const ProblemContext& ctx, const Block& b,
                                  AttrSet key1, AttrSet key2,
                                  const DynamicBitset& j) {
  const ConflictGraph& cg = ctx.conflict_graph();
  const PriorityRelation& pr = ctx.priority();
  for (FactId f : b.fact_list) {
    for (FactId g : cg.neighbors(f)) {
      if (j.test(f) && g > f && j.test(g)) {
        return CheckResult::NotOptimalNoWitness();
      }
    }
  }
  for (FactId g : b.fact_list) {
    if (j.test(g)) {
      continue;
    }
    const std::vector<FactId>& neighbors = cg.neighbors(g);
    if (std::all_of(neighbors.begin(), neighbors.end(), [&](FactId f) {
          return !j.test(f) || pr.Prefers(g, f);
        })) {
      DynamicBitset improvement = j;
      for (FactId f : neighbors) {
        improvement.reset(f);
      }
      improvement.set(g);
      return CheckResult::NotOptimal(
          std::move(improvement),
          "Pareto improvement through " + ctx.instance().FactToString(g));
    }
  }
  const KeyedImprovementGraph g12 =
      ReferenceImprovementGraph(ctx.instance(), pr, b, key1, key2, j);
  if (auto cycle = g12.graph.FindCycle()) {
    return CheckResult::NotOptimal(
        ReferenceImprovementFromCycle(g12, *cycle, j), "cycle in G12_J");
  }
  const KeyedImprovementGraph g21 =
      ReferenceImprovementGraph(ctx.instance(), pr, b, key2, key1, j);
  if (auto cycle = g21.graph.FindCycle()) {
    return CheckResult::NotOptimal(
        ReferenceImprovementFromCycle(g21, *cycle, j), "cycle in G21_J");
  }
  return CheckResult::Optimal();
}

void ExpectSameGraph(const KeyedImprovementGraph& mine,
                     const KeyedImprovementGraph& reference) {
  EXPECT_EQ(mine.labels, reference.labels);
  EXPECT_EQ(mine.is_left, reference.is_left);
  EXPECT_EQ(mine.left_fact, reference.left_fact);
  EXPECT_EQ(mine.right_fact, reference.right_fact);
  EXPECT_EQ(mine.backward_witness, reference.backward_witness);
  ASSERT_EQ(mine.graph.num_nodes(), reference.graph.num_nodes());
  for (size_t u = 0; u < mine.graph.num_nodes(); ++u) {
    EXPECT_EQ(mine.graph.successors(u), reference.graph.successors(u));
  }
}

// A repair built by adding `order`'s facts greedily to `base`.
DynamicBitset GreedyRepair(const ConflictGraph& cg, DynamicBitset base,
                           const std::vector<FactId>& order) {
  for (FactId f : order) {
    if (!base.test(f) && !cg.ConflictsWithSet(f, base)) {
      base.set(f);
    }
  }
  return base;
}

// The four Js of the battery: the generated J, J minus one fact, a
// greedy repair in random order, and the generated J with one block's
// part swapped for another block-repair of that block.  All are
// consistent, as CheckBlock requires.
std::vector<DynamicBitset> BlockBatteryJs(const ProblemContext& ctx,
                                          const DynamicBitset& generated,
                                          Rng& rng) {
  const ConflictGraph& cg = ctx.conflict_graph();
  std::vector<DynamicBitset> out{generated};
  std::vector<FactId> members;
  generated.ForEach(
      [&](size_t f) { members.push_back(static_cast<FactId>(f)); });
  DynamicBitset minus_one = generated;
  if (!members.empty()) {
    minus_one.reset(members[rng.NextBounded(members.size())]);
  }
  out.push_back(minus_one);
  std::vector<FactId> all(cg.num_facts());
  std::iota(all.begin(), all.end(), FactId{0});
  rng.Shuffle(&all);
  out.push_back(GreedyRepair(cg, DynamicBitset(cg.num_facts()), all));
  DynamicBitset swapped_block = generated;
  if (ctx.blocks().num_blocks() > 0) {
    const Block& b = ctx.blocks().block(
        static_cast<size_t>(rng.NextBounded(ctx.blocks().num_blocks())));
    std::vector<FactId> order = b.fact_list;
    rng.Shuffle(&order);
    swapped_block = GreedyRepair(
        cg, generated - testing_util::ListBits(b.fact_list, cg.num_facts()),
        order);
  }
  out.push_back(swapped_block);
  return out;
}

struct BlockBatteryStats {
  size_t one_fd_blocks = 0;
  size_t two_keys_blocks = 0;
};

// Compares every block of every J variant with its reference.
void ExpectBlocksMatchReferences(const PreferredRepairProblem& problem,
                                 uint64_t seed, BlockBatteryStats* stats) {
  ProblemContext ctx(*problem.instance, *problem.priority);
  ctx.set_parallelism(1);
  Rng rng(seed);
  const Instance& instance = *problem.instance;
  for (const DynamicBitset& j : BlockBatteryJs(ctx, problem.j, rng)) {
    SCOPED_TRACE("J = " + instance.SubinstanceToString(j));
    for (const Block& b : ctx.blocks().blocks()) {
      const RelationClassification& rc = ctx.classification().relations[b.rel];
      const BlockSolver& solver =
          DispatchBlockSolver(ctx, b, PriorityMode::kConflictOnly);
      const CheckResult mine = solver.CheckBlock(ctx, b, j);
      CheckResult reference;
      if (rc.kind == TractableKind::kSingleFd) {
        ASSERT_EQ(solver.Name(), "GRepCheck1FD");
        reference = ReferenceOneFdBlock(ctx, b, rc.single_fd, j);
        ++stats->one_fd_blocks;
      } else {
        ASSERT_EQ(rc.kind, TractableKind::kTwoKeys);
        ASSERT_EQ(solver.Name(), "GRepCheck2Keys");
        reference = ReferenceTwoKeysBlock(ctx, b, rc.key1, rc.key2, j);
        ++stats->two_keys_blocks;
        for (const auto& [first, second] :
             {std::make_pair(rc.key1, rc.key2),
              std::make_pair(rc.key2, rc.key1)}) {
          ExpectSameGraph(
              BuildImprovementGraph(instance, ctx.priority(), first, second,
                                    b.fact_list, j),
              ReferenceImprovementGraph(instance, ctx.priority(), b, first,
                                        second, j));
        }
      }
      SCOPED_TRACE("block " + std::to_string(b.id) + " of " +
                   std::to_string(b.size()) + " facts");
      EXPECT_EQ(mine.verdict, reference.verdict);
      ASSERT_EQ(mine.witness.has_value(), reference.witness.has_value());
      if (mine.witness.has_value()) {
        EXPECT_EQ(instance.SubinstanceToString(mine.witness->improvement),
                  instance.SubinstanceToString(
                      reference.witness->improvement));
        EXPECT_EQ(mine.witness->explanation, reference.witness->explanation);
      }
    }
  }
}

TEST(PolynomialBlockProperty, OneFdBlocksMatchTheSwapReference) {
  const struct {
    int arity;
    FD fd;
  } shapes[] = {{3, FD(AttrSet{1}, AttrSet{2})},
                {3, FD(AttrSet{1, 3}, AttrSet{2})},
                {2, FD(AttrSet(), AttrSet{1})}};
  BlockBatteryStats stats;
  for (const auto& shape : shapes) {
    for (uint64_t seed = 1; seed <= 48; ++seed) {
      SCOPED_TRACE("fd " + shape.fd.ToString() + " seed " +
                   std::to_string(seed));
      RandomProblemOptions opts;
      opts.facts_per_relation = 40 + 8 * seed;
      opts.domain_size = opts.facts_per_relation / 4 + 2;
      opts.priority_density = 0.6;
      opts.j_policy = seed % 2 == 0 ? JPolicy::kHighPriorityRepair
                                    : JPolicy::kRandomRepair;
      opts.seed = seed * 1000003 + static_cast<uint64_t>(shape.arity);
      ExpectBlocksMatchReferences(
          GenerateRandomProblem(
              Schema::SingleRelation("R", shape.arity, {shape.fd}), opts),
          seed, &stats);
    }
  }
  EXPECT_GT(stats.one_fd_blocks, 10000u) << stats.one_fd_blocks;
}

TEST(PolynomialBlockProperty, TwoKeysBlocksMatchTheGraphReference) {
  const struct {
    int arity;
    AttrSet key1;
    AttrSet key2;
  } shapes[] = {{2, AttrSet{1}, AttrSet{2}},
                {4, AttrSet{1, 2}, AttrSet{2, 3}}};
  BlockBatteryStats stats;
  for (const auto& shape : shapes) {
    const AttrSet all = AttrSet::FromMask((uint64_t{1} << shape.arity) - 1);
    for (uint64_t seed = 1; seed <= 16; ++seed) {
      SCOPED_TRACE("arity " + std::to_string(shape.arity) + " seed " +
                   std::to_string(seed));
      RandomProblemOptions opts;
      opts.facts_per_relation = 30 + 10 * seed;
      opts.domain_size = opts.facts_per_relation / (shape.arity == 2 ? 2 : 6);
      opts.priority_density = 0.6;
      opts.j_policy = seed % 2 == 0 ? JPolicy::kHighPriorityRepair
                                    : JPolicy::kRandomRepair;
      opts.seed = seed * 7919 + static_cast<uint64_t>(shape.arity);
      ExpectBlocksMatchReferences(
          GenerateRandomProblem(
              Schema::SingleRelation("T", shape.arity,
                                     {FD(shape.key1, all),
                                      FD(shape.key2, all)}),
              opts),
          seed, &stats);
    }
  }
  EXPECT_GT(stats.two_keys_blocks, 1000u) << stats.two_keys_blocks;
}

// --- The walk at the word boundary: universes of 63, 64 and 65 facts --------
//
// R(2) with key 1 → 2 and fact i = R(i mod 3, i): three interleaved
// cliques, so every compatibility row spans every word.  A repair picks
// one fact per clique, so a universe with clique sizes s0, s1, s2 has
// s0·s1·s2 repairs.

PreferredRepairProblem InterleavedCliques(size_t facts) {
  Schema schema =
      Schema::SingleRelation("R", 2, {FD(AttrSet{1}, AttrSet{2})});
  PreferredRepairProblem problem(std::move(schema));
  for (size_t i = 0; i < facts; ++i) {
    problem.instance->MustAddFact("R", {StrFormat("%zu", i % 3),
                                        StrFormat("%zu", i)},
                                  StrFormat("f%zu", i));
  }
  problem.InitPriority();
  return problem;
}

TEST(RepairWalkWordBoundaryTest, RepairsMatchClosedForm) {
  for (size_t facts : {63, 64, 65}) {
    SCOPED_TRACE(std::to_string(facts) + " facts");
    const PreferredRepairProblem problem = InterleavedCliques(facts);
    const ConflictGraph cg(*problem.instance);
    const size_t sizes[3] = {(facts + 2) / 3, (facts + 1) / 3, facts / 3};
    std::set<std::vector<size_t>> seen;
    ResourceBudget armed;
    armed.max_nodes = uint64_t{1} << 40;
    ResourceGovernor governor(armed);
    ForEachRepair(cg, governor, [&](const DynamicBitset& r) {
      const std::vector<size_t> members = r.ToVector();
      EXPECT_EQ(members.size(), 3u);
      std::set<size_t> cliques;
      for (size_t f : members) {
        cliques.insert(f % 3);
      }
      EXPECT_EQ(cliques.size(), 3u);
      EXPECT_TRUE(seen.insert(members).second) << "repair walked twice";
      return true;
    });
    EXPECT_EQ(seen.size(), sizes[0] * sizes[1] * sizes[2]);
    // The walk without pivoting reaches the same repairs.
    size_t unpivoted = 0;
    ForEachRepairNoPivot(cg, [&](const DynamicBitset& r) {
      EXPECT_EQ(seen.count(r.ToVector()), 1u);
      ++unpivoted;
      return true;
    });
    EXPECT_EQ(unpivoted, seen.size());
    // A universe without clique 0 has only clique-1 × clique-2 repairs.
    DynamicBitset universe(cg.num_facts());
    for (size_t f = 0; f < facts; ++f) {
      universe.set(f, f % 3 != 0);
    }
    std::vector<FactId> listed;
    universe.ForEach(
        [&](size_t f) { listed.push_back(static_cast<FactId>(f)); });
    EXPECT_EQ(AllRepairsWithin(cg, listed).size(), sizes[1] * sizes[2]);
  }
}

TEST(RepairWalkWordBoundaryTest, ExhaustiveSolverOnAFullWordBlock) {
  // 63 facts, the largest block the governor admits: the top fact of
  // each clique dominates the rest, so the three tops form the only
  // optimal block-repair, and every other one is improved.
  PreferredRepairProblem problem = InterleavedCliques(63);
  for (size_t f = 3; f < 63; ++f) {
    problem.priority->MustAdd(static_cast<FactId>(60 + f % 3),
                              static_cast<FactId>(f - 3));
  }
  const ConflictGraph cg(*problem.instance);
  const BlockDecomposition blocks(cg, *problem.priority);
  ASSERT_EQ(blocks.num_blocks(), 3u);
  Block all;
  all.id = 0;
  all.rel = 0;
  for (size_t f = 0; f < 63; ++f) {
    all.fact_list.push_back(static_cast<FactId>(f));
  }
  const ProblemContext ctx(cg, *problem.priority);
  DynamicBitset tops(63);
  tops.set(60);
  tops.set(61);
  tops.set(62);
  EXPECT_EQ(ExhaustiveBlockSolver().CheckBlock(ctx, all, tops),
            ReferenceCheckBlock(ctx, all, tops));
  EXPECT_TRUE(ExhaustiveBlockSolver().CheckBlock(ctx, all, tops).optimal);
  DynamicBitset other = tops;
  other.reset(61);
  other.set(1);
  const CheckResult refuted =
      ExhaustiveBlockSolver().CheckBlock(ctx, all, other);
  EXPECT_EQ(refuted, ReferenceCheckBlock(ctx, all, other));
  ASSERT_TRUE(refuted.witness.has_value());
  EXPECT_TRUE(IsGlobalImprovement(cg, *problem.priority, other,
                                  refuted.witness->improvement));
}

// --- Semantics inclusions: completion ⊆ global ⊆ Pareto ---------------------

class InclusionProperty : public ::testing::TestWithParam<SweepParam> {};

TEST_P(InclusionProperty, OptimalityInclusionsHold) {
  Schema schema = Schema::SingleRelation(
      "R", 3, {FD(AttrSet{1}, AttrSet{2}), FD(AttrSet{2}, AttrSet{3})});
  RandomProblemOptions opts = BaseOptions(GetParam());
  opts.facts_per_relation = 10;
  PreferredRepairProblem problem = GenerateRandomProblem(schema, opts);
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  for (const DynamicBitset& repair : AllRepairs(cg)) {
    bool completion =
        CheckCompletionOptimal(cg, pr, repair, AllFactIds(cg)).optimal;
    bool global = ExhaustiveCheckGlobalOptimal(cg, pr, repair).optimal;
    bool pareto = CheckParetoOptimal(cg, pr, repair).optimal;
    EXPECT_TRUE(!completion || global) << "completion ⊆ global violated";
    EXPECT_TRUE(!global || pareto) << "global ⊆ Pareto violated";
  }
}

TEST_P(InclusionProperty, EveryInstanceHasACompletionOptimalRepair) {
  Schema schema = Schema::SingleRelation(
      "R", 2, {FD(AttrSet{1}, AttrSet{2}), FD(AttrSet{2}, AttrSet{1})});
  PreferredRepairProblem problem =
      GenerateRandomProblem(schema, BaseOptions(GetParam()));
  ConflictGraph cg(*problem.instance);
  const PriorityRelation& pr = *problem.priority;
  // The greedy procedure always yields one, and the checker accepts it.
  const DynamicBitset greedy = *TryConstructGloballyOptimalRepair(
      ProblemContext(cg, pr), {TieBreak::kRandom, GetParam().seed});
  EXPECT_TRUE(IsRepair(cg, greedy));
  EXPECT_TRUE(CheckCompletionOptimal(cg, pr, greedy, AllFactIds(cg)).optimal);
}

INSTANTIATE_TEST_SUITE_P(Sweep, InclusionProperty,
                         ::testing::ValuesIn(MakeSweep()), ParamName);

// --- Priority-joined blocks vs the whole-instance references -----------------
//
// A cross-conflict priority edge between two facts with conflicts joins
// their blocks, and an edge touching a free fact is ignored
// (conflicts/blocks.h), so check, count, enumeration, categoricity and
// CQA stay per-block folds under every priority.  The battery draws
// random ccp instances of about 14 facts over two relations, with
// priority edges within a relation, across the relations and touching
// free facts, and compares every answer with a whole-instance reference
// that knows nothing of blocks: the exhaustive global and Pareto checks,
// the Theorem 7.1 algorithm where the schema has one, and the optimal
// repairs OptimalRepairsWithin filters from every repair of the
// instance.  Each answer must equal its reference at threads {1, 8} ×
// block-solve cache {off, on}.

enum class JoinedSchema { kPrimaryKey, kConstantAttr, kHard };

Schema MakeJoinedSchema(JoinedSchema kind) {
  Schema schema;
  RelId r = schema.MustAddRelation("R", kind == JoinedSchema::kHard ? 3 : 2);
  RelId s = schema.MustAddRelation("S", 2);
  switch (kind) {
    case JoinedSchema::kPrimaryKey:
      schema.MustAddFd(r, FD(AttrSet{1}, AttrSet{1, 2}));
      schema.MustAddFd(s, FD(AttrSet{1}, AttrSet{1, 2}));
      break;
    case JoinedSchema::kConstantAttr:
      schema.MustAddFd(r, FD(AttrSet(), AttrSet{1}));
      schema.MustAddFd(s, FD(AttrSet(), AttrSet{1}));
      break;
    case JoinedSchema::kHard:
      schema.MustAddFd(r, FD(AttrSet{1}, AttrSet{2}));
      schema.MustAddFd(r, FD(AttrSet{2}, AttrSet{3}));
      schema.MustAddFd(s, FD(AttrSet{1}, AttrSet{1, 2}));
      break;
  }
  return schema;
}

// What the battery's instances exercised.
struct JoinedBatteryStats {
  size_t edges_within = 0;  // between blocks of one relation
  size_t edges_across = 0;  // between blocks of two relations
  size_t edges_free = 0;    // touching a free fact
  size_t two_relation_blocks = 0;
};

std::vector<DynamicBitset> SortedSets(std::vector<DynamicBitset> sets) {
  std::sort(sets.begin(), sets.end(),
            [](const DynamicBitset& x, const DynamicBitset& y) {
              return x.ToVector() < y.ToVector();
            });
  return sets;
}

// The consistent answers of `query` over `repairs`, by definition.
std::vector<ConjunctiveQuery::AnswerTuple> IntersectAnswers(
    const Instance& instance, const ConjunctiveQuery& query,
    const std::vector<DynamicBitset>& repairs) {
  std::vector<ConjunctiveQuery::AnswerTuple> out =
      query.Evaluate(instance, repairs.front());
  for (const DynamicBitset& repair : repairs) {
    std::vector<ConjunctiveQuery::AnswerTuple> next =
        query.Evaluate(instance, repair);
    std::vector<ConjunctiveQuery::AnswerTuple> merged;
    std::set_intersection(out.begin(), out.end(), next.begin(), next.end(),
                          std::back_inserter(merged));
    out = std::move(merged);
  }
  return out;
}

void ExpectJoinedBlocksMatchReferences(JoinedSchema kind, uint64_t seed,
                                       JoinedBatteryStats* stats) {
  RandomProblemOptions opts;
  opts.facts_per_relation = 7;
  opts.domain_size = 3;
  opts.priority_density = 0.5;
  opts.cross_priority_density = 0.6;
  opts.j_policy = static_cast<JPolicy>(seed % 4);
  opts.seed = seed * 15485863 + static_cast<uint64_t>(kind);
  const PreferredRepairProblem problem =
      GenerateRandomProblem(MakeJoinedSchema(kind), opts);
  const Instance& instance = *problem.instance;
  const PriorityRelation& pr = *problem.priority;
  const DynamicBitset& j = problem.j;
  const ConflictGraph cg(instance);
  SCOPED_TRACE(ProblemToText(instance, &pr, &j));
  for (const auto& [higher, lower] : pr.edges()) {
    if (FactsConflict(instance, higher, lower)) {
      continue;
    }
    if (cg.neighbors(higher).empty() || cg.neighbors(lower).empty()) {
      ++stats->edges_free;
    } else if (instance.fact(higher).rel != instance.fact(lower).rel) {
      ++stats->edges_across;
    } else {
      ++stats->edges_within;
    }
  }

  // The whole-instance references.
  const CheckResult global_reference = ExhaustiveCheckGlobalOptimal(cg, pr, j);
  const CheckResult pareto_reference = ExhaustiveCheckParetoOptimal(cg, pr, j);
  if (kind == JoinedSchema::kPrimaryKey) {
    EXPECT_EQ(CheckGlobalOptimalCcpPrimaryKey(cg, pr, j).optimal,
              global_reference.optimal);
  } else if (kind == JoinedSchema::kConstantAttr) {
    EXPECT_EQ(CheckGlobalOptimalCcpConstantAttr(cg, pr, j).optimal,
              global_reference.optimal);
  }
  const RepairSemantics kSemantics[] = {RepairSemantics::kGlobal,
                                        RepairSemantics::kPareto};
  const AnswerSemantics kAnswers[] = {AnswerSemantics::kGlobal,
                                      AnswerSemantics::kPareto};
  std::vector<DynamicBitset> optimal_reference[2];
  for (size_t k = 0; k < 2; ++k) {
    optimal_reference[k] = SortedSets(
        OptimalRepairsWithin(cg, pr, AllFactIds(cg), kSemantics[k]));
    ASSERT_FALSE(optimal_reference[k].empty());
  }
  const std::string r_atom =
      kind == JoinedSchema::kHard ? "R(x, y, z)" : "R(x, y)";
  Result<ConjunctiveQuery> query_r =
      ConjunctiveQuery::Parse("Q(x) :- " + r_atom);
  Result<ConjunctiveQuery> query_s =
      ConjunctiveQuery::Parse("Q(x, y) :- S(x, y)");
  Result<ConjunctiveQuery> query_bool =
      ConjunctiveQuery::Parse("Q() :- S(x, \"x0\")");
  ASSERT_TRUE(query_r.ok() && query_s.ok() && query_bool.ok());

  for (size_t threads : {size_t{1}, size_t{8}}) {
    for (bool cached : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " cache=" + std::to_string(cached));
      BlockSolveCache cache(256);
      ProblemContext ctx(instance, pr);
      ctx.set_parallelism(threads);
      ctx.set_block_cache(cached ? &cache : nullptr);
      for (const Block& b : ctx.blocks().blocks()) {
        const RelId rel = instance.fact(b.fact_list.back()).rel;
        if (threads == 1 && !cached && rel != b.rel) {
          ++stats->two_relation_blocks;
        }
      }
      CheckerOptions ccp;
      ccp.mode = PriorityMode::kCrossConflict;
      const RepairChecker checker(ctx, ccp);
      Result<CheckOutcome> outcome = checker.CheckGloballyOptimal(j);
      ASSERT_TRUE(outcome.ok());
      ASSERT_TRUE(outcome->result.known());
      EXPECT_EQ(outcome->result.optimal, global_reference.optimal);
      EXPECT_EQ(testing_util::VerifyWitness(cg, pr, j, outcome->result), "");
      const CheckResult pareto = checker.CheckParetoOptimal(j);
      ASSERT_TRUE(pareto.known());
      EXPECT_EQ(pareto.optimal, pareto_reference.optimal);
      if (pareto.witness.has_value()) {
        EXPECT_TRUE(
            IsParetoImprovement(cg, pr, j, pareto.witness->improvement));
      }
      for (size_t k = 0; k < 2; ++k) {
        SCOPED_TRACE(k == 0 ? "global" : "pareto");
        const std::vector<DynamicBitset>& reference = optimal_reference[k];
        const BoundedCount count =
            CountOptimalRepairsBounded(ctx, kSemantics[k]);
        EXPECT_TRUE(count.exact);
        EXPECT_EQ(count.lower_bound, reference.size());
        EXPECT_EQ(SortedSets(AllOptimalRepairs(ctx, kSemantics[k])),
                  reference);
        const CategoricityResult categoricity =
            DecideCategoricity(ctx, kSemantics[k]);
        if (reference.size() == 1) {
          EXPECT_EQ(categoricity.verdict, Categoricity::kCategorical);
          EXPECT_EQ(categoricity.repair, reference.front());
        } else {
          EXPECT_EQ(categoricity.verdict, Categoricity::kAmbiguous);
        }
        for (const ConjunctiveQuery* query : {&*query_r, &*query_s}) {
          Result<std::vector<ConjunctiveQuery::AnswerTuple>> answers =
              ConsistentAnswersBounded(ctx, *query, kAnswers[k]);
          ASSERT_TRUE(answers.ok());
          EXPECT_EQ(*answers, IntersectAnswers(instance, *query, reference));
        }
        bool certain = true;
        bool possible = false;
        for (const DynamicBitset& repair : reference) {
          const bool holds = query_bool->EvaluateBoolean(instance, repair);
          certain = certain && holds;
          possible = possible || holds;
        }
        EXPECT_EQ(CertainlyTrueBounded(ctx, *query_bool, kAnswers[k]),
                  certain ? Trilean::kTrue : Trilean::kFalse);
        EXPECT_EQ(PossiblyTrueBounded(ctx, *query_bool, kAnswers[k]),
                  possible ? Trilean::kTrue : Trilean::kFalse);
      }
    }
  }
}

TEST(JoinedBlockProperty, EveryAnswerMatchesTheWholeInstanceReferences) {
  JoinedBatteryStats stats;
  for (JoinedSchema kind : {JoinedSchema::kPrimaryKey,
                            JoinedSchema::kConstantAttr, JoinedSchema::kHard}) {
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      SCOPED_TRACE("schema " + std::to_string(static_cast<int>(kind)) +
                   " seed " + std::to_string(seed));
      ExpectJoinedBlocksMatchReferences(kind, seed, &stats);
    }
  }
  EXPECT_GT(stats.edges_within, 0u);
  EXPECT_GT(stats.edges_across, 0u);
  EXPECT_GT(stats.edges_free, 0u);
  EXPECT_GT(stats.two_relation_blocks, 0u);
}

}  // namespace
}  // namespace prefrep
