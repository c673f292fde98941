// Tests for the resource governor: budgets fire where they should,
// degraded verdicts are three-valued and never wrong, cancellation
// unwinds from any enumeration state without torn witnesses, and the
// bounded counting/construction/query layers keep their degradation
// contracts, and the replay and admission rules that the parallel merge
// and the caches share hold.  Run under the asan preset this file
// doubles as the clean-unwinding (no leak, no torn state) check.

#include <gtest/gtest.h>

#include <atomic>

#include "base/governor.h"
#include "classify/categoricity.h"
#include "gen/hard_workloads.h"
#include "query/consistent_answers.h"
#include "reductions/hard_schemas.h"
#include "repair/block_solver.h"
#include "repair/checker.h"
#include "repair/construct.h"
#include "repair/counting.h"
#include "repair/subinstance_ops.h"
#include "test_util.h"

namespace prefrep {
namespace {

using testing_util::ProblemSpec;

TEST(SaturatingMulTest, SaturatesExactlyAtTheBoundary) {
  bool saturated = false;
  EXPECT_EQ(SaturatingMulU64(3, 5, &saturated), 15u);
  EXPECT_FALSE(saturated);
  // 2^32 * 2^31 = 2^63: representable, not saturated.
  EXPECT_EQ(SaturatingMulU64(uint64_t{1} << 32, uint64_t{1} << 31, &saturated),
            uint64_t{1} << 63);
  EXPECT_FALSE(saturated);
  // 2^32 * 2^32 = 2^64: one past the top.
  EXPECT_EQ(SaturatingMulU64(uint64_t{1} << 32, uint64_t{1} << 32, &saturated),
            UINT64_MAX);
  EXPECT_TRUE(saturated);
  saturated = false;
  EXPECT_EQ(SaturatingMulU64(UINT64_MAX, 2, &saturated), UINT64_MAX);
  EXPECT_TRUE(saturated);
  // Zero never saturates, even against UINT64_MAX.
  saturated = false;
  EXPECT_EQ(SaturatingMulU64(0, UINT64_MAX, &saturated), 0u);
  EXPECT_FALSE(saturated);
}

TEST(GovernorTest, UnlimitedGovernorPassesEverythingAndCountsNothing) {
  ResourceGovernor& g = ResourceGovernor::Unlimited();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(g.Checkpoint());
  }
  EXPECT_EQ(g.nodes_spent(), 0u);  // fast path performs no writes
  EXPECT_FALSE(g.exhausted());
  EXPECT_TRUE(g.AdmitBlock(10));
  EXPECT_TRUE(g.ToStatus().ok());
}

TEST(GovernorTest, NodeBudgetFiresAtTheConfiguredCheckpointAndIsSticky) {
  ResourceBudget budget;
  budget.max_nodes = 5;
  ResourceGovernor g(budget);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(g.Checkpoint()) << "checkpoint " << i;
  }
  EXPECT_FALSE(g.Checkpoint());  // 6th node exceeds the budget
  EXPECT_TRUE(g.exhausted());
  EXPECT_EQ(g.cause(), ExhaustCause::kNodeBudget);
  EXPECT_FALSE(g.Checkpoint());  // sticky
  EXPECT_FALSE(g.AdmitBlock(2));  // no new blocks after exhaustion
  EXPECT_EQ(g.blocks_refused(), 0u);  // exhaustion turned it away
  EXPECT_EQ(g.ToStatus().code(), StatusCode::kResourceExhausted);
}

TEST(GovernorTest, FaultInjectionFiresAtTheNthCheckpoint) {
  ResourceGovernor g{ResourceBudget{}};
  g.ForceExhaustAtCheckpointForTesting(3);
  EXPECT_TRUE(g.Checkpoint());
  EXPECT_TRUE(g.Checkpoint());
  EXPECT_FALSE(g.Checkpoint());
  EXPECT_EQ(g.cause(), ExhaustCause::kFaultInjection);
  EXPECT_EQ(g.nodes_spent(), 3u);
}

// ---- The replay rule and block admission ----------------------------
//
// ResourceGovernor::TryReplay decides whether a result computed
// elsewhere (a worker payload, a block-cache hit) may stand in for a
// fresh run; WouldAdmitBlock is the admission test the cache re-checks
// first.

TEST(ReplayRuleTest, UnlimitedGovernorAlwaysServes) {
  ResourceGovernor& unlimited = ResourceGovernor::Unlimited();
  EXPECT_TRUE(unlimited.TryReplay(7, /*nodes_valid=*/false));
  EXPECT_EQ(unlimited.nodes_spent(), 0u);  // nothing committed
}

TEST(ReplayRuleTest, ExhaustedGovernorNeverServes) {
  ResourceBudget budget;
  budget.max_nodes = 1;
  ResourceGovernor gov(budget);
  EXPECT_TRUE(gov.Checkpoint());
  EXPECT_FALSE(gov.Checkpoint());  // node budget fires
  ASSERT_TRUE(gov.exhausted());
  EXPECT_FALSE(gov.TryReplay(0, /*nodes_valid=*/true));
}

TEST(ReplayRuleTest, CancellationOnlyWorkersServeUncountedEntries) {
  // A worker of an ungoverned parallel session: armed for cancellation,
  // no node-space budget.  Its node counter is never merged back, so
  // even uncounted entries are servable.
  std::atomic<uint64_t> bound{1000};
  ResourceGovernor gov{ResourceBudget{}};
  gov.ArmCancellation(&bound, /*position=*/1);
  ASSERT_FALSE(gov.unlimited());
  ASSERT_EQ(gov.NodeFiringIndex(), 0u);
  EXPECT_TRUE(gov.TryReplay(0, /*nodes_valid=*/false));
}

TEST(ReplayRuleTest, NodeCountingGovernorRefusesUncountedEntries) {
  ResourceBudget budget;
  budget.max_nodes = 100;
  ResourceGovernor gov(budget);
  EXPECT_FALSE(gov.TryReplay(0, /*nodes_valid=*/false));
}

TEST(ReplayRuleTest, ReplayMustStayBelowTheFiringIndex) {
  ResourceBudget budget;
  budget.max_nodes = 10;  // firing index 11
  ResourceGovernor gov(budget);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(gov.Checkpoint());
  }
  // 5 spent + 5 replayed = 10 < 11: the fresh solve would have
  // completed, so the result is served and its count committed.
  ASSERT_TRUE(gov.TryReplay(5, /*nodes_valid=*/true));
  EXPECT_EQ(gov.nodes_spent(), 10u);
  EXPECT_FALSE(gov.exhausted());
  // 10 spent + 1 replayed = 11 ≥ 11: the fresh solve would have fired
  // mid-block — the result is refused so the budget fires identically.
  EXPECT_FALSE(gov.TryReplay(1, /*nodes_valid=*/true));
  EXPECT_EQ(gov.nodes_spent(), 10u);  // a refusal commits nothing
}

TEST(ReplayRuleTest, WouldAdmitBlockMirrorsAdmitBlockWithoutRecording) {
  ResourceBudget budget;
  budget.max_block = 8;
  ResourceGovernor gov(budget);
  EXPECT_TRUE(gov.WouldAdmitBlock(8));
  EXPECT_FALSE(gov.WouldAdmitBlock(9));
  EXPECT_FALSE(
      gov.WouldAdmitBlock(ResourceGovernor::kMaxExhaustiveBlockFacts + 1));
  EXPECT_EQ(gov.blocks_refused(), 0u);  // pure query: nothing recorded
  EXPECT_FALSE(gov.AdmitBlock(9));
  EXPECT_EQ(gov.blocks_refused(), 1u);
  // The unarmed governor admits everything under the hard cap.
  EXPECT_TRUE(ResourceGovernor::Unlimited().WouldAdmitBlock(
      ResourceGovernor::kMaxExhaustiveBlockFacts));
}

TEST(GovernorTest, OversizedBlockIsRefusedEvenWithoutAConfiguredBudget) {
  // The 64-fact hard cap guards the uint64 subset/count arithmetic: a
  // 1 << 64 would be undefined behaviour, so such blocks must be
  // refused up front, budget or no budget.
  ResourceGovernor g{ResourceBudget{}};
  EXPECT_TRUE(g.AdmitBlock(ResourceGovernor::kMaxExhaustiveBlockFacts));
  EXPECT_FALSE(g.AdmitBlock(ResourceGovernor::kMaxExhaustiveBlockFacts + 1));
  EXPECT_TRUE(g.degraded());
  EXPECT_FALSE(g.exhausted());  // refusal is not sticky
  EXPECT_EQ(g.blocks_refused(), 1u);
  EXPECT_TRUE(g.AdmitBlock(4));  // later blocks still admitted
  EXPECT_EQ(g.ToStatus().code(), StatusCode::kResourceExhausted);
}

// A 64-fact single-block clique reaching the solver must come back
// kUnknown instead of entering the 2^64 enumeration.
TEST(GovernorTest, SixtyFourFactBlockComesBackUnknownFromTheSolver) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  for (int i = 0; i < 64; ++i) {
    spec.facts.push_back("f" + std::to_string(i) + ": k, v" +
                         std::to_string(i));
  }
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  ProblemContext ctx(*p.instance, *p.priority);
  ASSERT_EQ(ctx.blocks().num_blocks(), 1u);
  const Block& b = ctx.blocks().blocks().front();
  ASSERT_EQ(b.size(), 64u);
  DynamicBitset j = testing_util::Sub(*p.instance, {"f0"});
  CheckResult result = ExhaustiveBlockSolver().CheckBlock(ctx, b, j);
  EXPECT_FALSE(result.known());
  EXPECT_FALSE(result.witness.has_value());
  EXPECT_NE(result.unknown_reason.find("admissible size"), std::string::npos)
      << result.unknown_reason;
  // The abandoned enumeration also yields the unambiguous sentinels of
  // the other solver entry points: no repairs, count zero.
  EXPECT_TRUE(ExhaustiveBlockSolver().OptimalBlockRepairs(ctx, b).empty());
  EXPECT_EQ(ExhaustiveBlockSolver().CountBlock(ctx, b), 0u);
}

TEST(ClusteredWorkloadTest, IsOneBlockWithTheClosedFormRepairCount) {
  PreferredRepairProblem p = MakeHardClusteredWorkload(5, 3);
  ProblemContext ctx(*p.instance, *p.priority);
  EXPECT_EQ(ctx.conflict_graph().num_facts(), 15u);
  EXPECT_EQ(ctx.blocks().num_blocks(), 1u);  // the spine merges cliques
  // (s-1)^(c-1) * (s-1+c) = 2^4 * 7 = 112.
  EXPECT_EQ(CountRepairs(ctx.conflict_graph()), 112u);
  EXPECT_TRUE(p.priority->Validate(PriorityMode::kConflictOnly).ok());
  EXPECT_TRUE(ctx.priority_block_local());
  EXPECT_TRUE(IsRepair(ctx.conflict_graph(), p.j));
  // J (all member-1 facts) is globally optimal: nothing dominates them.
  EXPECT_TRUE(
      ExhaustiveCheckGlobalOptimal(ctx.conflict_graph(), *p.priority, p.j)
          .optimal);
}

TEST(GovernorTest, NodeBudgetInterruptsTheExhaustiveCheckMidBlock) {
  PreferredRepairProblem p = MakeHardClusteredWorkload(13, 3);  // 39 facts
  ConflictGraph cg(*p.instance);
  ResourceBudget budget;
  budget.max_nodes = 100;  // far below the 61440-repair scan
  ResourceGovernor g(budget);
  CheckResult result = ExhaustiveCheckGlobalOptimal(cg, *p.priority, p.j, g);
  EXPECT_FALSE(result.known());
  EXPECT_FALSE(result.witness.has_value());
  EXPECT_TRUE(g.exhausted());
  EXPECT_EQ(g.cause(), ExhaustCause::kNodeBudget);
  // Work stops within one interval of the budget, not at 61440 nodes.
  EXPECT_LE(g.nodes_spent(), budget.max_nodes + 1);
}

TEST(GovernorTest, DeadlineFiresMidBlockAndReportsUnknown) {
  // 20 cliques of 3 = 60 facts and ~11.5M repairs: an ungoverned scan
  // takes seconds, so a short deadline reliably fires mid-enumeration.
  PreferredRepairProblem p = MakeHardClusteredWorkload(20, 3);
  ProblemContext ctx(*p.instance, *p.priority);
  ResourceBudget budget;
  budget.deadline_ms = 25;
  ResourceGovernor g(budget);
  ctx.set_governor(&g);
  RepairChecker checker(ctx);
  auto outcome = checker.CheckGloballyOptimal(p.j);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->result.verdict, CheckResult::Verdict::kUnknown);
  EXPECT_EQ(g.cause(), ExhaustCause::kDeadline);
  EXPECT_TRUE(outcome->degradation.Degraded());
  ASSERT_EQ(outcome->degradation.abandoned.size(), 1u);
  EXPECT_EQ(outcome->degradation.abandoned.front().block_size, 60u);
  EXPECT_EQ(g.ToStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(GovernorTest, AmpleBudgetGivesTheExactVerdictAndNoDegradation) {
  PreferredRepairProblem p = MakeHardClusteredWorkload(8, 3);
  ProblemContext ctx(*p.instance, *p.priority);
  ResourceBudget budget;
  budget.deadline_ms = 60000;
  budget.max_nodes = 50'000'000;
  ResourceGovernor g(budget);
  ctx.set_governor(&g);
  RepairChecker checker(ctx);
  auto outcome = checker.CheckGloballyOptimal(p.j);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->result.verdict, CheckResult::Verdict::kYes);
  EXPECT_TRUE(outcome->result.optimal);
  EXPECT_FALSE(g.degraded());
  EXPECT_FALSE(outcome->degradation.Degraded());
  EXPECT_EQ(outcome->degradation.blocks_exact,
            outcome->degradation.blocks_total);
  EXPECT_GT(g.nodes_spent(), 0u);  // the budget was really being counted
}

// Two hard S1 blocks of different sizes under a max_block budget: the
// small block is still answered exactly, the large one is reported
// unknown, and the overall verdict degrades to kUnknown only when no
// admitted block refutes J.
class TwoBlockBudgetTest : public ::testing::Test {
 protected:
  // Clique of `size` facts sharing attributes 1 and 2 (12→3 conflicts);
  // distinct attribute-1 values keep the two cliques in separate blocks.
  static void AddClique(PreferredRepairProblem& p, const std::string& key,
                        size_t size) {
    const std::string relation = p.instance->schema().relation_name(0);
    for (size_t j = 0; j < size; ++j) {
      p.instance->MustAddFact(relation,
                              {key, "m", key + "c" + std::to_string(j)},
                              key + ":f" + std::to_string(j));
    }
  }

  static PreferredRepairProblem MakeTwoCliques(size_t first, size_t second) {
    PreferredRepairProblem p(HardSchema(1));
    AddClique(p, "a", first);
    AddClique(p, "b", second);
    p.InitPriority();
    // Fact 1 of each clique dominates its clique-mates.
    for (const std::string& key : {std::string("a"), std::string("b")}) {
      size_t size = key == "a" ? first : second;
      for (size_t j = 0; j < size; ++j) {
        if (j == 1) {
          continue;
        }
        PREFREP_CHECK(p.priority
                          ->AddByLabels(key + ":f1",
                                        key + ":f" + std::to_string(j))
                          .ok());
      }
    }
    return p;
  }
};

TEST_F(TwoBlockBudgetTest, AdmittedBlocksStayExactRefusedOnesGoUnknown) {
  PreferredRepairProblem p = MakeTwoCliques(3, 6);
  ProblemContext ctx(*p.instance, *p.priority);
  ASSERT_EQ(ctx.blocks().num_blocks(), 2u);
  ResourceBudget budget;
  budget.max_block = 4;  // admits the 3-clique, refuses the 6-clique
  ResourceGovernor g(budget);
  ctx.set_governor(&g);
  RepairChecker checker(ctx);

  // J optimal on the small block, unknowable on the refused one.
  p.j = testing_util::Sub(*p.instance, {"a:f1", "b:f1"});
  auto outcome = checker.CheckGloballyOptimal(p.j);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->result.verdict, CheckResult::Verdict::kUnknown);
  EXPECT_EQ(outcome->degradation.blocks_total, 2u);
  EXPECT_EQ(outcome->degradation.blocks_exact, 1u);
  EXPECT_EQ(outcome->degradation.blocks_abandoned, 1u);
  ASSERT_EQ(outcome->degradation.abandoned.size(), 1u);
  EXPECT_EQ(outcome->degradation.abandoned.front().block_size, 6u);

  // A dominated pick in the *admitted* block is a definite kNo with a
  // valid witness, refused block or not.
  ResourceGovernor g2(budget);
  ctx.set_governor(&g2);
  p.j = testing_util::Sub(*p.instance, {"a:f0", "b:f1"});
  outcome = checker.CheckGloballyOptimal(p.j);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->result.verdict, CheckResult::Verdict::kNo);
  EXPECT_EQ(testing_util::VerifyWitness(ctx.conflict_graph(), *p.priority,
                                        p.j, outcome->result),
            "");
  ctx.set_governor(nullptr);
}

TEST_F(TwoBlockBudgetTest, DefiniteNoInALaterBlockSurvivesAnEarlierRefusal) {
  // The refused block comes first in block order; the dispatcher must
  // keep going and still find the definite refutation behind it.
  PreferredRepairProblem p = MakeTwoCliques(6, 3);
  ProblemContext ctx(*p.instance, *p.priority);
  ResourceBudget budget;
  budget.max_block = 4;
  ResourceGovernor g(budget);
  ctx.set_governor(&g);
  RepairChecker checker(ctx);
  p.j = testing_util::Sub(*p.instance, {"a:f1", "b:f0"});  // bad small block
  auto outcome = checker.CheckGloballyOptimal(p.j);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->result.verdict, CheckResult::Verdict::kNo);
  EXPECT_FALSE(outcome->result.optimal);
}

TEST(GovernorTest, BoundedCountIsExactUngovernedAndALowerBoundGoverned) {
  PreferredRepairProblem p = MakeHardClusteredWorkload(6, 3);
  {
    ProblemContext ctx(*p.instance, *p.priority);
    // Ungoverned: (s-1)^(c-1) * (s-1+c) = 2^5 * 8 repairs in the one
    // block; the globally-optimal one is exactly J (member 1 is the
    // unique ≻-maximal choice per clique, the spine adds none).
    BoundedCount all =
        CountOptimalRepairsBounded(ctx, RepairSemantics::kGlobal);
    EXPECT_TRUE(all.exact);
    EXPECT_FALSE(all.saturated);
    EXPECT_EQ(all.unknown_blocks, 0u);
    EXPECT_EQ(all.lower_bound, 1u);
    EXPECT_EQ(CountRepairs(ctx.conflict_graph()), 256u);
  }
  {
    ProblemContext ctx(*p.instance, *p.priority);
    ResourceBudget budget;
    budget.max_nodes = 50;
    ResourceGovernor g(budget);
    ctx.set_governor(&g);
    BoundedCount cut =
        CountOptimalRepairsBounded(ctx, RepairSemantics::kGlobal);
    EXPECT_FALSE(cut.exact);
    EXPECT_EQ(cut.unknown_blocks, 1u);
    EXPECT_GE(cut.lower_bound, 1u);  // the verified floor
  }
}

// The globally-optimal repairs by Definition 2.4, in walk order: every
// repair ExhaustiveCheckGlobalOptimal finds no improvement of.  The
// reference for the whole-instance enumeration a cross-block priority
// falls back to.
std::vector<DynamicBitset> DefinitionalOptimalRepairs(
    const ConflictGraph& cg, const PriorityRelation& pr) {
  std::vector<DynamicBitset> out;
  for (const DynamicBitset& repair : AllRepairs(cg)) {
    if (ExhaustiveCheckGlobalOptimal(cg, pr, repair).optimal) {
      out.push_back(repair);
    }
  }
  return out;
}

TEST(GovernorTest, CrossBlockFallbacksSpendTheContextBudget) {
  // One priority edge between two shards couples their blocks, so the
  // enumeration falls back to the whole instance, and uniqueness is a
  // one-repair enumeration: categoricity decides per block only.
  PreferredRepairProblem p = MakeHardShardedWorkload(2, 3, 3);
  p.priority->MustAdd(p.instance->FindLabel("s0:q1:f1"),
                      p.instance->FindLabel("s1:q2:f2"));
  ConflictGraph cg(*p.instance);
  const std::vector<DynamicBitset> expected =
      DefinitionalOptimalRepairs(cg, *p.priority);
  ASSERT_EQ(expected.size(), 1u);
  {
    ProblemContext ctx(cg, *p.priority);
    ASSERT_FALSE(ctx.priority_block_local());
    EXPECT_EQ(AllOptimalRepairs(ctx, RepairSemantics::kGlobal), expected);
    EXPECT_EQ(DecideCategoricity(ctx, RepairSemantics::kGlobal).verdict,
              Categoricity::kUnknown);
  }
  ResourceBudget budget;
  budget.max_nodes = 50;
  {
    ProblemContext ctx(cg, *p.priority);
    ResourceGovernor g(budget);
    ctx.set_governor(&g);
    EXPECT_TRUE(AllOptimalRepairs(ctx, RepairSemantics::kGlobal).empty());
    EXPECT_TRUE(g.exhausted());
  }
}

TEST(GovernorTest, CrossBlockFilterChargesEveryPairTest) {
  // Six independent conflicting pairs and one priority edge between two
  // of them: the edge is cross-block, so enumeration falls back to the
  // whole-instance filter, and every one of the 2^6 repairs is optimal
  // (a0 and a1 do not conflict, so nothing improves a repair).  The
  // filter tests each repair against every repair: 64 × 64 pair tests.
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  for (int i = 0; i < 6; ++i) {
    spec.facts.push_back("a" + std::to_string(i) + ": k" +
                         std::to_string(i) + ", 1");
    spec.facts.push_back("b" + std::to_string(i) + ": k" +
                         std::to_string(i) + ", 2");
  }
  spec.priorities = {"a0 > a1"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  ConflictGraph cg(*p.instance);
  const std::vector<DynamicBitset> expected =
      DefinitionalOptimalRepairs(cg, *p.priority);
  ASSERT_EQ(expected.size(), 64u);
  // The walk's own nodes, counted by a governor that never fires.
  ResourceBudget counting;
  counting.max_nodes = uint64_t{1} << 40;
  ResourceGovernor walk_governor(counting);
  ForEachRepairWithin(cg, AllFactIds(cg), walk_governor,
                      [](const DynamicBitset&) { return true; });
  const uint64_t walk_nodes = walk_governor.nodes_spent();
  const auto enumerate = [&](ResourceGovernor& g) {
    ProblemContext ctx(cg, *p.priority);
    EXPECT_FALSE(ctx.priority_block_local());
    ctx.set_governor(&g);
    return AllOptimalRepairs(ctx, RepairSemantics::kGlobal);
  };
  {
    // The walk plus one node per repair no longer pays for the filter.
    ResourceBudget budget;
    budget.max_nodes = walk_nodes + 64;
    ResourceGovernor g(budget);
    EXPECT_TRUE(enumerate(g).empty());
    EXPECT_TRUE(g.exhausted());
  }
  {
    // The walk plus every pair test does.
    ResourceBudget budget;
    budget.max_nodes = walk_nodes + 64 * 64;
    ResourceGovernor g(budget);
    EXPECT_EQ(enumerate(g), expected);
    EXPECT_FALSE(g.exhausted());
    EXPECT_EQ(g.nodes_spent(), budget.max_nodes);
  }
}

TEST(GovernorTest, CountProductSaturatesAtSixtyFourDoublingBlocks) {
  // 64 independent unordered conflict pairs: every repair is globally
  // optimal, so the per-block product is 2^64 — one past uint64.  With
  // 63 pairs the count 2^63 is still exact.
  for (size_t pairs : {size_t{63}, size_t{64}}) {
    ProblemSpec spec;
    spec.arity = 2;
    spec.fds = {"1 -> 2"};
    for (size_t i = 0; i < pairs; ++i) {
      spec.facts.push_back("a" + std::to_string(i) + ": k" +
                           std::to_string(i) + ", 1");
      spec.facts.push_back("b" + std::to_string(i) + ": k" +
                           std::to_string(i) + ", 2");
    }
    PreferredRepairProblem p = testing_util::MakeProblem(spec);
    ProblemContext ctx(*p.instance, *p.priority);
    BoundedCount count =
        CountOptimalRepairsBounded(ctx, RepairSemantics::kGlobal);
    if (pairs == 63) {
      EXPECT_TRUE(count.exact);
      EXPECT_FALSE(count.saturated);
      EXPECT_EQ(count.lower_bound, uint64_t{1} << 63);
    } else {
      EXPECT_FALSE(count.exact);
      EXPECT_TRUE(count.saturated);
      EXPECT_EQ(count.lower_bound, UINT64_MAX);
    }
    EXPECT_EQ(count.unknown_blocks, 0u);  // saturation is not abandonment
  }
}

// Cancellation can strike at *any* enumeration state; whatever comes
// back must be a definite verdict that matches the unlimited run, or
// kUnknown with no witness attached.  Under the asan preset this sweep
// is also the no-leak / no-torn-bitset check.
TEST(GovernorTest, FaultSweepNeverProducesATornOrWrongResult) {
  PreferredRepairProblem p = MakeHardClusteredWorkload(4, 3);
  ConflictGraph cg(*p.instance);
  const CheckResult unlimited =
      ExhaustiveCheckGlobalOptimal(cg, *p.priority, p.j);
  ASSERT_TRUE(unlimited.optimal);
  DynamicBitset bad = p.j;
  bad.reset(p.instance->FindLabel("q0:f1"));
  bad.set(p.instance->FindLabel("q0:f0"));
  for (uint64_t n = 1; n <= 40; ++n) {
    ResourceGovernor g{ResourceBudget{}};
    g.ForceExhaustAtCheckpointForTesting(n);
    CheckResult result = ExhaustiveCheckGlobalOptimal(cg, *p.priority, p.j, g);
    if (result.known()) {
      EXPECT_TRUE(result.optimal) << "fault at " << n;
    } else {
      EXPECT_FALSE(result.witness.has_value()) << "fault at " << n;
      EXPECT_FALSE(result.unknown_reason.empty()) << "fault at " << n;
    }

    ResourceGovernor g2{ResourceBudget{}};
    g2.ForceExhaustAtCheckpointForTesting(n);
    CheckResult refuted =
        ExhaustiveCheckGlobalOptimal(cg, *p.priority, bad, g2);
    if (refuted.known()) {
      // A definite kNo found before the fault stands, and its witness
      // must be a real improvement, not a torn bitset.
      EXPECT_FALSE(refuted.optimal) << "fault at " << n;
      EXPECT_EQ(testing_util::VerifyWitness(cg, *p.priority, bad, refuted), "")
          << "fault at " << n;
    } else {
      EXPECT_FALSE(refuted.witness.has_value()) << "fault at " << n;
    }
  }
}

TEST(GovernorTest, TryConstructDegradesToStatusInsteadOfATornRepair) {
  PreferredRepairProblem p = MakeHardClusteredWorkload(5, 3);
  ProblemContext ctx(*p.instance, *p.priority);
  // Ungoverned, the Try variant cannot fail.
  Result<DynamicBitset> ungoverned = TryConstructGloballyOptimalRepair(ctx);
  ASSERT_TRUE(ungoverned.ok());

  ResourceGovernor g{ResourceBudget{}};
  g.ForceExhaustAtCheckpointForTesting(2);
  ctx.set_governor(&g);
  auto cut = TryConstructGloballyOptimalRepair(ctx);
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), StatusCode::kResourceExhausted);

  ResourceBudget ample;
  ample.max_nodes = 1'000'000;
  ResourceGovernor g2(ample);
  ctx.set_governor(&g2);
  auto full = TryConstructGloballyOptimalRepair(ctx);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, *ungoverned);
  ctx.set_governor(nullptr);
}

TEST(GovernorTest, BoundedQueriesDegradeToUnknownNotToAWrongAnswer) {
  PreferredRepairProblem p = MakeHardClusteredWorkload(4, 3);
  ProblemContext ctx(*p.instance, *p.priority);
  // Every member-1 fact has attribute 2 = "m"; Q asks for a kept fact
  // of clique 0.  J = all member 1s is the unique globally-optimal
  // repair, so Q is certainly true under kGlobal.
  auto q = ConjunctiveQuery::Parse("Q() :- R1(\"k0\", \"m\", x)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(CertainlyTrueBounded(ctx, *q, AnswerSemantics::kGlobal),
            Trilean::kTrue);
  EXPECT_EQ(PossiblyTrueBounded(ctx, *q, AnswerSemantics::kGlobal),
            Trilean::kTrue);

  ResourceBudget budget;
  budget.max_nodes = 5;
  ResourceGovernor g(budget);
  ctx.set_governor(&g);
  EXPECT_EQ(CertainlyTrueBounded(ctx, *q, AnswerSemantics::kGlobal),
            Trilean::kUnknown);
  auto bounded = ConsistentAnswersBounded(ctx, *q, AnswerSemantics::kGlobal);
  ASSERT_FALSE(bounded.ok());
  EXPECT_EQ(bounded.status().code(), StatusCode::kResourceExhausted);
  ctx.set_governor(nullptr);
}

TEST(GovernorTest, AllRepairsQueriesKeepDefiniteEarlyAnswers) {
  // Under kAllRepairs semantics each enumerated repair is complete, so
  // a refutation/confirmation found before exhaustion is definite.
  PreferredRepairProblem p = MakeHardClusteredWorkload(4, 3);
  ProblemContext ctx(*p.instance, *p.priority);
  // Every fact has attribute 2 = "m" and repairs are non-empty, so this
  // holds in every repair: the first enumerated repair confirms
  // PossiblyTrue, but certifying CertainlyTrue needs the full scan.
  auto everywhere = ConjunctiveQuery::Parse("Q() :- R1(x, \"m\", y)");
  ASSERT_TRUE(everywhere.ok());
  // No fact matches, so the first repair already refutes CertainlyTrue.
  auto nowhere = ConjunctiveQuery::Parse("Q() :- R1(x, \"nope\", y)");
  ASSERT_TRUE(nowhere.ok());
  ResourceBudget budget;
  budget.max_nodes = 20;  // reaches the first repairs, not the full scan
  ResourceGovernor g(budget);
  ctx.set_governor(&g);
  EXPECT_EQ(PossiblyTrueBounded(ctx, *everywhere, AnswerSemantics::kAllRepairs),
            Trilean::kTrue);
  ResourceGovernor g2(budget);
  ctx.set_governor(&g2);
  EXPECT_EQ(CertainlyTrueBounded(ctx, *nowhere, AnswerSemantics::kAllRepairs),
            Trilean::kFalse);
  // Certifying the universal query under the same tiny budget: unknown.
  ResourceGovernor g3(budget);
  ctx.set_governor(&g3);
  EXPECT_EQ(
      CertainlyTrueBounded(ctx, *everywhere, AnswerSemantics::kAllRepairs),
      Trilean::kUnknown);
  ctx.set_governor(nullptr);
}

TEST(GovernorTest, DegradationReportPrintsTheAbandonedBlocks) {
  DegradationReport report;
  report.blocks_total = 3;
  report.blocks_exact = 2;
  report.blocks_abandoned = 1;
  report.nodes_spent = 1234;
  report.cause = "node budget of 1000 exhausted";
  report.abandoned.push_back(BlockDegradation{7, 40, 1000, "node budget"});
  EXPECT_TRUE(report.Degraded());
  std::string text = report.ToString();
  EXPECT_NE(text.find("2/3"), std::string::npos) << text;
  EXPECT_NE(text.find("block #7"), std::string::npos) << text;
  EXPECT_NE(text.find("40"), std::string::npos) << text;
}

}  // namespace
}  // namespace prefrep
