// Differential test for the parallel per-block solver
// (repair/parallel_solver.h): for randomized instances, the entire
// user-visible outcome of checking, counting, enumeration and
// construction must be BYTE-IDENTICAL at every thread count — verdicts,
// witnesses (bitset and explanation), route strings, BoundedCount
// fields, DegradationReport::ToString, governor cause strings and node
// counters.  The comparison is run ungoverned, under node-budget and
// block-cap sweeps, and under fault injection at every checkpoint index
// of a pass (ForceExhaustAtCheckpointForTesting), so the determinism
// guarantee is exercised exactly where it is hardest: when the shared
// budget fires mid-block.
//
// The wall-clock deadline is deliberately excluded: it is
// nondeterministic in the serial pass already (docs/parallelism.md).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "classify/categoricity.h"
#include "gen/random_instance.h"
#include "repair/checker.h"
#include "repair/construct.h"
#include "repair/counting.h"
#include "test_util.h"

namespace prefrep {
namespace {

Schema RandomSchema(Rng* rng) {
  Schema schema;
  size_t num_relations = 1 + rng->NextBounded(2);
  for (size_t r = 0; r < num_relations; ++r) {
    int arity = 2 + static_cast<int>(rng->NextBounded(2));  // 2..3
    RelId rel = schema.MustAddRelation("R" + std::to_string(r), arity);
    size_t num_fds = rng->NextBounded(3);  // 0..2
    uint64_t full = (uint64_t{1} << arity) - 1;
    for (size_t i = 0; i < num_fds; ++i) {
      schema.MustAddFd(rel, FD(AttrSet::FromMask(rng->Next() & full),
                               AttrSet::FromMask(rng->Next() & full)));
    }
  }
  return schema;
}

PreferredRepairProblem RandomProblem(uint64_t seed) {
  Rng rng(seed * 76493 + 5);
  Schema schema = RandomSchema(&rng);
  RandomProblemOptions opts;
  opts.facts_per_relation = 6 + rng.NextBounded(5);
  opts.domain_size = 2 + rng.NextBounded(3);
  opts.value_skew = rng.NextBool(0.3) ? 1.1 : 0.0;
  opts.priority_density = 0.3 + 0.5 * rng.NextDouble();
  opts.j_policy = static_cast<JPolicy>(rng.NextBounded(4));
  opts.seed = rng.Next();
  return GenerateRandomProblem(schema, opts);
}

void AppendGovernor(const ResourceGovernor& governor, std::ostream* out) {
  *out << "  governor: cause=" << governor.CauseString()
       << " nodes=" << governor.nodes_spent()
       << " refused=" << governor.blocks_refused() << "\n";
}

void AppendCheckResult(const Instance& instance, const CheckResult& result,
                       std::ostream* out) {
  *out << "  verdict="
       << (result.verdict == CheckResult::Verdict::kYes
               ? "yes"
               : result.verdict == CheckResult::Verdict::kNo ? "no"
                                                             : "unknown")
       << " optimal=" << result.optimal
       << " reason=" << result.unknown_reason << "\n";
  if (result.witness.has_value()) {
    *out << "  witness="
         << instance.SubinstanceToString(result.witness->improvement)
         << " explanation=" << result.witness->explanation << "\n";
  }
}

// Runs the full per-block battery at `threads` and renders every
// observable output into one string.  EXPECT_EQ on two such strings
// makes any divergence show up as a readable diff.  Each operation gets
// a fresh context + governor so every one hits the budget from zero.
std::string RunBattery(const PreferredRepairProblem& problem, size_t threads,
                       const ResourceBudget& budget, uint64_t fault_at) {
  const Instance& instance = *problem.instance;
  std::ostringstream out;

  auto prepare = [&](ProblemContext* ctx, ResourceGovernor* governor) {
    if (fault_at > 0) {
      governor->ForceExhaustAtCheckpointForTesting(fault_at);
    }
    ctx->set_parallelism(threads);
    ctx->set_governor(governor);
  };

  {
    out << "check-global:\n";
    ResourceGovernor governor(budget);
    ProblemContext ctx(instance, *problem.priority);
    prepare(&ctx, &governor);
    RepairChecker checker(ctx);
    auto outcome = checker.CheckGloballyOptimal(problem.j);
    if (!outcome.ok()) {
      out << "  status=" << outcome.status().ToString() << "\n";
    } else {
      AppendCheckResult(instance, outcome->result, &out);
      for (const std::string& step : outcome->route) {
        out << "  route: " << step << "\n";
      }
      out << "  degradation: " << outcome->degradation.ToString() << "\n";
      // A reported improvement must actually improve J, at any thread
      // count.
      ConflictGraph cg(instance);
      EXPECT_EQ(testing_util::VerifyWitness(cg, *problem.priority, problem.j,
                                            outcome->result),
                "");
    }
    AppendGovernor(governor, &out);
  }
  {
    out << "check-pareto+completion:\n";
    ResourceGovernor governor(budget);
    ProblemContext ctx(instance, *problem.priority);
    prepare(&ctx, &governor);
    RepairChecker checker(ctx);
    AppendCheckResult(instance, checker.CheckParetoOptimal(problem.j), &out);
    AppendCheckResult(instance, checker.CheckCompletionOptimal(problem.j),
                      &out);
    AppendGovernor(governor, &out);
  }
  {
    out << "count-bounded:\n";
    ResourceGovernor governor(budget);
    ProblemContext ctx(instance, *problem.priority);
    prepare(&ctx, &governor);
    BoundedCount count = CountOptimalRepairsBounded(ctx,
                                                    RepairSemantics::kGlobal);
    out << "  lower_bound=" << count.lower_bound << " exact=" << count.exact
        << " unknown_blocks=" << count.unknown_blocks
        << " saturated=" << count.saturated << "\n";
    AppendGovernor(governor, &out);
  }
  {
    out << "all-optimal:\n";
    ResourceGovernor governor(budget);
    ProblemContext ctx(instance, *problem.priority);
    prepare(&ctx, &governor);
    std::vector<DynamicBitset> all =
        AllOptimalRepairs(ctx, RepairSemantics::kGlobal);
    out << "  size=" << all.size() << "\n";
    for (const DynamicBitset& r : all) {
      out << "  " << instance.SubinstanceToString(r) << "\n";
    }
    AppendGovernor(governor, &out);
  }
  {
    out << "categoricity:\n";
    ResourceGovernor governor(budget);
    ProblemContext ctx(instance, *problem.priority);
    prepare(&ctx, &governor);
    const CategoricityResult result =
        DecideCategoricity(ctx, RepairSemantics::kGlobal);
    out << "  " << CategoricityName(result.verdict);
    if (result.verdict == Categoricity::kCategorical) {
      out << " " << instance.SubinstanceToString(result.repair);
    } else if (result.verdict == Categoricity::kAmbiguous) {
      out << " at block " << result.ambiguous_block;
    } else {
      out << " (" << result.unknown_reason << ")";
    }
    out << "\n";
    AppendGovernor(governor, &out);
  }
  {
    // Every tie-break on an ungoverned context (where construction
    // cannot fail), then the default one under the budget.  kRandom
    // exercises the per-block (seed, block id) draw streams.
    out << "construct:\n";
    ProblemContext ungoverned(instance, *problem.priority);
    ungoverned.set_parallelism(threads);
    for (TieBreak tb :
         {TieBreak::kFirstFact, TieBreak::kMostDominating, TieBreak::kRandom}) {
      ConstructOptions options;
      options.tie_break = tb;
      options.seed = 7;
      Result<DynamicBitset> repair =
          TryConstructGloballyOptimalRepair(ungoverned, options);
      EXPECT_TRUE(repair.ok()) << repair.status().ToString();
      out << "  "
          << (repair.ok() ? instance.SubinstanceToString(*repair)
                          : repair.status().ToString())
          << "\n";
    }
    ResourceGovernor governor(budget);
    ProblemContext ctx(instance, *problem.priority);
    prepare(&ctx, &governor);
    Result<DynamicBitset> tried = TryConstructGloballyOptimalRepair(ctx);
    out << "  try="
        << (tried.ok() ? instance.SubinstanceToString(*tried)
                       : tried.status().ToString())
        << "\n";
    AppendGovernor(governor, &out);
  }
  return out.str();
}

class ParallelDiffTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelDiffTest, UngovernedBatteryIdenticalAcrossThreadCounts) {
  PreferredRepairProblem problem = RandomProblem(GetParam());
  ResourceBudget unlimited;
  const std::string serial = RunBattery(problem, 1, unlimited, 0);
  for (size_t threads : {2u, 8u}) {
    EXPECT_EQ(serial, RunBattery(problem, threads, unlimited, 0))
        << "threads=" << threads << " seed=" << GetParam();
  }
}

TEST_P(ParallelDiffTest, NodeBudgetSweepIdentical) {
  PreferredRepairProblem problem = RandomProblem(GetParam());
  for (uint64_t max_nodes : {uint64_t{1}, uint64_t{5}, uint64_t{50},
                             uint64_t{500}}) {
    ResourceBudget budget;
    budget.max_nodes = max_nodes;
    const std::string serial = RunBattery(problem, 1, budget, 0);
    for (size_t threads : {2u, 8u}) {
      EXPECT_EQ(serial, RunBattery(problem, threads, budget, 0))
          << "threads=" << threads << " max_nodes=" << max_nodes
          << " seed=" << GetParam();
    }
  }
}

TEST_P(ParallelDiffTest, BlockCapSweepIdentical) {
  PreferredRepairProblem problem = RandomProblem(GetParam());
  for (size_t max_block : {size_t{2}, size_t{4}}) {
    ResourceBudget budget;
    budget.max_block = max_block;
    const std::string serial = RunBattery(problem, 1, budget, 0);
    EXPECT_EQ(serial, RunBattery(problem, 8, budget, 0))
        << "max_block=" << max_block << " seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDiffTest,
                         ::testing::Range<uint64_t>(1, 21));

// Fault injection at every early checkpoint index: the governor fires
// at the n-th checkpoint of the pass, which lands inside different
// blocks (and different nodes within a block) as n sweeps.  The merged
// outcome — including the exact "fault injected at checkpoint n" cause
// and the partial node counters — must match the serial pass at every
// n and every thread count.
TEST(ParallelDiffFaultTest, ExhaustionSweepIdentical) {
  for (uint64_t seed : {uint64_t{3}, uint64_t{11}}) {
    PreferredRepairProblem problem = RandomProblem(seed);
    ResourceBudget unlimited;
    for (uint64_t n = 1; n <= 40; ++n) {
      const std::string serial = RunBattery(problem, 1, unlimited, n);
      for (size_t threads : {2u, 8u}) {
        EXPECT_EQ(serial, RunBattery(problem, threads, unlimited, n))
            << "threads=" << threads << " fault_at=" << n
            << " seed=" << seed;
      }
    }
  }
}

// Cross-conflict mode: the checker routes through the same per-block
// session, whose blocks cross-block priority edges may have joined.
// It must be thread-count invariant.
TEST(ParallelDiffCcpTest, CrossConflictIdentical) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 40503 + 9);
    Schema schema = RandomSchema(&rng);
    RandomProblemOptions opts;
    opts.facts_per_relation = 5 + rng.NextBounded(4);
    opts.domain_size = 2 + rng.NextBounded(3);
    opts.priority_density = 0.3 + 0.5 * rng.NextDouble();
    opts.cross_priority_density = rng.NextBool(0.5) ? 0.5 : 0.0;
    opts.j_policy = static_cast<JPolicy>(rng.NextBounded(4));
    opts.seed = rng.Next();
    PreferredRepairProblem problem = GenerateRandomProblem(schema, opts);
    CheckerOptions copts;
    copts.mode = PriorityMode::kCrossConflict;
    auto run = [&](size_t threads) {
      ProblemContext ctx(*problem.instance, *problem.priority);
      ctx.set_parallelism(threads);
      RepairChecker checker(ctx, copts);
      auto outcome = checker.CheckGloballyOptimal(problem.j);
      std::ostringstream out;
      if (!outcome.ok()) {
        out << "status=" << outcome.status().ToString() << "\n";
      } else {
        AppendCheckResult(*problem.instance, outcome->result, &out);
        for (const std::string& step : outcome->route) {
          out << "route: " << step << "\n";
        }
      }
      return out.str();
    };
    const std::string serial = run(1);
    EXPECT_EQ(serial, run(8)) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace prefrep
