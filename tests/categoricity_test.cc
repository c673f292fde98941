// The categoricity fast path's proof of equivalence: a differential
// battery pitting the pre-pass CQA route against the forced enumeration
// route (byte-identical answers required, across serial/parallel ×
// cache on/off × governed/ungoverned), a definitional cross-check of
// the per-block decision against exhaustively enumerated optimal
// block-repairs on every block of at most 12 facts, the fold's threads
// × block-solve cache × budget differential, and an audit death test
// proving the PREFREP_AUDIT hook really re-verifies verdicts at
// runtime.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/block_cache.h"
#include "classify/categoricity.h"
#include "gen/categorical_workload.h"
#include "gen/random_instance.h"
#include "gen/running_example.h"
#include "query/consistent_answers.h"
#include "repair/audit.h"
#include "repair/block_solver.h"
#include "repair/exhaustive.h"
#include "test_util.h"

namespace prefrep {
namespace {

using testing_util::ProblemSpec;

constexpr RepairSemantics kSemantics[] = {RepairSemantics::kGlobal,
                                          RepairSemantics::kPareto,
                                          RepairSemantics::kCompletion};

constexpr AnswerSemantics kAnswerSemantics[] = {AnswerSemantics::kGlobal,
                                                AnswerSemantics::kPareto,
                                                AnswerSemantics::kCompletion};

PreferredRepairProblem RandomProblem(uint64_t seed, double priority_density) {
  Schema schema = Schema::SingleRelation(
      "R", 2, {FD(AttrSet{1}, AttrSet{2})});
  RandomProblemOptions opts;
  opts.facts_per_relation = 10;
  opts.domain_size = 3;
  opts.priority_density = priority_density;
  opts.seed = seed;
  return GenerateRandomProblem(schema, opts);
}

// One battery configuration: thread count, cache, budget.
struct Config {
  size_t threads = 1;
  bool cache = false;
  ResourceBudget budget;
  std::string name;
};

std::vector<Config> Configs() {
  std::vector<Config> out;
  ResourceBudget unlimited;
  ResourceBudget governed;
  governed.max_nodes = 200000;  // generous: fires only on pathologies
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (bool cache : {false, true}) {
      for (bool armed : {false, true}) {
        Config c;
        c.threads = threads;
        c.cache = cache;
        c.budget = armed ? governed : unlimited;
        c.name = "threads=" + std::to_string(threads) +
                 " cache=" + std::to_string(cache) +
                 " governed=" + std::to_string(armed);
        out.push_back(c);
      }
    }
  }
  return out;
}

// Runs one CQA query both ways under `config` and requires the results
// to match byte for byte (answers, Trileans and statuses alike).  Each
// route gets its own fresh governor so neither can starve the other.
void ExpectPathsAgree(const PreferredRepairProblem& p,
                      const ConjunctiveQuery& query, const Config& config,
                      const std::string& what) {
  std::optional<BlockSolveCache> cache;
  if (config.cache) {
    cache.emplace(256);
  }
  for (AnswerSemantics sem : kAnswerSemantics) {
    auto run = [&](bool force) {
      ProblemContext ctx(*p.instance, *p.priority);
      ctx.set_parallelism(config.threads);
      if (cache.has_value()) {
        ctx.set_block_cache(&*cache);
      }
      ResourceGovernor governor(config.budget);
      if (!config.budget.Unlimited()) {
        ctx.set_governor(&governor);
      }
      CqaOptions options;
      options.force_enumeration = force;
      return ConsistentAnswersBounded(ctx, query, sem, options);
    };
    auto fast = run(false);
    auto slow = run(true);
    const std::string label =
        what + " " + config.name + " sem=" + std::to_string(int(sem));
    ASSERT_EQ(fast.ok(), slow.ok()) << label;
    if (fast.ok()) {
      EXPECT_EQ(*fast, *slow) << label;
    } else {
      EXPECT_EQ(fast.status().code(), slow.status().code()) << label;
    }
    // Boolean probes must agree too (certain and possible).
    auto run_bool = [&](bool force, bool certain) {
      ProblemContext ctx(*p.instance, *p.priority);
      ctx.set_parallelism(config.threads);
      if (cache.has_value()) {
        ctx.set_block_cache(&*cache);
      }
      ResourceGovernor governor(config.budget);
      if (!config.budget.Unlimited()) {
        ctx.set_governor(&governor);
      }
      CqaOptions options;
      options.force_enumeration = force;
      return certain
                 ? CertainlyTrueBounded(ctx, query, sem, options)
                 : PossiblyTrueBounded(ctx, query, sem, options);
    };
    EXPECT_EQ(run_bool(false, true), run_bool(true, true)) << label;
    EXPECT_EQ(run_bool(false, false), run_bool(true, false)) << label;
  }
}

TEST(CategoricityDecisionTest, CategoricalWorkloadIsCertified) {
  CategoricalWorkloadOptions opts;
  opts.blocks = 3;
  PreferredRepairProblem p = MakeCategoricalWorkload(opts);
  ProblemContext ctx(*p.instance, *p.priority);
  for (RepairSemantics sem : kSemantics) {
    CategoricityResult result = DecideCategoricity(ctx, sem);
    ASSERT_EQ(result.verdict, Categoricity::kCategorical)
        << result.unknown_reason;
    // The generator's greedy-by-id J is the unique optimal repair.
    EXPECT_EQ(result.repair, p.j);
  }
}

TEST(CategoricityDecisionTest, NearMissBreaksExactlyTheLastBlock) {
  CategoricalWorkloadOptions opts;
  opts.blocks = 3;
  opts.near_miss = true;
  PreferredRepairProblem p = MakeCategoricalWorkload(opts);
  ProblemContext ctx(*p.instance, *p.priority);
  for (RepairSemantics sem : kSemantics) {
    CategoricityResult result = DecideCategoricity(ctx, sem);
    EXPECT_EQ(result.verdict, Categoricity::kAmbiguous);
    EXPECT_EQ(result.ambiguous_block, ctx.blocks().num_blocks() - 1);
  }
  // Block-level: every block but the last is unique, the last is not.
  for (size_t i = 0; i < ctx.blocks().num_blocks(); ++i) {
    BlockCategoricity bc =
        DecideBlockCategoricity(ctx, ctx.blocks().block(i),
                                RepairSemantics::kGlobal);
    if (i + 1 < ctx.blocks().num_blocks()) {
      EXPECT_EQ(bc.unique, Trilean::kTrue) << "block " << i;
      EXPECT_FALSE(bc.exponential) << "block " << i;
    } else {
      EXPECT_EQ(bc.unique, Trilean::kFalse) << "block " << i;
      // The stripped block has no priority edges at all, which the
      // polynomial ambiguity tier refutes without enumeration.
      EXPECT_FALSE(bc.exponential) << "block " << i;
    }
  }
}

TEST(CategoricityDecisionTest, CrossBlockPriorityIsUnknownWithoutWork) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  // Two separate blocks; priority crosses them.
  spec.facts = {"a1: k, v1", "a2: k, v2", "b1: m, w1", "b2: m, w2"};
  spec.priorities = {"a1 > b1"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  ProblemContext ctx(*p.instance, *p.priority);
  ASSERT_FALSE(ctx.priority_block_local());
  CategoricityResult result =
      DecideCategoricity(ctx, RepairSemantics::kGlobal);
  EXPECT_EQ(result.verdict, Categoricity::kUnknown);
  EXPECT_FALSE(result.unknown_reason.empty());
}

// (b) of the battery: the per-block decision agrees with the
// definitional check — enumerate the block's optimal block-repairs and
// test |set| == 1 — on every block of at most 12 facts, across
// handcrafted, generated and random instances.
TEST(CategoricityDefinitionalTest, AgreesWithExhaustiveEnumeration) {
  std::vector<PreferredRepairProblem> problems;
  problems.push_back(RunningExampleProblem());
  {
    CategoricalWorkloadOptions opts;
    opts.blocks = 2;
    problems.push_back(MakeCategoricalWorkload(opts));
    opts.near_miss = true;
    problems.push_back(MakeCategoricalWorkload(opts));
  }
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    problems.push_back(RandomProblem(seed, 0.3));
    problems.push_back(RandomProblem(seed + 100, 0.9));
  }
  size_t blocks_checked = 0;
  for (size_t pi = 0; pi < problems.size(); ++pi) {
    const PreferredRepairProblem& p = problems[pi];
    ProblemContext ctx(*p.instance, *p.priority);
    const ConflictGraph& cg = ctx.conflict_graph();
    for (size_t i = 0; i < ctx.blocks().num_blocks(); ++i) {
      const Block& b = ctx.blocks().block(i);
      if (b.size() > 12) {
        continue;
      }
      ++blocks_checked;
      for (RepairSemantics sem : kSemantics) {
        BlockCategoricity bc = DecideBlockCategoricity(ctx, b, sem);
        std::vector<DynamicBitset> optimal =
            OptimalRepairsWithin(cg, *p.priority, b.fact_list, sem);
        ASSERT_NE(bc.unique, Trilean::kUnknown)
            << "ungoverned small block must decide (problem " << pi
            << " block " << i << ")";
        EXPECT_EQ(bc.unique == Trilean::kTrue, optimal.size() == 1)
            << "problem " << pi << " block " << i << " sem " << int(sem);
        if (bc.unique == Trilean::kTrue) {
          ASSERT_EQ(optimal.size(), 1u);
          DynamicBitset repair(cg.num_facts());
          OrBlockMask(b, bc.repair, &repair);
          EXPECT_EQ(repair, optimal.front())
              << "problem " << pi << " block " << i;
        }
      }
    }
    // Whole-instance verdict against full optimal-repair enumeration
    // (block-local priorities only — the others are kUnknown by
    // contract, which asserts nothing).
    if (!ctx.priority_block_local() || p.instance->num_facts() > 14) {
      continue;
    }
    for (RepairSemantics sem : kSemantics) {
      CategoricityResult result = DecideCategoricity(ctx, sem);
      ASSERT_NE(result.verdict, Categoricity::kUnknown);
      std::vector<DynamicBitset> all = AllOptimalRepairs(ctx, sem);
      EXPECT_EQ(result.verdict == Categoricity::kCategorical,
                all.size() == 1)
          << "problem " << pi << " sem " << int(sem);
      if (result.verdict == Categoricity::kCategorical) {
        EXPECT_EQ(result.repair, all.front()) << "problem " << pi;
      }
    }
  }
  EXPECT_GE(blocks_checked, 10u) << "battery lost its coverage";
}

// (a) of the battery: byte-identical CQA answers with the pre-pass on
// and off, on categorical, near-miss and random instances, across
// serial/parallel × cache on/off × governed/ungoverned.
TEST(CategoricityDifferentialTest, FastAndEnumerationPathsAgree) {
  auto q_full = ConjunctiveQuery::Parse("Q(x, y, z) :- R1(x, y, z)");
  ASSERT_TRUE(q_full.ok());
  auto q_bool = ConjunctiveQuery::Parse("Q() :- R1(x, y, z)");
  ASSERT_TRUE(q_bool.ok());
  for (bool near_miss : {false, true}) {
    CategoricalWorkloadOptions opts;
    opts.blocks = 2;
    opts.near_miss = near_miss;
    PreferredRepairProblem p = MakeCategoricalWorkload(opts);
    for (const Config& config : Configs()) {
      ExpectPathsAgree(p, *q_full, config,
                       near_miss ? "near-miss" : "categorical");
      ExpectPathsAgree(p, *q_bool, config,
                       near_miss ? "near-miss-bool" : "categorical-bool");
    }
  }
  auto q_rand = ConjunctiveQuery::Parse("Q(x) :- R(x, y)");
  ASSERT_TRUE(q_rand.ok());
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    PreferredRepairProblem p = RandomProblem(seed, 0.6);
    for (const Config& config : Configs()) {
      ExpectPathsAgree(p, *q_rand, config,
                       "random seed=" + std::to_string(seed));
    }
  }
}

// Starved budgets on a categorical instance: the pre-pass costs a
// handful of checkpoints, the enumeration thousands, so between the two
// there is a band of budgets where only the fast route completes — the
// point of the fast path.  The invariants are (1) the fast route never
// reports worse than the forced one, (2) any answer it does produce
// equals the ungoverned ground truth, and (3) when the fast route also
// fails (budget too tight even for the pre-pass), it fails
// byte-identically to the forced route, because the pre-pass's private
// governor leaves the caller's untouched.
TEST(CategoricityDifferentialTest, StarvedBudgetNeverDegradesWorse) {
  CategoricalWorkloadOptions opts;
  opts.blocks = 2;
  PreferredRepairProblem p = MakeCategoricalWorkload(opts);
  auto query = ConjunctiveQuery::Parse("Q(x, y, z) :- R1(x, y, z)");
  ASSERT_TRUE(query.ok());
  for (AnswerSemantics sem : kAnswerSemantics) {
    auto truth = [&] {
      ProblemContext ctx(*p.instance, *p.priority);
      CqaOptions options;
      options.force_enumeration = true;
      return ConsistentAnswersBounded(ctx, *query, sem, options);
    }();
    ASSERT_TRUE(truth.ok());
    for (uint64_t max_nodes : {uint64_t{1}, uint64_t{5}, uint64_t{25}}) {
      auto run = [&](bool force) {
        ProblemContext ctx(*p.instance, *p.priority);
        ResourceBudget budget;
        budget.max_nodes = max_nodes;
        ResourceGovernor governor(budget);
        ctx.set_governor(&governor);
        CqaOptions options;
        options.force_enumeration = force;
        return ConsistentAnswersBounded(ctx, *query, sem, options);
      };
      auto fast = run(false);
      auto slow = run(true);
      const std::string label = "nodes=" + std::to_string(max_nodes) +
                                " sem=" + std::to_string(int(sem));
      if (fast.ok()) {
        EXPECT_EQ(*fast, *truth) << label;  // never a wrong answer
      } else {
        // Identical degradation: the pre-pass left the caller's
        // governor untouched, so the fallback is the seed path.
        ASSERT_FALSE(slow.ok()) << label;
        EXPECT_EQ(fast.status().code(), slow.status().code()) << label;
      }
      EXPECT_TRUE(fast.ok() || !slow.ok())
          << label << ": the fast route reported worse than the forced one";
    }
  }
}

// Block-admission starvation is the one asymmetry, and it is one-sided
// by design: the enumeration path must dive into each block (refused at
// max_block), while the tier-1 categoricity decision is polynomial — no
// dive, nothing to refuse.  The fast route may therefore ANSWER where
// the seed route reports unknown; when it does, its answer must equal
// the ungoverned ground truth.  It must never report a worse or
// different answer.
TEST(CategoricityDifferentialTest, BlockStarvationDegradesNoWorse) {
  CategoricalWorkloadOptions opts;
  opts.blocks = 2;
  PreferredRepairProblem p = MakeCategoricalWorkload(opts);
  auto query = ConjunctiveQuery::Parse("Q(x, y, z) :- R1(x, y, z)");
  ASSERT_TRUE(query.ok());
  ResourceBudget tiny;
  tiny.max_block = 2;
  auto run = [&](bool force, bool governed) {
    ProblemContext ctx(*p.instance, *p.priority);
    ResourceGovernor governor(tiny);
    if (governed) {
      ctx.set_governor(&governor);
    }
    CqaOptions options;
    options.force_enumeration = force;
    return ConsistentAnswersBounded(ctx, *query, AnswerSemantics::kGlobal,
                                    options);
  };
  auto truth = run(/*force=*/true, /*governed=*/false);
  ASSERT_TRUE(truth.ok());
  auto slow = run(/*force=*/true, /*governed=*/true);
  EXPECT_FALSE(slow.ok()) << "max_block=2 must refuse the enumeration";
  auto fast = run(/*force=*/false, /*governed=*/true);
  ASSERT_TRUE(fast.ok())
      << "the polynomial pre-pass is not subject to block admission";
  EXPECT_EQ(*fast, *truth);
}

TEST(CategoricityPathTest, PathReportsWhichRouteRan) {
  CategoricalWorkloadOptions opts;
  opts.blocks = 2;
  PreferredRepairProblem p = MakeCategoricalWorkload(opts);
  auto query = ConjunctiveQuery::Parse("Q() :- R1(x, y, z)");
  ASSERT_TRUE(query.ok());
  ProblemContext ctx(*p.instance, *p.priority);
  CqaPath path = CqaPath::kEnumeration;
  CqaOptions options;
  options.path = &path;
  (void)CertainlyTrueBounded(ctx, *query, AnswerSemantics::kGlobal, options);
  EXPECT_EQ(path, CqaPath::kCategorical);
  options.force_enumeration = true;
  (void)CertainlyTrueBounded(ctx, *query, AnswerSemantics::kGlobal, options);
  EXPECT_EQ(path, CqaPath::kEnumeration);
  options.force_enumeration = false;
  // kAllRepairs never takes the pre-pass.
  (void)CertainlyTrueBounded(ctx, *query, AnswerSemantics::kAllRepairs,
                             options);
  EXPECT_EQ(path, CqaPath::kEnumeration);
  // Near-miss: ambiguous, so the fast route declines.
  opts.near_miss = true;
  PreferredRepairProblem miss = MakeCategoricalWorkload(opts);
  ProblemContext miss_ctx(*miss.instance, *miss.priority);
  (void)CertainlyTrueBounded(miss_ctx, *query, AnswerSemantics::kGlobal,
                             options);
  EXPECT_EQ(path, CqaPath::kEnumeration);
  EXPECT_STREQ(CqaPathName(CqaPath::kCategorical), "categorical");
  EXPECT_STREQ(CqaPathName(CqaPath::kEnumeration), "enumeration");
}

// ---- The fold differential ------------------------------------------

// One DecideCategoricity call under a budget: its result and the nodes
// its governor spent.
struct FoldRun {
  CategoricityResult result;
  uint64_t nodes = 0;
};

FoldRun RunFold(const PreferredRepairProblem& p, size_t threads,
                const ResourceBudget& budget, BlockSolveCache* cache) {
  ProblemContext ctx(*p.instance, *p.priority);
  ctx.set_parallelism(threads);
  ctx.set_block_cache(cache);
  ResourceGovernor governor(budget);
  if (!budget.Unlimited()) {
    ctx.set_governor(&governor);
  }
  FoldRun run;
  run.result = DecideCategoricity(ctx, RepairSemantics::kGlobal);
  run.nodes = governor.nodes_spent();
  return run;
}

// Shards of 3, 4, 5 and 6 mutually conflicting facts, each ordered by
// one prefer chain.  No block's priority is total, so every block
// reaches the exhaustive tier (block admission, node replay), and every
// block is categorical — the chain's head is its unique optimal
// block-repair — so the fold runs through all of them.
PreferredRepairProblem ChainWorkload() {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  for (int shard = 0; shard < 4; ++shard) {
    const std::string key = "s" + std::to_string(shard);
    for (int i = 0; i < 3 + shard; ++i) {
      const std::string label = key + "f" + std::to_string(i);
      spec.facts.push_back(label + ": " + key + ", v" + std::to_string(i));
      if (i > 0) {
        spec.priorities.push_back(key + "f" + std::to_string(i - 1) + " > " +
                                  label);
      }
    }
  }
  return testing_util::MakeProblem(spec);
}

// Exact-tier optimal sets must replay only when a fresh solve under the
// requesting governor would also have completed: a node budget below
// the recorded cost must refuse the entry and re-decide, failing
// exactly as a cache-less run does.  The cache is warmed ungoverned, so
// its entries carry nodes_valid = false until a counted solve upgrades
// them.
TEST(CategoricityCacheTest, GovernedReplayMatchesFreshDecision) {
  PreferredRepairProblem p = ChainWorkload();
  BlockSolveCache cache(256);
  (void)RunFold(p, 1, ResourceBudget{}, &cache);
  ASSERT_GT(cache.stats().entries, 0u);
  for (uint64_t max_nodes : {uint64_t{1}, uint64_t{20}, uint64_t{100000}}) {
    ResourceBudget budget;
    budget.max_nodes = max_nodes;
    const FoldRun with_cache = RunFold(p, 1, budget, &cache);
    const FoldRun without = RunFold(p, 1, budget, nullptr);
    const std::string label = "max_nodes=" + std::to_string(max_nodes);
    EXPECT_EQ(with_cache.result.verdict, without.result.verdict) << label;
    EXPECT_EQ(with_cache.result.repair, without.result.repair) << label;
    EXPECT_EQ(with_cache.result.unknown_reason, without.result.unknown_reason)
        << label;
    EXPECT_EQ(with_cache.nodes, without.nodes) << label;
  }
}

// DecideCategoricity on the one per-block fold: at threads 1 and 8 a
// call leaves the same result and node count, and a block-solve cache
// changes neither the result nor the node count of a run without one.
// Cache modes: none; cold (empty); warm, as the cold run left it; and
// primed by a run under a generous counted budget, whose exhaustive-tier
// entries must re-pass admission and whose node counts must replay
// below the firing index.  The cache's own traffic depends on worker
// timing, so only the serial warm run's is pinned.
TEST(CategoricityFoldTest, ThreadsAndCacheChangeCostNotOutcome) {
  auto max_nodes = [](uint64_t n) {
    ResourceBudget budget;
    budget.max_nodes = n;
    return budget;
  };
  ResourceBudget max_block;
  max_block.max_block = 4;
  const std::vector<std::pair<std::string, ResourceBudget>> budgets = {
      {"unlimited", ResourceBudget{}},
      {"max_nodes=1", max_nodes(1)},
      {"max_nodes=20", max_nodes(20)},
      {"max_nodes=100000", max_nodes(100000)},
      {"max_block=4", max_block}};
  CategoricalWorkloadOptions near_miss;
  near_miss.near_miss = true;
  std::vector<std::pair<std::string, PreferredRepairProblem>> problems;
  problems.emplace_back("plain", MakeCategoricalWorkload({}));
  problems.emplace_back("near_miss", MakeCategoricalWorkload(near_miss));
  problems.emplace_back("chains", ChainWorkload());
  for (const auto& [problem_name, p] : problems) {
    for (const auto& [budget_name, budget] : budgets) {
      // none, cold, warm and primed at each thread count.
      std::vector<std::vector<FoldRun>> runs;
      for (size_t threads : {size_t{1}, size_t{8}}) {
        BlockSolveCache cache(256);
        std::vector<FoldRun> by_cache;
        by_cache.push_back(RunFold(p, threads, budget, nullptr));
        by_cache.push_back(RunFold(p, threads, budget, &cache));
        const uint64_t cold_misses = cache.stats().misses;
        by_cache.push_back(RunFold(p, threads, budget, &cache));
        if (budget.Unlimited() && threads == 1) {
          EXPECT_EQ(cache.stats().misses, cold_misses)
              << problem_name
              << ": a warm cache serves every exhaustive-tier block";
        }
        BlockSolveCache primed(256);
        (void)RunFold(p, threads, max_nodes(100000), &primed);
        by_cache.push_back(RunFold(p, threads, budget, &primed));
        runs.push_back(std::move(by_cache));
      }
      for (size_t m = 0; m < runs[0].size(); ++m) {
        const std::string label = problem_name + " " + budget_name +
                                  " cache=" + std::to_string(m);
        const FoldRun& serial = runs[0][m];
        const FoldRun& parallel = runs[1][m];
        EXPECT_EQ(serial.result.verdict, parallel.result.verdict) << label;
        EXPECT_EQ(serial.result.repair, parallel.result.repair) << label;
        EXPECT_EQ(serial.result.ambiguous_block,
                  parallel.result.ambiguous_block)
            << label;
        EXPECT_EQ(serial.result.unknown_reason, parallel.result.unknown_reason)
            << label;
        EXPECT_EQ(serial.nodes, parallel.nodes) << label;
        for (size_t t = 0; t < 2; ++t) {
          const FoldRun& bare = runs[t][0];
          const FoldRun& run = runs[t][m];
          EXPECT_EQ(run.result.verdict, bare.result.verdict) << label;
          EXPECT_EQ(run.result.repair, bare.result.repair) << label;
          EXPECT_EQ(run.result.ambiguous_block, bare.result.ambiguous_block)
              << label;
          EXPECT_EQ(run.result.unknown_reason, bare.result.unknown_reason)
              << label;
          EXPECT_EQ(run.nodes, bare.nodes) << label;
        }
      }
    }
  }
}

// (c) of the battery: with fault injection flipping a block verdict,
// the PREFREP_AUDIT hook must abort the process; without it, the same
// decision passes.  The workload is pure tier-1 (total priority), so
// the only audited verdict between the flip and the crash is the
// categoricity one.
TEST(CategoricityAuditDeathTest, ForcedWrongVerdictIsCaught) {
  if (!audit::Enabled()) {
    GTEST_SKIP() << "PREFREP_AUDIT is off; audit hooks compile to no-ops";
  }
  CategoricalWorkloadOptions opts;
  opts.blocks = 2;
  opts.cliques = 2;
  opts.clique_size = 3;  // 6-fact blocks: within kMaxVerdictBlock
  PreferredRepairProblem p = MakeCategoricalWorkload(opts);
  ProblemContext ctx(*p.instance, *p.priority);
  EXPECT_DEATH(
      {
        audit::internal::ForceWrongVerdictForTesting(true);
        (void)DecideCategoricity(ctx, RepairSemantics::kGlobal);
      },
      "audit");
  audit::internal::ForceWrongVerdictForTesting(false);
}

TEST(CategoricityAuditDeathTest, UnforcedVerdictPassesTheAudit) {
  if (!audit::Enabled()) {
    GTEST_SKIP() << "PREFREP_AUDIT is off; audit hooks compile to no-ops";
  }
  CategoricalWorkloadOptions opts;
  opts.blocks = 2;
  opts.cliques = 2;
  opts.clique_size = 3;
  PreferredRepairProblem p = MakeCategoricalWorkload(opts);
  ProblemContext ctx(*p.instance, *p.priority);
  CategoricityResult result =
      DecideCategoricity(ctx, RepairSemantics::kGlobal);
  EXPECT_EQ(result.verdict, Categoricity::kCategorical);
}

}  // namespace
}  // namespace prefrep
