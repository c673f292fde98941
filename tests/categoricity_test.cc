// The total-priority rule's proof of equivalence: a differential
// battery pitting the CQA route, whose per-block optimal sets use the
// rule, against a reference product built here from
// OptimalRepairsWithin, which never consults it (byte-identical answers
// required, across serial/parallel × cache on/off ×
// governed/ungoverned), a definitional cross-check of the per-block
// decision against exhaustively enumerated optimal block-repairs on
// every block of at most 12 facts, the fold's threads
// × block-solve cache × budget differential, and an audit death test
// proving the PREFREP_AUDIT hook really re-verifies verdicts at
// runtime.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
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

// The enumeration reference: {free facts} × ∏ per-block optimal
// block-repairs, each block's set from OptimalRepairsWithin, which
// never consults the total-priority rule.  Governed like the
// enumeration route: each block passes block admission, and the
// product charges one checkpoint per materialized repair.  nullopt
// when the budget abandoned it.
std::optional<std::vector<DynamicBitset>> ReferenceOptimalRepairs(
    const ProblemContext& ctx, RepairSemantics semantics) {
  ResourceGovernor& governor = ctx.governor();
  std::vector<DynamicBitset> out{ctx.blocks().free_facts()};
  for (const Block& b : ctx.blocks().blocks()) {
    if (!governor.AdmitBlock(b.size())) {
      return std::nullopt;
    }
    const std::vector<DynamicBitset> optimal = OptimalRepairsWithin(
        ctx.conflict_graph(), ctx.priority(), b.fact_list, semantics,
        governor);
    if (governor.exhausted()) {
      return std::nullopt;
    }
    std::vector<DynamicBitset> next;
    for (const DynamicBitset& prefix : out) {
      for (const DynamicBitset& choice : optimal) {
        if (!governor.Checkpoint()) {
          return std::nullopt;
        }
        next.push_back(prefix | choice);
      }
    }
    out = std::move(next);
  }
  return out;
}

// The consistent answers over the reference product.
Result<std::vector<ConjunctiveQuery::AnswerTuple>> ReferenceAnswers(
    const ProblemContext& ctx, const ConjunctiveQuery& query,
    AnswerSemantics semantics) {
  const std::optional<std::vector<DynamicBitset>> repairs =
      ReferenceOptimalRepairs(ctx, ToRepairSemantics(semantics));
  if (!repairs.has_value()) {
    return CqaUnknownStatus(ctx.governor());
  }
  std::vector<ConjunctiveQuery::AnswerTuple> out =
      query.Evaluate(ctx.instance(), repairs->front());
  for (const DynamicBitset& repair : *repairs) {
    std::vector<ConjunctiveQuery::AnswerTuple> next =
        query.Evaluate(ctx.instance(), repair);
    std::vector<ConjunctiveQuery::AnswerTuple> merged;
    std::set_intersection(out.begin(), out.end(), next.begin(), next.end(),
                          std::back_inserter(merged));
    out = std::move(merged);
  }
  return out;
}

// Certain (`certain`) or possible answer of a Boolean query over the
// reference product.
Trilean ReferenceBoolean(const ProblemContext& ctx,
                         const ConjunctiveQuery& query,
                         AnswerSemantics semantics, bool certain) {
  const std::optional<std::vector<DynamicBitset>> repairs =
      ReferenceOptimalRepairs(ctx, ToRepairSemantics(semantics));
  if (!repairs.has_value()) {
    return Trilean::kUnknown;
  }
  for (const DynamicBitset& repair : *repairs) {
    if (query.EvaluateBoolean(ctx.instance(), repair) != certain) {
      return certain ? Trilean::kFalse : Trilean::kTrue;
    }
  }
  return certain ? Trilean::kTrue : Trilean::kFalse;
}

// Applies `config` to a fresh context, installing `governor` when the
// budget is armed.
void Configure(const Config& config, std::optional<BlockSolveCache>& cache,
               ResourceGovernor& governor, ProblemContext& ctx) {
  ctx.set_parallelism(config.threads);
  if (cache.has_value()) {
    ctx.set_block_cache(&*cache);
  }
  if (!config.budget.Unlimited()) {
    ctx.set_governor(&governor);
  }
}

// Runs one CQA query through the library and through the reference
// under `config` and requires the results to match byte for byte
// (answers, Trileans and statuses alike).  Each side gets its own fresh
// governor so neither can starve the other; the reference runs serial
// and without a cache.
void ExpectPathsAgree(const PreferredRepairProblem& p,
                      const ConjunctiveQuery& query, const Config& config,
                      const std::string& what) {
  std::optional<BlockSolveCache> cache;
  if (config.cache) {
    cache.emplace(256);
  }
  std::optional<BlockSolveCache> no_cache;
  Config serial = config;
  serial.threads = 1;
  for (AnswerSemantics sem : kAnswerSemantics) {
    auto run = [&](bool reference) {
      ResourceGovernor governor(config.budget);
      ProblemContext ctx(*p.instance, *p.priority);
      Configure(reference ? serial : config, reference ? no_cache : cache,
                governor, ctx);
      return reference ? ReferenceAnswers(ctx, query, sem)
                       : ConsistentAnswersBounded(ctx, query, sem);
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
    auto run_bool = [&](bool reference, bool certain) {
      ResourceGovernor governor(config.budget);
      ProblemContext ctx(*p.instance, *p.priority);
      Configure(reference ? serial : config, reference ? no_cache : cache,
                governor, ctx);
      if (reference) {
        return ReferenceBoolean(ctx, query, sem, certain);
      }
      return certain ? CertainlyTrueBounded(ctx, query, sem)
                     : PossiblyTrueBounded(ctx, query, sem);
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

// A priority edge between two blocks joins them into one block, which
// categoricity decides like any other, in agreement with the
// whole-instance optimal repairs.
TEST(CategoricityDecisionTest, CrossBlockPriorityJoinsBlocks) {
  ProblemSpec spec;
  spec.arity = 2;
  spec.fds = {"1 -> 2"};
  // Two conflict blocks; a1 > b1 crosses them.  Nothing dominates a2 or
  // b2, so all four repairs are optimal.
  spec.facts = {"a1: k, v1", "a2: k, v2", "b1: m, w1", "b2: m, w2"};
  spec.priorities = {"a1 > b1"};
  for (bool ordered : {false, true}) {
    SCOPED_TRACE(ordered ? "ordered blocks" : "one cross edge");
    if (ordered) {
      // a1 > a2 and b1 > b2 leave {a1, b1} the one optimal repair.
      spec.priorities = {"a1 > b1", "a1 > a2", "b1 > b2"};
    }
    PreferredRepairProblem p = testing_util::MakeProblem(spec);
    ProblemContext ctx(*p.instance, *p.priority);
    ASSERT_EQ(ctx.blocks().num_blocks(), 1u);
    const ConflictGraph& cg = ctx.conflict_graph();
    const std::vector<DynamicBitset> reference =
        OptimalRepairsWithin(cg, *p.priority, AllFactIds(cg),
                             RepairSemantics::kGlobal);
    ASSERT_EQ(reference.size(), ordered ? 1u : 4u);
    CategoricityResult result =
        DecideCategoricity(ctx, RepairSemantics::kGlobal);
    if (ordered) {
      EXPECT_EQ(result.verdict, Categoricity::kCategorical);
      EXPECT_EQ(result.repair, reference.front());
      EXPECT_EQ(result.repair,
                testing_util::Sub(*p.instance, {"a1", "b1"}));
    } else {
      EXPECT_EQ(result.verdict, Categoricity::kAmbiguous);
      EXPECT_EQ(result.ambiguous_block, 0u);
    }
  }
}

// A cut-short optimal set that already holds two verified members
// proves its block ambiguous.  The block is a four-fact clique of a
// hard relation (FDs 1 -> 2 and 2 -> 3, so the exhaustive solver
// decides it) with one priority edge, a > b: its optimal block-repairs
// are {a}, {c} and {d}.  At max_nodes 9-13 the filter has verified one
// member, at 14-17 two, and from 18 on all three.
TEST(CategoricityDecisionTest, TwoVerifiedMembersAnswerAmbiguous) {
  ProblemSpec spec;
  spec.arity = 3;
  spec.fds = {"1 -> 2", "2 -> 3"};
  spec.facts = {"a: k, 1, x", "b: k, 2, x", "c: k, 3, x", "d: k, 4, x"};
  spec.priorities = {"a > b"};
  PreferredRepairProblem p = testing_util::MakeProblem(spec);
  for (uint64_t max_nodes = 9; max_nodes <= 18; ++max_nodes) {
    SCOPED_TRACE("max_nodes=" + std::to_string(max_nodes));
    ProblemContext ctx(*p.instance, *p.priority);
    ASSERT_EQ(ctx.blocks().num_blocks(), 1u);
    const Block& b = ctx.blocks().block(0);
    ResourceBudget budget;
    budget.max_nodes = max_nodes;
    ResourceGovernor set_governor(budget);
    ctx.set_governor(&set_governor);
    const OptimalBlockSet set = OptimalSetOf(ctx, b, RepairSemantics::kGlobal);
    EXPECT_EQ(set.complete, max_nodes >= 18);
    EXPECT_EQ(set.size(), max_nodes >= 18 ? 3u : max_nodes >= 14 ? 2u : 1u);
    ResourceGovernor governor(budget);
    ctx.set_governor(&governor);
    const BlockCategoricity c =
        DecideBlockCategoricity(ctx, b, RepairSemantics::kGlobal);
    EXPECT_EQ(c.unique,
              max_nodes >= 14 ? Trilean::kFalse : Trilean::kUnknown);
  }
  // The whole-instance decision spends one node on its block checkpoint
  // first, then answers ambiguous from the cut-short set.
  ProblemContext ctx(*p.instance, *p.priority);
  ResourceBudget budget;
  budget.max_nodes = 16;
  ResourceGovernor governor(budget);
  ctx.set_governor(&governor);
  const CategoricityResult result =
      DecideCategoricity(ctx, RepairSemantics::kGlobal);
  EXPECT_TRUE(governor.exhausted());
  EXPECT_EQ(result.verdict, Categoricity::kAmbiguous);
  EXPECT_EQ(result.ambiguous_block, 0u);
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
    // Whole-instance verdict against full optimal-repair enumeration.
    if (p.instance->num_facts() > 14) {
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

// (a) of the battery: byte-identical CQA answers from the library and
// from the reference product, on categorical, near-miss and random
// instances, across serial/parallel × cache on/off × governed/ungoverned.
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

// Starved budgets on a categorical instance: the total-priority rule
// costs one checkpoint per block (the product's), the reference's
// enumeration thousands, so between the two there is a band of budgets
// where only the library completes — the point of the rule.  The
// invariants are (1) the library never reports worse than the
// reference, (2) any answer it does produce equals the ungoverned
// ground truth, and (3) when it also fails (budget too tight even for
// the product), it fails with the reference's status code.
TEST(CategoricityDifferentialTest, StarvedBudgetNeverDegradesWorse) {
  CategoricalWorkloadOptions opts;
  opts.blocks = 2;
  PreferredRepairProblem p = MakeCategoricalWorkload(opts);
  auto query = ConjunctiveQuery::Parse("Q(x, y, z) :- R1(x, y, z)");
  ASSERT_TRUE(query.ok());
  for (AnswerSemantics sem : kAnswerSemantics) {
    auto truth = [&] {
      ProblemContext ctx(*p.instance, *p.priority);
      return ReferenceAnswers(ctx, *query, sem);
    }();
    ASSERT_TRUE(truth.ok());
    for (uint64_t max_nodes : {uint64_t{1}, uint64_t{5}, uint64_t{25}}) {
      auto run = [&](bool reference) {
        ProblemContext ctx(*p.instance, *p.priority);
        ResourceBudget budget;
        budget.max_nodes = max_nodes;
        ResourceGovernor governor(budget);
        ctx.set_governor(&governor);
        return reference ? ReferenceAnswers(ctx, *query, sem)
                         : ConsistentAnswersBounded(ctx, *query, sem);
      };
      auto fast = run(false);
      auto slow = run(true);
      const std::string label = "nodes=" + std::to_string(max_nodes) +
                                " sem=" + std::to_string(int(sem));
      if (fast.ok()) {
        EXPECT_EQ(*fast, *truth) << label;  // never a wrong answer
      } else {
        // The reference spends at least the library's nodes, so it
        // fails too, for the same reason.
        ASSERT_FALSE(slow.ok()) << label;
        EXPECT_EQ(fast.status().code(), slow.status().code()) << label;
      }
      EXPECT_TRUE(fast.ok() || !slow.ok())
          << label << ": the library reported worse than the reference";
    }
  }
}

// Block-admission starvation is the one asymmetry, and it is one-sided
// by design: the enumeration must dive into each block (refused at
// max_block), while the total-priority rule is polynomial — no dive,
// nothing to refuse.  The library may therefore ANSWER where the
// reference reports unknown; when it does, its answer must equal the
// ungoverned ground truth.  It must never report a worse or different
// answer.
TEST(CategoricityDifferentialTest, BlockStarvationDegradesNoWorse) {
  CategoricalWorkloadOptions opts;
  opts.blocks = 2;
  PreferredRepairProblem p = MakeCategoricalWorkload(opts);
  auto query = ConjunctiveQuery::Parse("Q(x, y, z) :- R1(x, y, z)");
  ASSERT_TRUE(query.ok());
  ResourceBudget tiny;
  tiny.max_block = 2;
  auto run = [&](bool reference, bool governed) {
    ProblemContext ctx(*p.instance, *p.priority);
    ResourceGovernor governor(tiny);
    if (governed) {
      ctx.set_governor(&governor);
    }
    return reference
               ? ReferenceAnswers(ctx, *query, AnswerSemantics::kGlobal)
               : ConsistentAnswersBounded(ctx, *query,
                                          AnswerSemantics::kGlobal);
  };
  auto truth = run(/*reference=*/true, /*governed=*/false);
  ASSERT_TRUE(truth.ok());
  auto slow = run(/*reference=*/true, /*governed=*/true);
  EXPECT_FALSE(slow.ok()) << "max_block=2 must refuse the enumeration";
  auto fast = run(/*reference=*/false, /*governed=*/true);
  ASSERT_TRUE(fast.ok())
      << "the total-priority rule is not subject to block admission";
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
  // The path names the set the reference enumerates: one repair here.
  EXPECT_EQ(ReferenceOptimalRepairs(ctx, RepairSemantics::kGlobal)->size(),
            1u);
  // kAllRepairs ranges over every repair.
  (void)CertainlyTrueBounded(ctx, *query, AnswerSemantics::kAllRepairs,
                             options);
  EXPECT_EQ(path, CqaPath::kEnumeration);
  // Near-miss: ambiguous, so the answer intersects several repairs.
  opts.near_miss = true;
  PreferredRepairProblem miss = MakeCategoricalWorkload(opts);
  ProblemContext miss_ctx(*miss.instance, *miss.priority);
  (void)CertainlyTrueBounded(miss_ctx, *query, AnswerSemantics::kGlobal,
                             options);
  EXPECT_EQ(path, CqaPath::kEnumeration);
  EXPECT_GT(
      ReferenceOptimalRepairs(miss_ctx, RepairSemantics::kGlobal)->size(),
      1u);
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
