// Tests for the workload generators: structural invariants of the
// random problem generator (acyclicity, conflict-boundedness, J-policy
// guarantees, skew behaviour) across a seed sweep.

#include <gtest/gtest.h>

#include "cache/block_fingerprint.h"
#include "gen/categorical_workload.h"
#include "gen/edit_script.h"
#include "gen/hard_workloads.h"
#include "io/ops_format.h"
#include "gen/random_instance.h"
#include "model/context.h"
#include "repair/block_solver.h"
#include "repair/checker.h"
#include "repair/exhaustive.h"
#include "reductions/hard_schemas.h"
#include "repair/subinstance_ops.h"

namespace prefrep {
namespace {

class GeneratorInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratorInvariants, PriorityAlwaysValid) {
  RandomProblemOptions opts;
  opts.facts_per_relation = 25;
  opts.domain_size = 3;
  opts.priority_density = 0.8;
  opts.seed = GetParam();
  PreferredRepairProblem p =
      GenerateRandomProblem(HardSchemaS4(), opts);
  // Without cross density the priority is conflict-bounded and acyclic.
  EXPECT_TRUE(p.priority->Validate(PriorityMode::kConflictOnly).ok());

  opts.cross_priority_density = 0.8;
  PreferredRepairProblem ccp =
      GenerateRandomProblem(HardSchemaS4(), opts);
  EXPECT_TRUE(ccp.priority->Validate(PriorityMode::kCrossConflict).ok());
}

TEST_P(GeneratorInvariants, RepairPoliciesYieldRepairs) {
  for (JPolicy policy : {JPolicy::kRandomRepair, JPolicy::kLowPriorityRepair,
                         JPolicy::kHighPriorityRepair}) {
    RandomProblemOptions opts;
    opts.facts_per_relation = 20;
    opts.domain_size = 3;
    opts.j_policy = policy;
    opts.seed = GetParam() * 7 + 1;
    PreferredRepairProblem p =
        GenerateRandomProblem(HardSchemaS2(), opts);
    ConflictGraph cg(*p.instance);
    EXPECT_TRUE(IsRepair(cg, p.j));
  }
}

TEST_P(GeneratorInvariants, SubsetPolicyYieldsConsistentSubset) {
  RandomProblemOptions opts;
  opts.facts_per_relation = 20;
  opts.domain_size = 3;
  opts.j_policy = JPolicy::kRandomConsistentSubset;
  opts.seed = GetParam() * 13 + 5;
  PreferredRepairProblem p = GenerateRandomProblem(HardSchemaS2(), opts);
  EXPECT_TRUE(IsConsistent(*p.instance, p.j));
}

TEST_P(GeneratorInvariants, DeterministicForFixedSeed) {
  RandomProblemOptions opts;
  opts.facts_per_relation = 15;
  opts.seed = GetParam();
  PreferredRepairProblem a = GenerateRandomProblem(HardSchemaS5(), opts);
  PreferredRepairProblem b = GenerateRandomProblem(HardSchemaS5(), opts);
  EXPECT_EQ(a.instance->num_facts(), b.instance->num_facts());
  EXPECT_EQ(a.priority->edges(), b.priority->edges());
  EXPECT_EQ(a.j, b.j);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorInvariants,
                         ::testing::Range<uint64_t>(1, 16));

TEST(GeneratorTest, DomainSizeControlsConflicts) {
  Schema schema = Schema::SingleRelation("R", 2, {FD(AttrSet{1}, AttrSet{2})});
  RandomProblemOptions small_domain;
  small_domain.facts_per_relation = 40;
  small_domain.domain_size = 4;
  small_domain.seed = 3;
  RandomProblemOptions big_domain = small_domain;
  big_domain.domain_size = 40;
  PreferredRepairProblem pd = GenerateRandomProblem(schema, small_domain);
  PreferredRepairProblem ps = GenerateRandomProblem(schema, big_domain);
  ConflictGraph dense(*pd.instance);
  ConflictGraph sparse(*ps.instance);
  // Small domains dedupe more tuples, so compare conflict *rates*
  // (edges per fact pair) rather than raw counts.
  auto rate = [](const ConflictGraph& cg) {
    size_t n = cg.num_facts();
    return n < 2 ? 0.0
                 : static_cast<double>(cg.num_edges()) * 2.0 /
                       (static_cast<double>(n) * (n - 1));
  };
  EXPECT_GT(rate(dense), 2.0 * rate(sparse));
}

TEST(GeneratorTest, PriorityDensityControlsEdges) {
  Schema schema = Schema::SingleRelation("R", 2, {FD(AttrSet{1}, AttrSet{2})});
  RandomProblemOptions none;
  none.facts_per_relation = 40;
  none.domain_size = 3;
  none.priority_density = 0.0;
  none.seed = 5;
  RandomProblemOptions full = none;
  full.priority_density = 1.0;
  PreferredRepairProblem p0 = GenerateRandomProblem(schema, none);
  PreferredRepairProblem p1 = GenerateRandomProblem(schema, full);
  EXPECT_EQ(p0.priority->num_edges(), 0u);
  ConflictGraph cg(*p1.instance);
  EXPECT_EQ(p1.priority->num_edges(), cg.num_edges());
}

TEST(ShardedWorkloadTest, DecomposesIntoOneBlockPerShard) {
  for (size_t shards : {size_t{1}, size_t{3}, size_t{8}}) {
    PreferredRepairProblem p = MakeHardShardedWorkload(shards, 4, 3);
    ProblemContext ctx(*p.instance, *p.priority);
    EXPECT_EQ(ctx.blocks().num_blocks(), shards);
    for (const Block& b : ctx.blocks().blocks()) {
      EXPECT_EQ(b.size(), 4u * 3u);
    }
    EXPECT_FALSE(ctx.blocks().free_facts().any());
  }
}

TEST(ShardedWorkloadTest, DefaultShardsShareOneCanonicalFingerprint) {
  PreferredRepairProblem p = MakeHardShardedWorkload(8, 4, 4);
  ProblemContext ctx(*p.instance, *p.priority);
  ASSERT_EQ(ctx.blocks().num_blocks(), 8u);
  const BlockFingerprint first =
      ComputeBlockFingerprint(ctx, ctx.blocks().blocks().front());
  for (const Block& b : ctx.blocks().blocks()) {
    EXPECT_EQ(ComputeBlockFingerprint(ctx, b), first)
        << "shard block #" << b.id
        << " should be a constant-renamed copy of shard 0";
  }
}

TEST(ShardedWorkloadTest, DistinctBlocksKnobMakesFingerprintsPairwiseDistinct) {
  PreferredRepairProblem p =
      MakeHardShardedWorkload(8, 4, 4, /*distinct_blocks=*/true);
  ProblemContext ctx(*p.instance, *p.priority);
  ASSERT_EQ(ctx.blocks().num_blocks(), 8u);
  std::vector<BlockFingerprint> fps;
  for (const Block& b : ctx.blocks().blocks()) {
    fps.push_back(ComputeBlockFingerprint(ctx, b));
  }
  for (size_t a = 0; a < fps.size(); ++a) {
    for (size_t b = a + 1; b < fps.size(); ++b) {
      EXPECT_NE(fps[a], fps[b]) << "shards " << a << " and " << b
                                << " should differ in priority structure";
    }
  }
}

TEST(ShardedWorkloadTest, DistinctBlocksKeepsJOptimalAndShapeIdentical) {
  PreferredRepairProblem same = MakeHardShardedWorkload(4, 3, 3);
  PreferredRepairProblem distinct =
      MakeHardShardedWorkload(4, 3, 3, /*distinct_blocks=*/true);
  // Same facts, same conflict structure, same J — only priority edges
  // are dropped, so the repair space (and the exhaustive cost) match.
  EXPECT_EQ(same.instance->num_facts(), distinct.instance->num_facts());
  EXPECT_EQ(same.j, distinct.j);
  EXPECT_LT(distinct.priority->num_edges(), same.priority->num_edges());
  ProblemContext ctx(*distinct.instance, *distinct.priority);
  RepairChecker checker(ctx);
  auto outcome = checker.CheckGloballyOptimal(distinct.j);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->result.optimal);
}

TEST(EditScriptTest, BaseInstanceIsOneBlockPerShard) {
  EditScriptOptions opts;
  opts.shards = 5;
  opts.facts_per_shard = 4;
  EditScriptWorkload w = MakeEditScriptWorkload(opts);
  ProblemContext ctx(*w.problem.instance, *w.problem.priority);
  ASSERT_EQ(ctx.blocks().num_blocks(), opts.shards);
  for (const Block& b : ctx.blocks().blocks()) {
    EXPECT_EQ(b.fact_list.size(), opts.facts_per_shard);
  }
  EXPECT_TRUE(w.problem.priority->Validate(PriorityMode::kConflictOnly).ok());
  EXPECT_EQ(w.problem.j.count(), opts.shards);
}

TEST(EditScriptTest, EveryGeneratedLineParses) {
  EditScriptOptions opts;
  opts.num_ops = 200;
  opts.seed = 3;
  EditScriptWorkload w = MakeEditScriptWorkload(opts);
  EXPECT_EQ(w.ops.size(), opts.num_ops);
  size_t edits = 0;
  size_t queries = 0;
  for (const std::string& line : w.ops) {
    Result<SessionOp> op = ParseSessionOp(line);
    ASSERT_TRUE(op.ok()) << line << ": " << op.status().ToString();
    switch (op->kind) {
      case SessionOp::Kind::kInsert:
      case SessionOp::Kind::kDelete:
      case SessionOp::Kind::kPrefer:
        ++edits;
        break;
      case SessionOp::Kind::kCheck:
      case SessionOp::Kind::kCount:
      case SessionOp::Kind::kConstruct:
      case SessionOp::Kind::kCqa:
        ++queries;
        break;
      default:
        break;
    }
  }
  // The mix respects query_fraction loosely (it is a coin, not a quota).
  EXPECT_GT(edits, queries);
  EXPECT_GT(queries, 0u);
}

TEST(EditScriptTest, ZipfSkewConcentratesEditsOnHotShards) {
  EditScriptOptions opts;
  opts.shards = 8;
  opts.num_ops = 300;
  opts.shard_skew = 2.0;
  opts.query_fraction = 0.0;
  opts.jset_every = 0;
  opts.seed = 17;
  EditScriptWorkload w = MakeEditScriptWorkload(opts);
  // Fresh inserts carry their shard in the first constant: R(s<k>, ...).
  size_t hot = 0;
  size_t cold = 0;
  for (const std::string& line : w.ops) {
    if (line.find("R(s0,") != std::string::npos) {
      ++hot;
    }
    if (line.find("R(s7,") != std::string::npos) {
      ++cold;
    }
  }
  EXPECT_GT(hot, cold);
}

TEST(EditScriptTest, DeterministicGivenSeed) {
  EditScriptOptions opts;
  opts.num_ops = 64;
  opts.seed = 9;
  EXPECT_EQ(MakeEditScriptWorkload(opts).ops, MakeEditScriptWorkload(opts).ops);
  EditScriptOptions other = opts;
  other.seed = 10;
  EXPECT_NE(MakeEditScriptWorkload(other).ops,
            MakeEditScriptWorkload(opts).ops);
}

TEST(ShardedWorkloadTest, JIsGloballyOptimalAtEveryThreadCount) {
  PreferredRepairProblem p = MakeHardShardedWorkload(4, 3, 3);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ProblemContext ctx(*p.instance, *p.priority);
    ctx.set_parallelism(threads);
    RepairChecker checker(ctx);
    auto outcome = checker.CheckGloballyOptimal(p.j);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(outcome->result.optimal) << "threads=" << threads;
  }
}

TEST(CategoricalWorkloadTest, StructureAndPriorityShape) {
  CategoricalWorkloadOptions opts;
  opts.blocks = 3;
  opts.cliques = 3;
  opts.clique_size = 4;
  PreferredRepairProblem p = MakeCategoricalWorkload(opts);
  EXPECT_TRUE(p.priority->Validate(PriorityMode::kConflictOnly).ok());
  EXPECT_TRUE(p.priority->IsConflictBounded());
  ProblemContext ctx(*p.instance, *p.priority);
  ASSERT_EQ(ctx.blocks().num_blocks(), opts.blocks);
  // Total on conflicts: every conflict edge carries a priority edge,
  // lower id preferred.
  const ConflictGraph& cg = ctx.conflict_graph();
  for (FactId u = 0; u < cg.num_facts(); ++u) {
    for (FactId v : cg.neighbors(u)) {
      if (u < v) {
        EXPECT_TRUE(p.priority->Prefers(u, v));
        EXPECT_FALSE(p.priority->Prefers(v, u));
      }
    }
  }
  // J is a repair, and the unique optimal one under every semantics.
  EXPECT_TRUE(IsRepair(cg, p.j));
  for (RepairSemantics sem :
       {RepairSemantics::kGlobal, RepairSemantics::kPareto,
        RepairSemantics::kCompletion}) {
    std::vector<DynamicBitset> optimal = AllOptimalRepairs(ctx, sem);
    ASSERT_EQ(optimal.size(), 1u) << "sem " << static_cast<int>(sem);
    EXPECT_EQ(optimal.front(), p.j);
  }
}

TEST(CategoricalWorkloadTest, NearMissBreaksExactlyOneBlock) {
  CategoricalWorkloadOptions opts;
  opts.blocks = 3;
  opts.near_miss = true;
  PreferredRepairProblem p = MakeCategoricalWorkload(opts);
  EXPECT_TRUE(p.priority->Validate(PriorityMode::kConflictOnly).ok());
  ProblemContext ctx(*p.instance, *p.priority);
  ASSERT_EQ(ctx.blocks().num_blocks(), opts.blocks);
  const ConflictGraph& cg = ctx.conflict_graph();
  // The stripped block still has its conflicts — hence its many
  // repairs — but no priority edge touches it, so ALL its block-repairs
  // are optimal and the instance has more than one optimal repair.
  const Block& last = ctx.blocks().block(opts.blocks - 1);
  for (FactId f : last.fact_list) {
    for (FactId g : cg.neighbors(f)) {
      EXPECT_FALSE(p.priority->Prefers(f, g));
    }
  }
  std::vector<DynamicBitset> last_optimal = OptimalRepairsWithin(
      cg, *p.priority, last.fact_list, RepairSemantics::kGlobal);
  EXPECT_GT(last_optimal.size(), 1u);
  // Every other block keeps its total priority and its unique optimum.
  for (size_t i = 0; i + 1 < ctx.blocks().num_blocks(); ++i) {
    std::vector<DynamicBitset> optimal =
        OptimalRepairsWithin(cg, *p.priority,
                             ctx.blocks().block(i).fact_list,
                             RepairSemantics::kGlobal);
    EXPECT_EQ(optimal.size(), 1u) << "block " << i;
  }
  EXPECT_TRUE(IsRepair(cg, p.j));
}

TEST(CategoricalWorkloadTest, DeterministicForFixedKnobs) {
  CategoricalWorkloadOptions opts;
  opts.blocks = 2;
  PreferredRepairProblem a = MakeCategoricalWorkload(opts);
  PreferredRepairProblem b = MakeCategoricalWorkload(opts);
  EXPECT_EQ(a.instance->num_facts(), b.instance->num_facts());
  EXPECT_EQ(a.priority->edges(), b.priority->edges());
  EXPECT_EQ(a.j, b.j);
}

}  // namespace
}  // namespace prefrep
