// B7 — the cross-conflict tractable algorithms of Theorem 7.1: the
// primary-key graph algorithm (§7.2.1) and the constant-attribute
// partition enumeration (§7.2.2), swept over instance size and (for the
// latter) over the number of relations, which drives the polynomial's
// degree.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "conflicts/blocks.h"
#include "repair/ccp_constant_attr.h"
#include "repair/ccp_primary_key.h"

namespace prefrep {
namespace {

void BM_CcpPrimaryKey_Check(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::PrimaryKeySchema(), state.range(0),
      JPolicy::kHighPriorityRepair, /*seed=*/42, /*cross_density=*/0.5);
  ConflictGraph cg(*problem.instance);
  for (auto _ : state) {
    CheckResult r =
        CheckGlobalOptimalCcpPrimaryKey(cg, *problem.priority, problem.j);
    benchmark::DoNotOptimize(r.optimal);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CcpPrimaryKey_Check)->RangeMultiplier(2)->Range(16, 4096)
    ->Complexity();

void BM_CcpPrimaryKey_GraphBuild(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::PrimaryKeySchema(), state.range(0), JPolicy::kRandomRepair,
      /*seed=*/42, /*cross_density=*/0.5);
  ConflictGraph cg(*problem.instance);
  for (auto _ : state) {
    Digraph g = BuildCcpPrimaryKeyGraph(cg, *problem.priority, problem.j,
                                        AllFactIds(cg));
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_CcpPrimaryKey_GraphBuild)->RangeMultiplier(4)->Range(16, 4096);

void BM_CcpConstantAttr_Check(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      bench::ConstantAttrSchema(), state.range(0),
      JPolicy::kHighPriorityRepair, /*seed=*/42, /*cross_density=*/0.5);
  ConflictGraph cg(*problem.instance);
  for (auto _ : state) {
    CheckResult r = CheckGlobalOptimalCcpConstantAttr(cg, *problem.priority,
                                                      problem.j);
    benchmark::DoNotOptimize(r.optimal);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CcpConstantAttr_Check)->RangeMultiplier(2)->Range(16, 1024)
    ->Complexity();

// The repair count under a constant-attribute assignment is
// ∏_R #partitions(R): polynomial in the data for a fixed schema, but of
// degree = #relations.  Sweep the relation count at fixed facts/relation.
void BM_CcpConstantAttr_RelationSweep(benchmark::State& state) {
  Schema schema;
  for (int64_t r = 0; r < state.range(0); ++r) {
    RelId rel = schema.MustAddRelation("R" + std::to_string(r), 2);
    schema.MustAddFd(rel, FD(AttrSet(), AttrSet{1}));
  }
  RandomProblemOptions opts;
  opts.facts_per_relation = 8;
  opts.domain_size = 4;
  opts.cross_priority_density = 0.3;
  opts.j_policy = JPolicy::kHighPriorityRepair;
  opts.seed = 17;
  PreferredRepairProblem problem = GenerateRandomProblem(schema, opts);
  ConflictGraph cg(*problem.instance);
  for (auto _ : state) {
    CheckResult r = CheckGlobalOptimalCcpConstantAttr(cg, *problem.priority,
                                                      problem.j);
    benchmark::DoNotOptimize(r.optimal);
  }
}
BENCHMARK(BM_CcpConstantAttr_RelationSweep)->DenseRange(1, 5, 1);

}  // namespace
}  // namespace prefrep

BENCHMARK_MAIN();
