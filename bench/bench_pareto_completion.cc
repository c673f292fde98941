// B3 — the two PTIME-for-every-schema checks: Pareto-optimal repair
// checking [SCM] and completion-optimal repair checking, swept over
// instance size on a hard schema (S4 = {1→2, 2→3}) to stress that their
// cost does not depend on the dichotomy side.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "repair/completion.h"
#include "repair/construct.h"
#include "repair/pareto.h"

namespace prefrep {
namespace {

Schema S4() {
  return Schema::SingleRelation(
      "R", 3, {FD(AttrSet{1}, AttrSet{2}), FD(AttrSet{2}, AttrSet{3})});
}

void BM_Pareto_OptimalJ(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      S4(), state.range(0), JPolicy::kHighPriorityRepair);
  ConflictGraph cg(*problem.instance);
  for (auto _ : state) {
    CheckResult r = CheckParetoOptimal(cg, *problem.priority, problem.j);
    benchmark::DoNotOptimize(r.optimal);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Pareto_OptimalJ)->RangeMultiplier(2)->Range(16, 4096)
    ->Complexity();

void BM_Pareto_ImprovableJ(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      S4(), state.range(0), JPolicy::kLowPriorityRepair);
  ConflictGraph cg(*problem.instance);
  for (auto _ : state) {
    CheckResult r = CheckParetoOptimal(cg, *problem.priority, problem.j);
    benchmark::DoNotOptimize(r.optimal);
  }
}
BENCHMARK(BM_Pareto_ImprovableJ)->RangeMultiplier(2)->Range(16, 4096);

void BM_Completion_Check(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      S4(), state.range(0), JPolicy::kHighPriorityRepair);
  ConflictGraph cg(*problem.instance);
  for (auto _ : state) {
    CheckResult r = CheckCompletionOptimal(cg, *problem.priority, problem.j,
                                           AllFactIds(cg));
    benchmark::DoNotOptimize(r.optimal);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Completion_Check)->RangeMultiplier(2)->Range(16, 2048)
    ->Complexity();

void BM_Completion_GreedyRepair(benchmark::State& state) {
  PreferredRepairProblem problem = bench::SizedProblem(
      S4(), state.range(0), JPolicy::kRandomRepair);
  ProblemContext ctx(*problem.instance, *problem.priority);
  ctx.set_parallelism(1);
  uint64_t seed = 1;
  for (auto _ : state) {
    Result<DynamicBitset> repair = TryConstructGloballyOptimalRepair(
        ctx, {TieBreak::kRandom, seed++});
    benchmark::DoNotOptimize(repair->count());
  }
}
BENCHMARK(BM_Completion_GreedyRepair)->RangeMultiplier(2)->Range(16, 1024);

}  // namespace
}  // namespace prefrep

BENCHMARK_MAIN();
